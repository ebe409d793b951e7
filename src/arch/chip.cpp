#include "arch/chip.h"

#include <cassert>

#include "util/strings.h"

namespace pdw::arch {

const char* toString(DeviceKind kind) {
  switch (kind) {
    case DeviceKind::Mixer: return "mixer";
    case DeviceKind::Heater: return "heater";
    case DeviceKind::Detector: return "detector";
    case DeviceKind::Filter: return "filter";
    case DeviceKind::Storage: return "storage";
  }
  return "?";
}

int totalDevices(const DeviceLibrary& library) {
  int total = 0;
  for (const DeviceSpec& spec : library) total += spec.count;
  return total;
}

ChipLayout::ChipLayout(int width, int height, double pitch_mm)
    : width_(width),
      height_(height),
      pitch_mm_(pitch_mm),
      port_at_(static_cast<std::size_t>(width * height), -1),
      device_at_(port_at_.size(), -1) {
  assert(width > 0 && height > 0 && pitch_mm > 0);
}

std::vector<Cell> ChipLayout::neighbors(Cell c) const {
  std::vector<Cell> out;
  out.reserve(4);
  const Cell candidates[4] = {{c.x - 1, c.y}, {c.x + 1, c.y},
                              {c.x, c.y - 1}, {c.x, c.y + 1}};
  for (const Cell& n : candidates)
    if (contains(n)) out.push_back(n);
  return out;
}

DeviceId ChipLayout::addDevice(DeviceKind kind, Cell cell, std::string name) {
  assert(contains(cell));
  assert(!deviceAt(cell).has_value() && !portAt(cell).has_value());
  Device d;
  d.id = static_cast<DeviceId>(devices_.size());
  d.kind = kind;
  d.cell = cell;
  d.name = name.empty()
               ? util::format("%s%d", toString(kind), d.id)
               : std::move(name);
  DeviceId& slot = device_at_[cellIndex(cell)];
  if (slot < 0) slot = d.id;
  devices_.push_back(std::move(d));
  return devices_.back().id;
}

std::optional<DeviceId> ChipLayout::deviceAt(Cell c) const {
  if (!isDeviceCell(c)) return std::nullopt;
  return device_at_[cellIndex(c)];
}

std::vector<DeviceId> ChipLayout::devicesOfKind(DeviceKind kind) const {
  std::vector<DeviceId> out;
  for (const Device& d : devices_)
    if (d.kind == kind) out.push_back(d.id);
  return out;
}

PortId ChipLayout::addFlowPort(Cell cell, std::string name) {
  assert(contains(cell));
  assert(!deviceAt(cell).has_value() && !portAt(cell).has_value());
  Port p;
  p.id = static_cast<PortId>(ports_.size());
  p.cell = cell;
  p.is_waste = false;
  p.name = name.empty() ? util::format("in%d", p.id) : std::move(name);
  return pushPort(std::move(p));
}

PortId ChipLayout::addWastePort(Cell cell, std::string name) {
  assert(contains(cell));
  assert(!deviceAt(cell).has_value() && !portAt(cell).has_value());
  Port p;
  p.id = static_cast<PortId>(ports_.size());
  p.cell = cell;
  p.is_waste = true;
  p.name = name.empty() ? util::format("out%d", p.id) : std::move(name);
  return pushPort(std::move(p));
}

PortId ChipLayout::pushPort(Port p) {
  PortId& slot = port_at_[cellIndex(p.cell)];
  if (slot < 0) slot = p.id;
  ports_.push_back(std::move(p));
  return ports_.back().id;
}

std::vector<PortId> ChipLayout::flowPorts() const {
  std::vector<PortId> out;
  for (const Port& p : ports_)
    if (!p.is_waste) out.push_back(p.id);
  return out;
}

std::vector<PortId> ChipLayout::wastePorts() const {
  std::vector<PortId> out;
  for (const Port& p : ports_)
    if (p.is_waste) out.push_back(p.id);
  return out;
}

std::optional<PortId> ChipLayout::portAt(Cell c) const {
  if (!isPortCell(c)) return std::nullopt;
  return port_at_[cellIndex(c)];
}

std::string ChipLayout::render() const {
  std::string out;
  out.reserve(static_cast<std::size_t>((width_ + 1) * height_));
  for (int y = 0; y < height_; ++y) {
    for (int x = 0; x < width_; ++x) {
      const Cell c{x, y};
      char glyph = '.';
      if (auto d = deviceAt(c)) {
        switch (device(*d).kind) {
          case DeviceKind::Mixer: glyph = 'M'; break;
          case DeviceKind::Heater: glyph = 'H'; break;
          case DeviceKind::Detector: glyph = 'D'; break;
          case DeviceKind::Filter: glyph = 'F'; break;
          case DeviceKind::Storage: glyph = 'S'; break;
        }
      } else if (auto p = portAt(c)) {
        glyph = port(*p).is_waste ? 'o' : 'i';
      }
      out.push_back(glyph);
    }
    out.push_back('\n');
  }
  return out;
}

}  // namespace pdw::arch
