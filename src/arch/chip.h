// ChipLayout: the virtual grid R with devices, flow ports and waste ports.
//
// Matches the paper's architecture model (§III): devices and channels are
// placed on the cells of a W_G x H_G grid; flow ports inject
// reagents/buffer, waste ports release waste fluids and displaced air. Any
// non-device cell can carry a channel segment; a concrete chip's channel
// network is the union of all flow paths routed on it.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "arch/cell.h"
#include "arch/device.h"

namespace pdw::arch {

/// Index of a port within its ChipLayout (flow and waste ports share the id
/// space so tasks can reference either uniformly).
using PortId = int;

struct Port {
  PortId id = -1;
  std::string name;
  Cell cell;
  bool is_waste = false;
};

class ChipLayout {
 public:
  ChipLayout(int width, int height, double pitch_mm = 3.0);

  int width() const { return width_; }
  int height() const { return height_; }
  /// Physical channel pitch: length of one grid edge in millimetres.
  double pitchMm() const { return pitch_mm_; }

  bool contains(Cell c) const {
    return c.x >= 0 && c.y >= 0 && c.x < width_ && c.y < height_;
  }
  /// Row-major index y * width + x of an in-grid cell.
  int cellIndex(Cell c) const { return c.y * width_ + c.x; }

  /// 4-neighbourhood of `c`, clipped to the grid.
  std::vector<Cell> neighbors(Cell c) const;

  // ---- devices ----------------------------------------------------------
  DeviceId addDevice(DeviceKind kind, Cell cell, std::string name = {});
  const Device& device(DeviceId id) const {
    return devices_[static_cast<std::size_t>(id)];
  }
  const std::vector<Device>& devices() const { return devices_; }
  /// Device occupying `c`, if any (O(1): a per-cell index).
  std::optional<DeviceId> deviceAt(Cell c) const;
  /// All devices of a kind.
  std::vector<DeviceId> devicesOfKind(DeviceKind kind) const;

  // ---- ports -------------------------------------------------------------
  PortId addFlowPort(Cell cell, std::string name = {});
  PortId addWastePort(Cell cell, std::string name = {});
  const Port& port(PortId id) const {
    return ports_[static_cast<std::size_t>(id)];
  }
  const std::vector<Port>& ports() const { return ports_; }
  std::vector<PortId> flowPorts() const;
  std::vector<PortId> wastePorts() const;
  /// Port on `c`, if any (O(1): a per-cell index).
  std::optional<PortId> portAt(Cell c) const;

  /// Cells occupied by devices or ports (not routable "through" freely —
  /// ports terminate paths, devices are traversable; see Router).
  bool isPortCell(Cell c) const {
    return contains(c) && port_at_[cellIndex(c)] >= 0;
  }
  bool isDeviceCell(Cell c) const {
    return contains(c) && device_at_[cellIndex(c)] >= 0;
  }

  /// An empty CellSet dimensioned for this grid.
  CellSet makeCellSet() const { return CellSet(width_, height_); }

  /// ASCII rendering for debugging/examples: '.' empty, 'M/H/D/F/S' devices,
  /// 'i' flow port, 'o' waste port.
  std::string render() const;

 private:
  PortId pushPort(Port p);

  int width_;
  int height_;
  double pitch_mm_;
  std::vector<Device> devices_;
  std::vector<Port> ports_;
  /// Per-cell lookups, row-major (cellIndex): the lowest-id port / device
  /// on each cell, or -1. Kept by the add* calls.
  std::vector<PortId> port_at_;
  std::vector<DeviceId> device_at_;
};

}  // namespace pdw::arch
