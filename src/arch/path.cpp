#include "arch/path.h"

#include <algorithm>
#include <set>

namespace pdw::arch {

FlowPath::FlowPath(std::vector<Cell> cells) : cells_(std::move(cells)) {}

bool FlowPath::isConnected() const {
  for (std::size_t i = 1; i < cells_.size(); ++i)
    if (!adjacent(cells_[i - 1], cells_[i])) return false;
  return true;
}

bool FlowPath::isSimpleConnected() const {
  if (!isConnected()) return false;
  std::set<Cell> seen(cells_.begin(), cells_.end());
  return seen.size() == cells_.size();
}

bool FlowPath::contains(Cell c) const {
  return std::find(cells_.begin(), cells_.end(), c) != cells_.end();
}

bool FlowPath::overlaps(const FlowPath& other) const {
  // Quadratic scan is fine: paths are tens of cells.
  return std::find_first_of(cells_.begin(), cells_.end(),
                            other.cells_.begin(),
                            other.cells_.end()) != cells_.end();
}

bool FlowPath::covers(const FlowPath& other) const {
  return coversAll(other.cells_);
}

bool FlowPath::coversAll(const std::vector<Cell>& cells) const {
  std::set<Cell> mine(cells_.begin(), cells_.end());
  for (const Cell& c : cells)
    if (!mine.count(c)) return false;
  return true;
}

double FlowPath::lengthMm(double pitch_mm) const {
  if (cells_.size() < 2) return 0.0;
  return static_cast<double>(cells_.size() - 1) * pitch_mm;
}

std::string FlowPath::toString(const ChipLayout* chip) const {
  std::string out;
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    if (i > 0) out += " -> ";
    bool named = false;
    if (chip) {
      if (auto p = chip->portAt(cells_[i])) {
        out += chip->port(*p).name;
        named = true;
      } else if (auto d = chip->deviceAt(cells_[i])) {
        out += chip->device(*d).name;
        named = true;
      }
    }
    if (!named) out += arch::toString(cells_[i]);
  }
  return out;
}

}  // namespace pdw::arch
