// FlowPath: an ordered, connected sequence of grid cells from a source to a
// sink — the unit of fluid movement on the chip. Transportation tasks,
// excess/waste removal tasks and wash operations all carry a FlowPath
// (Table I of the paper lists these paths explicitly).
#pragma once

#include <string>
#include <vector>

#include "arch/cell.h"
#include "arch/chip.h"

namespace pdw::arch {

class FlowPath {
 public:
  FlowPath() = default;
  /// Cells in traversal order, source first. Consecutive cells must be
  /// 4-adjacent (checked by isConnected / validate in tests).
  explicit FlowPath(std::vector<Cell> cells);

  const std::vector<Cell>& cells() const { return cells_; }
  bool empty() const { return cells_.empty(); }
  std::size_t size() const { return cells_.size(); }
  Cell front() const { return cells_.front(); }
  Cell back() const { return cells_.back(); }

  /// True if consecutive cells are all 4-adjacent (no teleports) and no cell
  /// repeats (a physical flow path is simple).
  bool isSimpleConnected() const;

  /// True if consecutive cells are adjacent (repeats allowed).
  bool isConnected() const;

  bool contains(Cell c) const;

  /// True if the two paths share at least one cell (paper's
  /// `l_a ∩ l_b ≠ ∅` conflict predicate, eqs. 8/19/20).
  bool overlaps(const FlowPath& other) const;

  /// True if every cell of `other` is on this path (paper eq. 21's
  /// `l_removal ⊆ l_wash` integration predicate).
  bool covers(const FlowPath& other) const;

  /// True if every cell in `cells` is on this path.
  bool coversAll(const std::vector<Cell>& cells) const;

  /// Channel length in millimetres: (#edges) * pitch.
  double lengthMm(double pitch_mm) const;

  /// "in1 -> (2,3) -> ..." style rendering; device/port names are resolved
  /// against the layout when provided.
  std::string toString(const ChipLayout* chip = nullptr) const;

 private:
  std::vector<Cell> cells_;
};

}  // namespace pdw::arch
