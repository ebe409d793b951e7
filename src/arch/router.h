// Grid router: BFS shortest paths on the chip's virtual grid.
//
// Used by the synthesis substrate to build transport/removal flow paths and
// by the DAWO baseline's wash-path heuristic (the paper describes DAWO as
// employing "the breadth-first-search algorithm ... to compute wash paths").
// Routing rules:
//   * device cells are traversable (fluids flow through devices),
//   * port cells terminate paths — they are never interior cells,
//   * cells in the caller's blocked set are avoided.
// A route's own endpoints are exempt from the last two rules. Neighbours are
// expanded in the order x-1, x+1, y-1, y+1, which fixes every tie-break.
//
// Searches run on row-major cell indices over flat per-cell arrays (parents,
// depths, stamped visit marks) and an index FIFO, all owned by the Router
// and reused across calls (DESIGN.md §16). A Router is therefore not safe to
// share between threads, even through its const methods: every thread (and
// every call site) builds its own.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "arch/chip.h"
#include "arch/path.h"

namespace pdw::arch {

class Router {
 public:
  explicit Router(const ChipLayout& chip);

  /// Shortest path from `from` to `to` (both inclusive). Returns nullopt if
  /// unreachable. `blocked` cells are avoided (endpoints exempt).
  std::optional<FlowPath> route(Cell from, Cell to,
                                const CellSet* blocked = nullptr) const;

  /// Route a path visiting all `waypoints` (in greedy nearest-first order)
  /// between `from` and `to`. The result is connected and covers every
  /// waypoint; it is made simple (loop-free) when possible by erasing
  /// revisit loops that do not drop waypoint coverage.
  std::optional<FlowPath> routeVia(Cell from, std::vector<Cell> waypoints,
                                   Cell to,
                                   const CellSet* blocked = nullptr) const;

  /// Distance in grid edges, or nullopt if unreachable.
  std::optional<int> distance(Cell from, Cell to,
                              const CellSet* blocked = nullptr) const;

  /// routeVia(from, waypoints, sinks[i], blocked) for every sink. The greedy
  /// waypoint chain is built once and one search routes its end to every
  /// sink: a sink that is a port or a blocked cell is reached but never
  /// routed through. With no waypoints, element i is route(from, sinks[i]).
  /// A sink that is itself a waypoint drops that waypoint from its own
  /// chain, so it gets a routeVia of its own.
  std::vector<std::optional<FlowPath>> routeViaEach(
      Cell from, const std::vector<Cell>& waypoints,
      const std::vector<Cell>& sinks,
      const CellSet* blocked = nullptr) const;

 private:
  /// Flat per-cell working arrays, indexed like ChipLayout::cellIndex. An
  /// entry is live only while its stamp equals the current one, so starting
  /// a search or a loop-erasure scan clears nothing.
  struct Scratch {
    std::vector<std::uint32_t> visited;   ///< search stamp: cell reached
    std::vector<std::uint32_t> endpoint;  ///< search stamp: cell is a target
    std::vector<int> parent;              ///< predecessor of a reached cell
    std::vector<int> depth;               ///< edges from the source
    std::vector<int> queue;               ///< BFS FIFO of cell indices
    std::vector<std::uint32_t> seen;      ///< scan stamp: cell seen
    std::vector<std::size_t> seen_at;     ///< its last position in the scan
    std::uint32_t search_stamp = 0;
    std::uint32_t scan_stamp = 0;
  };

  /// BFS from `from` until every target is reached. With `nearest_only` it
  /// stops once the depth of the nearest target is complete. Reached
  /// targets keep the parent a single-target route() gives them.
  void search(Cell from, std::span<const Cell> targets,
              const CellSet* blocked, bool nearest_only) const;
  /// True if the last search reached `c`.
  bool reached(Cell c) const;
  /// Appends the last search's path to a reached `target`, without its
  /// source, to `cells`.
  void appendLeg(Cell target, std::vector<Cell>& cells) const;
  /// `from` followed by routeVia's greedy legs to every waypoint (those
  /// equal to `from` dropped); nullopt if a waypoint is unreachable.
  std::optional<std::vector<Cell>> chain(Cell from,
                                         std::vector<Cell> waypoints,
                                         const CellSet* blocked) const;
  /// routeVia's loop erasure, in place.
  void eraseLoops(std::vector<Cell>& cells) const;

  Cell cellOf(int i) const {
    return Cell{i % chip_->width(), i / chip_->width()};
  }

  const ChipLayout* chip_;
  mutable Scratch scratch_;
};

}  // namespace pdw::arch
