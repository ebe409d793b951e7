#include "reference_router.h"

#include <algorithm>
#include <deque>
#include <map>
#include <set>

namespace pdw::arch::reference {

bool ReferenceRouter::isPort(Cell c) const {
  for (const Port& p : chip_->ports())
    if (p.cell == c) return true;
  return false;
}

bool ReferenceRouter::traversable(Cell c, Cell from, Cell to,
                                  const CellSet* blocked) const {
  if (!chip_->contains(c)) return false;
  if (c == from || c == to) return true;
  if (isPort(c)) return false;  // ports only terminate paths
  if (blocked && blocked->contains(c)) return false;
  return true;
}

std::optional<FlowPath> ReferenceRouter::route(Cell from, Cell to,
                                               const CellSet* blocked) const {
  if (!chip_->contains(from) || !chip_->contains(to)) return std::nullopt;
  if (from == to) return FlowPath({from});

  // BFS with parent tracking; deterministic neighbour order.
  std::map<Cell, Cell> parent;
  std::deque<Cell> queue;
  queue.push_back(from);
  parent[from] = from;
  while (!queue.empty()) {
    const Cell current = queue.front();
    queue.pop_front();
    const Cell candidates[4] = {{current.x - 1, current.y},
                                {current.x + 1, current.y},
                                {current.x, current.y - 1},
                                {current.x, current.y + 1}};
    std::vector<Cell> neighbors;
    for (const Cell& n : candidates)
      if (chip_->contains(n)) neighbors.push_back(n);
    for (const Cell& next : neighbors) {
      if (parent.count(next)) continue;
      if (!traversable(next, from, to, blocked)) continue;
      parent[next] = current;
      if (next == to) {
        std::vector<Cell> cells;
        for (Cell c = to; c != from; c = parent[c]) cells.push_back(c);
        cells.push_back(from);
        std::reverse(cells.begin(), cells.end());
        return FlowPath(std::move(cells));
      }
      queue.push_back(next);
    }
  }
  return std::nullopt;
}

std::optional<int> ReferenceRouter::distance(Cell from, Cell to,
                                             const CellSet* blocked) const {
  const auto path = route(from, to, blocked);
  if (!path) return std::nullopt;
  return static_cast<int>(path->size()) - 1;
}

std::optional<FlowPath> ReferenceRouter::routeVia(
    Cell from, std::vector<Cell> waypoints, Cell to,
    const CellSet* blocked) const {
  // Greedy nearest-waypoint chaining: repeatedly extend the path to the
  // closest unvisited waypoint, then to the sink.
  std::vector<Cell> cells{from};
  Cell current = from;

  // Drop waypoints equal to endpoints; they are covered by construction.
  waypoints.erase(std::remove_if(waypoints.begin(), waypoints.end(),
                                 [&](Cell c) { return c == from || c == to; }),
                  waypoints.end());

  while (!waypoints.empty()) {
    std::optional<FlowPath> best;
    std::size_t best_index = 0;
    for (std::size_t i = 0; i < waypoints.size(); ++i) {
      auto leg = route(current, waypoints[i], blocked);
      if (!leg) continue;
      if (!best || leg->size() < best->size()) {
        best = std::move(leg);
        best_index = i;
      }
    }
    if (!best) return std::nullopt;  // some waypoint unreachable
    cells.insert(cells.end(), best->cells().begin() + 1, best->cells().end());
    current = waypoints[best_index];
    waypoints.erase(waypoints.begin() +
                    static_cast<std::ptrdiff_t>(best_index));
  }

  auto tail = route(current, to, blocked);
  if (!tail) return std::nullopt;
  cells.insert(cells.end(), tail->cells().begin() + 1, tail->cells().end());

  // Loop erasure: remove revisit cycles as long as no waypoint coverage is
  // lost (a loop is erased when every interior cell appears outside it).
  bool changed = true;
  while (changed) {
    changed = false;
    std::map<Cell, std::size_t> last_seen;
    for (std::size_t i = 0; i < cells.size(); ++i) {
      auto it = last_seen.find(cells[i]);
      if (it != last_seen.end()) {
        const std::size_t begin = it->second + 1;
        const std::size_t end = i + 1;  // exclusive
        bool safe = true;
        for (std::size_t k = begin; k + 1 < end && safe; ++k) {
          const Cell c = cells[k];
          bool appears_elsewhere = false;
          for (std::size_t m = 0; m < cells.size() && !appears_elsewhere; ++m)
            if ((m < begin || m >= end) && cells[m] == c)
              appears_elsewhere = true;
          if (!appears_elsewhere) safe = false;
        }
        if (safe) {
          cells.erase(cells.begin() + static_cast<std::ptrdiff_t>(begin),
                      cells.begin() + static_cast<std::ptrdiff_t>(end));
          changed = true;
          break;
        }
      }
      last_seen[cells[i]] = i;
    }
  }

  return FlowPath(std::move(cells));
}

std::optional<FlowPath> routeWashPathHeuristic(
    const ChipLayout& chip, const std::vector<Cell>& targets,
    const std::vector<Cell>& avoid_cells) {
  if (targets.empty()) return std::nullopt;
  ReferenceRouter router(chip);

  // Pass 1 blocks foreign devices, pass 2 admits them; avoided cells stay
  // excluded on both.
  const std::set<Cell> target_set(targets.begin(), targets.end());
  CellSet foreign_devices = chip.makeCellSet();
  for (const Device& d : chip.devices())
    if (!target_set.count(d.cell)) foreign_devices.insert(d.cell);
  CellSet no_blockage = chip.makeCellSet();
  for (const Cell& c : avoid_cells) {
    foreign_devices.insert(c);
    no_blockage.insert(c);
  }

  const std::set<Cell> avoid_set(avoid_cells.begin(), avoid_cells.end());
  for (const Cell& t : targets)
    if (avoid_set.count(t)) return std::nullopt;

  const CellSet* blockages[2] = {&foreign_devices, &no_blockage};
  for (const CellSet* blocked : blockages) {
    std::optional<FlowPath> best;
    for (PortId fp : chip.flowPorts()) {
      if (avoid_set.count(chip.port(fp).cell)) continue;
      for (PortId wp : chip.wastePorts()) {
        if (avoid_set.count(chip.port(wp).cell)) continue;
        const auto path = router.routeVia(chip.port(fp).cell, targets,
                                          chip.port(wp).cell, blocked);
        if (!path) continue;
        if (!best || path->size() < best->size()) best = path;
      }
    }
    if (best) return best;
  }
  return std::nullopt;
}

}  // namespace pdw::arch::reference
