#include "arch/router.h"

#include <algorithm>
#include <cassert>
#include <initializer_list>

namespace pdw::arch {

namespace {

/// Advances a stamp; on wrap-around, clears the arrays it marks so that no
/// stale entry can match the restarted count.
std::uint32_t nextStamp(std::uint32_t& stamp,
                        std::initializer_list<std::vector<std::uint32_t>*>
                            marks) {
  if (++stamp == 0) {
    for (std::vector<std::uint32_t>* m : marks)
      std::fill(m->begin(), m->end(), 0u);
    stamp = 1;
  }
  return stamp;
}

}  // namespace

Router::Router(const ChipLayout& chip) : chip_(&chip) {
  const std::size_t cells = static_cast<std::size_t>(chip.width()) *
                            static_cast<std::size_t>(chip.height());
  scratch_.visited.assign(cells, 0u);
  scratch_.endpoint.assign(cells, 0u);
  scratch_.parent.resize(cells);
  scratch_.depth.resize(cells);
  scratch_.queue.resize(cells);
  scratch_.seen.assign(cells, 0u);
  scratch_.seen_at.resize(cells);
}

void Router::search(Cell from, std::span<const Cell> targets,
                    const CellSet* blocked, bool nearest_only) const {
  Scratch& s = scratch_;
  const std::uint32_t stamp =
      nextStamp(s.search_stamp, {&s.visited, &s.endpoint});
  if (!chip_->contains(from)) return;  // reaches nothing

  // Out-of-grid targets are unreachable; duplicates count once.
  int pending = 0;
  for (const Cell& t : targets) {
    if (!chip_->contains(t)) continue;
    const int i = chip_->cellIndex(t);
    if (s.endpoint[i] == stamp) continue;
    s.endpoint[i] = stamp;
    ++pending;
  }

  const int source = chip_->cellIndex(from);
  s.visited[source] = stamp;
  s.parent[source] = source;
  s.depth[source] = 0;
  int nearest = -1;  // depth of the first target reached
  if (s.endpoint[source] == stamp) {
    nearest = 0;
    --pending;
  }

  std::size_t head = 0;
  std::size_t tail = 0;
  s.queue[tail++] = source;
  while (pending > 0 && head < tail) {
    const int current = s.queue[head++];
    // Every cell at depth `nearest` is reached before the first of them
    // leaves the queue.
    if (nearest_only && nearest >= 0 && s.depth[current] >= nearest) return;
    const Cell c = cellOf(current);
    const Cell neighbours[4] = {
        {c.x - 1, c.y}, {c.x + 1, c.y}, {c.x, c.y - 1}, {c.x, c.y + 1}};
    for (const Cell& n : neighbours) {
      if (!chip_->contains(n)) continue;
      const int next = chip_->cellIndex(n);
      if (s.visited[next] == stamp) continue;
      const bool is_endpoint = s.endpoint[next] == stamp;
      // Ports only terminate paths; blocked cells are avoided.
      const bool closed =
          chip_->isPortCell(n) || (blocked && blocked->contains(n));
      if (closed && !is_endpoint) continue;
      s.visited[next] = stamp;
      s.parent[next] = current;
      s.depth[next] = s.depth[current] + 1;
      if (is_endpoint) {
        if (nearest < 0) nearest = s.depth[next];
        if (--pending == 0) return;
        // A closed endpoint is reached but not routed through: a search
        // for any other target could not enter it.
        if (closed) continue;
      }
      s.queue[tail++] = next;
    }
  }
}

bool Router::reached(Cell c) const {
  return chip_->contains(c) &&
         scratch_.visited[chip_->cellIndex(c)] == scratch_.search_stamp;
}

void Router::appendLeg(Cell target, std::vector<Cell>& cells) const {
  int i = chip_->cellIndex(target);
  const std::size_t first = cells.size();
  cells.resize(first + static_cast<std::size_t>(scratch_.depth[i]));
  for (std::size_t k = cells.size(); k > first; --k) {
    cells[k - 1] = cellOf(i);
    i = scratch_.parent[i];
  }
}

std::optional<FlowPath> Router::route(Cell from, Cell to,
                                      const CellSet* blocked) const {
  search(from, std::span<const Cell>(&to, 1), blocked,
         /*nearest_only=*/false);
  if (!reached(to)) return std::nullopt;
  std::vector<Cell> cells{from};
  appendLeg(to, cells);
  return FlowPath(std::move(cells));
}

std::optional<int> Router::distance(Cell from, Cell to,
                                    const CellSet* blocked) const {
  search(from, std::span<const Cell>(&to, 1), blocked,
         /*nearest_only=*/false);
  if (!reached(to)) return std::nullopt;
  return scratch_.depth[chip_->cellIndex(to)];
}

std::optional<std::vector<Cell>> Router::chain(Cell from,
                                               std::vector<Cell> waypoints,
                                               const CellSet* blocked) const {
  // Greedy nearest-waypoint chaining: repeatedly extend the path to the
  // closest unvisited waypoint (the first in order on ties). One search per
  // leg reaches every remaining waypoint at once.
  waypoints.erase(std::remove(waypoints.begin(), waypoints.end(), from),
                  waypoints.end());
  std::vector<Cell> cells{from};
  Cell current = from;
  while (!waypoints.empty()) {
    search(current, waypoints, blocked, /*nearest_only=*/true);
    std::size_t best = waypoints.size();
    for (std::size_t i = 0; i < waypoints.size(); ++i) {
      if (!reached(waypoints[i])) continue;
      if (best == waypoints.size() ||
          scratch_.depth[chip_->cellIndex(waypoints[i])] <
              scratch_.depth[chip_->cellIndex(waypoints[best])])
        best = i;
    }
    if (best == waypoints.size()) return std::nullopt;  // unreachable
    appendLeg(waypoints[best], cells);
    current = waypoints[best];
    waypoints.erase(waypoints.begin() + static_cast<std::ptrdiff_t>(best));
  }
  return cells;
}

std::optional<FlowPath> Router::routeVia(Cell from, std::vector<Cell> waypoints,
                                         Cell to,
                                         const CellSet* blocked) const {
  // Waypoints equal to an endpoint are covered by construction.
  waypoints.erase(std::remove(waypoints.begin(), waypoints.end(), to),
                  waypoints.end());
  std::optional<std::vector<Cell>> cells =
      chain(from, std::move(waypoints), blocked);
  if (!cells) return std::nullopt;
  search(cells->back(), std::span<const Cell>(&to, 1), blocked,
         /*nearest_only=*/false);
  if (!reached(to)) return std::nullopt;
  appendLeg(to, *cells);
  eraseLoops(*cells);
  return FlowPath(std::move(*cells));
}

std::vector<std::optional<FlowPath>> Router::routeViaEach(
    Cell from, const std::vector<Cell>& waypoints,
    const std::vector<Cell>& sinks, const CellSet* blocked) const {
  std::vector<std::optional<FlowPath>> paths(sinks.size());
  const auto isWaypoint = [&](Cell c) {
    return std::find(waypoints.begin(), waypoints.end(), c) != waypoints.end();
  };
  if (!std::all_of(sinks.begin(), sinks.end(), isWaypoint)) {
    if (const std::optional<std::vector<Cell>> shared =
            chain(from, waypoints, blocked)) {
      search(shared->back(), sinks, blocked, /*nearest_only=*/false);
      for (std::size_t i = 0; i < sinks.size(); ++i) {
        if (isWaypoint(sinks[i]) || !reached(sinks[i])) continue;
        std::vector<Cell> cells = *shared;
        appendLeg(sinks[i], cells);
        eraseLoops(cells);
        paths[i] = FlowPath(std::move(cells));
      }
    }
  }
  // routeVia searches again, so these run after the shared tails are read.
  for (std::size_t i = 0; i < sinks.size(); ++i)
    if (isWaypoint(sinks[i]))
      paths[i] = routeVia(from, waypoints, sinks[i], blocked);
  return paths;
}

void Router::eraseLoops(std::vector<Cell>& cells) const {
  // Loop erasure: remove revisit cycles (cells between two visits of the
  // same cell) as long as no waypoint coverage is lost. Keeps the physical
  // path simple whenever the greedy chain backtracked.
  Scratch& s = scratch_;
  bool changed = true;
  while (changed) {
    changed = false;
    const std::uint32_t stamp = nextStamp(s.scan_stamp, {&s.seen});
    for (std::size_t i = 0; i < cells.size(); ++i) {
      assert(chip_->contains(cells[i]));
      const int c = chip_->cellIndex(cells[i]);
      if (s.seen[c] == stamp) {
        // Candidate loop (last visit, i]. Erase it when every interior cell
        // also appears outside it: the cells a leg ended on (the former
        // waypoints) then survive, so coverage is kept.
        const std::size_t begin = s.seen_at[c] + 1;
        const std::size_t end = i + 1;  // exclusive
        bool safe = true;
        for (std::size_t k = begin; k + 1 < end && safe; ++k) {
          bool appears_elsewhere = false;
          for (std::size_t m = 0; m < cells.size() && !appears_elsewhere; ++m)
            if ((m < begin || m >= end) && cells[m] == cells[k])
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
      s.seen[c] = stamp;
      s.seen_at[c] = i;
    }
  }
}

}  // namespace pdw::arch
