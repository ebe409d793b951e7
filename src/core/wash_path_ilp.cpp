#include "core/wash_path_ilp.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <functional>
#include <limits>
#include <map>
#include <queue>
#include <set>
#include <utility>

#include "arch/router.h"
#include "ilp/lp_backend.h"
#include "ilp/solver.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace pdw::core {

namespace {

using arch::Cell;
using arch::ChipLayout;
using arch::FlowPath;
using ilp::LinExpr;
using ilp::Model;
using ilp::VarId;

/// Candidate-region inflation around the targets' bounding box.
constexpr int kRegionInflate = 2;
/// Larger candidate regions run no ILP (H answers alone): the exact model
/// is reserved for the localized routing problems it is meant for.
constexpr int kMaxRegionCells = 140;

/// Candidate region: non-port, non-foreign-device cells inside the inflated
/// bounding box of targets and the listed port cells.
std::vector<Cell> buildRegion(const ChipLayout& chip,
                              const std::vector<Cell>& targets,
                              bool whole_grid,
                              const std::set<Cell>& avoid) {
  int min_x = chip.width(), min_y = chip.height(), max_x = -1, max_y = -1;
  const auto extend = [&](Cell c) {
    min_x = std::min(min_x, c.x);
    min_y = std::min(min_y, c.y);
    max_x = std::max(max_x, c.x);
    max_y = std::max(max_y, c.y);
  };
  for (const Cell& t : targets) extend(t);
  // Extend toward the two nearest flow ports and two nearest waste ports
  // only — extending by every port would always inflate the region to the
  // whole grid (ports line the boundary). Ports outside the region are
  // automatically unselectable (their adjacency constraint forces fp=0).
  const Cell center{(min_x + max_x) / 2, (min_y + max_y) / 2};
  const auto extendNearest = [&](const std::vector<arch::PortId>& ports) {
    std::vector<arch::PortId> sorted = ports;
    std::sort(sorted.begin(), sorted.end(),
              [&](arch::PortId a, arch::PortId b) {
                return arch::manhattan(chip.port(a).cell, center) <
                       arch::manhattan(chip.port(b).cell, center);
              });
    for (std::size_t i = 0; i < sorted.size() && i < 2; ++i)
      extend(chip.port(sorted[i]).cell);
  };
  extendNearest(chip.flowPorts());
  extendNearest(chip.wastePorts());
  if (whole_grid) {
    min_x = 0;
    min_y = 0;
    max_x = chip.width() - 1;
    max_y = chip.height() - 1;
  } else {
    min_x = std::max(0, min_x - kRegionInflate);
    min_y = std::max(0, min_y - kRegionInflate);
    max_x = std::min(chip.width() - 1, max_x + kRegionInflate);
    max_y = std::min(chip.height() - 1, max_y + kRegionInflate);
  }

  const std::set<Cell> target_set(targets.begin(), targets.end());
  std::vector<Cell> region;
  for (int y = min_y; y <= max_y; ++y)
    for (int x = min_x; x <= max_x; ++x) {
      const Cell c{x, y};
      if (chip.isPortCell(c)) continue;
      if (avoid.count(c)) continue;  // hard blockage, both passes
      // Foreign devices are avoided in the restricted pass; the whole-grid
      // retry admits them (the scheduler serializes washes against the
      // operations of any device they cross).
      if (!whole_grid && chip.isDeviceCell(c) && !target_set.count(c))
        continue;
      region.push_back(c);
    }
  return region;
}

struct PathModel {
  Model model;
  std::map<Cell, VarId> cell_var;
  std::map<Cell, VarId> flow_end;   // e^f: flow-side endpoint marker
  std::map<Cell, VarId> waste_end;  // e^w: waste-side endpoint marker
  std::vector<std::pair<arch::PortId, VarId>> flow_ports;
  std::vector<std::pair<arch::PortId, VarId>> waste_ports;
};

PathModel buildModel(const ChipLayout& chip, const std::vector<Cell>& region,
                     const std::vector<Cell>& targets,
                     const std::set<Cell>& avoid) {
  PathModel pm;
  Model& m = pm.model;
  const std::set<Cell> region_set(region.begin(), region.end());

  for (const Cell& c : region) {
    pm.cell_var[c] = m.addBinary("u" + arch::toString(c));
    pm.flow_end[c] = m.addBinary("ef" + arch::toString(c));
    pm.waste_end[c] = m.addBinary("ew" + arch::toString(c));
  }

  // Eq. 15: every target is covered (fixed to 1).
  for (const Cell& t : targets) m.setBounds(pm.cell_var.at(t), 1.0, 1.0);

  // Endpoint markers imply selection; exactly one of each.
  LinExpr sum_ef, sum_ew;
  for (const Cell& c : region) {
    m.addLessEqual(LinExpr(pm.flow_end[c]) - LinExpr(pm.cell_var[c]), 0.0);
    m.addLessEqual(LinExpr(pm.waste_end[c]) - LinExpr(pm.cell_var[c]), 0.0);
    sum_ef += LinExpr(pm.flow_end[c]);
    sum_ew += LinExpr(pm.waste_end[c]);
  }
  m.addEqual(sum_ef, 1.0, "one_flow_end");
  m.addEqual(sum_ew, 1.0, "one_waste_end");

  // Eq. 12: exactly one flow port and one waste port. A port whose own
  // cell is avoided is unusable (the assembled path traverses it), so it
  // gets no binary; if every port of a side is avoided the model is
  // infeasible and the operation is reported unroutable.
  LinExpr sum_fp, sum_wp;
  for (arch::PortId p : chip.flowPorts()) {
    if (avoid.count(chip.port(p).cell)) continue;
    const VarId v = m.addBinary("fp" + std::to_string(p));
    pm.flow_ports.emplace_back(p, v);
    sum_fp += LinExpr(v);
  }
  for (arch::PortId p : chip.wastePorts()) {
    if (avoid.count(chip.port(p).cell)) continue;
    const VarId v = m.addBinary("wp" + std::to_string(p));
    pm.waste_ports.emplace_back(p, v);
    sum_wp += LinExpr(v);
  }
  m.addEqual(sum_fp, 1.0, "one_flow_port");
  m.addEqual(sum_wp, 1.0, "one_waste_port");

  // Eq. 13: the chosen port has its endpoint in an adjacent region cell,
  // and an endpoint cell must neighbour the chosen port.
  const auto linkPorts =
      [&](const std::vector<std::pair<arch::PortId, VarId>>& ports,
          const std::map<Cell, VarId>& ends) {
        // endpoint -> some adjacent chosen port
        for (const Cell& c : region) {
          LinExpr adjacent_ports;
          for (const auto& [pid, pvar] : ports)
            if (arch::adjacent(chip.port(pid).cell, c))
              adjacent_ports += LinExpr(pvar);
          m.addLessEqual(LinExpr(ends.at(c)) - adjacent_ports, 0.0);
        }
        // chosen port -> some adjacent endpoint
        for (const auto& [pid, pvar] : ports) {
          LinExpr adjacent_ends;
          for (const Cell& n : chip.neighbors(chip.port(pid).cell))
            if (region_set.count(n)) adjacent_ends += LinExpr(ends.at(n));
          m.addLessEqual(LinExpr(pvar) - adjacent_ends, 0.0);
        }
      };
  linkPorts(pm.flow_ports, pm.flow_end);
  linkPorts(pm.waste_ports, pm.waste_end);

  // Eq. 14 (generalized to endpoints): a selected cell has exactly
  // 2 - e^f - e^w selected neighbours; unselected cells are unconstrained.
  for (const Cell& c : region) {
    LinExpr neighbors;
    for (const Cell& n : chip.neighbors(c))
      if (region_set.count(n)) neighbors += LinExpr(pm.cell_var.at(n));
    const LinExpr degree_req = 2.0 * LinExpr(pm.cell_var[c]) -
                               LinExpr(pm.flow_end[c]) -
                               LinExpr(pm.waste_end[c]);
    // neighbors >= degree_req - 2*(1-u): inactive when u=0.
    m.addGreaterEqual(
        neighbors - degree_req - 2.0 * LinExpr(pm.cell_var[c]), -2.0);
    // neighbors <= degree_req + 4*(1-u).
    m.addLessEqual(
        neighbors - degree_req + 4.0 * LinExpr(pm.cell_var[c]), 4.0);
  }

  // Objective: minimize path length (the beta * L_wash term of eq. 26).
  LinExpr objective;
  for (const Cell& c : region) objective += LinExpr(pm.cell_var[c]);
  m.setObjective(objective);
  return pm;
}

/// A selection split into the walk from the flow endpoint to the waste
/// endpoint and the cell sets connectivity cuts must break up (see
/// connectivityCutSets).
struct Selection {
  std::vector<Cell> path;
  std::vector<std::vector<Cell>> cut_sets;
};

Selection splitSelection(const ChipLayout& chip,
                         const std::set<Cell>& selected, Cell flow_cell,
                         Cell waste_cell) {
  // Walk from the flow endpoint along selected cells.
  Selection out;
  std::vector<Cell> ordered{flow_cell};
  std::set<Cell> visited{flow_cell};
  Cell current = flow_cell;
  while (current != waste_cell || ordered.size() == 1) {
    Cell next{-1, -1};
    for (const Cell& n : chip.neighbors(current))
      if (selected.count(n) && !visited.count(n)) {
        next = n;
        break;
      }
    if (next.x < 0) break;
    ordered.push_back(next);
    visited.insert(next);
    current = next;
    if (current == waste_cell) break;
  }
  if (current != waste_cell) {
    out.cut_sets.emplace_back(selected.begin(), selected.end());
    return out;
  }
  out.path = std::move(ordered);

  // Flood-fill every selected component the walk did not reach.
  for (const Cell& c : selected) {
    if (visited.count(c)) continue;
    std::vector<Cell> component{c};
    visited.insert(c);
    for (std::size_t i = 0; i < component.size(); ++i)
      for (const Cell& n : chip.neighbors(component[i]))
        if (selected.count(n) && !visited.count(n)) {
          visited.insert(n);
          component.push_back(n);
        }
    out.cut_sets.push_back(std::move(component));
  }
  return out;
}

/// The Selection of an integral point of the path model.
Selection splitPoint(const ChipLayout& chip, const PathModel& pm,
                     const std::vector<double>& point) {
  const auto chosen = [&point](VarId v) {
    return point[static_cast<std::size_t>(v)] > 0.5;
  };
  std::set<Cell> selected;
  Cell flow_cell{}, waste_cell{};
  for (const auto& [c, v] : pm.cell_var)
    if (chosen(v)) selected.insert(c);
  for (const auto& [c, v] : pm.flow_end)
    if (chosen(v)) flow_cell = c;
  for (const auto& [c, v] : pm.waste_end)
    if (chosen(v)) waste_cell = c;
  return splitSelection(chip, selected, flow_cell, waste_cell);
}

/// The connectivity cuts that reject `point`: sum_{c in C} u_c <= |C| - 1
/// for every cut set C of its Selection. Empty when the point is a single
/// path.
std::vector<ilp::LpBackend::CutRow> connectivityCuts(
    const ChipLayout& chip, const PathModel& pm,
    const std::vector<double>& point) {
  std::vector<ilp::LpBackend::CutRow> rows;
  for (const std::vector<Cell>& set : splitPoint(chip, pm, point).cut_sets) {
    ilp::LpBackend::CutRow row;
    for (const Cell& c : set) row.terms.emplace_back(pm.cell_var.at(c), 1.0);
    std::sort(row.terms.begin(), row.terms.end());
    row.rhs = static_cast<double>(set.size()) - 1.0;
    rows.push_back(std::move(row));
    PDW_TRACE_INSTANT("routing", "connectivity_cut");
  }
  return rows;
}

/// The flow path of a point the connectivity cuts accepted: chosen flow
/// port, the walk, chosen waste port.
FlowPath assemblePath(const ChipLayout& chip, const PathModel& pm,
                      const ilp::Solution& sol) {
  std::vector<Cell> cells;
  for (const auto& [pid, v] : pm.flow_ports)
    if (sol.boolValue(v)) cells.push_back(chip.port(pid).cell);
  const std::vector<Cell> walk = splitPoint(chip, pm, sol.values).path;
  cells.insert(cells.end(), walk.begin(), walk.end());
  for (const auto& [pid, v] : pm.waste_ports)
    if (sol.boolValue(v)) cells.push_back(chip.port(pid).cell);
  return FlowPath(std::move(cells));
}

/// The cell at row-major index `i` (the inverse of ChipLayout::cellIndex).
Cell cellAt(const ChipLayout& chip, int i) {
  return Cell{i % chip.width(), i / chip.width()};
}

/// Per cell index, the lowest-id usable port of each kind next to the cell,
/// or -1. A port whose own cell is blocked is unusable.
struct PortsNextTo {
  std::vector<arch::PortId> flow;
  std::vector<arch::PortId> waste;
};

PortsNextTo portsNextTo(const ChipLayout& chip, const std::set<Cell>& avoid) {
  const std::size_t n_cells =
      static_cast<std::size_t>(chip.width() * chip.height());
  PortsNextTo out{std::vector<arch::PortId>(n_cells, -1),
                  std::vector<arch::PortId>(n_cells, -1)};
  for (const arch::Port& p : chip.ports()) {
    if (avoid.count(p.cell)) continue;
    for (const Cell& n : chip.neighbors(p.cell)) {
      arch::PortId& next_to =
          (p.is_waste ? out.waste : out.flow)[chip.cellIndex(n)];
      if (next_to < 0) next_to = p.id;
    }
  }
  return out;
}

/// H, the simple-path heuristic of one routing pass: flow port -> every
/// target -> waste port over the pass's `cells`. Each leg is a BFS shortest
/// path from the current end that may not enter a placed cell nor touch
/// one (be its neighbour) other than the current end, so the path is
/// induced: it never touches itself, which makes it a feasible point of the
/// pass's eqs. 12-15 model. One build starts at a target, runs a leg from
/// it to the nearest cell next to a usable port of one kind, chains the
/// nearest uncovered target until every target is covered (a leg may cover
/// targets on its way), and ends with a leg to the nearest cell next to a
/// usable port of the other kind. Every target is tried as the start, flow
/// side first and then waste side first; the shortest build wins, the first
/// in that order on ties. Targets are taken in cell-index order and the BFS
/// expands neighbours as x-1, x+1, y-1, y+1, so H depends only on the chip,
/// the target set, the blocked cells and the pass. nullopt when no build
/// covers every target.
std::optional<FlowPath> simpleWashPath(const ChipLayout& chip,
                                       const std::vector<Cell>& targets,
                                       const std::vector<Cell>& cells,
                                       const PortsNextTo& ports) {
  const int width = chip.width();
  const int height = chip.height();
  const std::size_t n_cells = static_cast<std::size_t>(width * height);
  std::vector<char> open(n_cells, 0);
  for (const Cell& c : cells) open[chip.cellIndex(c)] = 1;
  std::vector<int> starts;
  for (const Cell& t : targets) {
    if (!chip.contains(t) || !open[chip.cellIndex(t)]) return std::nullopt;
    starts.push_back(chip.cellIndex(t));
  }
  std::sort(starts.begin(), starts.end());
  starts.erase(std::unique(starts.begin(), starts.end()), starts.end());
  std::vector<char> is_target(n_cells, 0);
  for (const int t : starts) is_target[t] = 1;

  std::vector<std::array<int, 4>> neighbours(n_cells);
  for (int i = 0; i < static_cast<int>(n_cells); ++i) {
    const int x = i % width;
    const int y = i / width;
    neighbours[i] = {x > 0 ? i - 1 : -1, x + 1 < width ? i + 1 : -1,
                     y > 0 ? i - width : -1, y + 1 < height ? i + width : -1};
  }

  // One build's state: placed cells, how many placed neighbours each cell
  // has, covered targets; BFS parents, visit stamps and queue are reused.
  std::vector<char> placed(n_cells), covered(n_cells);
  std::vector<int> placed_neighbours(n_cells), parent(n_cells);
  std::vector<int> seen(n_cells, 0), queue;
  queue.reserve(n_cells);
  int stamp = 0, uncovered = 0;
  const auto place = [&](int i) {
    placed[i] = 1;
    for (const int v : neighbours[i])
      if (v >= 0) ++placed_neighbours[v];
    if (is_target[i] && !covered[i]) {
      covered[i] = 1;
      --uncovered;
    }
  };
  // BFS from the placed cell `end` to the first cell `goal` accepts (`end`
  // itself included); -1 when there is none. A step from `end` may touch
  // `end` only; every later step touches no placed cell.
  const auto search = [&](int end, const auto& goal) {
    ++stamp;
    queue.assign(1, end);
    seen[end] = stamp;
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const int u = queue[head];
      if (goal(u)) return u;
      for (const int v : neighbours[u]) {
        if (v < 0 || seen[v] == stamp || !open[v] || placed[v] ||
            placed_neighbours[v] > (u == end ? 1 : 0))
          continue;
        seen[v] = stamp;
        parent[v] = u;
        queue.push_back(v);
      }
    }
    return -1;
  };
  // Place the leg `end` -> `to` that search() found; its cells after `end`,
  // in order, are appended to `out`.
  const auto placeLeg = [&](int end, int to, std::vector<int>& out) {
    const std::size_t first = out.size();
    for (int v = to; v != end; v = parent[v]) out.push_back(v);
    std::reverse(out.begin() + static_cast<std::ptrdiff_t>(first), out.end());
    for (std::size_t k = first; k < out.size(); ++k) place(out[k]);
  };

  std::optional<FlowPath> best;
  for (const bool flow_first : {true, false}) {
    const std::vector<arch::PortId>& begin_port =
        flow_first ? ports.flow : ports.waste;
    const std::vector<arch::PortId>& end_port =
        flow_first ? ports.waste : ports.flow;
    for (const int start : starts) {
      std::fill(placed.begin(), placed.end(), 0);
      std::fill(covered.begin(), covered.end(), 0);
      std::fill(placed_neighbours.begin(), placed_neighbours.end(), 0);
      uncovered = static_cast<int>(starts.size());
      place(start);
      std::vector<int> head, tail;  // start -> begin port side; start -> end
      const int begin =
          search(start, [&](int u) { return begin_port[u] >= 0; });
      if (begin < 0) continue;
      placeLeg(start, begin, head);
      int end = start;
      while (uncovered > 0) {
        const int next = search(end, [&](int u) {
          return is_target[u] && !covered[u];
        });
        if (next < 0) break;
        placeLeg(end, next, tail);
        end = next;
      }
      if (uncovered > 0) continue;
      const int last = search(end, [&](int u) { return end_port[u] >= 0; });
      if (last < 0) continue;
      placeLeg(end, last, tail);
      if (best && head.size() + tail.size() + 3 >= best->size()) continue;

      std::vector<Cell> path;
      path.reserve(head.size() + tail.size() + 3);
      path.push_back(chip.port(begin_port[begin]).cell);
      for (auto it = head.rbegin(); it != head.rend(); ++it)
        path.push_back(cellAt(chip, *it));
      path.push_back(cellAt(chip, start));
      for (const int i : tail) path.push_back(cellAt(chip, i));
      path.push_back(chip.port(end_port[last]).cell);
      if (!flow_first) std::reverse(path.begin(), path.end());
      best = FlowPath(std::move(path));
    }
  }
  return best;
}

/// One arc of the one-target flow network; arc a ^ 1 is its residual twin.
struct FlowArc {
  int to;
  int next;  ///< next arc out of the same node; -1 ends the list
  int cap;
  int cost;
};

/// The shortest simple flow port -> target -> waste port path whose other
/// cells all lie in `open` (one flag per cell index), or nullopt when there
/// is none. The two legs out of the target are vertex-disjoint, so the path
/// is one min-cost flow of two units out of the target on the node-split
/// cell graph (Suurballe & Tarjan, Networks 1984): every open cell is an
/// in -> out arc of capacity 1 and cost 1, neighbouring open cells are
/// joined out -> in, and the cells next to a usable flow (waste) port feed
/// a flow (waste) sink of capacity 1. `flow_port` and `waste_port` hold,
/// per cell index, the lowest-id usable port of that kind next to the
/// cell, or -1. Each unit is one Dijkstra search under potentials that pops
/// (distance, node) pairs, and node ids follow cell indices, so ties break
/// by cell index and every call returns the same cells.
std::optional<FlowPath> routeOneTarget(const ChipLayout& chip, Cell target,
                                       const std::vector<char>& open,
                                       const PortsNextTo& ports) {
  const std::vector<arch::PortId>& flow_port = ports.flow;
  const std::vector<arch::PortId>& waste_port = ports.waste;
  const int n_cells = chip.width() * chip.height();
  const auto in = [](int cell) { return 2 * cell; };
  const auto out = [](int cell) { return 2 * cell + 1; };
  const int flow_sink = 2 * n_cells;
  const int waste_sink = flow_sink + 1;
  const int sink = flow_sink + 2;
  const int n_nodes = sink + 1;
  const int target_cell = chip.cellIndex(target);
  const int source = out(target_cell);

  std::vector<int> head(n_nodes, -1);
  std::vector<FlowArc> arcs;
  const auto addArc = [&](int from, int to, int cost) {
    arcs.push_back({to, head[from], 1, cost});
    head[from] = static_cast<int>(arcs.size()) - 1;
    arcs.push_back({from, head[to], 0, -cost});
    head[to] = static_cast<int>(arcs.size()) - 1;
  };
  for (int i = 0; i < n_cells; ++i) {
    if (!open[i]) continue;
    // The target is the source; no arc enters it.
    if (i != target_cell) addArc(in(i), out(i), 1);
    for (const Cell& n : chip.neighbors(cellAt(chip, i))) {
      const int j = chip.cellIndex(n);
      if (j != target_cell && open[j]) addArc(out(i), in(j), 0);
    }
    if (flow_port[i] >= 0) addArc(out(i), flow_sink, 0);
    if (waste_port[i] >= 0) addArc(out(i), waste_sink, 0);
  }
  addArc(flow_sink, sink, 0);
  addArc(waste_sink, sink, 0);

  // Successive shortest paths, one unit each. The first search's distances
  // become potentials, which keep every residual reduced cost >= 0.
  constexpr int kUnreached = std::numeric_limits<int>::max();
  std::vector<int> potential(n_nodes, 0), dist(n_nodes), pred(n_nodes);
  using Entry = std::pair<int, int>;  // (distance, node)
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> queue;
  for (int unit = 0; unit < 2; ++unit) {
    std::fill(dist.begin(), dist.end(), kUnreached);
    dist[source] = 0;
    queue.push({0, source});
    while (!queue.empty()) {
      const auto [d, u] = queue.top();
      queue.pop();
      if (d != dist[u]) continue;
      for (int a = head[u]; a >= 0; a = arcs[a].next) {
        const FlowArc& arc = arcs[a];
        if (arc.cap == 0) continue;
        const int reduced = d + arc.cost + potential[u] - potential[arc.to];
        if (reduced < dist[arc.to]) {
          dist[arc.to] = reduced;
          pred[arc.to] = a;
          queue.push({reduced, arc.to});
        }
      }
    }
    if (dist[sink] == kUnreached) return std::nullopt;
    for (int v = 0; v < n_nodes; ++v)
      if (dist[v] != kUnreached) potential[v] += dist[v];
    for (int v = sink; v != source; v = arcs[pred[v] ^ 1].to) {
      --arcs[pred[v]].cap;
      ++arcs[pred[v] ^ 1].cap;
    }
  }

  // Read the two legs back. Flow leaves a node on a forward arc (even
  // index) whose unit capacity is used up.
  const auto usedArcFrom = [&](int node, int skip) {
    for (int a = head[node]; a >= 0; a = arcs[a].next)
      if (a % 2 == 0 && a != skip && arcs[a].cap == 0) return a;
    assert(false && "flow conservation: a used arc leaves every node");
    return -1;
  };
  std::vector<Cell> legs[2];  // cells after the target: to flow, to waste
  Cell port_cells[2];
  for (int leg = 0, arc = -1; leg < 2; ++leg) {
    arc = usedArcFrom(source, arc);
    std::vector<Cell> cells;
    int last = target_cell;
    int node = arcs[arc].to;
    while (node != flow_sink && node != waste_sink) {
      last = node / 2;
      cells.push_back(cellAt(chip, last));
      node = arcs[usedArcFrom(out(last), -1)].to;
    }
    const int side = node == flow_sink ? 0 : 1;
    legs[side] = std::move(cells);
    port_cells[side] =
        chip.port((side == 0 ? flow_port : waste_port)[last]).cell;
  }

  std::vector<Cell> path{port_cells[0]};
  path.insert(path.end(), legs[0].rbegin(), legs[0].rend());
  path.push_back(target);
  path.insert(path.end(), legs[1].begin(), legs[1].end());
  path.push_back(port_cells[1]);
  return FlowPath(std::move(path));
}

/// Route one target with routeOneTarget over the BFS heuristic's two cell
/// sets: the whole grid minus ports, blocked cells and foreign devices,
/// then the same with idle devices admitted. nullopt when neither pass has
/// a simple path (or the target is a port cell, which no path may cross).
std::optional<FlowPath> routeSingleTarget(const ChipLayout& chip, Cell target,
                                          const std::set<Cell>& avoid) {
  if (!chip.contains(target) || chip.isPortCell(target)) return std::nullopt;
  PDW_TRACE_SPAN("routing", "path_flow");
  const int n_cells = chip.width() * chip.height();
  const PortsNextTo ports = portsNextTo(chip, avoid);
  std::vector<char> open(n_cells);
  for (int i = 0; i < n_cells; ++i) {
    const Cell c = cellAt(chip, i);
    open[i] = !chip.isPortCell(c) && !avoid.count(c);
  }
  std::vector<char> no_foreign_devices = open;
  for (const arch::Device& d : chip.devices())
    if (d.cell != target) no_foreign_devices[chip.cellIndex(d.cell)] = 0;
  if (std::optional<FlowPath> path =
          routeOneTarget(chip, target, no_foreign_devices, ports))
    return path;
  return routeOneTarget(chip, target, open, ports);
}

/// The point `path` (from simpleWashPath over the model's cells) selects in
/// the pass model `pm`: its cells, endpoint markers and ports set to 1.
std::vector<double> pathPoint(const ChipLayout& chip, const PathModel& pm,
                              const FlowPath& path) {
  std::vector<double> point(static_cast<std::size_t>(pm.model.numVars()),
                            0.0);
  const auto set = [&point](VarId v) {
    point[static_cast<std::size_t>(v)] = 1.0;
  };
  const std::vector<Cell>& cells = path.cells();
  for (std::size_t i = 1; i + 1 < cells.size(); ++i)
    set(pm.cell_var.at(cells[i]));
  set(pm.flow_end.at(cells[1]));
  set(pm.waste_end.at(cells[cells.size() - 2]));
  for (const auto& [pid, v] : pm.flow_ports)
    if (chip.port(pid).cell == cells.front()) set(v);
  for (const auto& [pid, v] : pm.waste_ports)
    if (chip.port(pid).cell == cells.back()) set(v);
  return point;
}

}  // namespace

std::vector<std::vector<Cell>> connectivityCutSets(
    const ChipLayout& chip, const std::vector<Cell>& selected, Cell flow_end,
    Cell waste_end) {
  return splitSelection(chip, std::set<Cell>(selected.begin(), selected.end()),
                        flow_end, waste_end)
      .cut_sets;
}

WashPathPass washPathPass(const ChipLayout& chip,
                          const std::vector<Cell>& targets, bool whole_grid,
                          const std::vector<Cell>& avoid_cells) {
  const std::set<Cell> avoid(avoid_cells.begin(), avoid_cells.end());
  WashPathPass pass;
  pass.cells = buildRegion(chip, targets, whole_grid, avoid);
  pass.heuristic =
      simpleWashPath(chip, targets, pass.cells, portsNextTo(chip, avoid));
  PathModel pm = buildModel(chip, pass.cells, targets, avoid);
  if (pass.heuristic)
    pass.heuristic_point = pathPoint(chip, pm, *pass.heuristic);
  pass.model = std::move(pm.model);
  return pass;
}

std::optional<FlowPath> routeWashPathIlp(const ChipLayout& chip,
                                         const std::vector<Cell>& targets,
                                         const WashPathOptions& options,
                                         WashPathStats* stats) {
  WashPathStats local;
  WashPathStats& s = stats ? *stats : local;
  if (targets.empty()) return std::nullopt;
  PDW_TRACE_SPAN("routing", "path_ilp");
  // The per-call WashPathStats out-param serves direct callers (unit tests);
  // the registry carries the same events as process-wide totals, which the
  // pipeline reads back as per-run deltas.
  obs::Registry& reg = obs::Registry::instance();
  static obs::Counter& ilp_solves = reg.counter(obs::names::kPathIlpSolves);
  static obs::Counter& cuts = reg.counter(obs::names::kPathIlpConnectivityCuts);
  static obs::Counter& fallbacks = reg.counter(obs::names::kPathIlpFallbacks);
  static obs::Counter& warm_hits = reg.counter(obs::names::kPathIlpWarmHits);
  static obs::Counter& heuristic_paths =
      reg.counter(obs::names::kPathIlpHeuristicPaths);

  const std::set<Cell> avoid(options.avoid_cells.begin(),
                             options.avoid_cells.end());
  // A blocked cell that is itself a wash target cannot be flushed at all —
  // the operation is unroutable by definition, not a solver failure (and
  // buildRegion excludes the cell, so the model could not bind it anyway).
  for (const Cell& t : targets)
    if (avoid.count(t)) return std::nullopt;

  // One target needs no ILP: the flow router's path is exact, and BFS runs
  // only when no simple path exists.
  if (targets.size() == 1) {
    if (std::optional<FlowPath> path =
            routeSingleTarget(chip, targets.front(), avoid))
      return path;
    s.used_fallback = true;
    fallbacks.increment();
    return routeWashPathHeuristic(chip, targets, options.avoid_cells);
  }

  // Several targets: per pass, H bounds the ILP, and either one answers.
  const PortsNextTo ports = portsNextTo(chip, avoid);
  ilp::SolveParams params = options.solver;
  std::optional<FlowPath> path;
  bool heuristic_answer = false;
  for (const bool whole_grid : {false, true}) {
    const std::vector<Cell> region =
        buildRegion(chip, targets, whole_grid, avoid);
    std::optional<FlowPath> simple =
        simpleWashPath(chip, targets, region, ports);
    if (static_cast<int>(region.size()) <= kMaxRegionCells) {
      const PathModel pm = buildModel(chip, region, targets, avoid);
      // The search looks only for paths no longer than H (ties count).
      params.objective_cutoff = simple
                                    ? static_cast<double>(simple->size() - 2)
                                    : ilp::kInfinity;
      // One search per pass: the connectivity cuts are lazy rows of it.
      ++s.ilp_solves;
      ilp_solves.increment();
      const ilp::Solution sol = ilp::solve(
          pm.model, params, [&](const std::vector<double>& point) {
            return connectivityCuts(chip, pm, point);
          });
      warm_hits.add(sol.stats.warm_hits);
      s.connectivity_cuts += static_cast<int>(sol.stats.lazy_rows);
      cuts.add(sol.stats.lazy_rows);
      if (sol.hasSolution()) {
        path = assemblePath(chip, pm, sol);
        break;
      }
    }
    // No ILP path (none within the cutoff, out of budget, or a region
    // above the cap): H answers; without H, try the whole grid.
    if (simple) {
      path = std::move(simple);
      heuristic_answer = true;
      break;
    }
  }

  // The grid-wide BFS heuristic wins only when strictly shorter, and is
  // the fallback when no simple path came back.
  std::optional<FlowPath> bfs =
      routeWashPathHeuristic(chip, targets, options.avoid_cells);
  if (!path) {
    s.used_fallback = true;
    fallbacks.increment();
    return bfs;
  }
  if (bfs && bfs->size() < path->size()) return bfs;
  if (heuristic_answer) {
    s.used_heuristic = true;
    heuristic_paths.increment();
  }
  return path;
}

std::optional<FlowPath> routeWashPathHeuristic(
    const ChipLayout& chip, const std::vector<Cell>& targets,
    const std::vector<Cell>& avoid_cells) {
  if (targets.empty()) return std::nullopt;
  PDW_TRACE_SPAN("routing", "path_bfs");
  static obs::Counter& routes =
      obs::Registry::instance().counter(obs::names::kPathBfsRoutes);
  routes.increment();
  arch::Router router(chip);

  // First pass blocks foreign devices (devices that are not wash targets);
  // if some target is only reachable through a device — e.g. a boundary
  // cell pocketed between a device and waste ports — retry allowing device
  // traversal (flushing buffer through an idle device is harmless; the
  // scheduler serializes the wash against that device's operations).
  // Caller-blocked cells stay excluded on both passes.
  const std::set<Cell> target_set(targets.begin(), targets.end());
  arch::CellSet foreign_devices = chip.makeCellSet();
  for (const arch::Device& d : chip.devices())
    if (!target_set.count(d.cell)) foreign_devices.insert(d.cell);
  arch::CellSet no_blockage = chip.makeCellSet();
  for (const Cell& c : avoid_cells) {
    foreign_devices.insert(c);
    no_blockage.insert(c);
  }

  // The router exempts a route's own endpoints from blockage checks, so a
  // blocked port cell must be filtered here: its port is unusable outright.
  // Likewise a blocked target is unwashable — unroutable by definition.
  const std::set<Cell> avoid_set(avoid_cells.begin(), avoid_cells.end());
  for (const Cell& t : targets)
    if (avoid_set.count(t)) return std::nullopt;

  std::vector<Cell> sinks;
  for (arch::PortId wp : chip.wastePorts()) {
    const Cell cell = chip.port(wp).cell;
    if (!avoid_set.count(cell)) sinks.push_back(cell);
  }

  // Every (flow port, waste port) pair is a routeVia; the pairs of one flow
  // port share its greedy target chain (Router::routeViaEach). The shortest
  // path wins, the first pair in port order on ties.
  const arch::CellSet* blockages[2] = {&foreign_devices, &no_blockage};
  for (const arch::CellSet* blocked : blockages) {
    std::optional<FlowPath> best;
    for (arch::PortId fp : chip.flowPorts()) {
      if (avoid_set.count(chip.port(fp).cell)) continue;
      for (std::optional<FlowPath>& path :
           router.routeViaEach(chip.port(fp).cell, targets, sinks, blocked)) {
        if (!path) continue;
        if (!best || path->size() < best->size()) best = std::move(path);
      }
    }
    if (best) return best;
  }
  return std::nullopt;
}

}  // namespace pdw::core
