#include "wash/rescheduler.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <map>

namespace pdw::wash {

namespace {

using assay::AssaySchedule;
using assay::FluidTask;
using assay::OpId;
using assay::TaskId;
using assay::TaskKind;

struct Item {
  enum class Kind { Op, Task, Wash } kind;
  int index;         // OpId / TaskId / wash index
  double order_key;  // base start (washes: just before earliest blocker)
};

class Engine {
 public:
  Engine(const AssaySchedule& base, const std::vector<WashOperation>& washes,
         const WashParams& params, const ReleaseTimes& release)
      : base_(base), washes_(washes), params_(params), release_(release) {}

  AssaySchedule run() {
    buildItems();
    AssaySchedule out(&base_.graph(), &base_.chip());

    // Pre-create all tasks/ops so ids are stable, then assign times in
    // item order.
    for (const assay::OpSchedule& s : base_.opSchedules())
      out.addOpSchedule(s);
    for (const FluidTask& t : base_.tasks()) out.addTask(t);
    std::vector<TaskId> wash_task_ids;
    for (std::size_t w = 0; w < washes_.size(); ++w) {
      FluidTask task;
      task.kind = TaskKind::Wash;
      task.fluid = base_.graph().fluids().buffer();
      task.path = washes_[w].path;
      task.payload_begin = 0;
      task.payload_end = -1;
      wash_task_ids.push_back(out.addTask(task));
    }

    precomputeConflicts(out);
    op_placed_.assign(static_cast<std::size_t>(base_.graph().numOps()), 0);
    task_placed_.assign(out.tasks().size(), 0);

    std::map<arch::DeviceId, double> device_free;
    std::map<TaskId, double> wash_floor;  // blocking task -> min start

    for (const Item& item : items_) {
      switch (item.kind) {
        case Item::Kind::Op: {
          assay::OpSchedule& s = out.opSchedule(item.index);
          double lb = std::max(device_free[s.device],
                               releaseOf(release_.op, item.index));
          for (const FluidTask& t : out.tasks())
            if (taskPlaced(t.id) && t.consumer == item.index &&
                t.kind != TaskKind::Wash)
              lb = std::max(lb, t.end);
          const double dur = base_.graph().op(item.index).duration_s;
          const double start = opSlot(out, s.device, lb, dur, item.index);
          s.start = start;
          s.end = start + dur;
          device_free[s.device] = s.end;
          op_placed_[static_cast<std::size_t>(item.index)] = 1;
          break;
        }
        case Item::Kind::Task: {
          FluidTask& t = out.task(item.index);
          double lb = std::max(taskLowerBound(out, t),
                               releaseOf(release_.task, t.id));
          const auto floor_it = wash_floor.find(t.id);
          if (floor_it != wash_floor.end())
            lb = std::max(lb, floor_it->second);
          const double dur = base_.task(t.id).duration();
          const double start = taskSlot(out, t.id, lb, dur, &t);
          t.start = start;
          t.end = start + dur;
          task_placed_[static_cast<std::size_t>(t.id)] = 1;
          break;
        }
        case Item::Kind::Wash: {
          const WashOperation& w =
              washes_[static_cast<std::size_t>(item.index)];
          FluidTask& t = out.task(
              wash_task_ids[static_cast<std::size_t>(item.index)]);
          double lb = w.ready;  // base-schedule floor if a source lags
          for (const WashTarget& target : w.targets) {
            if (target.contaminating_task >= 0 &&
                taskPlaced(target.contaminating_task))
              lb = std::max(lb, out.task(target.contaminating_task).end);
            if (target.contaminating_op >= 0 &&
                opPlaced(target.contaminating_op))
              lb = std::max(lb, out.opSchedule(target.contaminating_op).end);
          }
          const double dur = w.duration(params_, base_.chip().pitchMm());
          const double start = taskSlot(out, t.id, lb, dur, nullptr);
          t.start = start;
          t.end = start + dur;
          task_placed_[static_cast<std::size_t>(t.id)] = 1;
          // Blocking tasks must wait for the wash to finish.
          for (const WashTarget& target : w.targets)
            if (target.blocking_task >= 0) {
              double& floor = wash_floor[target.blocking_task];
              floor = std::max(floor, t.end);
            }
          break;
        }
      }
    }
    return out;
  }

 private:
  bool opPlaced(OpId op) const {
    return op_placed_[static_cast<std::size_t>(op)] != 0;
  }

  bool taskPlaced(TaskId task) const {
    return task_placed_[static_cast<std::size_t>(task)] != 0;
  }

  static double releaseOf(const std::vector<double>& release, int index) {
    return release.empty() ? 0.0 : release[static_cast<std::size_t>(index)];
  }

  /// Path-overlap and device-crossing predicates are pure functions of the
  /// (immutable) task paths, but the sweep below queries them O(T) times
  /// per placement. Precompute both tables once from a per-cell task list:
  /// two paths overlap exactly when they share a cell, and a path crosses a
  /// device exactly when it is listed on the device's cell, so the fill
  /// costs time in proportion to the shared cells rather than T² path
  /// scans. Every path lies on the chip (routers emit in-grid cells only).
  void precomputeConflicts(const AssaySchedule& out) {
    const arch::ChipLayout& chip = base_.chip();
    const std::size_t n_tasks = out.tasks().size();
    const std::size_t n_devices = chip.devices().size();
    std::vector<std::vector<std::size_t>> on_cell(
        static_cast<std::size_t>(chip.width() * chip.height()));
    for (std::size_t a = 0; a < n_tasks; ++a)
      for (const arch::Cell& c : out.tasks()[a].path.cells()) {
        assert(chip.contains(c));
        std::vector<std::size_t>& tasks =
            on_cell[static_cast<std::size_t>(chip.cellIndex(c))];
        // Tasks are listed in id order, so a cell the path revisits would
        // repeat the last entry.
        if (tasks.empty() || tasks.back() != a) tasks.push_back(a);
      }
    overlap_.assign(n_tasks, std::vector<char>(n_tasks, 0));
    crosses_.assign(n_tasks, std::vector<char>(n_devices, 0));
    for (const std::vector<std::size_t>& tasks : on_cell)
      for (std::size_t a : tasks)
        for (std::size_t b : tasks) overlap_[a][b] = 1;
    for (std::size_t d = 0; d < n_devices; ++d)
      for (std::size_t a : on_cell[static_cast<std::size_t>(
               chip.cellIndex(chip.devices()[d].cell))])
        crosses_[a][d] = 1;
  }

  bool pathsOverlap(TaskId a, TaskId b) const {
    return overlap_[static_cast<std::size_t>(a)]
                   [static_cast<std::size_t>(b)] != 0;
  }

  bool pathCrossesDevice(TaskId task, arch::DeviceId device) const {
    return crosses_[static_cast<std::size_t>(task)]
                   [static_cast<std::size_t>(device)] != 0;
  }

  void buildItems() {
    for (const assay::OpSchedule& s : base_.opSchedules())
      items_.push_back({Item::Kind::Op, s.op, s.start});
    for (const FluidTask& t : base_.tasks())
      items_.push_back({Item::Kind::Task, t.id, t.start});
    for (std::size_t w = 0; w < washes_.size(); ++w) {
      // Slot the wash right after its contamination is complete (ready =
      // latest contaminating end in the base schedule): every contaminating
      // item sorts before it, every blocking task (start >= ready) after.
      items_.push_back(
          {Item::Kind::Wash, static_cast<int>(w), washes_[w].ready - 0.25});
    }
    // Total order: ties on order_key break on (kind, index) — the same
    // order stable_sort produced from the push sequence above (ops, then
    // tasks, then washes, each ascending) — so equal-key items never depend
    // on container iteration order and rescheduled plans are byte-identical
    // from call to call.
    std::sort(items_.begin(), items_.end(), [](const Item& a, const Item& b) {
      if (a.order_key != b.order_key) return a.order_key < b.order_key;
      if (a.kind != b.kind) return a.kind < b.kind;
      return a.index < b.index;
    });
  }

  /// Precedence lower bound of a base task (mirrors the synthesizer's and
  /// the validator's rules).
  double taskLowerBound(const AssaySchedule& out, const FluidTask& t) const {
    double lb = 0.0;
    if (t.producer >= 0 && opPlaced(t.producer))
      lb = std::max(lb, out.opSchedule(t.producer).end);
    if (t.kind == TaskKind::ExcessRemoval) {
      // After its matching transport.
      if (t.matching_transport >= 0 &&
          taskPlaced(t.matching_transport)) {
        lb = std::max(lb, out.task(t.matching_transport).end);
      } else {
        for (const FluidTask& other : out.tasks())
          if (other.kind == TaskKind::Transport &&
              other.producer == t.producer &&
              other.consumer == t.consumer && taskPlaced(other.id))
            lb = std::max(lb, other.end);
      }
    }
    if (t.kind == TaskKind::WasteRemoval && t.producer >= 0) {
      // After every outgoing transport of the producing op.
      for (const FluidTask& other : out.tasks())
        if (other.kind == TaskKind::Transport &&
            other.producer == t.producer && taskPlaced(other.id))
          lb = std::max(lb, other.end);
    }
    return lb;
  }

  /// Earliest start >= lb with no spatial/temporal conflict against
  /// already-assigned tasks and ops. When `self` is a base task,
  /// contamination-unsafe conflicting pairs are kept in assignment order
  /// (start after the assigned one) even if a gap would fit — the necessity
  /// analysis is only valid for the base use order. Tasks never slip into
  /// gaps before assigned operations whose device cell they cross, for the
  /// same reason.
  double taskSlot(const AssaySchedule& out, TaskId path_task, double lb,
                  double dur, const FluidTask* self) const {
    double start = lb;
    // Hard floors first: assignment-order preservation.
    for (const FluidTask& other : out.tasks()) {
      if (!taskPlaced(other.id)) continue;
      if (other.duration() <= 1e-9) continue;
      if (!pathsOverlap(path_task, other.id)) continue;
      const bool safe =
          self == nullptr ||
          reorderSafe(base_.graph().fluids(), *self, other);
      if (!safe) start = std::max(start, other.end);
    }
    if (self != nullptr) {
      for (const assay::OpSchedule& o : out.opSchedules()) {
        if (!opPlaced(o.op)) continue;
        if (self->consumer == o.op) continue;  // own consumer comes later
        if (pathCrossesDevice(path_task, o.device))
          start = std::max(start, o.end);
      }
    }
    bool moved = true;
    while (moved) {
      moved = false;
      const double end = start + dur;
      for (const FluidTask& other : out.tasks()) {
        if (!taskPlaced(other.id)) continue;
        if (other.end <= start + 1e-9 || other.start >= end - 1e-9) continue;
        if (other.duration() <= 1e-9) continue;
        if (pathsOverlap(path_task, other.id)) {
          start = other.end;
          moved = true;
          break;
        }
      }
      if (moved) continue;
      for (const assay::OpSchedule& o : out.opSchedules()) {
        if (!opPlaced(o.op)) continue;
        if (o.end <= start + 1e-9 || o.start >= end - 1e-9) continue;
        if (pathCrossesDevice(path_task, o.device)) {
          start = o.end;
          moved = true;
          break;
        }
      }
    }
    return start;
  }

  /// Earliest start >= lb at which no assigned task crosses `device`'s
  /// cell. Assignment order against crossing tasks is preserved (no
  /// gap-filling before a task that already crossed the device in base
  /// order).
  double opSlot(const AssaySchedule& out, arch::DeviceId device, double lb,
                double dur, assay::OpId self) const {
    double start = lb;
    for (const FluidTask& other : out.tasks()) {
      if (!taskPlaced(other.id)) continue;
      if (other.duration() <= 1e-9) continue;
      if (other.consumer == self) continue;  // own inputs end before us
      if (pathCrossesDevice(other.id, device))
        start = std::max(start, other.end);
    }
    bool moved = true;
    while (moved) {
      moved = false;
      const double end = start + dur;
      for (const FluidTask& other : out.tasks()) {
        if (!taskPlaced(other.id)) continue;
        if (other.end <= start + 1e-9 || other.start >= end - 1e-9) continue;
        if (other.duration() <= 1e-9) continue;
        if (pathCrossesDevice(other.id, device)) {
          start = other.end;
          moved = true;
          break;
        }
      }
    }
    return start;
  }

  const AssaySchedule& base_;
  const std::vector<WashOperation>& washes_;
  const WashParams& params_;
  const ReleaseTimes& release_;
  std::vector<Item> items_;
  std::vector<std::vector<char>> overlap_;  ///< [task][task] path overlap
  std::vector<std::vector<char>> crosses_;  ///< [task][device] cell crossing
  std::vector<char> op_placed_;    ///< [op] already assigned a time
  std::vector<char> task_placed_;  ///< [task] already assigned a time
};

}  // namespace

AssaySchedule rescheduleWithWashes(const AssaySchedule& base,
                                   const std::vector<WashOperation>& washes,
                                   const WashParams& params,
                                   const ReleaseTimes& release) {
  Engine engine(base, washes, params, release);
  return engine.run();
}

}  // namespace pdw::wash
