#include "core/schedule_delta.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>

#include "util/strings.h"

namespace pdw::core {

namespace {

using assay::AssaySchedule;
using assay::FluidTask;
using assay::OpId;
using assay::TaskId;
using assay::TaskKind;

AppliedDelta fail(std::string message) {
  AppliedDelta out;
  out.error = std::move(message);
  return out;
}

}  // namespace

std::string ScheduleDelta::describe() const {
  return util::format("%d op delays, %d task delays, %d blocked cells, "
                      "%d removals",
                      static_cast<int>(op_delays.size()),
                      static_cast<int>(task_delays.size()),
                      static_cast<int>(blocked_cells.size()),
                      static_cast<int>(removed_tasks.size()));
}

AppliedDelta applyDelta(const AssaySchedule& base, const ScheduleDelta& delta) {
  if (!base.valid()) return fail("base schedule has no graph/chip");

  const auto& ops = base.opSchedules();
  const auto& tasks = base.tasks();
  std::map<OpId, std::size_t> op_index;
  for (std::size_t i = 0; i < ops.size(); ++i) op_index[ops[i].op] = i;

  // ---- validation -------------------------------------------------------
  std::map<OpId, double> op_delay;
  for (const ScheduleDelta::OpDelay& d : delta.op_delays) {
    if (!op_index.count(d.op))
      return fail(util::format("unknown operation %d in delta", d.op));
    if (!std::isfinite(d.delay_s))
      return fail("op delay must be finite");
    op_delay[d.op] += d.delay_s;
  }
  std::map<TaskId, double> task_delay;
  for (const ScheduleDelta::TaskDelay& d : delta.task_delays) {
    if (d.task < 0 || d.task >= static_cast<TaskId>(tasks.size()))
      return fail(util::format("unknown task %d in delta", d.task));
    if (!std::isfinite(d.delay_s))
      return fail("task delay must be finite");
    task_delay[d.task] += d.delay_s;
  }
  std::set<TaskId> removed;
  for (const TaskId id : delta.removed_tasks) {
    if (id < 0 || id >= static_cast<TaskId>(tasks.size()))
      return fail(util::format("unknown task %d in delta removal", id));
    const TaskKind kind = tasks[static_cast<std::size_t>(id)].kind;
    if (kind != TaskKind::ExcessRemoval && kind != TaskKind::WasteRemoval)
      return fail(util::format(
          "task %d is a %s; only waste-bound tasks can be removed", id,
          toString(kind)));
    if (task_delay.count(id))
      return fail(util::format("task %d both delayed and removed", id));
    removed.insert(id);
  }
  for (const arch::Cell& c : delta.blocked_cells)
    if (!base.chip().contains(c))
      return fail(util::format("blocked cell %d:%d outside the chip", c.x,
                               c.y));

  // ---- shift propagation -------------------------------------------------
  // new_start = max(base_start + own_delay, every structural predecessor's
  // new end); durations are preserved. Predecessor edges are exactly the
  // hard precedence rules of the synthesizer/validator: op dependencies,
  // producer op -> transport -> consumer op, removal-after-transport,
  // waste-removal-after-producer('s transports), removal-before-consumer,
  // and same-device exclusivity in base order. The base schedule satisfies
  // all of them, so iterating to a fixpoint converges (each pass only moves
  // starts forward, bounded by the total injected delay).
  std::vector<double> op_start(ops.size()), op_end(ops.size());
  std::vector<double> task_start(tasks.size()), task_end(tasks.size());
  for (std::size_t i = 0; i < ops.size(); ++i) {
    op_start[i] = ops[i].start + (op_delay.count(ops[i].op)
                                      ? op_delay[ops[i].op]
                                      : 0.0);
    op_end[i] = op_start[i] + (ops[i].end - ops[i].start);
  }
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    const TaskId id = tasks[i].id;
    task_start[i] =
        tasks[i].start + (task_delay.count(id) ? task_delay[id] : 0.0);
    task_end[i] = task_start[i] + tasks[i].duration();
  }

  // Same-device base order: for each device, op indices sorted by base start.
  std::map<arch::DeviceId, std::vector<std::size_t>> by_device;
  for (std::size_t i = 0; i < ops.size(); ++i)
    by_device[ops[i].device].push_back(i);
  for (auto& [dev, list] : by_device)
    std::sort(list.begin(), list.end(), [&](std::size_t a, std::size_t b) {
      if (ops[a].start != ops[b].start) return ops[a].start < ops[b].start;
      return ops[a].op < ops[b].op;
    });

  const auto opLowerBound = [&](std::size_t i) {
    double lb = ops[i].start +
                (op_delay.count(ops[i].op) ? op_delay[ops[i].op] : 0.0);
    for (const assay::Dependency& d : base.graph().dependencies())
      if (d.to == ops[i].op) lb = std::max(lb, op_end[op_index.at(d.from)]);
    for (std::size_t t = 0; t < tasks.size(); ++t) {
      if (removed.count(tasks[t].id)) continue;
      const FluidTask& task = tasks[t];
      // Inbound transports and excess removals must finish before the
      // consumer starts.
      if (task.consumer == ops[i].op &&
          (task.kind == TaskKind::Transport ||
           task.kind == TaskKind::ExcessRemoval))
        lb = std::max(lb, task_end[t]);
    }
    const auto& peers = by_device.at(ops[i].device);
    for (std::size_t p : peers) {
      if (p == i) break;  // peers are in base order; predecessors precede i
      lb = std::max(lb, op_end[p]);
    }
    return lb;
  };

  const auto taskLowerBound = [&](std::size_t t) {
    const FluidTask& task = tasks[t];
    const TaskId id = task.id;
    double lb = task.start + (task_delay.count(id) ? task_delay[id] : 0.0);
    switch (task.kind) {
      case TaskKind::Transport:
        if (task.producer >= 0)
          lb = std::max(lb, op_end[op_index.at(task.producer)]);
        break;
      case TaskKind::ExcessRemoval:
        if (task.matching_transport >= 0 &&
            !removed.count(task.matching_transport))
          lb = std::max(
              lb, task_end[static_cast<std::size_t>(task.matching_transport)]);
        break;
      case TaskKind::WasteRemoval:
        if (task.producer >= 0) {
          lb = std::max(lb, op_end[op_index.at(task.producer)]);
          for (std::size_t o = 0; o < tasks.size(); ++o)
            if (tasks[o].kind == TaskKind::Transport &&
                tasks[o].producer == task.producer)
              lb = std::max(lb, task_end[o]);
        }
        break;
      case TaskKind::Wash:
        break;  // base schedules carry no washes
    }
    return lb;
  };

  const std::size_t max_passes = ops.size() + tasks.size() + 2;
  bool changed = true;
  for (std::size_t pass = 0; changed && pass < max_passes; ++pass) {
    changed = false;
    for (std::size_t i = 0; i < ops.size(); ++i) {
      const double lb = opLowerBound(i);
      if (lb > op_start[i] + 1e-12) {
        op_start[i] = lb;
        op_end[i] = lb + (ops[i].end - ops[i].start);
        changed = true;
      }
    }
    for (std::size_t t = 0; t < tasks.size(); ++t) {
      if (removed.count(tasks[t].id)) continue;
      const double lb = taskLowerBound(t);
      if (lb > task_start[t] + 1e-12) {
        task_start[t] = lb;
        task_end[t] = lb + tasks[t].duration();
        changed = true;
      }
    }
  }
  if (changed)
    return fail("delta propagation did not converge (cyclic precedence?)");

  // ---- assemble the perturbed schedule -----------------------------------
  AppliedDelta out;
  out.valid = true;
  out.schedule = AssaySchedule(&base.graph(), &base.chip());
  for (std::size_t i = 0; i < ops.size(); ++i) {
    assay::OpSchedule copy = ops[i];
    copy.start = op_start[i];
    copy.end = op_end[i];
    out.schedule.addOpSchedule(copy);
  }
  // Ids are dense, so a removal renumbers the tail: map each surviving
  // task's matching transport to its new id.
  std::vector<TaskId> task_remap(tasks.size(), -1);
  for (std::size_t t = 0; t < tasks.size(); ++t) {
    if (removed.count(tasks[t].id)) continue;
    FluidTask copy = tasks[t];
    copy.start = task_start[t];
    copy.end = task_end[t];
    if (copy.matching_transport >= 0)
      copy.matching_transport =
          task_remap[static_cast<std::size_t>(copy.matching_transport)];
    task_remap[t] = out.schedule.addTask(copy);
  }
  return out;
}

}  // namespace pdw::core
