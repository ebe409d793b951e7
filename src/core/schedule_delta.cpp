#include "core/schedule_delta.h"

#include <cmath>
#include <set>
#include <utility>

#include "util/strings.h"
#include "wash/rescheduler.h"

namespace pdw::core {

namespace {

using assay::AssaySchedule;
using assay::FluidTask;
using assay::TaskId;
using assay::TaskKind;

AppliedDelta fail(std::string message) {
  AppliedDelta out;
  out.error = std::move(message);
  return out;
}

}  // namespace

AppliedDelta applyDelta(const AssaySchedule& base, const ScheduleDelta& delta) {
  if (!base.valid()) return fail("base schedule has no graph/chip");

  const auto& ops = base.opSchedules();
  const auto& tasks = base.tasks();

  // ---- validation + release times ---------------------------------------
  // Each item is released at its base start plus its own delay.
  wash::ReleaseTimes release;
  release.op.assign(base.graph().ops().size(), 0.0);
  std::set<assay::OpId> scheduled;
  for (const assay::OpSchedule& s : ops) {
    release.op[static_cast<std::size_t>(s.op)] = s.start;
    scheduled.insert(s.op);
  }
  for (const ScheduleDelta::OpDelay& d : delta.op_delays) {
    if (!scheduled.count(d.op))
      return fail(util::format("unknown operation %d in delta", d.op));
    if (!std::isfinite(d.delay_s))
      return fail("op delay must be finite");
    release.op[static_cast<std::size_t>(d.op)] += d.delay_s;
  }
  std::vector<double> task_release(tasks.size());
  for (std::size_t t = 0; t < tasks.size(); ++t)
    task_release[t] = tasks[t].start;
  std::set<TaskId> delayed;
  for (const ScheduleDelta::TaskDelay& d : delta.task_delays) {
    if (d.task < 0 || d.task >= static_cast<TaskId>(tasks.size()))
      return fail(util::format("unknown task %d in delta", d.task));
    if (!std::isfinite(d.delay_s))
      return fail("task delay must be finite");
    task_release[static_cast<std::size_t>(d.task)] += d.delay_s;
    delayed.insert(d.task);
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
    if (delayed.count(id))
      return fail(util::format("task %d both delayed and removed", id));
    removed.insert(id);
  }
  for (const arch::Cell& c : delta.blocked_cells)
    if (!base.chip().contains(c))
      return fail(util::format("blocked cell %d:%d outside the chip", c.x,
                               c.y));

  // ---- removal -----------------------------------------------------------
  // Ids are dense, so a removal renumbers the tail: map each surviving
  // task's matching transport to its new id.
  AssaySchedule kept(&base.graph(), &base.chip());
  for (const assay::OpSchedule& s : ops) kept.addOpSchedule(s);
  std::vector<TaskId> task_remap(tasks.size(), -1);
  for (std::size_t t = 0; t < tasks.size(); ++t) {
    if (removed.count(tasks[t].id)) continue;
    FluidTask copy = tasks[t];
    if (copy.matching_transport >= 0)
      copy.matching_transport =
          task_remap[static_cast<std::size_t>(copy.matching_transport)];
    task_remap[t] = kept.addTask(copy);
    release.task.push_back(task_release[t]);
  }

  // ---- re-timing (the wash-insertion sweep without washes) ---------------
  AppliedDelta out;
  out.valid = true;
  out.schedule = wash::rescheduleWithWashes(kept, {}, {}, release);
  out.release = std::move(release);
  return out;
}

}  // namespace pdw::core
