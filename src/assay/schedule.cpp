#include "assay/schedule.h"

#include <algorithm>
#include <cassert>
#include <sstream>

#include "util/strings.h"

namespace pdw::assay {

const char* toString(TaskKind kind) {
  switch (kind) {
    case TaskKind::Transport: return "transport";
    case TaskKind::ExcessRemoval: return "excess-removal";
    case TaskKind::WasteRemoval: return "waste-removal";
    case TaskKind::Wash: return "wash";
  }
  return "?";
}

std::string FluidTask::describe(const arch::ChipLayout* chip) const {
  return util::format("[%s] t=%.1f..%.1f %s", toString(kind), start, end,
                      path.toString(chip).c_str());
}

std::span<const arch::Cell> FluidTask::payloadSpan() const {
  const auto& cells = path.cells();
  if (cells.empty()) return {};
  const std::size_t begin = static_cast<std::size_t>(
      std::clamp<int>(payload_begin, 0, static_cast<int>(cells.size()) - 1));
  const std::size_t end = payload_end < 0
                              ? cells.size() - 1
                              : static_cast<std::size_t>(std::clamp<int>(
                                    payload_end, static_cast<int>(begin),
                                    static_cast<int>(cells.size()) - 1));
  return std::span<const arch::Cell>(cells).subspan(begin, end - begin + 1);
}

std::vector<arch::Cell> FluidTask::payloadCells() const {
  const std::span<const arch::Cell> span = payloadSpan();
  return std::vector<arch::Cell>(span.begin(), span.end());
}

std::vector<arch::Cell> FluidTask::payloadInterior() const {
  std::vector<arch::Cell> cells = payloadCells();
  if (cells.size() <= 2) return {};
  return std::vector<arch::Cell>(cells.begin() + 1, cells.end() - 1);
}

void AssaySchedule::addOpSchedule(OpSchedule op) {
  assert(op.op >= 0);
  ops_.push_back(op);
}

TaskId AssaySchedule::addTask(FluidTask task) {
  task.id = static_cast<TaskId>(tasks_.size());
  tasks_.push_back(std::move(task));
  return tasks_.back().id;
}

OpSchedule& AssaySchedule::opSchedule(OpId op) {
  for (OpSchedule& s : ops_)
    if (s.op == op) return s;
  assert(false && "operation has no schedule entry");
  return ops_.front();
}

const OpSchedule& AssaySchedule::opSchedule(OpId op) const {
  return const_cast<AssaySchedule*>(this)->opSchedule(op);
}

std::vector<TaskId> AssaySchedule::tasksByStart() const {
  std::vector<TaskId> ids;
  ids.reserve(tasks_.size());
  for (const FluidTask& t : tasks_) ids.push_back(t.id);
  std::sort(ids.begin(), ids.end(), [&](TaskId a, TaskId b) {
    const FluidTask& ta = task(a);
    const FluidTask& tb = task(b);
    if (ta.start != tb.start) return ta.start < tb.start;
    return a < b;
  });
  return ids;
}

double AssaySchedule::completionTime() const {
  double t = 0.0;
  for (const OpSchedule& s : ops_) t = std::max(t, s.end);
  for (const FluidTask& s : tasks_) t = std::max(t, s.end);
  return t;
}

int AssaySchedule::washCount() const {
  int count = 0;
  for (const FluidTask& t : tasks_)
    if (t.kind == TaskKind::Wash) ++count;
  return count;
}

double AssaySchedule::washLengthMm() const {
  double total = 0.0;
  for (const FluidTask& t : tasks_)
    if (t.kind == TaskKind::Wash) total += t.path.lengthMm(chip_->pitchMm());
  return total;
}

double AssaySchedule::totalWashTime() const {
  double total = 0.0;
  for (const FluidTask& t : tasks_)
    if (t.kind == TaskKind::Wash) total += t.duration();
  return total;
}

std::string AssaySchedule::describe() const {
  std::ostringstream out;
  out << "schedule for " << graph_->name()
      << util::format(" (T_assay = %.1f s)\n", completionTime());
  std::vector<OpSchedule> ops = ops_;
  std::sort(ops.begin(), ops.end(), [](const OpSchedule& a,
                                       const OpSchedule& b) {
    return a.start < b.start;
  });
  for (const OpSchedule& s : ops) {
    out << util::format("  op %-10s on %-10s t=%5.1f..%5.1f\n",
                        graph_->op(s.op).name.c_str(),
                        chip_->device(s.device).name.c_str(), s.start, s.end);
  }
  for (TaskId id : tasksByStart()) {
    out << "  " << task(id).describe(chip_) << "\n";
  }
  return out.str();
}

}  // namespace pdw::assay
