// Assay schedule: timed biochemical operations plus timed fluidic tasks
// (transports p_{j,i,1}, excess-fluid removals p_{j,i,2}, waste removals $,
// wash operations w) with their flow paths — the structure of Fig. 2(b) /
// Fig. 3 / Table I of the paper.
#pragma once

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "arch/chip.h"
#include "arch/path.h"
#include "assay/sequencing_graph.h"

namespace pdw::assay {

enum class TaskKind {
  Transport,      ///< p_{j,i,1}: reagent injection, device-to-device move,
                  ///< or final output transport
  ExcessRemoval,  ///< p_{j,i,2}: flush excess fluid cached at device ends (*)
  WasteRemoval,   ///< waste-fluid flush of a device ($)
  Wash,           ///< buffer wash along a wash path (w)
};

const char* toString(TaskKind kind);

using TaskId = int;

struct FluidTask {
  TaskId id = -1;
  TaskKind kind = TaskKind::Transport;
  /// Producing operation o_j (-1 for reagent injections and washes).
  OpId producer = -1;
  /// Consuming operation o_i (-1 for output transports, removals, washes).
  OpId consumer = -1;
  FluidId fluid = -1;
  arch::FlowPath path;
  double start = 0.0;
  double end = 0.0;

  /// For ExcessRemoval tasks: the id of the transport whose cached excess
  /// this removal flushes (p_{j,i,1} of the same edge). Needed because an
  /// operation with several reagent inputs has several (transport, removal)
  /// pairs that share producer/consumer ids.
  TaskId matching_transport = -1;

  /// Payload span [payload_begin, payload_end] (indices into path.cells()):
  /// the cells the fluid plug actually touches. A transport path runs
  /// port-to-port — push medium enters from a flow port behind the plug and
  /// displaced air exits to a waste port ahead of it — so only the
  /// source-device..target-device span carries the fluid. This matches the
  /// paper's examples, e.g. transport #7 (in3->s9->det1->s10->s11->s15->s3->
  /// s4->mixer->s5->out1) contaminating exactly s10..s4. payload_end == -1
  /// means "last cell".
  int payload_begin = 0;
  int payload_end = -1;

  double duration() const { return end - start; }

  /// Resolved payload span: a view into path.cells().
  std::span<const arch::Cell> payloadSpan() const;
  /// Resolved payload span as cell list.
  std::vector<arch::Cell> payloadCells() const;
  /// Payload cells excluding ports and the span's first/last device cells —
  /// the channel cells the plug contaminates (devices are contaminated by
  /// their operations, not by transit of their own content).
  std::vector<arch::Cell> payloadInterior() const;

  /// Q_{p} of paper eq. 10: the task carries fluid destined for waste, so
  /// pre-existing residue on its path is harmless (Type 3).
  bool isWasteBound() const {
    return kind == TaskKind::ExcessRemoval || kind == TaskKind::WasteRemoval;
  }

  std::string describe(const arch::ChipLayout* chip = nullptr) const;
};

struct OpSchedule {
  OpId op = -1;
  arch::DeviceId device = -1;
  double start = 0.0;
  double end = 0.0;
};

/// A complete timed execution of an assay on a chip. Used in two roles:
/// the wash-oblivious base schedule produced by synthesis (input to PDW and
/// DAWO), and the washed/re-timed schedule they output.
class AssaySchedule {
 public:
  AssaySchedule() = default;
  AssaySchedule(const SequencingGraph* graph, const arch::ChipLayout* chip)
      : graph_(graph), chip_(chip) {}

  const SequencingGraph& graph() const { return *graph_; }
  const arch::ChipLayout& chip() const { return *chip_; }
  bool valid() const { return graph_ != nullptr && chip_ != nullptr; }

  void addOpSchedule(OpSchedule op);
  TaskId addTask(FluidTask task);  ///< assigns the id, returns it

  const std::vector<OpSchedule>& opSchedules() const { return ops_; }
  const std::vector<FluidTask>& tasks() const { return tasks_; }
  FluidTask& task(TaskId id) { return tasks_[static_cast<std::size_t>(id)]; }
  const FluidTask& task(TaskId id) const {
    return tasks_[static_cast<std::size_t>(id)];
  }
  OpSchedule& opSchedule(OpId op);
  const OpSchedule& opSchedule(OpId op) const;

  /// Task ids sorted by (start, id) — replay order for contamination
  /// tracking and validation.
  std::vector<TaskId> tasksByStart() const;

  /// Completion time T_assay: max end over operations and tasks.
  double completionTime() const;

  /// Number of wash tasks.
  int washCount() const;
  /// Total wash-path length in millimetres (L_wash, eq. 25).
  double washLengthMm() const;
  /// Sum of wash durations (Fig. 5's "total wash time").
  double totalWashTime() const;

  /// Multi-line human-readable timeline, Fig. 2(b)-style.
  std::string describe() const;

 private:
  const SequencingGraph* graph_ = nullptr;
  const arch::ChipLayout* chip_ = nullptr;
  std::vector<OpSchedule> ops_;
  std::vector<FluidTask> tasks_;
};

}  // namespace pdw::assay
