#include "ilp/branch_bound.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <optional>
#include <queue>

#include "ilp/lp_backend.h"
#include "ilp/simplex.h"
#include "obs/flight.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace pdw::ilp {

namespace {

/// Relative gap at which the search stops with the incumbent proven
/// optimal.
constexpr double kMipGap = 1e-6;

/// Fold one finished MIP solve into the registry. Counters are batched here
/// — once per solve, from the already-collected SolveStats — so the search
/// loop itself carries no per-node counter cost. The simplex call/iteration
/// counters are only added when the solve ran node LPs through the in-tree
/// engine (lp_solves > 0); pure-LP models delegate to solveLp, which counts
/// itself.
void recordMipSolve(const Solution& result, double wall_seconds) {
  namespace names = obs::names;
  obs::Registry& reg = obs::Registry::instance();
  static obs::Counter& solves = reg.counter(names::kBbSolves);
  static obs::Counter& nodes = reg.counter(names::kBbNodes);
  static obs::Counter& rc_fixed = reg.counter(names::kBbRcFixed);
  static obs::Counter& simplex_calls = reg.counter(names::kSimplexCalls);
  static obs::Counter& simplex_iters = reg.counter(names::kSimplexIterations);
  static obs::Counter& warm_hits = reg.counter(names::kSimplexWarmHits);
  static obs::Counter& warm_misses = reg.counter(names::kSimplexWarmMisses);
  static obs::Counter& dual_pivots = reg.counter(names::kSimplexDualPivots);
  static obs::Counter& refactorizations =
      reg.counter(names::kSimplexRefactorizations);
  static obs::Histogram& seconds = reg.histogram(names::kSolveSeconds);
  solves.increment();
  nodes.add(result.stats.nodes_explored);
  rc_fixed.add(result.stats.rc_fixed);
  if (result.stats.lp_solves > 0) {
    simplex_calls.add(result.stats.lp_solves);
    simplex_iters.add(result.stats.simplex_iterations);
  }
  warm_hits.add(result.stats.warm_hits);
  warm_misses.add(result.stats.warm_misses);
  dual_pivots.add(result.stats.dual_pivots);
  refactorizations.add(result.stats.refactorizations);
  seconds.observe(wall_seconds);
}

using Clock = std::chrono::steady_clock;

struct Node {
  int parent = -1;    ///< index into the node arena, -1 for root
  VarId var = -1;     ///< variable whose bound this node changes
  double lower = 0.0;
  double upper = 0.0;
  double bound = -kInfinity;  ///< LP bound inherited from the parent
  int depth = 0;
  /// Reduced-cost fixes discovered at this node (range into the shared
  /// fix arena); they bind the whole subtree.
  int extra_begin = 0;
  int extra_count = 0;
  /// Pseudocost bookkeeping: which branch direction created this node and
  /// how far the parent's LP value was from the bound imposed (f for the
  /// down child, 1-f for the up child). When the node's own LP solves, the
  /// observed bound degradation divided by this distance updates `var`'s
  /// pseudocost in that direction.
  bool up_branch = false;
  double branch_dist = 0.0;
};

struct QueueEntry {
  double bound;
  int node;
  /// Best-bound first; among equal bounds, prefer the newest node (largest
  /// id). Freshly pushed children are popped right after their parent, so
  /// the simplex engine's warm state is usually one bound change away.
  bool operator>(const QueueEntry& other) const {
    if (bound != other.bound) return bound > other.bound;
    return node < other.node;
  }
};

/// Best-bound branch-and-bound over one model. Its node sequence depends
/// only on the model, the params and the lazy-row callback, never on other
/// threads, so a work-capped solve is identical at every thread count.
class BranchAndBound {
 public:
  /// `model` is the search's own copy: lazy rows are appended to it. The
  /// engine references it, so the two grow in step. `flight`, when
  /// non-null, is the solve's recorder. The caller owns it, and it must
  /// outlive the BranchAndBound (the engine keeps a raw pointer to it).
  BranchAndBound(Model& model, const SolveParams& params,
                 const LazyRows& lazy, obs::FlightRecorder* flight)
      : model_(model),
        params_(params),
        lazy_(lazy),
        flight_(flight),
        start_(Clock::now()),
        engine_(makeLpBackend(model, params)),
        cutoff_(std::isfinite(params.objective_cutoff)
                    ? params.objective_cutoff +
                          kMipGap *
                              std::max(1.0, std::abs(params.objective_cutoff))
                    : params.objective_cutoff) {
    for (VarId v = 0; v < model.numVars(); ++v)
      if (model.var(v).type != VarType::Continuous) integer_vars_.push_back(v);
    if (flight_) engine_->setFlightRecorder(flight_);
    const std::size_t n = static_cast<std::size_t>(model.numVars());
    pc_sum_[0].assign(n, 0.0);
    pc_sum_[1].assign(n, 0.0);
    pc_count_[0].assign(n, 0);
    pc_count_[1].assign(n, 0);
  }

  Solution run() {
    Solution result;
    lower_.resize(static_cast<std::size_t>(model_.numVars()));
    upper_.resize(static_cast<std::size_t>(model_.numVars()));
    for (VarId v = 0; v < model_.numVars(); ++v) {
      lower_[static_cast<std::size_t>(v)] = model_.var(v).lower;
      upper_[static_cast<std::size_t>(v)] = model_.var(v).upper;
    }

    // Warm start: a feasible caller-provided point seeds the incumbent.
    if (params_.warm_start.size() ==
        static_cast<std::size_t>(model_.numVars())) {
      std::vector<double> warm = params_.warm_start;
      for (VarId v : integer_vars_)
        warm[static_cast<std::size_t>(v)] =
            std::round(warm[static_cast<std::size_t>(v)]);
      const std::string violation = model_.firstViolation(warm, 1e-5);
      const double objective = model_.objective().evaluate(warm);
      if (!violation.empty()) {
        PDW_LOG(Info, "ilp") << "warm start rejected: " << violation;
      } else if (objective > cutoff_) {
        PDW_LOG(Info, "ilp") << "warm start above the objective cutoff";
      } else if (lazyAccepts(warm)) {
        incumbent_ = std::move(warm);
        incumbent_obj_ = objective;
        has_incumbent_ = true;
      }
    }

    nodes_.push_back(Node{});  // root: no bound change
    on_path_.push_back(1);
    path_.push_back(Frame{0, 0});
    open_.push(QueueEntry{-kInfinity, 0});

    static obs::Histogram& pivots_per_node = obs::Registry::instance()
        .histogram(obs::names::kSimplexPivotsPerNode);

    if (flight_)
      flight_->record(obs::FlightEventKind::SolveBegin, 0,
                      static_cast<double>(model_.numVars()),
                      static_cast<double>(integer_vars_.size()));

    // The budget that stopped the search, if one did.
    std::optional<SolveStatus> limit;
    bool lp_trouble = false;
    // A node whose integral point the lazy rows just rejected: it is solved
    // again, warm, before any queued node.
    std::optional<QueueEntry> resolve;

    while (resolve || !open_.empty()) {
      limit = limitReached();
      if (limit) break;

      const bool lazy_resolve = resolve.has_value();
      const QueueEntry entry = lazy_resolve ? *resolve : open_.top();
      if (lazy_resolve) resolve.reset();
      else open_.pop();
      if (pruned(entry.bound)) {
        // Pruned before its LP ran: the incumbent improved since this node
        // was queued (a cutoff prunes no queued node: no child is pushed
        // above it). It gets a NodePruned event but no NodeOpen, so the
        // NodeOpen count stays equal to stats_.nodes_explored.
        if (flight_)
          flight_->record(obs::FlightEventKind::NodePruned, entry.node,
                          entry.bound, obs::kPruneReasonInheritedBound);
        continue;
      }

      moveTo(entry.node);
      ++stats_.nodes_explored;
      if (flight_) {
        // chain_ still holds the frames moveTo() just applied, so its size
        // is the path distance walked to reach this node.
        flight_->record(obs::FlightEventKind::BoundDelta, entry.node,
                        static_cast<double>(chain_.size()));
        flight_->record(
            obs::FlightEventKind::NodeOpen, entry.node, entry.bound,
            static_cast<double>(
                nodes_[static_cast<std::size_t>(entry.node)].depth));
      }

      // Node LP: warm dual re-solve from the engine's current basis when
      // possible, cold solve otherwise. The root's first solve is always
      // cold (there is no prior basis) and counts as neither hit nor miss.
      const bool allow_warm = entry.node != 0 || lazy_resolve;
      bool used_warm = false;
      std::int64_t dual_pivots = 0;
      LpResult lp = engine_->solve(lower_, upper_, allow_warm, &used_warm,
                                   &dual_pivots);
      ++stats_.lp_solves;
      stats_.simplex_iterations += lp.iterations;
      stats_.dual_pivots += dual_pivots;
      stats_.refactorizations += lp.factorizations;
      if (allow_warm) {
        if (used_warm) ++stats_.warm_hits;
        else ++stats_.warm_misses;
      }
      pivots_per_node.observe(static_cast<double>(lp.iterations));
      if (flight_) {
        // WarmMiss mirrors the stats_.warm_misses condition exactly, so the
        // dump's count reconciles with ilp.simplex.warm_misses.
        if (allow_warm && !used_warm)
          flight_->record(obs::FlightEventKind::WarmMiss, entry.node);
        flight_->record(obs::FlightEventKind::NodeSolved, entry.node,
                        lp.objective, static_cast<double>(lp.iterations));
      }

      if (lp.status == LpStatus::Infeasible) {
        if (flight_)
          flight_->record(obs::FlightEventKind::NodePruned, entry.node, 0.0,
                          obs::kPruneReasonInfeasible);
        continue;
      }
      if (lp.status == LpStatus::Unbounded) {
        // Unboundedness of a node relaxation implies the MILP is unbounded
        // unless integrality cuts it off; we report it conservatively only
        // from the root node.
        if (entry.node == 0 && !has_incumbent_) {
          result.status = SolveStatus::Unbounded;
          fillStats(result);
          maybeDumpFlight(result, false);
          return result;
        }
        lp_trouble = true;
        continue;
      }
      if (lp.status == LpStatus::IterLimit) {
        lp_trouble = true;  // optimality can no longer be certified
        continue;
      }

      // Pseudocost learning: this node's LP bound degradation relative to
      // its parent, normalized by the fractional distance its branch
      // imposed. Updated before any pruning so pruned nodes teach too; a
      // lazy re-solve's degradation comes from its new rows, not its
      // branch, so it teaches nothing.
      if (entry.node != 0 && !lazy_resolve) {
        const Node& node = nodes_[static_cast<std::size_t>(entry.node)];
        if (node.var >= 0 && node.branch_dist > 1e-9 &&
            std::isfinite(node.bound)) {
          const int dir = node.up_branch ? 1 : 0;
          const double degradation =
              std::max(0.0, lp.objective - node.bound) / node.branch_dist;
          pc_sum_[dir][static_cast<std::size_t>(node.var)] += degradation;
          ++pc_count_[dir][static_cast<std::size_t>(node.var)];
          pc_total_[dir] += degradation;
          ++pc_observations_[dir];
        }
      }

      if (pruned(lp.objective)) {
        if (flight_)
          flight_->record(obs::FlightEventKind::NodePruned, entry.node,
                          lp.objective, obs::kPruneReasonLpBound);
        continue;
      }

      const VarId branch_var = pickBranchVariable(lp.values);
      if (branch_var < 0) {
        if (!offerIncumbent(lp)) {
          resolve = QueueEntry{lp.objective, entry.node};
          continue;
        }
        if (gapClosed()) break;
        continue;
      }

      // Reduced-cost fixing: variables the node optimum proves immovable in
      // any improving solution are fixed for the whole subtree (both
      // children inherit the fixes through the node's extra range).
      if (has_incumbent_) {
        fix_buffer_.clear();
        engine_->collectReducedCostFixes(incumbent_obj_ - lp.objective,
                                         &fix_buffer_);
        if (!fix_buffer_.empty()) applyRcFixes(entry.node);
      }

      const double value = lp.values[static_cast<std::size_t>(branch_var)];
      if (flight_)
        flight_->record(obs::FlightEventKind::NodeBranched, entry.node,
                        static_cast<double>(branch_var), value);
      const double floor_value = std::floor(value + kIntegralityTol);
      const double frac =
          std::min(1.0, std::max(0.0, value - floor_value));
      pushChild(entry.node, branch_var,
                lower_[static_cast<std::size_t>(branch_var)], floor_value,
                lp.objective, frac, /*up_branch=*/false);
      pushChild(entry.node, branch_var, floor_value + 1.0,
                upper_[static_cast<std::size_t>(branch_var)], lp.objective,
                1.0 - frac, /*up_branch=*/true);
    }

    // A limit that cut a lazy re-solve leaves its node open.
    if (resolve) open_.push(*resolve);
    fillStats(result);
    if (has_incumbent_) {
      result.objective = incumbent_obj_;
      result.values = incumbent_;
      result.status = (limit || lp_trouble || !open_.empty())
                          ? SolveStatus::Feasible
                          : SolveStatus::Optimal;
      if (gapClosed()) result.status = SolveStatus::Optimal;
    } else if (limit) {
      result.status = *limit;
    } else if (lp_trouble) {
      result.status = SolveStatus::IterLimit;
    } else {
      result.status = SolveStatus::Infeasible;
    }
    maybeDumpFlight(result, limit.has_value());
    return result;
  }

 private:
  double absTol() const { return 1e-9; }

  /// The budget (wall clock, nodes, simplex iterations) that is exhausted,
  /// as the status a search stopped by it reports without an incumbent;
  /// nullopt while all three remain.
  std::optional<SolveStatus> limitReached() const {
    if (elapsedSeconds() > params_.time_limit_seconds)
      return SolveStatus::TimeLimit;
    if (stats_.nodes_explored >= params_.node_limit)
      return SolveStatus::NodeLimit;
    if (stats_.simplex_iterations >= params_.simplex_iteration_limit)
      return SolveStatus::IterLimit;
    return std::nullopt;
  }

  void maybeDumpFlight(const Solution& result, bool hit_limit) const {
    if (flight_ &&
        flight_->shouldDump(hit_limit, result.stats.wall_seconds)) {
      flight_->dump(toString(result.status), result.stats.wall_seconds);
    }
  }

  /// Objective threshold for pruning: the incumbent's, +inf without one.
  double incumbentBound() const {
    return has_incumbent_ ? incumbent_obj_ : kInfinity;
  }

  /// Whether a node with LP bound `bound` can be dropped: it cannot beat
  /// the incumbent, or it exceeds the caller's objective cutoff (a bound
  /// equal to the cutoff is kept). With an infinite cutoff this is the
  /// incumbent test alone, so such a search is the uncut one.
  bool pruned(double bound) const {
    return bound >= incumbentBound() - absTol() || bound > cutoff_;
  }

  double elapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  void fillStats(Solution& result) {
    stats_.wall_seconds = elapsedSeconds();
    stats_.best_bound = open_.empty() ? incumbentBound() : open_.top().bound;
    result.stats = stats_;
  }

  bool gapClosed() const {
    if (!has_incumbent_) return false;
    if (open_.empty()) return true;
    const double gap = (incumbent_obj_ - open_.top().bound) /
                       std::max(1.0, std::abs(incumbent_obj_));
    return gap <= kMipGap;
  }

  // ---- incremental bound tracking ----------------------------------------
  //
  // The current bound vectors mirror one root-to-node path of the tree.
  // Moving to another node undoes bound changes up to the lowest common
  // ancestor and applies the target's chain from there — O(path distance)
  // instead of the two full O(n) vector copies a per-node rebuild costs.

  struct Frame {
    int node = -1;
    std::size_t undo_begin = 0;  ///< first undo_ entry owned by this frame
  };
  struct Undo {
    VarId var = -1;
    double lower = 0.0;
    double upper = 0.0;
  };

  void setCurrentBounds(VarId var, double lower, double upper) {
    undo_.push_back(Undo{var, lower_[static_cast<std::size_t>(var)],
                         upper_[static_cast<std::size_t>(var)]});
    lower_[static_cast<std::size_t>(var)] = lower;
    upper_[static_cast<std::size_t>(var)] = upper;
  }

  void pushFrame(int node_id) {
    path_.push_back(Frame{node_id, undo_.size()});
    on_path_[static_cast<std::size_t>(node_id)] = 1;
    const Node& n = nodes_[static_cast<std::size_t>(node_id)];
    if (n.var >= 0) setCurrentBounds(n.var, n.lower, n.upper);
    for (int k = 0; k < n.extra_count; ++k) {
      const LpBackend::Fix& fix =
          rc_fixes_[static_cast<std::size_t>(n.extra_begin + k)];
      setCurrentBounds(fix.var, fix.value, fix.value);
    }
  }

  void popFrame() {
    const Frame frame = path_.back();
    path_.pop_back();
    on_path_[static_cast<std::size_t>(frame.node)] = 0;
    while (undo_.size() > frame.undo_begin) {
      const Undo& u = undo_.back();
      lower_[static_cast<std::size_t>(u.var)] = u.lower;
      upper_[static_cast<std::size_t>(u.var)] = u.upper;
      undo_.pop_back();
    }
  }

  void moveTo(int node) {
    chain_.clear();
    int n = node;
    while (!on_path_[static_cast<std::size_t>(n)]) {
      chain_.push_back(n);
      n = nodes_[static_cast<std::size_t>(n)].parent;
    }
    while (path_.back().node != n) popFrame();
    for (auto it = chain_.rbegin(); it != chain_.rend(); ++it) pushFrame(*it);
  }

  /// Record the fixes in fix_buffer_ on `node_id` (the current path top) and
  /// apply them to the live bounds so both children see them.
  void applyRcFixes(int node_id) {
    Node& n = nodes_[static_cast<std::size_t>(node_id)];
    n.extra_begin = static_cast<int>(rc_fixes_.size());
    n.extra_count = static_cast<int>(fix_buffer_.size());
    for (const LpBackend::Fix& fix : fix_buffer_) {
      rc_fixes_.push_back(fix);
      setCurrentBounds(fix.var, fix.value, fix.value);
    }
    stats_.rc_fixed += static_cast<std::int64_t>(fix_buffer_.size());
  }

  /// Branch-variable selection: pseudocost branching, falling back to
  /// most-fractional until at least one degradation has been observed.
  /// Returns -1 when the LP point is integral within tolerance.
  VarId pickBranchVariable(const std::vector<double>& values) const {
    if (pc_observations_[0] > 0 || pc_observations_[1] > 0)
      return pickPseudocost(values);
    return pickMostFractional(values);
  }

  /// Most-fractional branching: the integer variable whose LP value is
  /// farthest from the nearest integer.
  VarId pickMostFractional(const std::vector<double>& values) const {
    VarId best = -1;
    double best_frac = kIntegralityTol;
    for (VarId v : integer_vars_) {
      const double value = values[static_cast<std::size_t>(v)];
      const double frac = std::abs(value - std::round(value));
      if (frac > best_frac) {
        best_frac = frac;
        best = v;
      }
    }
    return best;
  }

  /// Product-rule pseudocost branching: score each fractional variable by
  /// the product of its estimated down and up LP-bound degradations, using
  /// the direction's global average for variables without history. Strictly
  /// greater score wins and integer_vars_ is scanned in ascending id order,
  /// so ties resolve to the smallest variable id — deterministic.
  VarId pickPseudocost(const std::vector<double>& values) const {
    const double avg_down = pc_observations_[0] > 0
                                ? pc_total_[0] / static_cast<double>(
                                                     pc_observations_[0])
                                : 1.0;
    const double avg_up = pc_observations_[1] > 0
                              ? pc_total_[1] / static_cast<double>(
                                                   pc_observations_[1])
                              : 1.0;
    VarId best = -1;
    double best_score = -1.0;
    for (VarId v : integer_vars_) {
      const std::size_t vi = static_cast<std::size_t>(v);
      const double value = values[vi];
      if (std::abs(value - std::round(value)) <= kIntegralityTol)
        continue;
      const double f_down = value - std::floor(value);
      const double f_up = 1.0 - f_down;
      const double pcd =
          pc_count_[0][vi] > 0
              ? pc_sum_[0][vi] / static_cast<double>(pc_count_[0][vi])
              : avg_down;
      const double pcu =
          pc_count_[1][vi] > 0
              ? pc_sum_[1][vi] / static_cast<double>(pc_count_[1][vi])
              : avg_up;
      const double score =
          std::max(1e-6, f_down * pcd) * std::max(1e-6, f_up * pcu);
      if (score > best_score) {
        best_score = score;
        best = v;
      }
    }
    return best;
  }

  /// Show `point`, integral and feasible for the model, to the lazy-row
  /// callback. Rows it returns are appended to the model and to the engine
  /// in step and counted in stats_.lazy_rows; the point is rejected then.
  bool lazyAccepts(const std::vector<double>& point) {
    if (!lazy_) return true;
    const std::vector<LpBackend::CutRow> rows = lazy_(point);
    if (rows.empty()) return true;
    for (const LpBackend::CutRow& row : rows) {
      LinExpr expr;
      for (const auto& [var, coeff] : row.terms) expr.add(var, coeff);
      model_.addConstr(expr, row.sense, row.rhs, "lazy_row");
    }
    engine_->addCutRows(rows);
    stats_.lazy_rows += static_cast<std::int64_t>(rows.size());
    return false;
  }

  /// Round a node's integral LP point and make it the incumbent if it
  /// improves on it, stays feasible and the lazy rows accept it. Returns
  /// false only when the lazy rows rejected it.
  bool offerIncumbent(const LpResult& lp) {
    std::vector<double> values = lp.values;
    for (VarId v : integer_vars_) {
      auto& value = values[static_cast<std::size_t>(v)];
      value = std::round(value);
    }
    const double objective = model_.objective().evaluate(values);
    if (has_incumbent_ && objective >= incumbent_obj_ - absTol()) return true;
    if (!model_.isFeasible(values, 1e-5)) {
      // Snapping pushed the point out of the feasible region (can happen on
      // near-degenerate LPs); keep searching instead of accepting it.
      PDW_LOG(Debug, "ilp") << "rejecting numerically infeasible incumbent";
      return true;
    }
    if (!lazyAccepts(values)) return false;
    incumbent_ = std::move(values);
    incumbent_obj_ = objective;
    has_incumbent_ = true;
    if (flight_)
      flight_->record(obs::FlightEventKind::Incumbent, -1, incumbent_obj_,
                      static_cast<double>(stats_.nodes_explored));
    return true;
  }

  void pushChild(int parent, VarId var, double lower, double upper,
                 double bound, double branch_dist, bool up_branch) {
    if (lower > upper + 1e-9) return;  // empty branch
    Node node;
    node.parent = parent;
    node.var = var;
    node.lower = lower;
    node.upper = upper;
    node.bound = bound;
    node.depth = nodes_[static_cast<std::size_t>(parent)].depth + 1;
    node.branch_dist = branch_dist;
    node.up_branch = up_branch;
    nodes_.push_back(node);
    on_path_.push_back(0);
    open_.push(QueueEntry{bound, static_cast<int>(nodes_.size()) - 1});
  }

  Model& model_;
  const SolveParams& params_;
  const LazyRows& lazy_;
  obs::FlightRecorder* flight_ = nullptr;
  /// Taken before the engine is built: the engine counts its wall-clock
  /// budget from its construction, so its deadline never precedes the
  /// search's time limit, and a node LP it stops ends the search.
  Clock::time_point start_;
  std::unique_ptr<LpBackend> engine_;
  /// params_.objective_cutoff plus the MIP gap's tolerance, so a node bound
  /// that equals the cutoff up to rounding is never pruned.
  double cutoff_;

  std::vector<VarId> integer_vars_;
  std::vector<Node> nodes_;
  std::priority_queue<QueueEntry, std::vector<QueueEntry>,
                      std::greater<QueueEntry>>
      open_;

  std::vector<double> lower_, upper_;  // bounds of the current path
  std::vector<Frame> path_;
  std::vector<Undo> undo_;
  std::vector<char> on_path_;
  std::vector<int> chain_;
  std::vector<LpBackend::Fix> rc_fixes_;
  std::vector<LpBackend::Fix> fix_buffer_;

  std::vector<double> incumbent_;
  double incumbent_obj_ = kInfinity;
  bool has_incumbent_ = false;

  /// Per-variable pseudocosts, indexed [direction][var] with direction
  /// 0 = down, 1 = up: running sum of per-unit LP-bound degradations and
  /// the number of observations.
  std::vector<double> pc_sum_[2];
  std::vector<std::int64_t> pc_count_[2];
  std::int64_t pc_observations_[2] = {0, 0};
  double pc_total_[2] = {0.0, 0.0};

  SolveStats stats_;
};

}  // namespace

Solution solveMip(Model model, const SolveParams& params,
                  const LazyRows& lazy) {
  PDW_TRACE_SPAN("ilp", "solve_mip");
  const auto start = Clock::now();
  const auto wallSeconds = [start] {
    return std::chrono::duration<double>(Clock::now() - start).count();
  };

  if (model.numIntegerVars() == 0 && !lazy) {
    LpResult lp = solveLp(model, params);
    Solution result;
    result.stats.simplex_iterations = lp.iterations;
    switch (lp.status) {
      case LpStatus::Optimal:
        result.status = SolveStatus::Optimal;
        result.objective = lp.objective;
        result.values = std::move(lp.values);
        result.stats.best_bound = result.objective;
        break;
      case LpStatus::Infeasible:
        result.status = SolveStatus::Infeasible;
        break;
      case LpStatus::Unbounded:
        result.status = SolveStatus::Unbounded;
        break;
      case LpStatus::IterLimit:
        result.status = SolveStatus::IterLimit;
        break;
    }
    recordMipSolve(result, wallSeconds());
    return result;
  }

  // "canonical" is the lane label the pdw-flight-1 stream and obs_check's
  // reconciliation use.
  std::unique_ptr<obs::FlightRecorder> flight;
  if (params.flight.enabled)
    flight = std::make_unique<obs::FlightRecorder>(params.flight, "canonical");

  Solution result;
  {
    PDW_TRACE_SPAN("ilp", "branch_and_bound");
    BranchAndBound search(model, params, lazy, flight.get());
    result = search.run();
  }
  recordMipSolve(result, wallSeconds());
  return result;
}

}  // namespace pdw::ilp
