// The per-node plan driver shared by both executors.
//
// The reference evaluator (exec/evaluator.cc) and the vectorized engine
// (vexec/vexec.cc) run one execution discipline over an AnnotatedPlan. Per
// plan node the driver:
//   - stamps the profile node and emits a span when either is requested
//     (the untraced, unprofiled path is two null tests);
//   - probes the subplan result cache at cut points (transfers and the
//     root) and splices a hit without running the subtree;
//   - intercepts a transferS cut the backend can run natively (pushdown),
//     counting pushdowns, runtime fallbacks and serializer refusals;
//   - recurses into the children, creating their profile nodes;
//   - accounts the node (operator counts, tuples produced, transfer / DBMS
//     / stratum work, profile rows in);
//   - models the DBMS's freedom over result order (Section 4.5) by
//     scrambling DBMS-site results.
//
// What differs between the executors is a compile-time Policy (no per-node
// virtual call):
//   using Rows = ...;                          // Relation or ColumnTable
//   static constexpr const char* kCategory;    // span category
//   static constexpr uint64_t kExecutorTag;    // folded into cache keys
//   static size_t RowCount(const Rows&);
//   Rows FromRelation(const Relation&);        // cache hit, pushdown fetch
//   Relation ToRelation(const Rows&);          // cache insert
//   Result<Rows> Apply(const PlanPtr&, const NodeInfo&, std::vector<Rows>&);
//   void Scramble(Rows*, uint64_t seed, ExecStats*);
//   void AccountExtra(size_t consumed_rows, size_t out_rows, ExecStats*,
//                     ProfileNode*);
//   std::optional<Result<Rows>> PreChildren(PlanDriver<Policy>&,
//                                           const PlanPtr&, ProfileNode*);
// PreChildren may take over a node before its children are evaluated (the
// vectorized engine's fused hash join); it calls back into Eval,
// AccountNode and MaybeScramble so the node is accounted as if unfused.
#ifndef TQP_EXEC_PLAN_DRIVER_H_
#define TQP_EXEC_PLAN_DRIVER_H_

#include <chrono>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "algebra/derivation.h"
#include "algebra/plan.h"
#include "backend/backend.h"
#include "core/profile.h"
#include "core/trace.h"
#include "exec/evaluator.h"
#include "exec/result_cache.h"

namespace tqp {

template <class Policy>
class PlanDriver {
 public:
  using Rows = typename Policy::Rows;

  PlanDriver(const AnnotatedPlan& ann, const EngineConfig& config,
             ExecStats* stats, Policy& policy)
      : ann_(ann),
        config_(config),
        stats_(stats),
        policy_(policy),
        contract_fp_(ContractFingerprint(ann.contract(), Policy::kExecutorTag)) {}

  const AnnotatedPlan& ann() const { return ann_; }
  const EngineConfig& config() const { return config_; }

  /// Evaluates `node`, filling `prof` (when non-null) as its profile node.
  Result<Rows> Eval(const PlanPtr& node, ProfileNode* prof) {
    if (config_.tracer == nullptr && prof == nullptr) {
      return EvalCached(node, nullptr);
    }
    std::chrono::steady_clock::time_point t0;
    if (prof != nullptr) t0 = std::chrono::steady_clock::now();
    TraceSpan span(config_.tracer, Policy::kCategory, OpKindName(node->kind()));
    Result<Rows> result = EvalCached(node, prof);
    if (prof != nullptr) {
      prof->op = node->Describe();
      prof->kind = OpKindName(node->kind());
      prof->wall_ns = static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - t0)
              .count());
      if (result.ok()) {
        prof->rows_out = static_cast<int64_t>(Policy::RowCount(result.value()));
      }
    }
    if (span.active() && result.ok()) {
      span.Arg("rows", static_cast<uint64_t>(Policy::RowCount(result.value())));
    }
    return result;
  }

  /// The simulated cost accounting of one node that consumed `in1` + `in2`
  /// rows and produced `out_rows`, plus the policy's own counters.
  void AccountNode(const PlanNode* node, const NodeInfo& info, double in1,
                   double in2, size_t out_rows, ProfileNode* prof) {
    const OpKind kind = node->kind();
    if (prof != nullptr) prof->rows_in = static_cast<int64_t>(in1 + in2);
    // A scan consumes the rows it produces.
    if (kind == OpKind::kScan) in1 = static_cast<double>(out_rows);
    policy_.AccountExtra(static_cast<size_t>(in1 + in2), out_rows, stats_,
                         prof);
    if (stats_ == nullptr) return;
    ++stats_->op_counts[OpKindName(kind)];
    stats_->tuples_produced += static_cast<int64_t>(out_rows);
    double units = OpWorkUnits(kind, in1, in2, static_cast<double>(out_rows));
    if (kind == OpKind::kTransferS || kind == OpKind::kTransferD) {
      stats_->tuples_transferred += static_cast<int64_t>(in1);
      stats_->stratum_work += in1 * config_.transfer_cost_per_tuple;
    } else if (info.site == Site::kDbms) {
      double penalty = IsTemporalOp(kind) ? config_.dbms_temporal_penalty : 1.0;
      stats_->dbms_work += units * penalty;
    } else {
      stats_->stratum_work += units * config_.stratum_cpu_factor;
    }
  }

  /// The DBMS may return any non-sort result in any order (Section 4.5).
  /// The scramble is a function of the row multiset only, so any dependence
  /// of downstream results on the input *order* surfaces in tests.
  void MaybeScramble(const PlanNode* node, const NodeInfo& info, Rows* rows) {
    const OpKind kind = node->kind();
    if (!config_.dbms_scrambles_order || info.site != Site::kDbms ||
        kind == OpKind::kSort || kind == OpKind::kScan ||
        kind == OpKind::kTransferD) {
      return;
    }
    TraceSpan span(config_.tracer, Policy::kCategory, "scramble");
    if (span.active()) {
      span.Arg("rows", static_cast<uint64_t>(Policy::RowCount(*rows)));
    }
    policy_.Scramble(rows, config_.scramble_seed, stats_);
  }

 private:
  /// Cut points where cached results are probed/installed: the transfer
  /// boundaries (where the layered architecture materializes anyway) and
  /// the root. Finer-grained caching would tax cold runs with a copy per
  /// operator for results that can only be spliced at materialization
  /// boundaries anyway.
  bool IsCachePoint(const PlanPtr& node) const {
    return node->kind() == OpKind::kTransferS ||
           node->kind() == OpKind::kTransferD || node == ann_.plan();
  }

  Result<Rows> EvalCached(const PlanPtr& node, ProfileNode* prof) {
    if (config_.result_cache == nullptr || !IsCachePoint(node)) {
      return EvalInner(node, prof);
    }
    const NodeInfo& info = ann_.info(node.get());
    SubplanCacheKey key = MakeSubplanCacheKey(
        node, info, ann_.catalog(), config_.result_cache_env, contract_fp_);
    auto cached = [&] {
      TraceSpan probe(config_.tracer, Policy::kCategory, "result_cache_probe");
      auto c = config_.result_cache->Lookup(key);
      if (probe.active()) probe.Arg("hit", uint64_t{c ? 1u : 0u});
      return c;
    }();
    if (cached) {
      // Splice: the cached relation carries the bytes, list order, and
      // order annotation the subtree would reproduce; nothing below the
      // cut is accounted (it did not run).
      if (stats_ != nullptr) ++stats_->result_cache_hits;
      if (prof != nullptr) prof->result_cache_hit = true;
      return policy_.FromRelation(*cached);
    }
    if (stats_ != nullptr) ++stats_->result_cache_misses;
    TQP_ASSIGN_OR_RETURN(result, EvalInner(node, prof));
    Relation rows = policy_.ToRelation(result);
    rows.set_order(info.order);
    config_.result_cache->Insert(key, std::move(rows));
    return std::move(result);
  }

  Result<Rows> EvalInner(const PlanPtr& node, ProfileNode* prof) {
    const NodeInfo& info = ann_.info(node.get());
    // A transferS cut whose subtree the backend can run natively is fetched
    // as one SQL statement instead of being evaluated here; only the
    // transfer itself is accounted. A runtime failure falls back to the
    // in-engine path below — pushdown is an optimization, never a
    // correctness dependency.
    if (node->kind() == OpKind::kTransferS && config_.backend != nullptr &&
        config_.backend->SupportsPushdown()) {
      if (CanPushCut(*config_.backend, node->child(0), ann_)) {
        auto pushed =
            ExecuteCutPoint(*config_.backend, node->child(0), ann_, config_);
        if (pushed.ok()) {
          Relation fetched = std::move(pushed).value();
          fetched.set_order(info.order);
          Rows result = policy_.FromRelation(std::move(fetched));
          const size_t rows = Policy::RowCount(result);
          if (stats_ != nullptr) {
            ++stats_->backend_pushdowns;
            stats_->backend_rows += static_cast<int64_t>(rows);
          }
          if (prof != nullptr) prof->backend_pushed = true;
          AccountNode(node.get(), info, static_cast<double>(rows), 0.0, rows,
                      nullptr);
          return result;
        }
        if (stats_ != nullptr) ++stats_->backend_fallbacks;
      } else if (stats_ != nullptr) {
        // The serializer cannot express the subtree (distinct from a
        // runtime SQL failure, which counts as a fallback above).
        ++stats_->backend_refusals;
      }
    }
    if (std::optional<Result<Rows>> taken =
            policy_.PreChildren(*this, node, prof)) {
      return std::move(*taken);
    }
    std::vector<Rows> inputs;
    inputs.reserve(node->children().size());
    for (const PlanPtr& c : node->children()) {
      ProfileNode* cp = nullptr;
      if (prof != nullptr) {
        prof->children.emplace_back();
        cp = &prof->children.back();
      }
      TQP_ASSIGN_OR_RETURN(r, Eval(c, cp));
      inputs.push_back(std::move(r));
    }
    // Capture input sizes before Apply: transfers move their input out.
    double in1 =
        inputs.empty() ? 0.0 : static_cast<double>(Policy::RowCount(inputs[0]));
    double in2 = inputs.size() < 2
                     ? 0.0
                     : static_cast<double>(Policy::RowCount(inputs[1]));
    TQP_ASSIGN_OR_RETURN(result, policy_.Apply(node, info, inputs));
    AccountNode(node.get(), info, in1, in2, Policy::RowCount(result), prof);
    MaybeScramble(node.get(), info, &result);
    return std::move(result);
  }

  const AnnotatedPlan& ann_;
  const EngineConfig& config_;
  ExecStats* stats_;
  Policy& policy_;
  /// Contract+executor digest, fixed for the whole evaluation.
  const uint64_t contract_fp_;
};

}  // namespace tqp

#endif  // TQP_EXEC_PLAN_DRIVER_H_
