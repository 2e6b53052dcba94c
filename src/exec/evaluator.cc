// The reference executor: the plan driver over row Relations.
#include "exec/evaluator.h"

#include <optional>
#include <utility>
#include <vector>

#include "backend/simulated_backend.h"
#include "core/json.h"
#include "exec/plan_driver.h"

namespace tqp {

namespace {

/// The reference executor's side of the plan driver (exec/plan_driver.h):
/// rows are Relations, every operator is the list-semantics Eval* kernel.
struct RowPolicy {
  using Rows = Relation;
  static constexpr const char* kCategory = "exec";
  /// Folded into the result-cache contract fingerprint so the reference and
  /// vectorized executors never splice each other's intermediates (their
  /// root results agree by contract; their cut-point materializations are
  /// not required to).
  static constexpr uint64_t kExecutorTag = 1;

  const Catalog& catalog;

  static size_t RowCount(const Relation& r) { return r.size(); }
  static Relation FromRelation(Relation r) { return r; }
  static Relation ToRelation(const Relation& r) { return r; }

  static void Scramble(Relation* r, uint64_t seed, ExecStats* /*stats*/) {
    SimulatedBackend::ScrambleRelation(r, seed);
  }
  static void AccountExtra(size_t /*consumed_rows*/, size_t /*out_rows*/,
                           ExecStats* /*stats*/, ProfileNode* /*prof*/) {}
  static std::optional<Result<Relation>> PreChildren(
      PlanDriver<RowPolicy>& /*driver*/, const PlanPtr& /*node*/,
      ProfileNode* /*prof*/) {
    return std::nullopt;
  }

  /// Runs the node's kernel; the result carries the node's order annotation.
  Result<Relation> Apply(const PlanPtr& node, const NodeInfo& info,
                         std::vector<Relation>& in) {
    TQP_ASSIGN_OR_RETURN(out, Kernel(node, info, in));
    out.set_order(info.order);
    return std::move(out);
  }

  Result<Relation> Kernel(const PlanPtr& node, const NodeInfo& info,
                          std::vector<Relation>& in) {
    switch (node->kind()) {
      case OpKind::kScan: {
        const CatalogEntry* e = catalog.Find(node->rel_name());
        if (e == nullptr) return Status::NotFound(node->rel_name());
        return e->data;
      }
      case OpKind::kSelect:
        return EvalSelect(in[0], node->predicate());
      case OpKind::kProject:
        return EvalProject(in[0], node->projections(), info.schema);
      case OpKind::kUnionAll:
        return EvalUnionAll(in[0], in[1], info.schema);
      case OpKind::kUnion:
        return EvalUnion(in[0], in[1], info.schema);
      case OpKind::kProduct:
        return EvalProduct(in[0], in[1], info.schema);
      case OpKind::kDifference:
        return EvalDifference(in[0], in[1]);
      case OpKind::kAggregate:
        return EvalAggregate(in[0], node->group_by(), node->aggregates(),
                             info.schema);
      case OpKind::kRdup:
        return EvalRdup(in[0], info.schema);
      case OpKind::kProductT:
        return EvalProductT(in[0], in[1], info.schema);
      case OpKind::kDifferenceT:
        return EvalDifferenceT(in[0], in[1]);
      case OpKind::kAggregateT:
        return EvalAggregateT(in[0], node->group_by(), node->aggregates(),
                              info.schema);
      case OpKind::kRdupT:
        return EvalRdupT(in[0]);
      case OpKind::kUnionT:
        return EvalUnionT(in[0], in[1]);
      case OpKind::kSort:
        return EvalSort(in[0], node->sort_spec());
      case OpKind::kCoalesce:
        return EvalCoalesce(in[0]);
      case OpKind::kTransferS:
      case OpKind::kTransferD:
        return std::move(in[0]);
    }
    return Status::Error("unreachable operator kind");
  }
};

}  // namespace

std::string ExecStats::ToJson() const {
  JsonWriter w;
  w.BeginObject();
  w.Key("dbms_work").Double(dbms_work);
  w.Key("stratum_work").Double(stratum_work);
  w.Key("total_work").Double(total_work());
  w.Key("tuples_transferred").Int(tuples_transferred);
  w.Key("tuples_produced").Int(tuples_produced);
  w.Key("vec_batches").Int(vec_batches);
  w.Key("vec_materializations").Int(vec_materializations);
  w.Key("vec_rows").Int(vec_rows);
  w.Key("morsels").Int(morsels);
  w.Key("steals").Int(steals);
  w.Key("spill_bytes").Int(spill_bytes);
  w.Key("spill_runs").Int(spill_runs);
  w.Key("backend_pushdowns").Int(backend_pushdowns);
  w.Key("backend_rows").Int(backend_rows);
  w.Key("backend_fallbacks").Int(backend_fallbacks);
  w.Key("backend_refusals").Int(backend_refusals);
  w.Key("result_cache_hits").Int(result_cache_hits);
  w.Key("result_cache_misses").Int(result_cache_misses);
  w.Key("ops").BeginObject();
  for (const auto& [name, n] : op_counts) {
    w.Key(name).Int(n);
  }
  w.EndObject();
  w.EndObject();
  return w.Take();
}

Result<Relation> Evaluate(const AnnotatedPlan& plan, const EngineConfig& config,
                          ExecStats* stats, ProfileNode* profile) {
  RowPolicy policy{plan.catalog()};
  PlanDriver<RowPolicy> driver(plan, config, stats, policy);
  return driver.Eval(plan.plan(), profile);
}

Result<Relation> EvaluatePlan(const PlanPtr& plan, const Catalog& catalog,
                              const EngineConfig& config, ExecStats* stats) {
  TQP_ASSIGN_OR_RETURN(
      ann, AnnotatedPlan::Make(plan, &catalog, QueryContract::Multiset()));
  return Evaluate(ann, config, stats);
}

}  // namespace tqp
