// Physical evaluation of plans with the paper's exact list semantics.
//
// Every operation of Table 1 is implemented so its result — as a *list* — is
// the one the paper's λ-calculus definitions prescribe, including which
// occurrence survives duplicate elimination, the order of difference
// fragments, and the in-place replacement discipline of rdupT (Section 2.5).
//
// Evaluate runs these kernels through the plan driver (exec/plan_driver.h)
// that the vectorized engine shares. The driver simulates the layered
// architecture: operators annotated with the DBMS site execute in the "DBMS
// engine", whose non-sort results have no guaranteed order (Section 4.5). To
// keep that honest rather than notational, the engine can deterministically
// shuffle DBMS results (EngineConfig::dbms_scrambles_order), so any rule or
// plan that incorrectly relies on DBMS order fails tests. The driver also
// splices cached cut-point results, pushes transferS cuts to the backend,
// and does the cost accounting (simulated work units and transfer volume)
// that feeds the stratum-vs-DBMS placement benchmarks.
#ifndef TQP_EXEC_EVALUATOR_H_
#define TQP_EXEC_EVALUATOR_H_

#include <cstdint>
#include <map>
#include <string>

#include "algebra/derivation.h"
#include "algebra/plan.h"
#include "core/catalog.h"
#include "exec/cost_model.h"

namespace tqp {

/// Simulated and measured execution statistics. The work/transfer/operator
/// counters are filled by the plan driver both executors share
/// (exec/plan_driver.h), so they agree between the reference evaluator and
/// the vectorized engine (src/vexec); the vec_* counters are only non-zero
/// on the vectorized path.
struct ExecStats {
  /// Abstract work units, split by site.
  double dbms_work = 0.0;
  double stratum_work = 0.0;
  /// Tuples crossing TS/TD operations.
  int64_t tuples_transferred = 0;
  /// Tuples produced by every operator (intermediate result volume).
  int64_t tuples_produced = 0;
  /// Operator invocations by kind name.
  std::map<std::string, int64_t> op_counts;

  /// Column batches consumed by the vectorized executor (input rows per
  /// VexecOptions::batch_size, summed over operators). 0 on the reference
  /// path.
  int64_t vec_batches = 0;
  /// Columnar operator-output materializations, including the DBMS order
  /// scramble rebuilds. 0 on the reference path.
  int64_t vec_materializations = 0;
  /// Rows produced through the vectorized pipeline (the batch-engine twin
  /// of tuples_produced). 0 on the reference path.
  int64_t vec_rows = 0;

  /// Morsels executed / morsels obtained by stealing, from the vectorized
  /// executor's work-stealing scheduler (VexecOptions::threads > 1).
  /// Telemetry only — both depend on thread timing and are excluded from
  /// every determinism contract. 0 on the reference and serial paths.
  int64_t morsels = 0;
  int64_t steals = 0;
  /// Bytes written to spill files and spill units created (external-sort
  /// runs + class-table partitions) under VexecOptions::memory_budget.
  /// Deterministic for a fixed plan/catalog/options. 0 when nothing spills.
  int64_t spill_bytes = 0;
  int64_t spill_runs = 0;

  /// Conventional cut subplans executed natively by the backend (the subtree
  /// under a transferS fetched as one SQL statement), rows fetched across
  /// that boundary, and pushdown attempts abandoned at runtime in favor of
  /// in-engine evaluation. All 0 under the simulated backend. Nodes inside a
  /// pushed subtree are not individually accounted (no op_counts /
  /// tuples_produced / work entries) — the DBMS ran them as one statement.
  int64_t backend_pushdowns = 0;
  int64_t backend_rows = 0;
  int64_t backend_fallbacks = 0;
  /// Pushdown-eligible cut points the SQL serializer refused up front
  /// (inexpressible subtree — e.g. temporal operators below the cut), as
  /// opposed to backend_fallbacks, which counts pushdowns abandoned *after*
  /// a runtime SQL error. Only non-zero when a pushdown-capable backend is
  /// configured.
  int64_t backend_refusals = 0;

  /// Subplan result-cache probes at transfer/root cut points, when the
  /// engine runs with incremental execution enabled. A hit splices the
  /// cached relation and skips the whole subtree (no op_counts / work
  /// entries below the cut, like a backend pushdown). Both 0 when the
  /// cache is disabled.
  int64_t result_cache_hits = 0;
  int64_t result_cache_misses = 0;

  double total_work() const { return dbms_work + stratum_work; }

  /// One flat JSON object with every counter above (op_counts nested as
  /// "ops"). The single rendering of execution statistics: the service
  /// layer's response frames and the bench JSON embed this same string, so
  /// the two cannot drift apart.
  std::string ToJson() const;
};

struct ProfileNode;

/// Evaluates an annotated plan against its catalog. The returned relation's
/// order annotation matches the derivation's static order.
///
/// `profile`, when non-null, is filled as the root of a per-plan-node
/// execution profile (core/profile.h) mirroring the plan tree — the EXPLAIN
/// ANALYZE surface. Tracing rides on config.tracer independently.
Result<Relation> Evaluate(const AnnotatedPlan& plan,
                          const EngineConfig& config = {},
                          ExecStats* stats = nullptr,
                          ProfileNode* profile = nullptr);

/// Convenience: annotates (with a multiset contract) and evaluates a raw
/// plan tree. Intended for tests of operator semantics.
Result<Relation> EvaluatePlan(const PlanPtr& plan, const Catalog& catalog,
                              const EngineConfig& config = {},
                              ExecStats* stats = nullptr);

// ---- Direct operator-level entry points (shared with tests/benches). ----

/// σ_P: keeps tuples satisfying the predicate; retains order and duplicates.
Relation EvalSelect(const Relation& in, const ExprPtr& predicate);

/// π_{items}: computes each item per tuple; the paper's renaming conventions
/// (snapshot result when T1/T2 are not kept) are the planner's concern — this
/// simply materializes `schema` columns via the expressions.
Result<Relation> EvalProject(const Relation& in,
                             const std::vector<ProjItem>& items,
                             const Schema& out_schema);

/// ⊎: concatenation (union ALL).
Relation EvalUnionAll(const Relation& l, const Relation& r, Schema out_schema);

/// ∪: max-multiplicity union [Albert 1991]: l followed by the occurrences of
/// r exceeding their multiplicity in l.
Relation EvalUnion(const Relation& l, const Relation& r, Schema out_schema);

/// ×: Cartesian product, left-major order, product attribute renaming.
Relation EvalProduct(const Relation& l, const Relation& r, Schema out_schema);

/// \: multiset difference; for each right tuple the first remaining matching
/// left occurrence is removed; survivors keep their order.
Relation EvalDifference(const Relation& l, const Relation& r);

/// ℵ: grouping + aggregates; groups emitted in order of first occurrence.
Result<Relation> EvalAggregate(const Relation& in,
                               const std::vector<std::string>& group_by,
                               const std::vector<AggSpec>& aggs,
                               const Schema& out_schema);

/// rdup: keeps the first occurrence of each tuple; result schema renames
/// T1/T2 to 1.T1/1.T2 for temporal inputs (Figure 3).
Relation EvalRdup(const Relation& in, Schema out_schema);

/// sort_A: stable sort.
Relation EvalSort(const Relation& in, const SortSpec& spec);

/// ×T: pairs with overlapping periods; keeps both argument periods as
/// 1.T1..2.T2 and the overlap as T1/T2.
Relation EvalProductT(const Relation& l, const Relation& r, Schema out_schema);

/// \T: snapshot-reducible temporal multiset difference (see DESIGN.md §4.4).
Relation EvalDifferenceT(const Relation& l, const Relation& r);

/// ∪T: snapshot-reducible max-multiplicity union: l ⊎ (r \T l).
Relation EvalUnionT(const Relation& l, const Relation& r);

/// ℵT: snapshot-reducible aggregation over maximal constancy intervals.
Result<Relation> EvalAggregateT(const Relation& in,
                                const std::vector<std::string>& group_by,
                                const std::vector<AggSpec>& aggs,
                                const Schema& out_schema);

/// rdupT: the paper's recursive definition (Section 2.5), implemented
/// iteratively: the head tuple's period is subtracted, in place, from every
/// value-equivalent overlapping successor.
Relation EvalRdupT(const Relation& in);

/// coalT: merges value-equivalent tuples with adjacent periods; the merged
/// tuple stays at the position of its earliest fragment.
Relation EvalCoalesce(const Relation& in);

}  // namespace tqp

#endif  // TQP_EXEC_EVALUATOR_H_
