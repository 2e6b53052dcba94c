// The vectorized batch execution engine.
//
// ExecuteVectorized compiles an AnnotatedPlan into a tree of vectorized
// physical operators over columnar data (core/column_batch.h) and runs it:
// scans convert base relations to ColumnTables batch-wise, selections and
// projections evaluate compiled expressions over column batches into
// selection vectors / fresh columns, joins run over flat period arrays, and
// the order/duplicate-sensitive operations (rdup, rdupT, coalT, \T, ∪T, ℵT)
// run the reference algorithms over row indices and typed columns instead of
// per-tuple Value vectors.
//
// The list-semantics parity contract: for every plan, configuration (both
// dbms_scrambles_order modes), and catalog, the returned Relation is
// LIST-IDENTICAL to exec/evaluator.h's Evaluate — the same tuples, in the
// same order, with the same surviving occurrences under duplicate
// elimination, the same difference fragment order, the same rdupT in-place
// period replacement, and the same order annotation. This is enforced by the
// randomized A/B suite in tests/test_vexec.cc; the speedup is gated by
// bench/bench_vexec_pipeline.cc (>= 5x rows/s over the reference evaluator
// on a 1M-row coalesce + temporal-join + sort pipeline).
//
// The kernels run through the plan driver the reference evaluator shares
// (exec/plan_driver.h): profile/span stamping, the result-cache splice,
// transferS pushdown, the per-site work, transfer, and operator counters,
// and the DBMS scramble condition exist once. The vectorized policy adds
// the batch/materialization counters (ExecStats::vec_batches /
// vec_materializations / vec_rows) and the fused σ-over-× hash join.
#ifndef TQP_VEXEC_VEXEC_H_
#define TQP_VEXEC_VEXEC_H_

#include "exec/evaluator.h"

namespace tqp {

/// Tuning knobs of the vectorized executor. Semantics never depend on them:
/// any thread count, morsel size, or memory budget produces the same result
/// list, byte for byte (tests/test_vexec.cc locks this in).
struct VexecOptions {
  /// Rows per column batch processed at a time by the scan/filter/projection
  /// kernels. Also the granularity of ExecStats::vec_batches.
  size_t batch_size = 1024;
  /// Worker threads of the morsel scheduler (core/task_pool.h). 1 (default)
  /// runs every kernel inline on the calling thread — the exact
  /// pre-parallelism code path; N > 1 splits kernels into morsels whose
  /// results are stitched in deterministic input order, so the output is
  /// byte-identical to the serial run.
  size_t threads = 1;
  /// Rows per morsel when threads > 1.
  size_t morsel_rows = 32768;
  /// Approximate per-operator materialization budget in bytes. When an
  /// input exceeds it, sort switches to an external merge sort (spilled
  /// runs) and rdup/coalesce/aggregate partition their class/group tables
  /// to a temp file (core/spill.h), processing one partition at a time.
  /// 0 (default) = unlimited, never spill.
  uint64_t memory_budget = 0;
};

/// Evaluates an annotated plan with the vectorized engine. Drop-in
/// equivalent of Evaluate(): same result list, same order annotation, same
/// error statuses, same simulated cost accounting — including the optional
/// per-plan-node `profile` tree (core/profile.h; batches filled here).
Result<Relation> ExecuteVectorized(const AnnotatedPlan& plan,
                                   const EngineConfig& config = {},
                                   ExecStats* stats = nullptr,
                                   const VexecOptions& options = {},
                                   ProfileNode* profile = nullptr);

/// Convenience twin of EvaluatePlan(): annotates a raw plan tree (multiset
/// contract) and executes it vectorized. Intended for tests.
Result<Relation> ExecuteVectorizedPlan(const PlanPtr& plan,
                                       const Catalog& catalog,
                                       const EngineConfig& config = {},
                                       ExecStats* stats = nullptr,
                                       const VexecOptions& options = {});

}  // namespace tqp

#endif  // TQP_VEXEC_VEXEC_H_
