// The query plan enumeration algorithm of Figure 5, memo-based.
//
// A deterministic worklist explores the space of plans reachable from the
// initial plan through the given transformation rules. A rule of equivalence
// type T is applicable at a location l iff the Table 2 properties of every
// operation at l admit T (the disjunction in Figure 5):
//
//   ≡L   always
//   ≡M   ∀op∈l ¬OrderRequired
//   ≡S   ∀op∈l ¬DuplicatesRelevant ∧ ¬OrderRequired
//   ≡SL  ∀op∈l ¬PeriodPreserving
//   ≡SM  ∀op∈l ¬OrderRequired ∧ ¬PeriodPreserving
//   ≡SS  ∀op∈l ¬DuplicatesRelevant ∧ ¬OrderRequired ∧ ¬PeriodPreserving
//
// Per Section 4.5, an ≡L rule whose location contains DBMS-site operations is
// weakened to ≡M (the DBMS does not guarantee result order), except for
// order-safe rules (the sort relocation rules and sort elimination).
//
// Search structure: every produced plan is hash-consed through a
// PlanInterner, so plan identity is a pointer comparison and the set of
// explored plans is a memo keyed by canonical root (an O(1) probe per
// candidate, instead of the seed implementation's canonical-string
// serialization). Rules rewrite at a location path — only the spine above
// the rewritten node is rebuilt — and each distinct plan is annotated exactly
// once, against a cross-plan DerivationCache of bottom-up node information.
// The legacy string-dedup worklist is kept behind
// EnumerationOptions::use_legacy_string_dedup for A/B measurement
// (bench_fig5_enumeration); both produce the identical plan sequence.
//
// Frontier ordering: unexpanded plans are held in a frontier that is either
// FIFO (breadth-first, the default — the exact Figure 5 order) or a priority
// queue keyed by estimated plan cost with admission-index tie-break
// (best-first, cost-directed). Cost-bounded pruning and an explicit
// expansion budget apply under either order; see EnumerationOptions.
//
// Parallelism: with EnumerationOptions::num_threads > 1, worker threads
// expand plans (rule matching, gating, candidate fingerprints — the pure,
// memo-independent part) from a shared work-stealing frontier while the
// calling thread replays admission serially in the exact single-threaded
// order. The admitted plan set, derivation edges, costs, and all counters
// are byte-identical to the serial run by construction; see
// enumerate_internal.h for the expand/replay split.
//
// Termination: the default rule set excludes expanding rules (Section 6) and
// a plan-size growth bound caps rule chains that grow plans (e.g. repeated
// commutativity wrappers).
#ifndef TQP_OPT_ENUMERATE_H_
#define TQP_OPT_ENUMERATE_H_

#include <set>
#include <string>
#include <vector>

#include "exec/cost_model.h"
#include "rules/rules.h"

namespace tqp {

class PlanInterner;

/// How the memo enumerator orders its frontier of unexpanded plans.
enum class SearchStrategy {
  /// Expand plans in admission order (the paper's Figure 5 loop). The
  /// default: exhaustive up to the budgets, and the reference order the A/B
  /// byte-identity checks compare against.
  kBreadthFirst,
  /// Expand the cheapest unexpanded plan first (cost-directed), under the
  /// same cost model the optimizer's final choice uses. With a pruning
  /// factor and/or an expansion budget this reaches near-optimal plans
  /// while expanding a fraction of the space (bench_bestfirst_search).
  /// Ties break on admission index, so the search stays deterministic.
  kBestFirst,
};

/// Options controlling the enumeration.
struct EnumerationOptions {
  /// Stop after this many distinct plans admitted to the memo (the initial
  /// plan counts). Raw rule matches and memo hits do not count.
  size_t max_plans = 4000;
  /// Skip replacement plans that exceed the initial size by this many nodes.
  size_t max_plan_growth = 8;
  /// Which equivalence types may be exploited; the Figure 5 gating applies on
  /// top of this. Restricting this set is the ablation knob of
  /// bench_fig5_enumeration.
  std::set<EquivalenceType> admitted = {
      EquivalenceType::kList,         EquivalenceType::kMultiset,
      EquivalenceType::kSet,          EquivalenceType::kSnapshotList,
      EquivalenceType::kSnapshotMultiset, EquivalenceType::kSnapshotSet,
  };
  /// Frontier ordering; see SearchStrategy. Only the memo path supports
  /// kBestFirst (the legacy path rejects it).
  SearchStrategy strategy = SearchStrategy::kBreadthFirst;
  /// Cost-bounded pruning: when > 0, a plan whose estimated cost exceeds
  /// `cost_prune_factor` times the cheapest cost seen so far is still
  /// admitted to the result but never expanded. The decision is made when
  /// the plan is popped from the frontier, against the bound at that moment;
  /// the bound only ever tightens, so a plan that fails the check once could
  /// never pass it later — pruned plans are final and are not re-queued,
  /// which makes `cost_pruned` a deterministic function of the admitted
  /// sequence under both strategies. 0 (default) disables pruning, so
  /// exhaustive benches and the completeness tests are unaffected. Only the
  /// memo path supports pruning.
  double cost_prune_factor = 0.0;
  /// Adaptive pruning feedback (off by default; requires cost_prune_factor
  /// > 0): every time the incumbent best cost improves, the *effective*
  /// pruning factor is multiplied by `adaptive_prune_decay`, never dropping
  /// below `adaptive_prune_floor` — the search prunes more aggressively the
  /// better the plans it has already found. The effective factor is a
  /// deterministic function of the admitted plan sequence (improvements
  /// happen at admission, which is serial under every driver), so repeated
  /// runs, warm caches, and the parallel driver remain byte-identical with
  /// the feedback on (tests/test_enumerate_cost.cc).
  bool adaptive_pruning = false;
  /// Multiplicative tightening applied to the effective pruning factor on
  /// each incumbent improvement.
  double adaptive_prune_decay = 0.9;
  /// Lower bound of the effective pruning factor under adaptive tightening.
  /// Clamped to cost_prune_factor, so the feedback can only ever tighten
  /// the configured factor, never raise it.
  double adaptive_prune_floor = 1.05;
  /// Exploration budget: stop after this many plans have been expanded
  /// (pruned pops do not count). 0 (default) = unlimited. Only the memo
  /// path enforces it.
  size_t max_expansions = 0;
  /// Threads for the memo search. 1 (default) runs the serial driver — the
  /// lock-free fast path, byte-identical to every earlier release. >1 runs
  /// the parallel driver: worker threads expand and materialize plans from
  /// a shared work-stealing frontier while the calling thread replays
  /// admission serially, so the admitted plan sequence (fingerprints,
  /// parents, rule ids, canonical strings), the per-plan costs, and every
  /// search counter (matches, admitted, gated_out, memo_hits, cost_pruned,
  /// expanded, truncated) are byte-identical to the num_threads=1 run under
  /// either search strategy, with pruning and budgets included
  /// (tests/test_parallel_enumerate.cc locks this; bench_parallel_search
  /// gates the speedup). Only the interner/cache session totals may differ
  /// — they additionally count speculative work. 0 = one thread per
  /// hardware core. The parallel driver switches any session
  /// interner/derivation pair it is given into concurrent (striped-lock)
  /// mode permanently. The legacy string-dedup path rejects
  /// num_threads > 1.
  size_t num_threads = 1;
  /// Cost/cardinality models backing the pruning bound and the best-first
  /// frontier order.
  EngineConfig cost_engine;
  CardinalityParams cardinality;
  /// Run the seed implementation (canonical-string dedup, two annotation
  /// passes per plan, no interning). Kept as the before-side of the
  /// before/after comparison in bench_fig5_enumeration.
  bool use_legacy_string_dedup = false;
  /// Fill EnumeratedPlan::canonical with the plan's canonical string. Plan
  /// identity is fingerprint/pointer-based, so the memo path only serializes
  /// for callers that assert on strings (tests, the A/B bench); the Engine
  /// facade turns this off. The legacy path always fills it — the string IS
  /// its dedup key.
  bool fill_canonical = true;
  /// Per-query span recorder (core/trace.h); non-owning, nullptr = untraced.
  /// The enumeration drivers emit one span per run with the search counters
  /// as attributes, plus per-expansion spans on the serial memo path.
  Tracer* tracer = nullptr;
};

/// One enumerated plan with its derivation edge.
struct EnumeratedPlan {
  PlanPtr plan;
  std::string canonical;
  /// Structural fingerprint of the plan (equals plan->fingerprint()).
  uint64_t fingerprint = 0;
  /// Index of the plan this one was derived from; -1 for the initial plan.
  int parent = -1;
  /// Rule that produced it (empty for the initial plan).
  std::string rule_id;
};

/// The enumeration outcome.
struct EnumerationResult {
  std::vector<EnumeratedPlan> plans;
  bool truncated = false;
  /// Rule applications attempted (match found) / admitted by the gating.
  size_t matches = 0;
  size_t admitted = 0;
  /// Applications rejected by the Figure 5 property gating.
  size_t gated_out = 0;
  /// Candidates dropped because their canonical root was already in the memo
  /// (the memo path's analogue of a string-dedup rejection).
  size_t memo_hits = 0;
  /// Distinct plan nodes owned by the interning table at the end.
  /// Session/driver totals, not search outcomes: with session caches they
  /// accumulate across queries, and under the parallel driver they include
  /// speculative materialization of candidates the admission loop later
  /// dropped. All other counters are deterministic across drivers.
  size_t interner_nodes = 0;
  /// Intern() visits resolved to an already-canonical node (same caveat).
  size_t interner_hits = 0;
  /// Bottom-up derivation-cache entries at the end (same caveat).
  size_t cache_nodes = 0;
  /// Plans admitted to the result but not expanded due to cost pruning.
  size_t cost_pruned = 0;
  /// Plans actually expanded (popped from the frontier and not pruned).
  /// Equals plans.size() for an exhaustive run, on the memo and legacy
  /// paths alike.
  size_t expanded = 0;
  /// Estimated cost of each admitted plan, aligned with `plans`. Filled only
  /// when the enumeration costs plans at all (pruning enabled or best-first
  /// strategy); empty otherwise. Computed against the same derivation cache
  /// and models the optimizer's final choice uses, so Optimize can reuse
  /// these instead of re-costing the whole set.
  std::vector<double> costs;

  /// Reconstructs the rule chain that derived plan `index` from the initial
  /// plan (oldest first). Robust to plans whose parents appear at any
  /// earlier index, regardless of expansion order.
  std::vector<std::string> DerivationOf(size_t index) const;
};

/// Runs the Figure 5 algorithm. Fails only if the initial plan is malformed.
Result<EnumerationResult> EnumeratePlans(const PlanPtr& initial,
                                         const Catalog& catalog,
                                         const QueryContract& contract,
                                         const std::vector<Rule>& rules,
                                         const EnumerationOptions& options = {});

/// Same, threading session-scoped search state: `interner` hash-conses every
/// admitted plan and `derivation` memoizes bottom-up node information, so a
/// caller serving repeated queries (tqp::Engine) pays for subtree derivation
/// only the first time a subtree appears anywhere in the session. Either may
/// be nullptr (a call-local one is used). A shared cache is only sound
/// against one catalog version and one CardinalityParams setting — the
/// Engine invalidates both on catalog mutation. The legacy string-dedup path
/// does not intern and ignores both. The enumerated plan sequence is
/// independent of cache warmth (warm/cold runs are byte-identical); only the
/// interner/cache counters in EnumerationResult reflect session totals.
Result<EnumerationResult> EnumeratePlans(const PlanPtr& initial,
                                         const Catalog& catalog,
                                         const QueryContract& contract,
                                         const std::vector<Rule>& rules,
                                         const EnumerationOptions& options,
                                         PlanInterner* interner,
                                         DerivationCache* derivation);

/// True iff a rule of type `equiv` is admitted at a location given the
/// properties of the location's operations (the Figure 5 disjunction).
/// Exposed for tests and the property benches; an AnnotatedPlan converts
/// implicitly into the PlanContext view.
bool RuleAdmitted(EquivalenceType equiv,
                  const std::vector<const PlanNode*>& location,
                  const PlanContext& ctx);

/// Rules that may keep their ≡L claim when their location includes DBMS-site
/// operations (Section 4.5's sort exception).
bool IsOrderSafeAcrossSites(const std::string& rule_id);

}  // namespace tqp

#endif  // TQP_OPT_ENUMERATE_H_
