// Internal machinery shared by the serial and parallel memo enumerators.
// Not part of the public API — include only from src/opt/enumerate*.cc.
//
// The split that makes deterministic parallelism possible:
//
//   * PlanExpander — expands ONE plan into its ordered list of
//     CandidateEvents (rule matching, Table 2 gating, candidate
//     fingerprints). This is the expensive part, and it is a pure function
//     of the plan: it reads only the plan's nodes, the rules, and the
//     (concurrent-safe) derivation cache — never the memo, frontier, or
//     counters. Expansions of distinct plans can therefore run on any
//     thread, in any order, and always produce the same events.
//   * SearchState — the serial admission state (memo, frontier, interner,
//     costs, counters). Replaying a plan's events in order against it
//     reproduces the exact single-threaded Figure 5 loop, so the parallel
//     driver's results are byte-identical to the serial driver's by
//     construction: parallelism moves expansion off the admission thread,
//     and admission itself never changes.
#ifndef TQP_OPT_ENUMERATE_INTERNAL_H_
#define TQP_OPT_ENUMERATE_INTERNAL_H_

#include <algorithm>
#include <array>
#include <functional>
#include <optional>
#include <queue>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "algebra/intern.h"
#include "opt/enumerate.h"

namespace tqp {
namespace enumerate_internal {

// Bound on a plan's unfolded (per-occurrence) node count: the per-plan walks
// are linear in it, and adversarial DAG chains could otherwise make it
// exponential in the node count.
constexpr size_t kMaxUnfoldedPlanSize = 1u << 20;

// Section 4.5: ≡L rules are weakened to ≡M when the location spans DBMS-site
// operations, except the order-safe sort rules.
inline EquivalenceType EffectiveEquivalence(const Rule& rule,
                                            const RuleMatch& match,
                                            const PlanContext& ctx) {
  EquivalenceType effective = rule.equivalence();
  if (effective == EquivalenceType::kList &&
      !IsOrderSafeAcrossSites(rule.id())) {
    for (const PlanNode* op : match.location) {
      if (ctx.info(op).site == Site::kDbms) {
        return EquivalenceType::kMultiset;
      }
    }
  }
  return effective;
}

// Canonical strings of interned plans, memoized per canonical node so the
// serialization of a shared subtree is built once across the whole plan
// space. Produces byte-identical output to CanonicalString().
class CanonicalCache {
 public:
  const std::string& Of(const PlanPtr& plan) {
    auto it = memo_.find(plan.get());
    if (it != memo_.end()) return it->second;
    std::string out = plan->Describe();
    if (!plan->children().empty()) {
      out += "(";
      for (size_t i = 0; i < plan->children().size(); ++i) {
        if (i > 0) out += ",";
        out += Of(plan->child(i));
      }
      out += ")";
    }
    return memo_.emplace(plan.get(), std::move(out)).first->second;
  }

 private:
  std::unordered_map<const PlanNode*, std::string> memo_;
};

// The frontier of unexpanded plan indices. Breadth-first consumes admitted
// plans in index order (the exact Figure 5 worklist); best-first pops the
// cheapest plan first, breaking cost ties on the admission index so repeated
// runs pop in the identical order.
class Frontier {
 public:
  explicit Frontier(bool best_first) : best_first_(best_first) {}

  /// Breadth-first reads plans straight out of result.plans, so only the
  /// best-first heap needs explicit pushes.
  void Push(size_t index, double cost) {
    if (best_first_) heap_.emplace(cost, index);
  }

  /// Next plan index to consider, or nullopt when the frontier is drained.
  /// `admitted` is the current result.plans.size().
  std::optional<size_t> Pop(size_t admitted) {
    if (best_first_) {
      if (heap_.empty()) return std::nullopt;
      size_t index = heap_.top().second;
      heap_.pop();
      return index;
    }
    if (next_ >= admitted) return std::nullopt;
    return next_++;
  }

 private:
  bool best_first_;
  size_t next_ = 0;  // breadth-first cursor
  // (cost, admission index), cheapest first; index tie-break via
  // std::greater on the pair.
  std::priority_queue<std::pair<double, size_t>,
                      std::vector<std::pair<double, size_t>>,
                      std::greater<std::pair<double, size_t>>>
      heap_;
};

// The memo-independent outcome of one rule match at one location: everything
// the admission step needs, recorded in the exact order the Figure 5 loop
// visits candidates. Non-matches produce no event; every event increments
// `matches` at replay.
struct CandidateEvent {
  enum class Outcome : uint8_t {
    kTypeSkipped,  // effective equivalence not in options.admitted
    kGatedOut,     // rejected by the Table 2 property gating
    kSizeCapped,   // admitted by the gating; exceeds the plan-size cap
    kCandidate,    // admissible: probe the memo, admit on a confirmed miss
  };
  Outcome outcome = Outcome::kTypeSkipped;
  const Rule* rule = nullptr;
  // Filled for kCandidate only:
  PlanPath path;        // rewrite location in the expanded plan
  PlanPtr replacement;  // freshly built by the rule; interned at admission
  uint64_t fingerprint = 0;  // root fingerprint of the would-be plan

  // Filled by MaterializeEvent (parallel workers only): the interned
  // candidate with its validity and cost, so admission does no per-plan
  // work beyond the memo probe. All three are pure functions of the
  // candidate given the (concurrent) interner/cache.
  PlanPtr rewritten;
  bool valid = false;
  double cost = 0.0;
};

/// Materializes a kCandidate event off the admission thread: interns the
/// rewrite (concurrent interner), validates it against the shared derivation
/// cache, and — when the search costs plans — costs it. Interning and
/// derivation are idempotent and structural, so speculative materialization
/// of a candidate the admission loop later drops (memo hit, pruned parent,
/// truncation) can never change the search outcome; it only adds to the
/// interner/cache *session totals*, which are not part of the determinism
/// contract. `cost_ctx` must be backed by `cache` alone.
inline void MaterializeEvent(CandidateEvent& ev, const PlanPtr& parent,
                             PlanInterner& interner, DerivationCache& cache,
                             const Catalog& catalog,
                             const EnumerationOptions& options, bool costing,
                             const PlanContext& cost_ctx) {
  if (ev.outcome != CandidateEvent::Outcome::kCandidate) return;
  ev.rewritten =
      interner.RewriteInterned(parent, ev.path, std::move(ev.replacement));
  TQP_DCHECK(ev.rewritten->fingerprint() == ev.fingerprint);
  ev.valid = cache.Derive(ev.rewritten, catalog, options.cardinality).ok();
  if (costing && ev.valid) {
    ev.cost = EstimatePlanCost(ev.rewritten, cost_ctx, options.cost_engine);
  }
}

// Expands one plan into its ordered candidate-event list: Table 2 props
// walk, location index, kind dispatch, rule matching, gating, candidate
// fingerprints. One expander per thread — it owns per-plan scratch. Reads
// the derivation cache only through const Find (concurrent-safe when the
// cache is in concurrent mode).
class PlanExpander {
 public:
  PlanExpander(const DerivationCache& cache, const QueryContract& contract,
               const std::vector<Rule>& rules,
               const EnumerationOptions& options, size_t size_cap)
      : cache_(cache),
        contract_(contract),
        rules_(rules),
        options_(options),
        size_cap_(size_cap),
        ctx_(&cache, &props_, &contract_),
        root_props_{contract.result_type == ResultType::kList,
                    contract.result_type != ResultType::kSet,
                    /*period_preserving=*/true} {}

  /// Appends `plan`'s events to `out` in the canonical candidate order (the
  /// order the serial Figure 5 loop would produce them). Fails only on an
  /// internal derivation-cache miss.
  Status Expand(const PlanPtr& plan, std::vector<CandidateEvent>* out) {
    props_.clear();
    props_.reserve(plan->subtree_size());
    walk_ok_ = true;
    VisitProps(plan, root_props_);
    if (!walk_ok_) {
      return Status::Error(
          "internal: derivation cache miss while computing Table 2 "
          "properties");
    }

    locations_.clear();
    CollectLocations(plan, &locations_);
    for (auto& bucket : by_kind_) bucket.clear();
    for (uint32_t i = 0; i < locations_.size(); ++i) {
      by_kind_[static_cast<size_t>(locations_[i].node->kind())].push_back(i);
    }

    // The same rule × location dispatch as the serial loop: per-kind buckets
    // preserve pre-order within a kind, so the event order equals the order
    // a full scan in pre-order would produce for each rule.
    for (const Rule& rule : rules_) {
      const std::vector<OpKind>& kinds = rule.root_kinds();
      if (kinds.size() == 1) {
        for (uint32_t idx : by_kind_[static_cast<size_t>(kinds[0])]) {
          TryLocation(rule, idx, plan, out);
        }
      } else if (kinds.empty()) {
        for (uint32_t idx = 0; idx < locations_.size(); ++idx) {
          TryLocation(rule, idx, plan, out);
        }
      } else {
        for (uint32_t idx = 0; idx < locations_.size(); ++idx) {
          if (!rule.MatchesRootKind(locations_[idx].node->kind())) continue;
          TryLocation(rule, idx, plan, out);
        }
      }
    }
    return Status::OK();
  }

 private:
  // Computes the Table 2 properties of every node occurrence of `plan`, one
  // entry per occurrence in pre-order — the same order CollectLocations
  // uses, so occurrence i of the props table is location i. The walk
  // touches exactly subtree_size() occurrences, which the enumeration's
  // size bound keeps small. Every node of an expanded plan was derived into
  // the cache when the plan was admitted, so a miss here means the cache
  // and the plan set went out of sync — an internal invariant violation,
  // never valid input. DCHECK loudly in debug builds; in release, flag the
  // walk as failed so the enumeration surfaces an error status instead of
  // dereferencing null.
  void VisitProps(const PlanPtr& node, const NodeProps& p) {
    props_.push_back({node.get(), p});
    for (size_t i = 0; i < node->arity(); ++i) {
      bool ldf = false, lsdf = false, csdf = false;
      switch (node->kind()) {
        case OpKind::kDifference:
        case OpKind::kDifferenceT: {
          const NodeInfo* left = cache_.Find(node->child(0).get());
          TQP_DCHECK(left != nullptr &&
                     "derivation cache miss under a difference node");
          if (left == nullptr) {
            walk_ok_ = false;
            return;
          }
          ldf = left->duplicate_free;
          lsdf = left->snapshot_duplicate_free;
          break;
        }
        case OpKind::kCoalesce: {
          const NodeInfo* child = cache_.Find(node->child(i).get());
          TQP_DCHECK(child != nullptr &&
                     "derivation cache miss under a coalesce node");
          if (child == nullptr) {
            walk_ok_ = false;
            return;
          }
          csdf = child->snapshot_duplicate_free;
          break;
        }
        default:
          break;
      }
      VisitProps(node->child(i), DeriveChildProps(*node, i, p, ldf, lsdf, csdf));
      if (!walk_ok_) return;
    }
  }

  // One rule application attempt at location index `li`; emits one event iff
  // the rule matches.
  void TryLocation(const Rule& rule, uint32_t li, const PlanPtr& plan,
                   std::vector<CandidateEvent>* out) {
    const PlanLocation& loc = locations_[li];
    if (!rule.MatchesChild0(*loc.node)) return;
    // Gate against the matched occurrence(s) only: restrict property
    // lookups to the pre-order span of the matched subtree.
    ctx_.SetOccurrenceWindow(li, li + loc.node->subtree_size());
    std::optional<RuleMatch> match = rule.TryApply(loc.node, ctx_);
    if (!match.has_value()) return;

    CandidateEvent ev;
    ev.rule = &rule;
    EquivalenceType effective = EffectiveEquivalence(rule, *match, ctx_);
    if (options_.admitted.count(effective) == 0) {
      ev.outcome = CandidateEvent::Outcome::kTypeSkipped;
    } else if (!RuleAdmitted(effective, match->location, ctx_)) {
      ev.outcome = CandidateEvent::Outcome::kGatedOut;
    } else {
      // O(1) size bound check before any rewriting happens.
      size_t new_size = plan->subtree_size() - loc.node->subtree_size() +
                        match->replacement->subtree_size();
      if (new_size > size_cap_) {
        ev.outcome = CandidateEvent::Outcome::kSizeCapped;
      } else {
        // The candidate's identity is known without materializing anything:
        // FingerprintAtPath walks the spine without constructing a node.
        ev.outcome = CandidateEvent::Outcome::kCandidate;
        ev.path = loc.path;
        ev.fingerprint = FingerprintAtPath(plan, loc.path,
                                           match->replacement->fingerprint());
        ev.replacement = std::move(match->replacement);
      }
    }
    out->push_back(std::move(ev));
  }

  const DerivationCache& cache_;
  const QueryContract& contract_;
  const std::vector<Rule>& rules_;
  const EnumerationOptions& options_;
  size_t size_cap_;

  // Per-plan scratch.
  PlanContext::PropsTable props_;
  PlanContext ctx_;
  NodeProps root_props_;
  bool walk_ok_ = true;
  std::vector<PlanLocation> locations_;
  std::array<std::vector<uint32_t>, kOpKindCount> by_kind_;
};

// The serial admission state of one memo search: memo, frontier, costing,
// counters. Both drivers run the identical pop → prune → budget → replay
// loop against it; they differ only in where PlanExpander::Expand runs.
class SearchState {
 public:
  SearchState(const Catalog& catalog, const QueryContract& contract,
              const EnumerationOptions& options, PlanInterner& interner,
              DerivationCache& cache)
      : catalog_(catalog),
        contract_(contract),
        options_(options),
        interner_(interner),
        cache_(cache),
        pruning_(options.cost_prune_factor > 0.0),
        best_first_(options.strategy == SearchStrategy::kBestFirst),
        costing_(pruning_ || best_first_),
        prune_factor_(options.cost_prune_factor),
        frontier_(best_first_),
        // Costing runs against a context backed solely by the shared
        // derivation cache: each plan is costed right after it is derived,
        // so every bottom-up fact it needs is present, and the context
        // cannot read the *expanding* plan's props table or occurrence
        // window (which describe the parent, not the rewritten plan).
        cost_ctx_(&cache, /*props=*/nullptr, &contract_) {}

  /// Interns, validates, and admits the initial plan; must be called once
  /// before the driver loop.
  Status Start(const PlanPtr& initial) {
    PlanPtr root = interner_.Intern(initial);
    TQP_RETURN_IF_ERROR(cache_.Derive(root, catalog_, options_.cardinality));
    size_cap_ = root->subtree_size() + options_.max_plan_growth;
    result_.plans.push_back(
        EnumeratedPlan{root, CanonOf(root), root->fingerprint(), -1, ""});
    memo_.reserve(std::min<size_t>(options_.max_plans, 4096) + 1);
    memo_[root->fingerprint()].push_back(0);
    if (costing_) {
      // The root is costed only now, after cache.Derive(root) above made its
      // bottom-up facts (cardinalities, sites) available.
      best_cost_ = EstimatePlanCost(root, cost_ctx_, options_.cost_engine);
      result_.costs.push_back(best_cost_);
    }
    frontier_.Push(0, costing_ ? result_.costs[0] : 0.0);
    return Status::OK();
  }

  /// The driver loop head: pops the next plan to consider and applies the
  /// pruning decision and expansion budget, updating counters exactly as the
  /// single-threaded Figure 5 loop does. Returns the index to expand, or
  /// nullopt when the search is over (frontier drained, plan cap, or budget
  /// exhausted — the cap/budget cases also set `truncated`).
  std::optional<size_t> NextToExpand() {
    while (true) {
      if (result_.plans.size() >= options_.max_plans) {
        result_.truncated = true;
        return std::nullopt;
      }
      std::optional<size_t> popped = frontier_.Pop(result_.plans.size());
      if (!popped.has_value()) return std::nullopt;
      size_t p = *popped;
      // The pruning decision happens at pop time, against the bound as it
      // stands now. best_cost only ever tightens — and under adaptive
      // pruning so does the effective factor — so a plan failing here could
      // never pass later: pruned plans are final, never re-queued, and
      // every admitted plan is popped exactly once unless a budget ends
      // the search first, which makes cost_pruned deterministic under both
      // strategies.
      if (pruning_ && result_.costs[p] > best_cost_ * prune_factor_) {
        ++result_.cost_pruned;
        if (on_pruned_) on_pruned_(p);
        continue;
      }
      if (options_.max_expansions > 0 &&
          result_.expanded >= options_.max_expansions) {
        // Expansion budget exhausted with this (unpruned) plan still
        // pending.
        result_.truncated = true;
        return std::nullopt;
      }
      ++result_.expanded;
      return p;
    }
  }

  /// Serial replay of one candidate event of expanded plan `p`: the dedup
  /// probe confirms structurally (EqualsWithReplacement) and a memo miss is
  /// materialized on the spot — interned, validated, costed. Returns false
  /// once the plan cap is reached (stop replaying).
  bool ReplayEvent(CandidateEvent& ev, size_t p) {
    // A hit is confirmed structurally, so fingerprint collisions can never
    // merge distinct plans — they only make the bucket longer than one.
    const PlanPtr& plan = result_.plans[p].plan;
    auto confirm = [&](const PlanPtr& admitted) {
      return EqualsWithReplacement(admitted, plan, ev.path, ev.replacement);
    };
    // Materialize only on a confirmed memo miss: a duplicate candidate
    // costs one probe and allocates nothing.
    auto materialize = [&] {
      ev.rewritten =
          interner_.RewriteInterned(plan, ev.path, std::move(ev.replacement));
      TQP_DCHECK(ev.rewritten->fingerprint() == ev.fingerprint);
      // Validate: only nodes the cache has never seen (the rebuilt spine)
      // are actually derived; a cached node heads a known-valid subtree.
      ev.valid = cache_.Derive(ev.rewritten, catalog_, options_.cardinality).ok();
      if (costing_ && ev.valid) {
        // Costed against cost_ctx_, never the expander's window-scoped
        // context. cache.Derive just ran, so every bottom-up fact the cost
        // model reads is present.
        ev.cost = EstimatePlanCost(ev.rewritten, cost_ctx_, options_.cost_engine);
      }
    };
    return ReplayEventImpl(ev, p, confirm, materialize);
  }

  /// The parallel driver's replay: identical admission decisions and
  /// counters, against events a worker already materialized
  /// (MaterializeEvent). The probe confirms by pointer equality — the
  /// candidate and every admitted plan are canonical interner nodes, so
  /// pointer identity coincides with the structural check above.
  bool ReplayMaterializedEvent(CandidateEvent& ev, size_t p) {
    auto confirm = [&](const PlanPtr& admitted) {
      return admitted.get() == ev.rewritten.get();
    };
    auto materialize = [] {};  // already done on the worker
    return ReplayEventImpl(ev, p, confirm, materialize);
  }

  /// Finalizes counters and hands the result out.
  EnumerationResult Finish() {
    if (result_.plans.size() >= options_.max_plans) result_.truncated = true;
    result_.interner_nodes = interner_.unique_nodes();
    result_.interner_hits = interner_.hits();
    result_.cache_nodes = cache_.size();
    return std::move(result_);
  }

  /// Hooks for the parallel driver: admitted plans feed the worker queue,
  /// pruned plans cancel their speculative expansion. Unset (and never
  /// called) in the serial driver.
  void SetHooks(std::function<void(size_t)> on_admitted,
                std::function<void(size_t)> on_pruned) {
    on_admitted_ = std::move(on_admitted);
    on_pruned_ = std::move(on_pruned);
  }

  const EnumerationResult& result() const { return result_; }
  const PlanPtr& plan(size_t index) const { return result_.plans[index].plan; }
  double cost(size_t index) const { return result_.costs[index]; }
  bool costing() const { return costing_; }
  size_t size_cap() const { return size_cap_; }

 private:
  /// The admission skeleton both replays share — counters, memo probe,
  /// admission, costing, frontier push, cap check — parameterized on how a
  /// probe hit is confirmed and how a memo miss obtains its materialized
  /// candidate (filling ev.rewritten/valid/cost). One copy keeps the
  /// serial/parallel byte-identity true by construction.
  template <typename Confirm, typename Materialize>
  bool ReplayEventImpl(CandidateEvent& ev, size_t p, Confirm&& confirm,
                       Materialize&& materialize) {
    ++result_.matches;
    switch (ev.outcome) {
      case CandidateEvent::Outcome::kTypeSkipped:
        return true;
      case CandidateEvent::Outcome::kGatedOut:
        ++result_.gated_out;
        return true;
      case CandidateEvent::Outcome::kSizeCapped:
        ++result_.admitted;
        return true;
      case CandidateEvent::Outcome::kCandidate:
        break;
    }
    ++result_.admitted;

    if (auto bucket = memo_.find(ev.fingerprint); bucket != memo_.end()) {
      for (size_t idx : bucket->second) {
        if (confirm(result_.plans[idx].plan)) {
          ++result_.memo_hits;
          return true;
        }
      }
    }
    materialize();
    if (!ev.valid) {
      return true;  // invalid composition; not memoized
    }
    size_t new_index = result_.plans.size();
    memo_[ev.fingerprint].push_back(new_index);
    result_.plans.push_back(EnumeratedPlan{ev.rewritten, CanonOf(ev.rewritten),
                                           ev.fingerprint,
                                           static_cast<int>(p),
                                           ev.rule->id()});
    if (costing_) {
      result_.costs.push_back(ev.cost);
      if (ev.cost < best_cost_) {
        best_cost_ = ev.cost;
        // Adaptive feedback: each incumbent improvement tightens the
        // effective pruning factor toward the floor. The floor is clamped
        // to the configured factor so tightening can only ever LOWER the
        // factor — otherwise a cost_prune_factor below the floor would be
        // raised by its first improvement, breaking the "a plan that fails
        // the pop-time check once could never pass later" invariant. Runs
        // at admission (the serial replay under every driver), so the
        // factor's trajectory is a pure function of the admitted sequence.
        if (pruning_ && options_.adaptive_pruning) {
          double floor = std::min(options_.adaptive_prune_floor,
                                  options_.cost_prune_factor);
          prune_factor_ = std::max(
              floor, prune_factor_ * options_.adaptive_prune_decay);
        }
      }
      frontier_.Push(new_index, ev.cost);
    } else {
      frontier_.Push(new_index, 0.0);
    }
    if (on_admitted_) on_admitted_(new_index);
    return result_.plans.size() < options_.max_plans;
  }

  std::string CanonOf(const PlanPtr& p) {
    // Canonical strings are presentation-only here (identity is the
    // fingerprint-keyed memo); skip serialization entirely when the caller
    // doesn't assert on them.
    return options_.fill_canonical ? canon_.Of(p) : std::string();
  }

  const Catalog& catalog_;
  const QueryContract& contract_;
  const EnumerationOptions& options_;
  PlanInterner& interner_;
  DerivationCache& cache_;
  const bool pruning_;
  const bool best_first_;
  const bool costing_;
  /// The effective pruning factor: fixed at cost_prune_factor, or tightened
  /// on each incumbent improvement under adaptive_pruning.
  double prune_factor_;

  EnumerationResult result_;
  /// The memo over admitted plans: fingerprint -> indices in result.plans.
  std::unordered_map<uint64_t, std::vector<size_t>> memo_;
  Frontier frontier_;
  CanonicalCache canon_;
  PlanContext cost_ctx_;
  double best_cost_ = 0.0;
  size_t size_cap_ = 0;
  std::function<void(size_t)> on_admitted_;
  std::function<void(size_t)> on_pruned_;
};

/// The parallel driver (enumerate_parallel.cc): worker threads expand plans
/// from a shared frontier queue while the calling thread replays admission
/// serially. Byte-identical to the serial driver by construction; requires
/// options.num_threads >= 2.
Result<EnumerationResult> EnumerateMemoParallel(
    const PlanPtr& initial, const Catalog& catalog,
    const QueryContract& contract, const std::vector<Rule>& rules,
    const EnumerationOptions& options, PlanInterner* ext_interner,
    DerivationCache* ext_derivation);

}  // namespace enumerate_internal
}  // namespace tqp

#endif  // TQP_OPT_ENUMERATE_INTERNAL_H_
