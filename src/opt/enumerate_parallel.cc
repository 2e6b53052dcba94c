// The parallel memo-search driver: deterministic parallelism for Figure 5.
//
// Expanding one plan — the Table 2 props walk, rule matching, gating,
// candidate fingerprinting, plus interning, validation, and costing of each
// admissible candidate — is a pure-per-plan computation: it reads only the
// plan's immutable nodes, the rules, and the concurrent interner/derivation
// cache, whose inserts are idempotent and structural. Admission — memo
// probes, counter updates, the frontier — is inherently order-dependent.
// The driver therefore splits them:
//
//   * N-1 worker threads pull plan indices from a shared frontier queue and
//     expand + materialize them into CandidateEvent lists, in any order
//     (idle workers steal whatever is pending; under best-first the queue
//     is cost-ordered so speculation tracks the authoritative pop order).
//   * The calling thread runs the authoritative SearchState loop: it pops
//     plans in the exact serial order, applies pruning/budget decisions,
//     and replays each plan's events serially — by then an event replay is
//     just an O(1) pointer-confirmed memo probe plus counter/frontier
//     pushes. When it reaches a plan no worker has claimed yet, it expands
//     the plan inline rather than wait.
//
// Because every admission decision happens on the calling thread in the
// serial order, the admitted plan sequence (with parents, rule ids, and
// canonical strings), the costs, and all search counters (matches,
// admitted, gated_out, memo_hits, cost_pruned, expanded, truncated) are
// byte-identical to the serial driver. Speculation can only waste worker
// time (a pruned or truncated plan's expansion is discarded) — it never
// changes the outcome; only the interner/cache *session totals* reflect it.
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <queue>
#include <thread>
#include <utility>
#include <vector>

#include "opt/enumerate_internal.h"

namespace tqp {
namespace enumerate_internal {

namespace {

/// One plan's expansion slot. `state` transitions kPending → kRunning →
/// kDone (a worker, or the admission thread claiming/helping inline), or
/// kPending → kCancelled (pruned before anyone started). All transitions
/// happen under the driver mutex.
struct Slot {
  enum State : uint8_t { kPending, kRunning, kDone, kCancelled };
  State state = kPending;
  Status status = Status::OK();
  std::vector<CandidateEvent> events;
};

/// The work-stealing frontier shared by the workers: pending plan indices
/// plus everything needed to hand one to a thief. Breadth-first pushes in
/// admission order (= pop order); best-first pushes with the plan's cost so
/// workers speculate on the cheapest — most-likely-next — plans first.
struct WorkQueue {
  struct Task {
    double priority = 0.0;  // cost under best-first, admission index else
    size_t index = 0;
    PlanPtr plan;
  };
  struct ByPriority {
    bool operator()(const Task& a, const Task& b) const {
      // Cheapest first; admission-index tie-break for determinism of the
      // *speculation order* (the search outcome never depends on it).
      return a.priority != b.priority ? a.priority > b.priority
                                      : a.index > b.index;
    }
  };

  explicit WorkQueue(bool best_first) : best_first(best_first) {}

  void Push(Task task) {
    if (best_first) {
      heap.push(std::move(task));
    } else {
      fifo.push_back(std::move(task));
    }
  }

  bool Empty() const { return best_first ? heap.empty() : fifo.empty(); }

  Task Pop() {
    if (best_first) {
      Task t = heap.top();
      heap.pop();
      return t;
    }
    Task t = std::move(fifo.front());
    fifo.pop_front();
    return t;
  }

  const bool best_first;
  std::deque<Task> fifo;
  std::priority_queue<Task, std::vector<Task>, ByPriority> heap;
};

}  // namespace

Result<EnumerationResult> EnumerateMemoParallel(
    const PlanPtr& initial, const Catalog& catalog,
    const QueryContract& contract, const std::vector<Rule>& rules,
    const EnumerationOptions& options, PlanInterner* ext_interner,
    DerivationCache* ext_derivation) {
  if (initial->subtree_size() > kMaxUnfoldedPlanSize) {
    return Status::InvalidArgument("initial plan too large when unfolded");
  }

  size_t num_threads = options.num_threads != 0
                           ? options.num_threads
                           : std::max<size_t>(
                                 1, std::thread::hardware_concurrency());
  TQP_CHECK(num_threads >= 2);

  PlanInterner local_interner;
  DerivationCache local_derivation;
  PlanInterner& interner = ext_interner ? *ext_interner : local_interner;
  DerivationCache& cache = ext_derivation ? *ext_derivation : local_derivation;
  // Workers intern and derive speculatively, so both structures must take
  // their striped locks for the whole call (and, for an external pair,
  // from now on — concurrent mode is one-way).
  interner.EnableConcurrentAccess();
  cache.EnableConcurrentAccess();

  SearchState state(catalog, contract, options, interner, cache);
  TQP_RETURN_IF_ERROR(state.Start(initial));

  // ---- Shared driver state (guarded by mu). ----
  std::mutex mu;
  // One condition for everything: task pushed, slot completed, shutdown.
  // Workers wait for tasks; the admission thread waits for the slot it
  // needs — or for a task it can help with instead of idling.
  std::condition_variable cv;
  WorkQueue queue(options.strategy == SearchStrategy::kBestFirst);
  std::deque<Slot> slots;  // index-aligned with result.plans
  bool shutdown = false;

  slots.emplace_back();
  {
    std::lock_guard<std::mutex> lock(mu);
    queue.Push({0.0, 0, state.plan(0)});
  }

  const bool costing = state.costing();
  // Expansion + materialization of one plan, shared by workers and the
  // admission thread's inline path. Pure per plan: candidate events are a
  // function of the plan alone, and MaterializeEvent's interning/derivation
  // are idempotent against the concurrent session structures.
  auto expand_plan = [&](PlanExpander& expander, const PlanContext& cost_ctx,
                         const PlanPtr& plan,
                         std::vector<CandidateEvent>* events) -> Status {
    TQP_RETURN_IF_ERROR(expander.Expand(plan, events));
    for (CandidateEvent& ev : *events) {
      MaterializeEvent(ev, plan, interner, cache, catalog, options, costing,
                       cost_ctx);
    }
    return Status::OK();
  };

  // Pops the next startable task, skipping cancelled/claimed ones.
  // `mu` must be held.
  auto claim_task = [&]() -> std::optional<WorkQueue::Task> {
    while (!queue.Empty()) {
      WorkQueue::Task task = queue.Pop();
      // A pruned plan's slot was cancelled; a claimed one is being expanded
      // by someone else. Either way the work is gone.
      if (slots[task.index].state != Slot::kPending) continue;
      slots[task.index].state = Slot::kRunning;
      return task;
    }
    return std::nullopt;
  };
  // Expands `task` into its slot; call with `lock` held, returns with it
  // held (the expansion itself runs unlocked).
  auto run_task = [&](PlanExpander& expander, const PlanContext& cost_ctx,
                      const WorkQueue::Task& task,
                      std::unique_lock<std::mutex>& lock) {
    lock.unlock();
    std::vector<CandidateEvent> events;
    Status status = expand_plan(expander, cost_ctx, task.plan, &events);
    lock.lock();
    Slot& slot = slots[task.index];
    slot.status = std::move(status);
    slot.events = std::move(events);
    slot.state = Slot::kDone;
    cv.notify_all();
  };

  auto worker_loop = [&]() {
    PlanExpander expander(cache, contract, rules, options, state.size_cap());
    PlanContext cost_ctx(&cache, /*props=*/nullptr, &contract);
    std::unique_lock<std::mutex> lock(mu);
    while (true) {
      cv.wait(lock, [&] { return shutdown || !queue.Empty(); });
      if (shutdown) return;
      std::optional<WorkQueue::Task> task = claim_task();
      if (task.has_value()) run_task(expander, cost_ctx, *task, lock);
    }
  };

  std::vector<std::thread> workers;
  workers.reserve(num_threads - 1);
  for (size_t i = 0; i + 1 < num_threads; ++i) {
    workers.emplace_back(worker_loop);
  }

  // The admission thread's own expander, for plans it claims inline.
  PlanExpander inline_expander(cache, contract, rules, options,
                               state.size_cap());
  PlanContext inline_cost_ctx(&cache, /*props=*/nullptr, &contract);

  // Feed admissions into the worker queue, and release pruned slots so
  // workers skip them.
  state.SetHooks(
      /*on_admitted=*/[&](size_t index) {
        std::lock_guard<std::mutex> lock(mu);
        slots.emplace_back();
        queue.Push({state.costing() ? state.cost(index)
                                    : static_cast<double>(index),
                    index, state.plan(index)});
        cv.notify_all();
      },
      /*on_pruned=*/[&](size_t index) {
        std::lock_guard<std::mutex> lock(mu);
        if (slots[index].state == Slot::kPending) {
          slots[index].state = Slot::kCancelled;
        }
      });

  // ---- The authoritative admission loop (byte-identical to the serial
  // driver: same pops, same prune/budget decisions, same replay order). ----
  Status failure = Status::OK();
  while (true) {
    std::optional<size_t> popped = state.NextToExpand();
    if (!popped.has_value()) break;
    size_t p = *popped;

    // Obtain plan p's expansion. If no worker has started it, expand it
    // inline; while a worker is on it, help with other pending expansions
    // instead of idling — so all num_threads threads expand in steady state.
    std::vector<CandidateEvent>* events = nullptr;
    {
      std::unique_lock<std::mutex> lock(mu);
      while (true) {
        Slot& slot = slots[p];
        if (slot.state == Slot::kDone) {
          if (!slot.status.ok()) failure = slot.status;
          events = &slot.events;
          break;
        }
        if (slot.state == Slot::kPending) {
          slot.state = Slot::kRunning;
          run_task(inline_expander, inline_cost_ctx,
                   {0.0, p, state.plan(p)}, lock);
          continue;  // now kDone
        }
        // A worker owns p: steal some other pending expansion meanwhile.
        std::optional<WorkQueue::Task> other = claim_task();
        if (other.has_value()) {
          run_task(inline_expander, inline_cost_ctx, *other, lock);
          continue;
        }
        cv.wait(lock, [&] {
          return slots[p].state == Slot::kDone || !queue.Empty();
        });
      }
    }
    if (!failure.ok()) break;

    bool keep_going = true;
    for (CandidateEvent& ev : *events) {
      keep_going = state.ReplayMaterializedEvent(ev, p);
      if (!keep_going) break;  // plan cap reached; loop head sets truncated
    }
    {
      // Replayed slots are drained eagerly — events pin candidate plans.
      std::lock_guard<std::mutex> lock(mu);
      slots[p].events.clear();
      slots[p].events.shrink_to_fit();
    }
  }

  {
    std::lock_guard<std::mutex> lock(mu);
    shutdown = true;
  }
  cv.notify_all();
  for (std::thread& worker : workers) worker.join();

  if (!failure.ok()) return failure;
  return state.Finish();
}

}  // namespace enumerate_internal
}  // namespace tqp
