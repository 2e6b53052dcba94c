// The four workloads of the end-to-end TQL benchmark.
//
//   serve_warm   repeated temporal-heavy statements over the service socket;
//                plan cache warm, optimizer idle: executor + frame encoding.
//   serve_adhoc  never-repeating statements over the same socket: parse,
//                translate, Figure 5 enumeration and costing.
//   refresh      catalog updates beside re-executed prepared statements,
//                in process, vectorized with incremental execution.
//   pushdown     conventional statements pushed to the SQLite backend, in
//                process, with an unread large relation in the catalog.
//
// One client, closed loop: an op starts when the previous one returned.
#ifndef TQLBENCH_WORKLOADS_H_
#define TQLBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "api/engine.h"
#include "core/trace.h"
#include "layers.h"

namespace tqlbench {

/// One op's outcome: its latency (the checks run after the clock stopped)
/// and, when it failed, why.
struct Op {
  double latency_us = 0.0;
  std::string error;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Generates every input from `seed` and brings the system to its serving
  /// state: catalog generation, engine (and server) start, priming,
  /// preparing. `traced` also builds what the traced replay needs.
  /// `*generate_s` receives the time spent generating inputs.
  virtual tqp::Status Setup(uint64_t seed, bool traced,
                            double* generate_s) = 0;

  /// Checks what the set-up produced (untimed). Empty = correct.
  virtual std::string VerifySetup() = 0;

  /// Ops per round; a run always attempts whole rounds.
  virtual size_t round_size() const = 0;

  /// Runs op `i` untraced.
  virtual Op Run(size_t i) = 0;

  /// Runs op `i` with spans around the program's entry points and the
  /// layer replay; `per_op` receives op-level counts (rows, bytes, batches,
  /// per-operator self times).
  virtual Op RunTraced(size_t i, tqp::Tracer* tracer,
                       std::map<std::string, double>* per_op) = 0;

  /// The engine under test, for its session counters.
  virtual const tqp::Engine& engine() const = 0;
  /// The traced run's replay (null in untraced runs).
  virtual const Replay* replay() const = 0;
  /// Seconds the first catalog sync into the backend took (pushdown).
  virtual double mirror_load_s() const { return 0.0; }
};

/// The workload names, in BENCHMARK.json order.
const std::vector<std::string>& WorkloadNames();

/// Null for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name);

}  // namespace tqlbench

#endif  // TQLBENCH_WORKLOADS_H_
