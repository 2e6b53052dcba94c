// The traced replay behind the benchmark's per-layer metrics.
//
// The program's own entry points (ServiceClient::RunQuery, Engine::Query,
// PreparedQuery::Execute, Engine::MutateCatalog) are timed from outside
// with spans. What the engine does inside them is then replayed through the
// public functions of each layer — CompileQuery, Optimize, AnnotatedPlan::
// Make, Evaluate / ExecuteVectorized — over session caches that mirror the
// engine's (one interner kept for the session, a derivation cache rebuilt
// on every catalog change, a result cache of the same size), each call
// wrapped in a span named after its layer. The tracer is also handed to
// those calls through their public options, so the program's existing
// spans (enumerate, expand, per-operator, backend sync/subplan) nest under
// the benchmark's.
//
// Per op, a layer's self time is the summed self time (duration minus
// direct children) of the spans in its category. The entry-point spans
// have no children; their self time is what the replay does not explain:
//   api.self     = api spans  - replayed layers
//   service.self = round trip - Engine::Query of the same text
// so the self times of an op add up to its traced latency (the round trip
// for the served workloads, the api spans otherwise), exactly when no self
// time is negative. A negative one means the replay did more work than
// the call it replays; attributed_ratio shows it.
#ifndef TQLBENCH_LAYERS_H_
#define TQLBENCH_LAYERS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "api/engine.h"
#include "core/trace.h"
#include "exec/result_cache.h"

namespace tqlbench {

/// Replays the engine's prepare and execute pipelines layer by layer.
class Replay {
 public:
  /// `catalog` and `engine` must outlive the replay. The replay reads the
  /// engine's effective options (backend, calibration, executor) and, when
  /// the engine runs incremental execution, keeps a result cache of its
  /// own with the same byte bound.
  Replay(const tqp::Catalog* catalog, const tqp::Engine& engine);

  /// Spans of the calls below go to `tracer` (per op; may change).
  void set_tracer(tqp::Tracer* tracer) { tracer_ = tracer; }

  /// The prepare pipeline of a plan-cache miss: CompileQuery, interning,
  /// Optimize over the session caches.
  tqp::Status Prepare(const std::string& text);

  /// The execute pipeline: AnnotatedPlan::Make over the session derivation
  /// cache, then the engine's executor. Requires an earlier Prepare.
  tqp::Status Execute(const std::string& text);

  /// Mirrors the engine's reaction to a catalog mutation: the derivation
  /// cache is rebuilt, the interner and result cache survive.
  void CatalogChanged();

  /// Mirrors Engine::ClearCaches: every session cache starts empty. The
  /// counters below keep counting.
  void NewSession();

  /// Replayed prepares so far, plans they considered, truncated searches.
  uint64_t prepares() const { return prepares_; }
  uint64_t plans() const { return plans_; }
  uint64_t truncated() const { return truncated_; }

 private:
  struct Prepared {
    tqp::PlanPtr best;
    tqp::QueryContract contract;
  };

  const tqp::Catalog* catalog_;
  tqp::EngineOptions options_;
  tqp::Tracer* tracer_ = nullptr;
  std::unique_ptr<tqp::PlanInterner> interner_;
  std::unique_ptr<tqp::DerivationCache> derivation_;
  std::unique_ptr<tqp::SubplanResultCache> result_cache_;
  std::map<std::string, Prepared> prepared_;
  uint64_t prepares_ = 0;
  uint64_t plans_ = 0;
  uint64_t truncated_ = 0;
};

/// Span names the benchmark records (category = the prefix before '.').
inline constexpr const char* kOpSpan = "op";
inline constexpr const char* kRoundTripSpan = "service.roundtrip";
inline constexpr const char* kQuerySpan = "api.query";
inline constexpr const char* kExecuteSpan = "api.execute";
inline constexpr const char* kMutateSpan = "api.mutate";

/// Per-op figures derived from one op's spans, in microseconds.
struct OpLayers {
  /// Self time per layer: service, api, tql, opt, algebra, exec, vexec,
  /// backend.
  std::map<std::string, double> self_us;
  /// Summed durations of named spans (inclusive), e.g. "opt.optimize",
  /// "enumerate", "sync_catalog".
  std::map<std::string, double> span_us;
  /// The op's traced latency: the round trip when the op went through the
  /// service, else the summed api spans.
  double latency_us = 0.0;
  /// Sum of the self times, each clamped at zero, over latency_us.
  double attributed_ratio = 0.0;
};

/// Computes the layers of one op from its tracer's events.
OpLayers AttributeOp(const std::vector<tqp::TraceEvent>& events);

/// Collects the events of the first few ops and writes them as one Chrome
/// trace_event file, every span tagged with its op index.
class ChromeTrace {
 public:
  explicit ChromeTrace(size_t max_ops) : max_ops_(max_ops) {}
  /// `offset_ns` places the op's tracer epoch on the run's timeline.
  void Add(size_t op, uint64_t offset_ns,
           const std::vector<tqp::TraceEvent>& events);
  bool Write(const std::string& path) const;

 private:
  size_t max_ops_;
  size_t ops_ = 0;
  std::string events_;
};

}  // namespace tqlbench

#endif  // TQLBENCH_LAYERS_H_
