// Cross-restart persistence of the Engine's plan cache.
//
// A warm tqp::Engine owes most of its throughput to the plan cache: a cached
// query skips parsing, the Figure 5 enumeration, and costing entirely
// (60–150x measured in bench_engine_warm). That warmth used to die with the
// process. The plan store serializes every cached entry — keys, contracts,
// optimizer telemetry, and the full initial/best plan trees (operators,
// predicates, projections, aggregates, sort specs) — to a snapshot file on
// shutdown or on an interval, and reloads it on startup, so a restarted
// server answers its first wave of traffic at warm speed.
//
// Staleness contract: the snapshot carries the catalog version *and* a
// catalog content fingerprint from export time. Engine::ImportPlanCache
// rejects the snapshot wholesale when either differs from the live catalog —
// a restarted server with a bumped or reshaped catalog starts cold, exactly
// as the in-memory caches are flushed wholesale on a version change. Warmth
// is an optimization only: a warm-started server returns byte-identical
// results to a cold one (locked by tests/test_service.cc and
// bench_service_load).
//
// The file format is a private whitespace-separated token stream
// (s-expressions with length-prefixed strings) — self-contained, versioned
// by a leading magic atom, no third-party dependencies. A corrupt,
// truncated or over-deep file is a clean load error, never a crash or a
// partial import.
#ifndef TQP_SERVICE_PLAN_STORE_H_
#define TQP_SERVICE_PLAN_STORE_H_

#include <string>

#include "api/engine.h"
#include "tql/parser.h"

namespace tqp {

/// Deepest nesting of plan and expression nodes, counted together along any
/// root-to-leaf path, that a snapshot may hold; a deeper snapshot is
/// rejected wholesale as corrupt. The bound admits every plan the translator
/// and optimizer emit from a statement within the parser's limits: a
/// set-operation chain, a left-deep FROM product chain and a predicate each
/// add at most kMaxNesting levels, the rest a handful.
constexpr uint32_t kMaxSnapshotNesting = 4 * kMaxNesting;

/// What LoadPlanCache found.
struct PlanStoreLoadOutcome {
  /// Entries actually installed into the engine's plan cache.
  size_t imported = 0;
  /// Entries present in the (accepted) snapshot file.
  size_t in_snapshot = 0;
  /// No snapshot file at the path (a normal cold start).
  bool file_missing = false;
  /// Snapshot was readable but written under a different catalog
  /// version/fingerprint — rejected wholesale, engine starts cold.
  bool stale = false;
};

/// Serializes `engine`'s plan cache to `path` (written to "<path>.tmp" and
/// renamed, so readers never observe a torn file). Concurrent queries keep
/// running; the export is a consistent snapshot under the engine's locks.
Status SavePlanCache(const Engine& engine, const std::string& path);

/// Loads a snapshot from `path` into `engine` through
/// Engine::ImportPlanCache. A missing file or a stale snapshot is a normal
/// outcome (see PlanStoreLoadOutcome), not an error; a corrupt file is an
/// error.
Result<PlanStoreLoadOutcome> LoadPlanCache(Engine* engine,
                                           const std::string& path);

// ---- Serialization primitives (exposed for tests) -------------------------

/// Canonical token-stream serialization of a plan tree (round-trips through
/// DeserializePlan to a structurally equal plan with identical fingerprint).
std::string SerializePlan(const PlanPtr& plan);
Result<PlanPtr> DeserializePlan(const std::string& data);

/// Whole-snapshot (de)serialization; SavePlanCache/LoadPlanCache are these
/// plus file I/O and the engine export/import hooks.
std::string SerializeSnapshot(const PlanCacheSnapshot& snapshot);
Result<PlanCacheSnapshot> DeserializeSnapshot(const std::string& data);

}  // namespace tqp

#endif  // TQP_SERVICE_PLAN_STORE_H_
