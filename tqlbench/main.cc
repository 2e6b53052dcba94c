// The end-to-end TQL benchmark program.
//
//   tqlbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--out <dir>] [--git-sha <sha>]
//
// --trace 0 measures the end-to-end metrics with nothing traced; --trace 1
// runs the same ops as a traced replay and reports the per-layer metrics.
// Every run records its machine and build, writes its full record to
// <out>/<workload>-seed<n>-trace<t>.json (plus a Chrome trace of the first
// ops when traced), and prints as its last stdout line one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// A failed op (wrong result, error frame, error status) is counted and the
// run goes on; the exit code is non-zero only when the workload cannot be
// set up at all.
#include <sys/resource.h>
#include <sys/stat.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/json.h"
#include "layers.h"
#include "workloads.h"

namespace tqlbench {
namespace {

/// Runs always attempt at least this many ops when time allows, so the
/// p99 has ten samples beyond it.
constexpr size_t kTailOps = 1000;
/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 9;
/// Traced ops written to the Chrome trace file.
constexpr size_t kChromeOps = 60;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out = ".bench_out";
  std::string git_sha = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--out") {
      args->out = value;
    } else if (flag == "--git-sha") {
      args->git_sha = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0;
}

double NowS() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/// Nearest-rank percentile.
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(p / 100.0 * static_cast<double>(v.size()) + 0.999999);
  rank = std::min(std::max<size_t>(rank, 1), v.size());
  return v[rank - 1];
}

double PeakRssMiB() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Effective parallelism: a fixed spin loop on one thread, then the same
/// loop on every hardware thread at once; the ratio of the work done per
/// second says how many cores the machine really delivers.
double EffectiveParallelism(unsigned threads) {
  auto spin = [] {
    uint64_t x = 88172645463325252ull;
    for (int i = 0; i < 20000000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    return x;
  };
  volatile uint64_t sink = 0;
  const double t0 = NowS();
  sink = sink + spin();
  const double single = NowS() - t0;
  std::vector<std::thread> pool;
  const double t1 = NowS();
  for (unsigned i = 0; i < threads; ++i) {
    pool.emplace_back([&] { sink = sink + spin(); });
  }
  for (std::thread& t : pool) t.join();
  const double all = NowS() - t1;
  return all > 0.0 ? threads * single / all : 0.0;
}

const char* Compiler() {
#if defined(__clang__)
  return "clang " __clang_version__;
#elif defined(__GNUC__)
  return "gcc " __VERSION__;
#else
  return "unknown";
#endif
}

struct Metric {
  double value;
  const char* unit;
};

struct RunRecord {
  size_t attempted = 0;
  size_t failed = 0;
  bool correct = true;
  std::vector<std::string> failures;  // first few
  std::map<std::string, Metric> metrics;
  std::map<std::string, double> position_p50_us;  // per round position
  std::string provenance;
  std::vector<double> setup_runs_s;
  /// Traced runs: median over ops of the summed self times (each clamped at
  /// zero) over the op's traced latency.
  double attributed_ratio = 0.0;
  /// Traced runs: median self time per op of each layer.
  std::map<std::string, double> layer_self_us;

  void Fail(size_t op, const std::string& why) {
    ++failed;
    if (failures.size() < 5) failures.push_back("op " + std::to_string(op) + ": " + why);
  }
};

std::string MetricsJson(const std::map<std::string, Metric>& metrics) {
  tqp::JsonWriter w;
  w.BeginObject();
  for (const auto& [name, m] : metrics) {
    w.Key(name).BeginObject();
    w.Key("value").Double(m.value);
    w.Key("unit").String(m.unit);
    w.EndObject();
  }
  w.EndObject();
  return w.Take();
}

/// The op loop of both modes: whole rounds until the time is up (and,
/// untraced, until the tail has enough samples or thrice the time has
/// passed).
template <typename RunOp>
void Loop(Workload& w, double seconds, bool want_tail, RunOp&& run_op) {
  const double start = NowS();
  size_t i = 0;
  for (;;) {
    for (size_t k = 0; k < w.round_size(); ++k, ++i) run_op(i);
    const double elapsed = NowS() - start;
    if (elapsed >= 3 * seconds) break;
    if (elapsed >= seconds && (!want_tail || i >= kTailOps)) break;
  }
}

void MeasureEndToEnd(Workload& w, const Args& args, RunRecord* rec) {
  std::vector<double> latencies;
  std::map<size_t, std::vector<double>> by_position;
  double peak_rss_mb = 0.0;
  Loop(w, args.seconds, /*want_tail=*/true, [&](size_t i) {
    Op op = w.Run(i);
    // Memory is read after a fixed number of ops, not at the end: session
    // caches grow with new statements, and a faster program would
    // otherwise pay for its speed in peak_rss_mb.
    if (i + 1 == kTailOps) peak_rss_mb = PeakRssMiB();
    latencies.push_back(op.latency_us);
    by_position[i % w.round_size()].push_back(op.latency_us);
    ++rec->attempted;
    if (!op.error.empty()) rec->Fail(i, op.error);
  });
  for (const auto& [pos, v] : by_position) {
    rec->position_p50_us["position " + std::to_string(pos)] = Median(v);
  }
  // Throughput of a typical round: the round's ops over the sum of its
  // positions' median latencies. Each position is one kind of op, so every
  // kind weighs by its share of the round, as in ops over busy time; but a
  // few stalled ops, which move that mean, hardly move a median. Stalls
  // show in op_p99_us.
  double round_us = 0.0;
  for (const auto& [pos, us] : rec->position_p50_us) round_us += us;
  rec->metrics["ops_per_s"] = {rec->position_p50_us.size() / (round_us / 1e6), "ops/s"};
  rec->metrics["op_p50_us"] = {Percentile(latencies, 50), "us"};
  rec->metrics["op_p99_us"] = {Percentile(latencies, 99), "us"};
  rec->metrics["peak_rss_mb"] = {peak_rss_mb > 0.0 ? peak_rss_mb : PeakRssMiB(), "MiB"};
  if (latencies.size() < kTailOps) {
    std::fprintf(stderr, "warning: %zu ops, fewer than %zu: op_p99_us has "
                 "fewer than ten samples beyond it\n", latencies.size(), kTailOps);
  }
}

void MeasureLayers(Workload& w, const Args& args, RunRecord* rec) {
  const tqp::EngineStats before = w.engine().stats();
  const Replay* replay = w.replay();
  const uint64_t plans0 = replay->plans();
  const uint64_t truncated0 = replay->truncated();
  std::map<std::string, std::vector<double>> per_op;  // medians
  std::map<std::string, double> totals;               // sums over ops
  ChromeTrace chrome(kChromeOps);
  std::optional<tqp::EngineStats> at_tail;
  const double run_start = NowS();
  size_t ops = 0;
  Loop(w, args.seconds, /*want_tail=*/false, [&](size_t i) {
    const uint64_t offset_ns = static_cast<uint64_t>((NowS() - run_start) * 1e9);
    tqp::Tracer tracer;
    std::map<std::string, double> counts;
    Op op = w.RunTraced(i, &tracer, &counts);
    // Session sizes are read at a fixed op count, like peak_rss_mb.
    if (i + 1 == kTailOps) at_tail = w.engine().stats();
    ++ops;
    ++rec->attempted;
    if (!op.error.empty()) rec->Fail(i, op.error);
    const std::vector<tqp::TraceEvent> events = tracer.Snapshot();
    chrome.Add(i, offset_ns, events);
    const OpLayers layers = AttributeOp(events);
    auto span = [&](const char* name) {
      auto it = layers.span_us.find(name);
      return it == layers.span_us.end() ? 0.0 : it->second;
    };
    auto self = [&](const char* layer) {
      auto it = layers.self_us.find(layer);
      return it == layers.self_us.end() ? 0.0 : it->second;
    };
    per_op["service.roundtrip_us"].push_back(span(kRoundTripSpan));
    per_op["service.self_us"].push_back(self("service"));
    per_op["api.query_us"].push_back(span(kQuerySpan) + span(kExecuteSpan));
    per_op["api.mutate_us"].push_back(span(kMutateSpan));
    per_op["tql.compile_us"].push_back(span("tql.compile"));
    per_op["opt.optimize_us"].push_back(span("opt.optimize"));
    per_op["opt.enumerate_us"].push_back(span("enumerate"));
    per_op["algebra.annotate_us"].push_back(span("algebra.annotate"));
    per_op["exec.evaluate_us"].push_back(span("exec.evaluate"));
    per_op["vexec.execute_us"].push_back(span("vexec.execute"));
    per_op["backend.sync_us"].push_back(span("sync_catalog"));
    per_op["backend.subplan_us"].push_back(span("execute_subplan"));
    per_op["trace.op_p50_us"].push_back(layers.latency_us);
    per_op["trace.attributed_ratio"].push_back(layers.attributed_ratio);
    for (const auto& [layer, us] : layers.self_us) {
      per_op["self." + layer].push_back(us);
    }
    totals["opt.optimize_s"] += span("opt.optimize") / 1e6;
    for (const auto& [name, v] : counts) totals[name] += v;
  });
  const tqp::EngineStats after = w.engine().stats();
  const std::string trace_path = args.out + "/trace-" + args.workload +
                                 "-seed" + std::to_string(args.seed) + ".json";
  if (!chrome.Write(trace_path)) {
    std::fprintf(stderr, "warning: cannot write %s\n", trace_path.c_str());
  }

  auto& m = rec->metrics;
  const double n = static_cast<double>(ops);
  for (const char* name :
       {"service.roundtrip_us", "service.self_us", "api.query_us",
        "api.mutate_us", "tql.compile_us", "opt.optimize_us",
        "opt.enumerate_us", "algebra.annotate_us", "exec.evaluate_us",
        "vexec.execute_us", "backend.sync_us", "backend.subplan_us",
        "trace.op_p50_us"}) {
    m[name] = {Median(per_op[name]), "us"};
  }
  rec->attributed_ratio = Median(per_op["trace.attributed_ratio"]);
  m["service.bytes_per_op"] = {totals["service.bytes"] / n, "bytes"};
  const double hits = static_cast<double>(after.plan_cache_hits - before.plan_cache_hits);
  const double misses = static_cast<double>(after.plan_cache_misses - before.plan_cache_misses);
  m["api.plan_cache_hit_ratio"] = {hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio"};
  m["api.prepares_per_op"] = {(after.prepares - before.prepares) / n, "count"};
  m["api.stale_evictions_per_op"] = {
      (after.plan_cache_stale_evictions - before.plan_cache_stale_evictions) / n, "count"};
  const double plans = static_cast<double>(replay->plans() - plans0);
  m["opt.plans_per_op"] = {plans / n, "count"};
  m["opt.plans_per_s"] = {totals["opt.optimize_s"] > 0 ? plans / totals["opt.optimize_s"] : 0.0,
                          "plans/s"};
  m["opt.truncated_per_op"] = {(replay->truncated() - truncated0) / n, "count"};
  const tqp::EngineStats& sized = at_tail ? *at_tail : after;
  m["algebra.interner_nodes"] = {static_cast<double>(sized.interner_nodes), "count"};
  m["algebra.derivation_nodes"] = {static_cast<double>(sized.derivation_nodes), "count"};
  m["exec.tuples_produced_per_op"] = {totals["exec.tuples_produced"] / n, "count"};
  const double rc_hits = static_cast<double>(after.result_cache_hits - before.result_cache_hits);
  const double rc_misses =
      static_cast<double>(after.result_cache_misses - before.result_cache_misses);
  m["exec.result_cache_hit_ratio"] = {
      rc_hits + rc_misses > 0 ? rc_hits / (rc_hits + rc_misses) : 0.0, "ratio"};
  m["exec.result_cache_bytes"] = {static_cast<double>(after.result_cache_bytes), "bytes"};
  m["vexec.batches_per_op"] = {totals["vexec.batches"] / n, "count"};
  m["backend.rows_per_op"] = {totals["backend.rows"] / n, "count"};
  // Per operator kind, whichever executor ran: a mean per op, since most
  // kinds occur in only some statements of a round.
  for (size_t k = 0; k < tqp::kOpKindCount; ++k) {
    const std::string name =
        std::string("exec.self_us.") + tqp::OpKindName(static_cast<tqp::OpKind>(k));
    m[name] = {totals[name] / n, "us"};
  }
  std::string breakdown = "self time per op (median, us):";
  for (const auto& [name, v] : per_op) {
    if (name.rfind("self.", 0) == 0) {
      rec->layer_self_us[name.substr(5)] = Median(v);
      char buf[64];
      std::snprintf(buf, sizeof(buf), " %s %.1f", name.c_str() + 5, Median(v));
      breakdown += buf;
    }
  }
  std::printf("%s; attributed ratio %.3f\n", breakdown.c_str(),
              rec->attributed_ratio);
}

void WriteRecord(const Args& args, const RunRecord& rec) {
  tqp::JsonWriter w;
  w.BeginObject();
  w.Key("workload").String(args.workload);
  w.Key("seed").Uint(args.seed);
  w.Key("trace").Bool(args.trace);
  w.Key("seconds").Double(args.seconds);
  w.Key("provenance").Raw(rec.provenance);
  w.Key("correct").Bool(rec.correct);
  w.Key("attempted").Uint(rec.attempted);
  w.Key("failed").Uint(rec.failed);
  w.Key("failures").BeginArray();
  for (const std::string& f : rec.failures) w.String(f);
  w.EndArray();
  if (args.trace) {
    w.Key("attributed_ratio").Double(rec.attributed_ratio);
    w.Key("layer_self_us").BeginObject();
    for (const auto& [layer, us] : rec.layer_self_us) w.Key(layer).Double(us);
    w.EndObject();
  }
  w.Key("setup_runs_s").BeginArray();
  for (double v : rec.setup_runs_s) w.Double(v);
  w.EndArray();
  w.Key("round_position_p50_us").BeginObject();
  for (const auto& [pos, us] : rec.position_p50_us) w.Key(pos).Double(us);
  w.EndObject();
  w.Key("metrics").Raw(MetricsJson(rec.metrics));
  w.EndObject();
  const std::string path = args.out + "/" + args.workload + "-seed" +
                           std::to_string(args.seed) + "-trace" +
                           (args.trace ? "1" : "0") + ".json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr || std::fprintf(f, "%s\n", w.Take().c_str()) < 0 ||
      std::fclose(f) != 0) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
  }
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: tqlbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--out <dir>] [--git-sha <sha>]\n");
    return 2;
  }
  if (MakeWorkload(args.workload) == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  ::mkdir(args.out.c_str(), 0755);

  RunRecord rec;
  {
    const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
    tqp::JsonWriter w;
    w.BeginObject();
    w.Key("nproc").Uint(nproc);
    w.Key("effective_parallelism").Double(EffectiveParallelism(nproc));
    w.Key("build_type").String(TQLBENCH_BUILD_TYPE);
    w.Key("compiler").String(Compiler());
    w.Key("git_sha").String(args.git_sha);
    w.Key("seed").Uint(args.seed);
    w.EndObject();
    rec.provenance = w.Take();
    std::printf("provenance %s\n", rec.provenance.c_str());
  }

  // Set up several times and keep the last: setup_s is the median.
  std::unique_ptr<Workload> w;
  std::vector<double> setup_s, generate_s, mirror_s;
  for (int s = 0; s < kSetups; ++s) {
    w.reset();
    w = MakeWorkload(args.workload);
    double gen = 0.0;
    const double t0 = NowS();
    tqp::Status st = w->Setup(args.seed, args.trace, &gen);
    setup_s.push_back(NowS() - t0);
    if (!st.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", st.message().c_str());
      return 3;
    }
    generate_s.push_back(gen);
    mirror_s.push_back(w->mirror_load_s());
  }
  rec.setup_runs_s = setup_s;
  const std::string setup_error = w->VerifySetup();
  if (!setup_error.empty()) {
    rec.correct = false;
    rec.failures.push_back("set-up: " + setup_error);
  }

  if (args.trace) {
    MeasureLayers(*w, args, &rec);
    rec.metrics["workload.generate_s"] = {Median(generate_s), "s"};
    rec.metrics["backend.mirror_load_s"] = {Median(mirror_s), "s"};
  } else {
    MeasureEndToEnd(*w, args, &rec);
    rec.metrics["setup_s"] = {Median(setup_s), "s"};
  }
  w.reset();

  for (const std::string& f : rec.failures) std::printf("failure %s\n", f.c_str());
  for (const auto& [pos, us] : rec.position_p50_us) {
    std::printf("%s p50 %.1f us\n", pos.c_str(), us);
  }
  WriteRecord(args, rec);
  tqp::JsonWriter out;
  out.BeginObject();
  out.Key("correct").Bool(rec.correct);
  out.Key("attempted").Uint(rec.attempted);
  out.Key("failed").Uint(rec.failed);
  out.Key("metrics").Raw(MetricsJson(rec.metrics));
  out.EndObject();
  std::printf("%s\n", out.Take().c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace tqlbench

int main(int argc, char** argv) { return tqlbench::Main(argc, argv); }
