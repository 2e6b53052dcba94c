#include "layers.h"

#include <cstdio>
#include <unordered_map>

#include "core/json.h"
#include "opt/optimizer.h"
#include "tql/translator.h"
#include "vexec/vexec.h"

namespace tqlbench {

using tqp::Status;
using tqp::TraceSpan;

Replay::Replay(const tqp::Catalog* catalog, const tqp::Engine& engine)
    : catalog_(catalog), options_(engine.options()) {
  NewSession();
  options_.engine.result_cache = nullptr;
  if (options_.incremental_execution) {
    result_cache_ =
        std::make_unique<tqp::SubplanResultCache>(options_.result_cache_bytes);
    options_.engine.result_cache = result_cache_.get();
  }
}

void Replay::CatalogChanged() {
  derivation_ = std::make_unique<tqp::DerivationCache>();
  derivation_->EnableConcurrentAccess();
}

void Replay::NewSession() {
  // The engine's session caches run in concurrent mode; so do these, to pay
  // the same locking.
  interner_ = std::make_unique<tqp::PlanInterner>();
  interner_->EnableConcurrentAccess();
  prepared_.clear();
  CatalogChanged();
}

Status Replay::Prepare(const std::string& text) {
  tqp::TranslatorOptions topts = options_.translator;
  topts.tracer = tracer_;
  tqp::Result<tqp::TranslatedQuery> compiled = [&] {
    TraceSpan span(tracer_, "tql", "tql.compile");
    return tqp::CompileQuery(text, *catalog_, topts);
  }();
  if (!compiled.ok()) return compiled.status();

  tqp::OptimizerOptions opt;
  opt.enumeration = options_.enumeration;
  opt.enumeration.tracer = tracer_;
  opt.engine = options_.engine;
  opt.cardinality = options_.cardinality;
  tqp::Result<tqp::OptimizeResult> optimized = [&] {
    TraceSpan span(tracer_, "opt", "opt.optimize");
    tqp::PlanPtr root = interner_->Intern(compiled->plan);
    return tqp::Optimize(root, *catalog_, compiled->contract, options_.rules,
                         opt, interner_.get(), derivation_.get());
  }();
  if (!optimized.ok()) return optimized.status();
  ++prepares_;
  plans_ += optimized->plans_considered;
  truncated_ += optimized->truncated ? 1 : 0;
  prepared_[text] = Prepared{optimized->best_plan, compiled->contract};
  return Status::OK();
}

Status Replay::Execute(const std::string& text) {
  auto it = prepared_.find(text);
  if (it == prepared_.end()) return Status::Error("replay: not prepared");
  tqp::Result<tqp::AnnotatedPlan> ann = [&] {
    TraceSpan span(tracer_, "algebra", "algebra.annotate");
    return tqp::AnnotatedPlan::Make(it->second.best, catalog_,
                                    it->second.contract, options_.cardinality,
                                    derivation_.get());
  }();
  if (!ann.ok()) return ann.status();
  tqp::EngineConfig config = options_.engine;
  config.tracer = tracer_;
  tqp::ExecStats stats;
  if (options_.executor == tqp::ExecutorKind::kVectorized) {
    tqp::VexecOptions vopts;
    vopts.batch_size = options_.vexec_batch_size;
    vopts.threads = options_.vexec_threads;
    vopts.memory_budget = options_.vexec_memory_budget;
    TraceSpan span(tracer_, "vexec", "vexec.execute");
    return tqp::ExecuteVectorized(*ann, config, &stats, vopts).status();
  }
  TraceSpan span(tracer_, "exec", "exec.evaluate");
  return tqp::Evaluate(*ann, config, &stats).status();
}

OpLayers AttributeOp(const std::vector<tqp::TraceEvent>& events) {
  std::unordered_map<uint64_t, double> children_us;
  for (const tqp::TraceEvent& ev : events) {
    if (ev.parent != 0) children_us[ev.parent] += ev.dur_ns / 1e3;
  }
  OpLayers out;
  double roundtrip = 0.0;
  double query = 0.0;
  double api = 0.0;
  double replayed = 0.0;
  for (const tqp::TraceEvent& ev : events) {
    const double dur = ev.dur_ns / 1e3;
    out.span_us[ev.name] += dur;
    const std::string cat = ev.cat;
    if (cat == kOpSpan) continue;
    if (cat == "service") {
      roundtrip += dur;
    } else if (cat == "api") {
      api += dur;
      if (ev.name == kQuerySpan) query += dur;
    } else {
      const double self = dur - children_us[ev.id];
      out.self_us[cat] += self;
      replayed += self;
    }
  }
  out.self_us["api"] = api - replayed;
  if (roundtrip > 0.0) {
    out.self_us["service"] = roundtrip - query;
    out.latency_us = roundtrip;
  } else {
    out.latency_us = api;
  }
  double clamped = 0.0;
  for (const auto& [layer, us] : out.self_us) clamped += us > 0.0 ? us : 0.0;
  out.attributed_ratio = out.latency_us > 0.0 ? clamped / out.latency_us : 0.0;
  return out;
}

void ChromeTrace::Add(size_t op, uint64_t offset_ns,
                      const std::vector<tqp::TraceEvent>& events) {
  if (ops_ >= max_ops_) return;
  ++ops_;
  for (const tqp::TraceEvent& ev : events) {
    tqp::JsonWriter w;
    w.BeginObject();
    w.Key("name").String(ev.name);
    w.Key("cat").String(ev.cat);
    w.Key("ph").String("X");
    w.Key("ts").Double((offset_ns + ev.start_ns) / 1e3);
    w.Key("dur").Double(ev.dur_ns / 1e3);
    w.Key("pid").Int(1);
    w.Key("tid").Int(ev.tid);
    w.Key("args").BeginObject();
    w.Key("op").Uint(op);
    w.Key("id").Uint(ev.id);
    w.Key("parent").Uint(ev.parent);
    for (const auto& [k, v] : ev.args) w.Key(k).String(v);
    w.EndObject();
    w.EndObject();
    if (!events_.empty()) events_ += ",\n";
    events_ += w.Take();
  }
}

bool ChromeTrace::Write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n%s\n]}\n",
               events_.c_str());
  return std::fclose(f) == 0;
}

}  // namespace tqlbench
