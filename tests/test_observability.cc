// The observability layer end to end: the span recorder and its Chrome-trace
// export, the central metrics registry (Prometheus text + JSON), the
// per-operator profile tree behind EXPLAIN ANALYZE, the slow-query log, the
// split backend fallback/refusal counters, and JSON well-formedness of every
// machine-readable surface the repo emits (ExecStats, EngineStats,
// ServerStats, LoadGenReport, LatencyHistogram, profile, trace, metrics).
//
// Well-formedness is checked with a test-local recursive-descent JSON parser
// — deliberately the only JSON *reader* in the tree, so the writers cannot
// drift into "JSON-shaped" output that no parser would accept.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <functional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "algebra/printer.h"
#include "api/engine.h"
#include "backend/backend.h"
#include "backend/sqlite_backend.h"
#include "core/metrics.h"
#include "core/profile.h"
#include "core/trace.h"
#include "exec/evaluator.h"
#include "service/loadgen.h"
#include "service/server.h"
#include "test_util.h"
#include "workload/paper_example.h"

namespace tqp {
namespace {

// ---- A minimal JSON parser (test-local) ------------------------------------

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;  // insertion order

  const JsonValue* Find(const std::string& key) const {
    for (const auto& [k, v] : object) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : s_(text) {}

  bool Parse(JsonValue* out, std::string* err) {
    if (!ParseValue(out, err)) return false;
    SkipWs();
    if (pos_ != s_.size()) return Fail(err, "trailing data");
    return true;
  }

 private:
  bool Fail(std::string* err, const std::string& what) {
    *err = what + " at byte " + std::to_string(pos_);
    return false;
  }

  void SkipWs() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\t' ||
                                s_[pos_] == '\n' || s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool ParseValue(JsonValue* out, std::string* err) {
    SkipWs();
    if (pos_ >= s_.size()) return Fail(err, "unexpected end of input");
    switch (s_[pos_]) {
      case '{':
        return ParseObject(out, err);
      case '[':
        return ParseArray(out, err);
      case '"':
        out->kind = JsonValue::Kind::kString;
        return ParseString(&out->str, err);
      case 't':
        out->kind = JsonValue::Kind::kBool;
        out->boolean = true;
        return ParseLiteral("true", err);
      case 'f':
        out->kind = JsonValue::Kind::kBool;
        out->boolean = false;
        return ParseLiteral("false", err);
      case 'n':
        out->kind = JsonValue::Kind::kNull;
        return ParseLiteral("null", err);
      default:
        return ParseNumber(out, err);
    }
  }

  bool ParseLiteral(const char* lit, std::string* err) {
    for (const char* p = lit; *p != '\0'; ++p, ++pos_) {
      if (pos_ >= s_.size() || s_[pos_] != *p) return Fail(err, "bad literal");
    }
    return true;
  }

  bool ParseNumber(JsonValue* out, std::string* err) {
    const char* start = s_.c_str() + pos_;
    char* end = nullptr;
    out->number = std::strtod(start, &end);
    if (end == start) return Fail(err, "bad number");
    out->kind = JsonValue::Kind::kNumber;
    pos_ += static_cast<size_t>(end - start);
    return true;
  }

  bool ParseHex4(unsigned* out, std::string* err) {
    unsigned v = 0;
    for (int i = 0; i < 4; ++i, ++pos_) {
      if (pos_ >= s_.size()) return Fail(err, "bad \\u escape");
      char c = s_[pos_];
      v <<= 4;
      if (c >= '0' && c <= '9') {
        v |= static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        v |= static_cast<unsigned>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        v |= static_cast<unsigned>(c - 'A' + 10);
      } else {
        return Fail(err, "bad \\u escape");
      }
    }
    *out = v;
    return true;
  }

  static void AppendUtf8(unsigned cp, std::string* out) {
    if (cp < 0x80) {
      out->push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  bool ParseString(std::string* out, std::string* err) {
    ++pos_;  // opening quote
    while (true) {
      if (pos_ >= s_.size()) return Fail(err, "unterminated string");
      char c = s_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= s_.size()) return Fail(err, "dangling escape");
      char e = s_[pos_++];
      switch (e) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          unsigned cp = 0;
          if (!ParseHex4(&cp, err)) return false;
          if (cp >= 0xD800 && cp <= 0xDBFF && pos_ + 1 < s_.size() &&
              s_[pos_] == '\\' && s_[pos_ + 1] == 'u') {
            pos_ += 2;
            unsigned lo = 0;
            if (!ParseHex4(&lo, err)) return false;
            cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
          }
          AppendUtf8(cp, out);
          break;
        }
        default:
          return Fail(err, "unknown escape");
      }
    }
  }

  bool ParseArray(JsonValue* out, std::string* err) {
    out->kind = JsonValue::Kind::kArray;
    ++pos_;  // '['
    SkipWs();
    if (pos_ < s_.size() && s_[pos_] == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      JsonValue v;
      if (!ParseValue(&v, err)) return false;
      out->array.push_back(std::move(v));
      SkipWs();
      if (pos_ >= s_.size()) return Fail(err, "unterminated array");
      if (s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (s_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return Fail(err, "expected ',' or ']'");
    }
  }

  bool ParseObject(JsonValue* out, std::string* err) {
    out->kind = JsonValue::Kind::kObject;
    ++pos_;  // '{'
    SkipWs();
    if (pos_ < s_.size() && s_[pos_] == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipWs();
      if (pos_ >= s_.size() || s_[pos_] != '"') {
        return Fail(err, "expected object key");
      }
      std::string key;
      if (!ParseString(&key, err)) return false;
      SkipWs();
      if (pos_ >= s_.size() || s_[pos_] != ':') return Fail(err, "expected ':'");
      ++pos_;
      JsonValue v;
      if (!ParseValue(&v, err)) return false;
      out->object.emplace_back(std::move(key), std::move(v));
      SkipWs();
      if (pos_ >= s_.size()) return Fail(err, "unterminated object");
      if (s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (s_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return Fail(err, "expected ',' or '}'");
    }
  }

  const std::string& s_;
  size_t pos_ = 0;
};

JsonValue MustParse(const std::string& text) {
  JsonValue v;
  std::string err;
  JsonParser parser(text);
  EXPECT_TRUE(parser.Parse(&v, &err)) << err << "\nin: " << text;
  return v;
}

std::set<std::string> KeySet(const JsonValue& v) {
  std::set<std::string> keys;
  for (const auto& [k, unused] : v.object) keys.insert(k);
  return keys;
}

double NumberAt(const JsonValue& obj, const std::string& key) {
  const JsonValue* v = obj.Find(key);
  EXPECT_TRUE(v != nullptr && v->kind == JsonValue::Kind::kNumber)
      << "missing number '" << key << "'";
  return v == nullptr ? 0.0 : v->number;
}

constexpr bool BuiltWithSanitizers() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
  return true;
#else
  return false;
#endif
#else
  return false;
#endif
}

/// The paper's catalog plus one larger messy temporal relation, so profiled
/// queries run long enough to measure.
Catalog ObsCatalog(size_t r_rows = 512) {
  Catalog catalog = PaperCatalog();
  TQP_CHECK(catalog
                .RegisterWithInferredFlags(
                    "R", testing_util::RandomTemporal(7, r_rows), Site::kDbms)
                .ok());
  return catalog;
}

// ---- Parser self-checks ----------------------------------------------------

TEST(JsonParserTest, ParsesNestedStructures) {
  JsonValue v = MustParse(
      "{\"a\":[1,2.5,-3e2],\"b\":{\"c\":true,\"d\":null},\"e\":\"x\"}");
  ASSERT_EQ(v.kind, JsonValue::Kind::kObject);
  const JsonValue* a = v.Find("a");
  ASSERT_TRUE(a != nullptr);
  ASSERT_EQ(a->array.size(), 3u);
  EXPECT_DOUBLE_EQ(a->array[1].number, 2.5);
  EXPECT_DOUBLE_EQ(a->array[2].number, -300.0);
  EXPECT_TRUE(v.Find("b")->Find("c")->boolean);
  EXPECT_EQ(v.Find("b")->Find("d")->kind, JsonValue::Kind::kNull);
  EXPECT_EQ(v.Find("e")->str, "x");
}

TEST(JsonParserTest, DecodesEscapes) {
  JsonValue v = MustParse("{\"k\":\"a\\\"b\\\\c\\n\\t\\u0001\\u00e9\"}");
  EXPECT_EQ(v.Find("k")->str, std::string("a\"b\\c\n\t\x01\xc3\xa9"));
}

TEST(JsonParserTest, RejectsMalformedInput) {
  for (const char* bad : {"{", "{\"a\":}", "[1,]", "\"x", "{\"a\" 1}", "tru"}) {
    JsonValue v;
    std::string err;
    const std::string text(bad);  // the parser keeps a reference
    JsonParser p{text};
    EXPECT_FALSE(p.Parse(&v, &err)) << bad;
  }
}

// ---- Tracer ----------------------------------------------------------------

TEST(TracerTest, NestedSpansLinkParents) {
  Tracer tracer;
  {
    TraceSpan outer(&tracer, "test", "outer");
    outer.Arg("k", std::string("v"));
    { TraceSpan inner(&tracer, "test", "inner"); }
  }
  ASSERT_EQ(tracer.event_count(), 2u);
  std::vector<TraceEvent> events = tracer.Snapshot();
  // Completion order: inner finishes first.
  EXPECT_EQ(events[0].name, "inner");
  EXPECT_EQ(events[1].name, "outer");
  EXPECT_EQ(events[0].parent, events[1].id);
  EXPECT_EQ(events[1].parent, 0u);
  EXPECT_GE(events[1].dur_ns, events[0].dur_ns);
  ASSERT_EQ(events[1].args.size(), 1u);
  EXPECT_EQ(events[1].args[0].second, "v");
}

TEST(TracerTest, DisabledAndNullTracersRecordNothing) {
  Tracer tracer;
  tracer.set_enabled(false);
  {
    TraceSpan span(&tracer, "test", "ignored");
    EXPECT_FALSE(span.active());
  }
  EXPECT_EQ(tracer.event_count(), 0u);
  {
    TraceSpan span(nullptr, "test", "ignored");
    EXPECT_FALSE(span.active());
    span.Arg("k", uint64_t{1});  // must be a no-op, not a crash
  }
}

TEST(TracerTest, ChromeJsonRoundTripsThroughParser) {
  Tracer tracer;
  {
    // Hostile span name: quotes, backslash, newline, control byte, UTF-8.
    TraceSpan outer(&tracer, "test", "se\"le\\ct\n\x01π");
    outer.Arg("rows", uint64_t{42});
    { TraceSpan inner(&tracer, "test", "child"); }
  }
  const std::string json = tracer.ToChromeJson();
  JsonValue v = MustParse(json);
  EXPECT_EQ(v.Find("displayTimeUnit")->str, "ms");
  const JsonValue* events = v.Find("traceEvents");
  ASSERT_TRUE(events != nullptr);
  ASSERT_EQ(events->array.size(), 2u);
  const JsonValue& inner = events->array[0];  // completion order
  const JsonValue& outer = events->array[1];
  // The Chrome trace_event contract: complete events with these fields.
  for (const JsonValue* ev : {&inner, &outer}) {
    for (const char* key : {"name", "cat", "ph", "pid", "tid", "ts", "dur",
                            "args"}) {
      EXPECT_TRUE(ev->Find(key) != nullptr) << key;
    }
    EXPECT_EQ(ev->Find("ph")->str, "X");
  }
  EXPECT_EQ(outer.Find("name")->str, "se\"le\\ct\n\x01π");  // exact round-trip
  EXPECT_EQ(outer.Find("args")->Find("rows")->str, "42");
  // Root spans omit "parent"; nested spans point at the enclosing span id.
  EXPECT_TRUE(outer.Find("args")->Find("parent") == nullptr);
  ASSERT_TRUE(inner.Find("args")->Find("parent") != nullptr);
  EXPECT_EQ(inner.Find("args")->Find("parent")->str,
            outer.Find("args")->Find("span")->str);
}

// ---- Metrics registry ------------------------------------------------------

TEST(MetricsRegistryTest, CountersGaugesHistograms) {
  MetricsRegistry reg;
  MetricCounter* c = reg.GetCounter("test_total", "a counter");
  EXPECT_EQ(c, reg.GetCounter("test_total"));  // stable resolve
  c->Add(3);
  c->Add();
  EXPECT_EQ(c->value(), 4u);
  reg.GetGauge("test_gauge", "a gauge")->Set(2.5);
  EXPECT_DOUBLE_EQ(reg.GetGauge("test_gauge")->value(), 2.5);
  LatencyHistogram* h = reg.GetHistogram("test_us", "a histogram");
  for (uint64_t i = 1; i <= 100; ++i) h->Record(i);
  EXPECT_EQ(reg.size(), 3u);

  JsonValue v = MustParse(reg.ToJson());
  EXPECT_EQ(v.Find("test_total")->Find("type")->str, "counter");
  EXPECT_DOUBLE_EQ(NumberAt(*v.Find("test_total"), "value"), 4.0);
  EXPECT_EQ(v.Find("test_gauge")->Find("type")->str, "gauge");
  EXPECT_EQ(v.Find("test_us")->Find("type")->str, "histogram");
  EXPECT_DOUBLE_EQ(NumberAt(v.Find("test_us")->Find("summary") == nullptr
                                ? *v.Find("test_us")
                                : *v.Find("test_us")->Find("summary"),
                            "count"),
                   100.0);

  const std::string prom = reg.ToPrometheusText();
  EXPECT_NE(prom.find("# TYPE test_total counter"), std::string::npos) << prom;
  EXPECT_NE(prom.find("test_total 4"), std::string::npos) << prom;
  EXPECT_NE(prom.find("# TYPE test_gauge gauge"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE test_us summary"), std::string::npos);
  EXPECT_NE(prom.find("test_us{quantile=\"0.5\"}"), std::string::npos) << prom;
  EXPECT_NE(prom.find("test_us_count 100"), std::string::npos) << prom;
  EXPECT_NE(prom.find("# HELP test_total a counter"), std::string::npos);

  // Deterministic rendering: same state, identical bytes.
  EXPECT_EQ(prom, reg.ToPrometheusText());
  EXPECT_EQ(reg.ToJson(), reg.ToJson());

  reg.ResetAll();
  EXPECT_EQ(c->value(), 0u);
  EXPECT_EQ(h->count(), 0u);
}

TEST(MetricsRegistryTest, EngineAndServerStatsPublishAsGauges) {
  MetricsRegistry reg;
  EngineStats es;
  es.prepares = 7;
  es.backend_refusals = 2;
  es.slow_queries = 1;
  es.PublishTo(&reg);
  EXPECT_DOUBLE_EQ(reg.GetGauge("tqp_engine_prepares")->value(), 7.0);
  EXPECT_DOUBLE_EQ(reg.GetGauge("tqp_engine_backend_refusals")->value(), 2.0);
  EXPECT_DOUBLE_EQ(reg.GetGauge("tqp_engine_slow_queries")->value(), 1.0);
  ServerStats ss;
  ss.queries = 9;
  ss.traced_queries = 4;
  ss.PublishTo(&reg);
  EXPECT_DOUBLE_EQ(reg.GetGauge("tqp_server_queries")->value(), 9.0);
  EXPECT_DOUBLE_EQ(reg.GetGauge("tqp_server_traced_queries")->value(), 4.0);
  // Republishing sets, never accumulates.
  es.PublishTo(&reg);
  EXPECT_DOUBLE_EQ(reg.GetGauge("tqp_engine_prepares")->value(), 7.0);
}

TEST(MetricsRegistryTest, EveryNumericStatsKeyHasAGauge) {
  // Both renderings come from one field declaration per struct: every
  // numeric JSON key is a tqp_engine_<key> / tqp_server_<key> gauge, and no
  // gauge lacks a key. The backend name and the calibration fingerprint are
  // JSON-only.
  auto check = [](const std::string& json, const std::string& prefix,
                  const std::function<void(MetricsRegistry*)>& publish) {
    MetricsRegistry reg;
    publish(&reg);
    std::set<std::string> gauges = KeySet(MustParse(reg.ToJson()));
    std::set<std::string> expected;
    for (const auto& [key, value] : MustParse(json).object) {
      if (value.kind == JsonValue::Kind::kNumber &&
          key != "calibration_fingerprint") {
        expected.insert(prefix + key);
      }
    }
    EXPECT_EQ(gauges, expected);
  };
  EngineStats es;
  check(es.ToJson(), "tqp_engine_",
        [&](MetricsRegistry* reg) { es.PublishTo(reg); });
  EXPECT_NE(es.ToJson().find("\"calibration_fingerprint\""),
            std::string::npos);
  ServerStats ss;
  check(ss.ToJson(), "tqp_server_",
        [&](MetricsRegistry* reg) { ss.PublishTo(reg); });
}

// ---- Golden key sets over every JSON surface -------------------------------

TEST(JsonSurfacesTest, ExecStatsKeySet) {
  Engine engine(ObsCatalog());
  Result<QueryResult> result = engine.Query(PaperQueryText());
  ASSERT_TRUE(result.ok());
  JsonValue v = MustParse(result->exec.ToJson());
  const std::set<std::string> expected = {
      "dbms_work",         "stratum_work",       "total_work",
      "tuples_transferred", "tuples_produced",   "vec_batches",
      "vec_materializations", "vec_rows",        "morsels",
      "steals",            "spill_bytes",        "spill_runs",
      "backend_pushdowns", "backend_rows",       "backend_fallbacks",
      "backend_refusals",  "result_cache_hits",  "result_cache_misses",
      "ops"};
  EXPECT_EQ(KeySet(v), expected);
  EXPECT_EQ(v.Find("ops")->kind, JsonValue::Kind::kObject);
}

TEST(JsonSurfacesTest, EngineStatsKeySet) {
  Engine engine(ObsCatalog());
  ASSERT_TRUE(engine.Query(PaperQueryText()).ok());
  JsonValue v = MustParse(engine.stats().ToJson());
  const std::set<std::string> expected = {
      "prepares",
      "plan_cache_hits",
      "plan_cache_misses",
      "plan_cache_evictions",
      "plan_cache_stale_evictions",
      "plan_cache_imports",
      "invalidations",
      "peak_concurrent_queries",
      "plan_cache_entries",
      "interner_nodes",
      "interner_hits",
      "derivation_nodes",
      "backend",
      "backend_pushdowns",
      "backend_rows",
      "backend_fallbacks",
      "backend_refusals",
      "calibration_fingerprint",
      "slow_queries",
      "result_cache_hits",
      "result_cache_misses",
      "result_cache_evictions",
      "result_cache_entries",
      "result_cache_bytes"};
  EXPECT_EQ(KeySet(v), expected);
  EXPECT_DOUBLE_EQ(NumberAt(v, "prepares"), 1.0);
}

TEST(JsonSurfacesTest, ServerStatsKeySet) {
  ServerStats s;
  JsonValue v = MustParse(s.ToJson());
  const std::set<std::string> expected = {
      "connections_total", "connections_active", "queries",
      "errors",            "batches_sent",       "rows_sent",
      "snapshots_written", "plans_imported",     "metrics_requests",
      "traced_queries"};
  EXPECT_EQ(KeySet(v), expected);
}

TEST(JsonSurfacesTest, LoadGenReportAndHistogramKeySets) {
  LoadGenReport report;
  report.latency_us.Record(100);
  JsonValue v = MustParse(report.ToJson());
  const std::set<std::string> expected = {"queries", "errors",    "batches",
                                          "rows",    "plan_cache_hits",
                                          "elapsed_s", "qps", "latency_us"};
  EXPECT_EQ(KeySet(v), expected);
  const std::set<std::string> hist_keys = {"count", "min", "max", "mean",
                                           "p50",  "p90", "p99", "p999"};
  EXPECT_EQ(KeySet(*v.Find("latency_us")), hist_keys);
}

// ---- Profile tree (EXPLAIN ANALYZE) ----------------------------------------

TEST(ProfileTest, TreeMirrorsPlanAndCountsRows) {
  Engine engine(ObsCatalog());
  QueryRunOptions run;
  run.profile = true;
  Result<QueryResult> result = engine.Query(PaperQueryText(), run);
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(result->profile != nullptr);
  const ProfileNode& root = *result->profile;
  Result<PreparedQuery> prepared = engine.Prepare(PaperQueryText());
  ASSERT_TRUE(prepared.ok());
  EXPECT_EQ(root.kind, OpKindName(prepared->best_plan()->kind()));
  EXPECT_EQ(root.children.size(), prepared->best_plan()->children().size());
  EXPECT_EQ(static_cast<size_t>(root.rows_out), result->relation.size());
  EXPECT_GT(root.wall_ns, 0u);
  // Untraced, unprofiled queries carry no tree.
  Result<QueryResult> plain = engine.Query(PaperQueryText());
  ASSERT_TRUE(plain.ok());
  EXPECT_TRUE(plain->profile == nullptr);

  JsonValue v = MustParse(root.ToJson());
  const std::set<std::string> expected = {
      "op",      "kind",     "wall_ns", "self_ns", "rows_in",
      "rows_out", "batches", "cache_hit", "pushed", "children"};
  EXPECT_EQ(KeySet(v), expected);
  EXPECT_EQ(v.Find("children")->array.size(), root.children.size());
}

TEST(ProfileTest, RenderIsByteStableModuloTimings) {
  for (ExecutorKind executor :
       {ExecutorKind::kReference, ExecutorKind::kVectorized}) {
    EngineOptions options;
    options.executor = executor;
    Engine engine(ObsCatalog(), std::move(options));
    Result<PreparedQuery> prepared = engine.Prepare(PaperQueryText());
    ASSERT_TRUE(prepared.ok());
    QueryRunOptions run;
    run.profile = true;
    Result<QueryResult> a = prepared.value().Execute(run);
    Result<QueryResult> b = prepared.value().Execute(run);
    ASSERT_TRUE(a.ok() && b.ok());
    ASSERT_TRUE(a->profile != nullptr && b->profile != nullptr);
    ProfilePrintOptions popts;
    popts.show_times = false;
    const std::string ra = PrintProfile(*a->profile, popts);
    const std::string rb = PrintProfile(*b->profile, popts);
    EXPECT_EQ(ra, rb);  // rows/batches/structure: deterministic
    EXPECT_NE(ra.find(OpKindName(prepared->best_plan()->kind())),
              std::string::npos)
        << ra;
  }
}

TEST(ProfileTest, SelfTimesSumCloseToExecutorWall) {
  if (!BuiltWithSanitizers()) {
#ifdef NDEBUG
    // A real (if small) workload, reference executor: self times over the
    // tree telescope back to the root's inclusive wall, which in turn must
    // be within 20% of the measured executor wall clock.
    Engine engine(ObsCatalog(20000));
    QueryRunOptions run;
    run.profile = true;
    Result<QueryResult> result = engine.Query(
        "VALIDTIME SELECT DISTINCT Name FROM R ORDER BY Name ASC", run);
    ASSERT_TRUE(result.ok());
    ASSERT_TRUE(result->profile != nullptr);
    uint64_t self_sum = 0;
    std::vector<const ProfileNode*> stack = {result->profile.get()};
    while (!stack.empty()) {
      const ProfileNode* n = stack.back();
      stack.pop_back();
      self_sum += n->SelfNs();
      for (const ProfileNode& c : n->children) stack.push_back(&c);
    }
    const double wall = static_cast<double>(result->exec_wall_ns);
    ASSERT_GT(wall, 0.0);
    EXPECT_GT(static_cast<double>(self_sum), 0.8 * wall)
        << "self_sum=" << self_sum << " wall=" << result->exec_wall_ns;
    EXPECT_LE(static_cast<double>(self_sum), 1.2 * wall);
#endif
  }
}

// ---- Traced queries through the Engine -------------------------------------

TEST(EngineTraceTest, TraceCoversWholeLifecycle) {
  Engine engine(ObsCatalog());
  QueryRunOptions run;
  run.trace = true;
  Result<QueryResult> result = engine.Query(PaperQueryText(), run);
  ASSERT_TRUE(result.ok());
  ASSERT_FALSE(result->trace_json.empty());
  JsonValue v = MustParse(result->trace_json);
  std::set<std::string> names, cats;
  for (const JsonValue& ev : v.Find("traceEvents")->array) {
    names.insert(ev.Find("name")->str);
    cats.insert(ev.Find("cat")->str);
  }
  // One trace spans the full pipeline: facade, compile, optimize, execute.
  for (const char* name : {"plan_cache_probe", "parse", "translate",
                           "enumerate", "cost"}) {
    EXPECT_TRUE(names.count(name)) << name;
  }
  for (const char* cat : {"api", "tql", "opt", "exec"}) {
    EXPECT_TRUE(cats.count(cat)) << cat;
  }
  // Per-operator execution spans carry the operator kind as the span name.
  Result<PreparedQuery> prepared = engine.Prepare(PaperQueryText());
  ASSERT_TRUE(prepared.ok());
  EXPECT_TRUE(names.count(OpKindName(prepared->best_plan()->kind())));

  // Untraced queries return no trace — and record no events anywhere.
  Result<QueryResult> plain = engine.Query(PaperQueryText());
  ASSERT_TRUE(plain.ok());
  EXPECT_TRUE(plain->trace_json.empty());
}

TEST(EngineTraceTest, VexecTraceIncludesMorselSpans) {
  EngineOptions options;
  options.executor = ExecutorKind::kVectorized;
  options.vexec_threads = 4;
  options.vexec_batch_size = 256;
  Engine engine(ObsCatalog(8192), std::move(options));
  QueryRunOptions run;
  run.trace = true;
  Result<QueryResult> result = engine.Query(
      "VALIDTIME SELECT DISTINCT Name FROM R ORDER BY Name ASC", run);
  ASSERT_TRUE(result.ok());
  JsonValue v = MustParse(result->trace_json);
  size_t vexec_spans = 0, morsel_like = 0;
  std::set<double> tids;
  for (const JsonValue& ev : v.Find("traceEvents")->array) {
    if (ev.Find("cat")->str == "vexec") ++vexec_spans;
    const std::string& name = ev.Find("name")->str;
    if (name == "morsel" || name == "task" || name == "units") {
      ++morsel_like;
      tids.insert(ev.Find("tid")->number);
    }
  }
  EXPECT_GT(vexec_spans, 0u);
  EXPECT_GT(morsel_like, 0u);  // the pool's per-morsel spans made it out
}

// ---- Slow-query log --------------------------------------------------------

TEST(EngineSlowLogTest, RecordsTextFingerprintAndHottest) {
  EngineOptions options;
  options.slow_query_threshold_ms = 1e-6;  // everything qualifies
  Engine engine(ObsCatalog(), std::move(options));
  Result<QueryResult> result = engine.Query(PaperQueryText());
  ASSERT_TRUE(result.ok());
  // The log forced profiling internally, but the caller never asked for the
  // tree back.
  EXPECT_TRUE(result->profile == nullptr);

  std::vector<SlowQueryRecord> log = engine.slow_queries();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0].text, PaperQueryText());
  EXPECT_EQ(log[0].plan_fingerprint, result->plan_fingerprint);
  EXPECT_GT(log[0].wall_ns, 0u);
  ASSERT_FALSE(log[0].hottest.empty());
  EXPECT_LE(log[0].hottest.size(), 3u);
  // Hottest-first ordering.
  for (size_t i = 1; i < log[0].hottest.size(); ++i) {
    EXPECT_GE(log[0].hottest[i - 1].second, log[0].hottest[i].second);
  }
  EXPECT_EQ(engine.stats().slow_queries, 1u);
}

TEST(EngineSlowLogTest, UnarmedThresholdLogsNothing) {
  Engine engine(ObsCatalog());
  ASSERT_TRUE(engine.Query(PaperQueryText()).ok());
  EXPECT_TRUE(engine.slow_queries().empty());
  EXPECT_EQ(engine.stats().slow_queries, 0u);
}

// ---- Split backend fallback/refusal counters --------------------------------

TEST(BackendRefusalTest, SerializerRefusalCountsSeparately) {
  if (!SqliteBackend::Available()) GTEST_SKIP();
  Catalog catalog;
  Schema s;
  s.Add(Attribute{"Name", ValueType::kString});
  s.Add(Attribute{"Val", ValueType::kInt});
  s.Add(Attribute{"Cat", ValueType::kInt});
  Relation rel(s);
  for (int i = 0; i < 8; ++i) {
    Tuple t;
    t.push_back(Value::String("n" + std::to_string(i % 3)));
    t.push_back(Value::Int(10 * i));
    t.push_back(Value::Int(i % 2));
    rel.Append(std::move(t));
  }
  TQP_CHECK(catalog.RegisterWithInferredFlags("C", rel, Site::kDbms).ok());
  Result<std::unique_ptr<Backend>> made = MakeBackend(BackendKind::kSqlite);
  ASSERT_TRUE(made.ok());

  // Integer division is refused by the serializer (stratum and SQLite
  // disagree on its semantics), so the cut never reaches the backend: a
  // refusal, not a fallback.
  std::vector<ProjItem> proj = {
      ProjItem::Pass("Name"),
      ProjItem{Expr::Arith(ArithOp::kDiv, Expr::Attr("Val"),
                           Expr::Attr("Cat")),
               "VD"},
  };
  PlanPtr plan =
      PlanNode::TransferS(PlanNode::Project(PlanNode::Scan("C"), proj));
  EngineConfig cfg;
  cfg.backend = made.value().get();
  ExecStats stats;
  Result<Relation> got = EvaluatePlan(plan, catalog, cfg, &stats);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(stats.backend_pushdowns, 0);
  EXPECT_EQ(stats.backend_fallbacks, 0);
  EXPECT_GE(stats.backend_refusals, 1);

  // The split surfaces in the JSON rendering too.
  JsonValue v = MustParse(stats.ToJson());
  EXPECT_GE(NumberAt(v, "backend_refusals"), 1.0);
  EXPECT_DOUBLE_EQ(NumberAt(v, "backend_fallbacks"), 0.0);
}

// ---- Service: \metrics and \trace ------------------------------------------

TEST(ServiceObservabilityTest, MetricsAndTraceCommands) {
  Engine engine(ObsCatalog());
  Server server(&engine, ServerOptions{});
  ASSERT_TRUE(server.Start().ok());

  ServiceClient client;
  ASSERT_TRUE(client.Connect(server.host(), server.port()).ok());
  ASSERT_TRUE(client.RunQuery(PaperQueryText()).ok());

  // \metrics: one frame with both renderings of the global registry, fresh
  // from the engine + server stats snapshots.
  Result<std::string> metrics = client.Command("\\metrics");
  ASSERT_TRUE(metrics.ok()) << metrics.status().message();
  JsonValue frame = MustParse(*metrics);
  EXPECT_EQ(frame.Find("type")->str, "metrics");
  const std::string& prom = frame.Find("prometheus")->str;
  EXPECT_NE(prom.find("tqp_queries_total"), std::string::npos) << prom;
  EXPECT_NE(prom.find("tqp_engine_prepares"), std::string::npos) << prom;
  EXPECT_NE(prom.find("tqp_server_queries"), std::string::npos) << prom;
  const JsonValue* registry = frame.Find("metrics");
  ASSERT_TRUE(registry != nullptr);
  EXPECT_GE(NumberAt(*registry->Find("tqp_queries_total"), "value"), 1.0);

  // \trace on: queries now stream profile + trace frames (the thin client
  // skips them) and count server-side.
  Result<std::string> mode = client.Command("\\trace on");
  ASSERT_TRUE(mode.ok());
  EXPECT_EQ(MustParse(*mode).Find("type")->str, "trace_mode");
  EXPECT_TRUE(MustParse(*mode).Find("on")->boolean);
  Result<QueryOutcome> traced = client.RunQuery(PaperQueryText());
  ASSERT_TRUE(traced.ok()) << traced.status().message();
  EXPECT_TRUE(traced->ok) << traced->error;

  ASSERT_TRUE(client.Command("\\trace off").ok());
  Result<QueryOutcome> plain = client.RunQuery(PaperQueryText());
  ASSERT_TRUE(plain.ok());
  EXPECT_TRUE(plain->ok);

  client.Close();
  server.Stop();
  ServerStats stats = server.stats();
  EXPECT_EQ(stats.queries, 3u);
  EXPECT_EQ(stats.metrics_requests, 1u);
  EXPECT_EQ(stats.traced_queries, 1u);
}

}  // namespace
}  // namespace tqp
