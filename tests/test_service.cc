// Tests for the service layer: the lock-free latency histogram, the plan
// store's serialization (full operator/expression/value coverage), the
// cross-restart snapshot contract (warm import, wholesale staleness
// rejection, corrupt-file errors, byte-identical warm-vs-cold results), and
// the TCP server end to end (query streaming, error recovery on a live
// connection, hostile lines, concurrent clients, clean shutdown). CI runs
// this suite under TSan as well.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "api/engine.h"
#include "core/latency_histogram.h"
#include "service/loadgen.h"
#include "service/plan_store.h"
#include "service/server.h"
#include "test_util.h"
#include "workload/paper_example.h"

namespace tqp {
namespace {

// ---- Latency histogram -----------------------------------------------------

TEST(LatencyHistogramTest, ExactBelowSubBucketRange) {
  LatencyHistogram h;
  for (uint64_t v = 0; v < LatencyHistogram::kSubBuckets; ++v) h.Record(v);
  EXPECT_EQ(h.count(), LatencyHistogram::kSubBuckets);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), LatencyHistogram::kSubBuckets - 1);
  // Values below kSubBuckets land in exact slots: every percentile is exact.
  EXPECT_EQ(h.Percentile(50), 31u);
  EXPECT_EQ(h.Percentile(100), 63u);
}

TEST(LatencyHistogramTest, RelativeErrorBound) {
  LatencyHistogram h;
  const uint64_t values[] = {100,    999,     1024,      12345,
                             987654, 1234567, 987654321, (1ull << 40) + 17};
  for (uint64_t v : values) {
    h.Reset();
    h.Record(v);
    const uint64_t p = h.Percentile(50);
    EXPECT_GE(p, v);  // upper bucket edge never undershoots
    EXPECT_LE(static_cast<double>(p - v),
              static_cast<double>(v) / LatencyHistogram::kSubBuckets + 1.0)
        << "value " << v;
    EXPECT_EQ(h.min(), v);
    EXPECT_EQ(h.max(), v);
    EXPECT_DOUBLE_EQ(h.Mean(), static_cast<double>(v));
  }
}

TEST(LatencyHistogramTest, PercentileClampsToObservedMax) {
  LatencyHistogram h;
  h.Record(1000);
  h.Record(1001);
  // The bucket edge for 1001 is above the observed max; reporting must clamp.
  EXPECT_EQ(h.Percentile(99.99), 1001u);
}

TEST(LatencyHistogramTest, MergeAndReset) {
  LatencyHistogram a, b;
  for (uint64_t v = 1; v <= 100; ++v) a.Record(v);
  for (uint64_t v = 1000; v <= 1100; ++v) b.Record(v);
  a.Merge(b);
  EXPECT_EQ(a.count(), 201u);
  EXPECT_EQ(a.min(), 1u);
  EXPECT_EQ(a.max(), 1100u);
  a.Reset();
  EXPECT_EQ(a.count(), 0u);
  EXPECT_EQ(a.Percentile(50), 0u);
  EXPECT_EQ(a.min(), 0u);
}

TEST(LatencyHistogramTest, ConcurrentRecordLosesNothing) {
  LatencyHistogram h;
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        h.Record(static_cast<uint64_t>(t) * 1000 + (i % 997));
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(h.count(), kThreads * kPerThread);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 7000 + 996);
}

TEST(LatencyHistogramTest, ToJsonShape) {
  LatencyHistogram h;
  h.Record(10);
  const std::string j = h.ToJson();
  EXPECT_NE(j.find("\"count\":1"), std::string::npos) << j;
  EXPECT_NE(j.find("\"p999\":"), std::string::npos) << j;
}

// ---- Plan serialization ----------------------------------------------------

/// Deep structural equality: the fingerprint is computed bottom-up from
/// payloads, and the serializer is canonical, so fingerprint plus re-rendered
/// bytes equal ⇔ same tree. (PlanNode::Equal is shallow by design.)
void ExpectSamePlan(const PlanPtr& a, const PlanPtr& b) {
  ASSERT_TRUE(a != nullptr);
  ASSERT_TRUE(b != nullptr);
  EXPECT_EQ(a->fingerprint(), b->fingerprint());
  EXPECT_EQ(SerializePlan(a), SerializePlan(b));
}

void ExpectRoundTrip(const PlanPtr& plan) {
  const std::string data = SerializePlan(plan);
  Result<PlanPtr> back = DeserializePlan(data);
  ASSERT_TRUE(back.ok()) << back.status().message() << "\n" << data;
  ExpectSamePlan(plan, *back);
}

/// A predicate exercising every ExprKind and every Value type.
ExprPtr KitchenSinkPredicate() {
  ExprPtr cmp = Expr::Compare(CompareOp::kGe, Expr::Attr("Val"),
                              Expr::Const(Value::Int(-42)));
  ExprPtr arith = Expr::Compare(
      CompareOp::kNe,
      Expr::Arith(ArithOp::kMul, Expr::Attr("Val"),
                  Expr::Const(Value::Double(2.5))),
      Expr::Const(Value::Double(1.0 / 3.0)));
  ExprPtr str = Expr::Compare(CompareOp::kEq, Expr::Attr("Name"),
                              Expr::Const(Value::String(
                                  "needs \"escaping\"\nand spaces")));
  ExprPtr nul = Expr::Compare(CompareOp::kLt, Expr::Attr("Cat"),
                              Expr::Const(Value::Null()));
  ExprPtr overlaps =
      Expr::Overlaps(Expr::Attr("T1"), Expr::Attr("T2"),
                     Expr::Const(Value::Time(100)),
                     Expr::Const(Value::Time(200)));
  return Expr::And(Expr::Or(cmp, Expr::Not(arith)),
                   Expr::And(str, Expr::Or(nul, overlaps)));
}

TEST(PlanStoreTest, ExpressionAndValueRoundTrip) {
  ExpectRoundTrip(PlanNode::Select(PlanNode::Scan("R"),
                                   KitchenSinkPredicate()));
}

TEST(PlanStoreTest, EveryOperatorRoundTrips) {
  const PlanPtr r = PlanNode::Scan("R");
  const PlanPtr s = PlanNode::Scan("a relation\nwith \"odd\" name");
  std::vector<ProjItem> items;
  items.push_back(ProjItem{Expr::Attr("Name"), "Name"});
  items.push_back(ProjItem{
      Expr::Arith(ArithOp::kAdd, Expr::Attr("Val"),
                  Expr::Const(Value::Int(1))),
      "ValPlus"});
  std::vector<AggSpec> aggs;
  aggs.push_back(AggSpec{AggFunc::kCount, "", "n"});
  aggs.push_back(AggSpec{AggFunc::kAvg, "Val", "avg_val"});
  SortSpec sort{SortKey{"Name", true}, SortKey{"Val", false}};

  ExpectRoundTrip(r);
  ExpectRoundTrip(PlanNode::Select(r, KitchenSinkPredicate()));
  ExpectRoundTrip(PlanNode::Project(r, items));
  ExpectRoundTrip(PlanNode::UnionAll(r, s));
  ExpectRoundTrip(PlanNode::Product(r, s));
  ExpectRoundTrip(PlanNode::Difference(r, s));
  ExpectRoundTrip(PlanNode::Aggregate(r, {"Cat", "Name"}, aggs));
  ExpectRoundTrip(PlanNode::Rdup(r));
  ExpectRoundTrip(PlanNode::ProductT(r, s));
  ExpectRoundTrip(PlanNode::DifferenceT(r, s));
  ExpectRoundTrip(PlanNode::AggregateT(r, {}, aggs));
  ExpectRoundTrip(PlanNode::RdupT(r));
  ExpectRoundTrip(PlanNode::Union(r, s));
  ExpectRoundTrip(PlanNode::UnionT(r, s));
  ExpectRoundTrip(PlanNode::Sort(r, sort));
  ExpectRoundTrip(PlanNode::Coalesce(r));
  ExpectRoundTrip(PlanNode::TransferS(r));
  ExpectRoundTrip(PlanNode::TransferD(r));

  // A deep composite: every kind in one tree.
  ExpectRoundTrip(PlanNode::Sort(
      PlanNode::Coalesce(PlanNode::RdupT(PlanNode::AggregateT(
          PlanNode::TransferD(PlanNode::UnionT(
              PlanNode::Select(PlanNode::TransferS(PlanNode::Product(r, s)),
                               KitchenSinkPredicate()),
              PlanNode::DifferenceT(PlanNode::Project(r, items),
                                    PlanNode::Rdup(s)))),
          {"Cat"}, aggs))),
      sort));
}

TEST(PlanStoreTest, DeserializeRejectsGarbage) {
  EXPECT_FALSE(DeserializePlan("").ok());
  EXPECT_FALSE(DeserializePlan("(scan").ok());
  EXPECT_FALSE(DeserializePlan("(warp \"1:R)").ok());
  EXPECT_FALSE(DeserializePlan("(scan \"9999:R)").ok());
  EXPECT_FALSE(DeserializePlan("(select (scan \"1:R))").ok());  // no predicate
  EXPECT_FALSE(DeserializePlan("(scan \"1:R) junk").ok());
  EXPECT_FALSE(DeserializeSnapshot("not-a-snapshot 1 2 3").ok());
}

TEST(PlanStoreTest, SnapshotRoundTripPreservesEverything) {
  PlanCacheSnapshot snap;
  snap.catalog_version = 7;
  snap.catalog_fingerprint = 0xdeadbeefcafeull;
  PlanCacheEntry e;
  e.key = "#tql:select|name|from|r";
  e.text = "SELECT Name FROM R";
  e.contract = QueryContract::List({SortKey{"Name", true}});
  e.initial_plan = PlanNode::Project(
      PlanNode::Scan("R"), {ProjItem{Expr::Attr("Name"), "Name"}});
  e.best_plan = PlanNode::Sort(e.initial_plan, {SortKey{"Name", true}});
  e.best_cost = 12.5;
  e.initial_cost = 99.25;
  e.plans_considered = 1234;
  e.truncated = true;
  e.derivation = {"step one", "step \"two\""};
  snap.entries.push_back(e);

  Result<PlanCacheSnapshot> back = DeserializeSnapshot(SerializeSnapshot(snap));
  ASSERT_TRUE(back.ok()) << back.status().message();
  EXPECT_EQ(back->catalog_version, snap.catalog_version);
  EXPECT_EQ(back->catalog_fingerprint, snap.catalog_fingerprint);
  ASSERT_EQ(back->entries.size(), 1u);
  const PlanCacheEntry& b = back->entries[0];
  EXPECT_EQ(b.key, e.key);
  EXPECT_EQ(b.text, e.text);
  EXPECT_EQ(b.contract.result_type, e.contract.result_type);
  ASSERT_EQ(b.contract.order_by.size(), 1u);
  EXPECT_EQ(b.contract.order_by[0].attr, "Name");
  EXPECT_TRUE(b.contract.order_by[0].ascending);
  EXPECT_DOUBLE_EQ(b.best_cost, e.best_cost);
  EXPECT_DOUBLE_EQ(b.initial_cost, e.initial_cost);
  EXPECT_EQ(b.plans_considered, e.plans_considered);
  EXPECT_TRUE(b.truncated);
  EXPECT_EQ(b.derivation, e.derivation);
  ExpectSamePlan(b.initial_plan, e.initial_plan);
  ExpectSamePlan(b.best_plan, e.best_plan);
}

// ---- Engine export/import + plan-store files -------------------------------

/// EMPLOYEE/PROJECT plus a generated temporal relation, rebuilt identically
/// on each call — the "server restart against the same data" scenario.
Catalog ServiceCatalog() {
  Catalog catalog = PaperCatalog();
  TQP_CHECK(catalog
                .RegisterWithInferredFlags(
                    "R", testing_util::RandomTemporal(3, 20), Site::kDbms)
                .ok());
  return catalog;
}

std::vector<std::string> ServiceQueries() {
  return {
      PaperQueryText(),
      "SELECT Name, Val FROM R WHERE Val > 10",
      "SELECT DISTINCT Name FROM R ORDER BY Name ASC",
      "SELECT Cat, COUNT(*) AS n FROM R GROUP BY Cat ORDER BY Cat",
  };
}

std::string TempPath(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

TEST(PlanStoreTest, FileRoundTripWarmsARestartedEngine) {
  const std::string path = TempPath("tqp_plan_store_roundtrip.snapshot");
  std::remove(path.c_str());

  // First process lifetime: serve the mix, snapshot on the way out.
  std::vector<std::string> cold_tables;
  {
    Engine engine(ServiceCatalog());
    for (const std::string& q : ServiceQueries()) {
      Result<QueryResult> r = engine.Query(q);
      ASSERT_TRUE(r.ok()) << r.status().message();
      cold_tables.push_back(r->relation.ToTable());
    }
    ASSERT_TRUE(SavePlanCache(engine, path).ok());
    EXPECT_EQ(engine.stats().plan_cache_entries, ServiceQueries().size());
  }

  // Second lifetime: identical catalog rebuilt from scratch.
  Engine engine(ServiceCatalog());
  Result<PlanStoreLoadOutcome> loaded = LoadPlanCache(&engine, path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  EXPECT_FALSE(loaded->file_missing);
  EXPECT_FALSE(loaded->stale);
  EXPECT_EQ(loaded->in_snapshot, ServiceQueries().size());
  EXPECT_EQ(loaded->imported, ServiceQueries().size());
  EXPECT_EQ(engine.stats().plan_cache_imports, ServiceQueries().size());

  // Every query hits the imported cache on first contact and returns the
  // byte-identical relation the cold engine produced.
  size_t i = 0;
  for (const std::string& q : ServiceQueries()) {
    Result<QueryResult> r = engine.Query(q);
    ASSERT_TRUE(r.ok()) << r.status().message();
    EXPECT_TRUE(r->plan_cache_hit) << q;
    EXPECT_EQ(r->relation.ToTable(), cold_tables[i]) << q;
    ++i;
  }
  EXPECT_EQ(engine.stats().prepares, 0u);
  std::remove(path.c_str());
}

TEST(PlanStoreTest, MissingFileIsACleanColdStart) {
  Engine engine(ServiceCatalog());
  Result<PlanStoreLoadOutcome> loaded =
      LoadPlanCache(&engine, TempPath("tqp_plan_store_nonexistent.snapshot"));
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded->file_missing);
  EXPECT_EQ(loaded->imported, 0u);
}

TEST(PlanStoreTest, CorruptFileIsAnErrorNotACrash) {
  const std::string path = TempPath("tqp_plan_store_corrupt.snapshot");
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("tqp-plan-cache-v1 1 2 999\n(entry truncated", f);
    std::fclose(f);
  }
  Engine engine(ServiceCatalog());
  Result<PlanStoreLoadOutcome> loaded = LoadPlanCache(&engine, path);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(engine.stats().plan_cache_imports, 0u);
  std::remove(path.c_str());
}

TEST(PlanStoreTest, StatementsAtTheParserLimitsRoundTrip) {
  // Every plan the translator and optimizer emit from a statement within
  // the parser's limits must survive Export/Import: the snapshot reader's
  // nesting bound may only refuse what no statement can produce.
  Catalog catalog = ServiceCatalog();
  for (uint32_t i = 0; i < kMaxNesting; ++i) {
    Schema schema;
    schema.Add(Attribute{"A" + std::to_string(i), ValueType::kInt});
    Relation rel(schema);
    Tuple t;
    t.push_back(Value::Int(i));
    rel.Append(std::move(t));
    TQP_CHECK(catalog
                  .RegisterWithInferredFlags("R" + std::to_string(i),
                                             std::move(rel), Site::kDbms)
                  .ok());
  }
  std::string nots;  // NOT height + comparison height == kMaxNesting
  for (uint32_t i = 0; i + 2 < kMaxNesting; ++i) nots += "NOT ";
  std::string ands = "Val = 1";  // AND-chain height == kMaxNesting
  for (uint32_t i = 0; i + 2 < kMaxNesting; ++i) ands += " AND Val = 1";
  std::string unions = "SELECT Name FROM R";
  for (uint32_t i = 1; i < kMaxNesting; ++i) {
    unions += " UNION ALL SELECT Name FROM R";
  }
  std::string from = "SELECT A0 FROM R0";
  for (uint32_t i = 1; i < kMaxNesting; ++i) from += ", R" + std::to_string(i);
  const std::vector<std::string> statements = {
      "SELECT Name FROM R WHERE " + nots + "Val = 1",
      "SELECT Name FROM R WHERE " + ands,
      unions,
      // A deep predicate over a 256-way product.
      from + " WHERE " + nots + "A0 = 0",
  };
  // The depth comes from the statements, not the search; a small plan
  // budget keeps the 256-way product quick to optimize.
  EngineOptions options;
  options.enumeration.max_plans = 16;
  Engine engine(catalog, options);
  for (const std::string& q : statements) {
    ASSERT_TRUE(engine.Prepare(q).ok()) << q.substr(0, 80);
  }
  PlanCacheSnapshot snapshot = engine.ExportPlanCache();
  ASSERT_EQ(snapshot.entries.size(), statements.size());
  Result<PlanCacheSnapshot> back =
      DeserializeSnapshot(SerializeSnapshot(snapshot));
  ASSERT_TRUE(back.ok()) << back.status().message();
  ASSERT_EQ(back->entries.size(), statements.size());
  for (size_t i = 0; i < statements.size(); ++i) {
    ExpectSamePlan(back->entries[i].initial_plan,
                   snapshot.entries[i].initial_plan);
    ExpectSamePlan(back->entries[i].best_plan, snapshot.entries[i].best_plan);
  }
  Engine restarted(catalog);
  EXPECT_EQ(restarted.ImportPlanCache(back.value()), statements.size());
}

TEST(PlanStoreTest, OverDeepSnapshotIsRejectedWholesale) {
  // Built in memory: a hostile file nested a million levels deep would
  // overflow the stack of an unbounded recursive reader.
  auto nested = [](const std::string& open, size_t depth,
                   const std::string& leaf) {
    std::string out;
    for (size_t i = 0; i < depth; ++i) out += open;
    out += leaf;
    out += std::string(depth, ')');
    return out;
  };
  const std::string scan = "(scan \"1:R)";
  // At the bound (the scan is one more level) the plan reads back.
  EXPECT_TRUE(DeserializePlan(nested("(rdup ", kMaxSnapshotNesting - 1, scan))
                  .ok());
  Result<PlanPtr> over =
      DeserializePlan(nested("(rdup ", kMaxSnapshotNesting, scan));
  ASSERT_FALSE(over.ok());
  EXPECT_NE(over.status().message().find("nested deeper"), std::string::npos)
      << over.status().message();
  EXPECT_FALSE(DeserializePlan(nested("(rdup ", 1000000, scan)).ok());
  // Plan and expression levels count together.
  EXPECT_FALSE(DeserializePlan(
                   nested("(rdup ", kMaxSnapshotNesting / 2,
                          "(select " + nested("(not ", kMaxSnapshotNesting / 2,
                                              "(attr \"1:B)") +
                              " " + scan + ")"))
                   .ok());
  EXPECT_FALSE(DeserializePlan("(select " + nested("(not ", 1000000,
                                                   "(attr \"1:B)") +
                               " " + scan + ")")
                   .ok());

  // One over-deep entry rejects the whole snapshot.
  PlanCacheSnapshot snap;
  PlanCacheEntry shallow;
  shallow.key = "shallow";
  shallow.initial_plan = PlanNode::Scan("R");
  shallow.best_plan = shallow.initial_plan;
  PlanCacheEntry deep = shallow;
  deep.key = "deep";
  for (uint32_t i = 0; i < kMaxSnapshotNesting; ++i) {
    deep.best_plan = PlanNode::Rdup(deep.best_plan);
  }
  snap.entries = {shallow, deep};
  Result<PlanCacheSnapshot> back = DeserializeSnapshot(SerializeSnapshot(snap));
  ASSERT_FALSE(back.ok());
  EXPECT_NE(back.status().message().find("nested deeper"), std::string::npos)
      << back.status().message();
}

TEST(PlanStoreTest, StaleCatalogVersionRejectsWholesale) {
  const std::string path = TempPath("tqp_plan_store_stale.snapshot");
  {
    Engine engine(ServiceCatalog());
    ASSERT_TRUE(engine.Query(ServiceQueries()[0]).ok());
    ASSERT_TRUE(SavePlanCache(engine, path).ok());
  }
  // The restarted catalog saw one extra mutation: version differs.
  Catalog catalog = ServiceCatalog();
  TQP_CHECK(catalog
                .RegisterWithInferredFlags(
                    "S", testing_util::RandomTemporal(8, 16), Site::kDbms)
                .ok());
  Engine engine(std::move(catalog));
  Result<PlanStoreLoadOutcome> loaded = LoadPlanCache(&engine, path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  EXPECT_TRUE(loaded->stale);
  EXPECT_EQ(loaded->imported, 0u);
  EXPECT_EQ(loaded->in_snapshot, 1u);

  // And the engine still serves the query cold, correctly.
  Result<QueryResult> r = engine.Query(ServiceQueries()[0]);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->plan_cache_hit);
  std::remove(path.c_str());
}

TEST(PlanStoreTest, ExportImportPreservesLruOrder) {
  EngineOptions options;
  options.plan_cache_capacity = 2;
  Engine a(ServiceCatalog(), options);
  ASSERT_TRUE(a.Query(ServiceQueries()[0]).ok());
  ASSERT_TRUE(a.Query(ServiceQueries()[1]).ok());

  Engine b(ServiceCatalog(), options);
  ASSERT_EQ(b.ImportPlanCache(a.ExportPlanCache()), 2u);
  // A third distinct query must evict the imported LRU entry (queries[0]),
  // proving recency was reproduced, not reset.
  ASSERT_TRUE(b.Query(ServiceQueries()[2]).ok());
  Result<QueryResult> hit = b.Query(ServiceQueries()[1]);
  ASSERT_TRUE(hit.ok());
  EXPECT_TRUE(hit->plan_cache_hit);
  Result<QueryResult> miss = b.Query(ServiceQueries()[0]);
  ASSERT_TRUE(miss.ok());
  EXPECT_FALSE(miss->plan_cache_hit);
}

// ---- Server end to end -----------------------------------------------------

TEST(ServiceServerTest, QueryStreamsSchemaBatchesAndStats) {
  Engine engine(ServiceCatalog());
  ServerOptions opts;
  opts.batch_rows = 4;  // force multiple batch frames
  Server server(&engine, opts);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_NE(server.port(), 0);

  Result<QueryResult> direct = engine.Query("SELECT Name, Val FROM R");
  ASSERT_TRUE(direct.ok());

  ServiceClient client;
  ASSERT_TRUE(client.Connect(server.host(), server.port()).ok());
  Result<QueryOutcome> out =
      client.RunQuery("SELECT Name, Val FROM R", /*capture_raw=*/true);
  ASSERT_TRUE(out.ok()) << out.status().message();
  EXPECT_TRUE(out->ok) << out->error;
  EXPECT_EQ(out->rows, direct->relation.size());
  EXPECT_EQ(out->batches, (direct->relation.size() + 3) / 4);
  EXPECT_NE(out->raw.find("{\"type\":\"schema\""), std::string::npos);
  EXPECT_NE(out->raw.find("\"name\":\"Name\""), std::string::npos);

  Result<std::string> stats = client.Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().message();
  EXPECT_NE(stats->find("\"queries\":1"), std::string::npos) << *stats;
  EXPECT_NE(stats->find("\"engine\":"), std::string::npos) << *stats;

  client.Close();
  server.Stop();
  EXPECT_EQ(server.stats().queries, 1u);
  EXPECT_EQ(server.stats().errors, 0u);
}

TEST(ServiceServerTest, ErrorFrameLeavesConnectionUsable) {
  Engine engine(ServiceCatalog());
  Server server(&engine, ServerOptions{});
  ASSERT_TRUE(server.Start().ok());

  ServiceClient client;
  ASSERT_TRUE(client.Connect(server.host(), server.port()).ok());
  Result<QueryOutcome> bad = client.RunQuery("SELECT FROM nothing !!");
  ASSERT_TRUE(bad.ok()) << bad.status().message();
  EXPECT_FALSE(bad->ok);
  EXPECT_FALSE(bad->error.empty());

  Result<QueryOutcome> good = client.RunQuery("SELECT Name FROM R");
  ASSERT_TRUE(good.ok()) << good.status().message();
  EXPECT_TRUE(good->ok) << good->error;
  EXPECT_GT(good->rows, 0u);
  server.Stop();
  EXPECT_EQ(server.stats().errors, 1u);
}

TEST(ServiceServerTest, OutOfRangeLiteralIsAnErrorFrameNotACrash) {
  Engine engine(ServiceCatalog());
  Server server(&engine, ServerOptions{});
  ASSERT_TRUE(server.Start().ok());

  ServiceClient client;
  ASSERT_TRUE(client.Connect(server.host(), server.port()).ok());
  Result<QueryOutcome> bad =
      client.RunQuery("SELECT Name FROM R WHERE Val = 99999999999999999999999");
  ASSERT_TRUE(bad.ok()) << bad.status().message();
  EXPECT_FALSE(bad->ok);
  EXPECT_NE(bad->error.find("out of range"), std::string::npos) << bad->error;

  Result<QueryOutcome> good = client.RunQuery("SELECT Name FROM R");
  ASSERT_TRUE(good.ok()) << good.status().message();
  EXPECT_TRUE(good->ok) << good->error;
  EXPECT_GT(good->rows, 0u);
  server.Stop();
  EXPECT_EQ(server.stats().errors, 1u);
}

TEST(ServiceServerTest, OversizedLineGetsErrorFrameAndClose) {
  Engine engine(ServiceCatalog());
  Server server(&engine, ServerOptions{});
  ASSERT_TRUE(server.Start().ok());

  // A raw client that never sends a newline.
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  ASSERT_EQ(::inet_pton(AF_INET, server.host().c_str(), &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  std::string line(kMaxLineBytes + 16 * 1024, 'x');
  size_t off = 0;
  while (off < line.size()) {
    ssize_t n = ::send(fd, line.data() + off, line.size() - off, MSG_NOSIGNAL);
    ASSERT_GT(n, 0);
    off += static_cast<size_t>(n);
  }
  // The server answers with one error frame, then closes (recv hits EOF).
  std::string reply;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    reply.append(buf, static_cast<size_t>(n));
  }
  EXPECT_EQ(n, 0) << "connection not closed cleanly";
  ::close(fd);
  EXPECT_EQ(reply.rfind("{\"type\":\"error\"", 0), 0u) << reply;
  EXPECT_NE(reply.find("line exceeds"), std::string::npos) << reply;
  EXPECT_EQ(std::count(reply.begin(), reply.end(), '\n'), 1) << reply;

  // Another client is still served.
  ServiceClient client;
  ASSERT_TRUE(client.Connect(server.host(), server.port()).ok());
  Result<QueryOutcome> good = client.RunQuery("SELECT Name FROM R");
  ASSERT_TRUE(good.ok()) << good.status().message();
  EXPECT_TRUE(good->ok) << good->error;
  EXPECT_GT(good->rows, 0u);
  server.Stop();
  EXPECT_EQ(server.stats().errors, 1u);
}

TEST(ServiceServerTest, ConcurrentClientsThroughLoadgen) {
  Engine engine(ServiceCatalog());
  Server server(&engine, ServerOptions{});
  ASSERT_TRUE(server.Start().ok());

  LoadGenOptions load;
  load.host = server.host();
  load.port = server.port();
  load.clients = 8;
  load.rounds = 3;  // 8 clients × 3 passes × |mix| queries, then stop
  load.queries = ServiceQueries();
  LoadGenReport report;
  Status st = RunLoad(load, &report);
  ASSERT_TRUE(st.ok()) << st.message();
  EXPECT_EQ(report.queries, 8u * 3u * ServiceQueries().size());
  EXPECT_EQ(report.errors, 0u);
  EXPECT_EQ(report.latency_us.count(), report.queries);
  EXPECT_GT(report.rows, 0u);
  // Every query text repeats across clients: the shared plan cache must
  // serve the repeats warm. Concurrent first contacts can each miss (the
  // compile races the store), so the worst case is one miss per client per
  // distinct query.
  EXPECT_GE(report.plan_cache_hits,
            report.queries - load.clients * ServiceQueries().size());
  server.Stop();
  EXPECT_EQ(server.stats().queries, report.queries);
}

TEST(ServiceServerTest, WarmRestartIsByteIdenticalToCold) {
  const std::string path = TempPath("tqp_service_warm_restart.snapshot");
  std::remove(path.c_str());

  LoadGenOptions load;
  load.clients = 2;
  load.rounds = 2;
  load.queries = ServiceQueries();
  load.record_raw = true;

  auto run_against = [&](const ServerOptions& opts,
                         std::vector<std::string>* raws) {
    Engine engine(ServiceCatalog());
    Server server(&engine, opts);
    ASSERT_TRUE(server.Start().ok());
    load.host = server.host();
    load.port = server.port();
    LoadGenReport report;
    Status st = RunLoad(load, &report);
    ASSERT_TRUE(st.ok()) << st.message();
    ASSERT_EQ(report.errors, 0u);
    *raws = report.raw_by_client;
    server.Stop();  // writes the final snapshot when configured
  };

  ServerOptions with_snapshot;
  with_snapshot.snapshot_path = path;
  std::vector<std::string> first_raws, warm_raws, cold_raws;
  run_against(with_snapshot, &first_raws);   // writes snapshot on Stop()
  run_against(with_snapshot, &warm_raws);    // restarts warm from it
  run_against(ServerOptions{}, &cold_raws);  // fresh cold server, no store

  // The deterministic rounds-mode workload makes per-client streams directly
  // comparable: a warm restart changes latency, never a byte of results.
  ASSERT_EQ(warm_raws.size(), cold_raws.size());
  for (size_t i = 0; i < warm_raws.size(); ++i) {
    EXPECT_EQ(warm_raws[i], cold_raws[i]) << "client " << i;
    EXPECT_EQ(warm_raws[i], first_raws[i]) << "client " << i;
  }
  std::remove(path.c_str());
}

TEST(ServiceServerTest, StopUnblocksIdleConnections) {
  Engine engine(ServiceCatalog());
  auto server = std::make_unique<Server>(&engine, ServerOptions{});
  ASSERT_TRUE(server->Start().ok());
  ServiceClient idle1, idle2;
  ASSERT_TRUE(idle1.Connect(server->host(), server->port()).ok());
  ASSERT_TRUE(idle2.Connect(server->host(), server->port()).ok());
  // Stop() must shut down reads and join the connection threads without
  // waiting for the idle clients to say \quit; hanging here fails the test
  // by timeout.
  server->Stop();
  server.reset();
}

}  // namespace
}  // namespace tqp
