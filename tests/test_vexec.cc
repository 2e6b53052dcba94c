// Randomized A/B parity suite for the vectorized batch executor.
//
// The contract under test (vexec/vexec.h): for every plan, catalog, and
// engine configuration — with the DBMS order scramble off and on — the
// vectorized executor's result is LIST-IDENTICAL to the reference
// evaluator's: same schema, same tuples in the same order (same surviving
// occurrences under rdup/rdupT, same difference fragment order, same
// coalescing positions), and the same order annotation. The simulated cost
// accounting (work by site, transfers, tuples produced, operator counts)
// must also agree, since both executors compute it from the same formulas.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "algebra/printer.h"
#include "api/engine.h"
#include "backend/backend.h"
#include "backend/sqlite_backend.h"
#include "core/profile.h"
#include "exec/evaluator.h"
#include "exec/result_cache.h"
#include "test_util.h"
#include "vexec/vexec.h"
#include "workload/generator.h"

namespace tqp {
namespace {

using testing_util::TemporalRel;

// ---- Helpers --------------------------------------------------------------

void ExpectListIdentical(const Relation& ref, const Relation& vec,
                         const std::string& label) {
  ASSERT_EQ(ref.schema().ToString(), vec.schema().ToString()) << label;
  ASSERT_EQ(ref.size(), vec.size()) << label;
  for (size_t i = 0; i < ref.size(); ++i) {
    ASSERT_EQ(ref.tuple(i), vec.tuple(i))
        << label << " row " << i << ": " << ref.tuple(i).ToString() << " vs "
        << vec.tuple(i).ToString();
    // Full-value identity, not just Compare-equality (0.0 vs -0.0 etc.).
    ASSERT_EQ(ref.tuple(i).ToString(), vec.tuple(i).ToString())
        << label << " row " << i;
  }
  EXPECT_EQ(SortSpecToString(ref.order()), SortSpecToString(vec.order()))
      << label;
}

void ExpectStatsAgree(const ExecStats& ref, const ExecStats& vec,
                      const std::string& label) {
  EXPECT_DOUBLE_EQ(ref.dbms_work, vec.dbms_work) << label;
  EXPECT_DOUBLE_EQ(ref.stratum_work, vec.stratum_work) << label;
  EXPECT_EQ(ref.tuples_transferred, vec.tuples_transferred) << label;
  EXPECT_EQ(ref.tuples_produced, vec.tuples_produced) << label;
  EXPECT_EQ(ref.op_counts, vec.op_counts) << label;
  // The batch counters exist only on the vectorized side.
  EXPECT_EQ(ref.vec_batches, 0) << label;
  EXPECT_EQ(ref.vec_materializations, 0) << label;
  EXPECT_GT(vec.vec_materializations, 0) << label;
  EXPECT_EQ(vec.vec_rows, vec.tuples_produced) << label;
}

/// Runs one plan through both executors under one config and compares.
void CheckPlanWithOptions(const PlanPtr& plan, const Catalog& catalog,
                          const EngineConfig& config, const std::string& label,
                          const VexecOptions& vopts) {
  ExecStats ref_stats, vec_stats;
  Result<Relation> ref = EvaluatePlan(plan, catalog, config, &ref_stats);
  Result<Relation> vec =
      ExecuteVectorizedPlan(plan, catalog, config, &vec_stats, vopts);
  ASSERT_EQ(ref.ok(), vec.ok()) << label << ": " << ref.status().ToString()
                                << " vs " << vec.status().ToString();
  if (!ref.ok()) {
    EXPECT_EQ(ref.status().message(), vec.status().message()) << label;
    return;
  }
  ExpectListIdentical(ref.value(), vec.value(), label);
  ExpectStatsAgree(ref_stats, vec_stats, label);
}

void CheckPlan(const PlanPtr& plan, const Catalog& catalog,
               const EngineConfig& config, const std::string& label,
               size_t batch_size = 1024) {
  VexecOptions vopts;
  vopts.batch_size = batch_size;
  CheckPlanWithOptions(plan, catalog, config, label, vopts);
}

/// The three engine configurations every plan is checked under.
std::vector<std::pair<std::string, EngineConfig>> Configs() {
  EngineConfig plain;
  EngineConfig scrambled;
  scrambled.dbms_scrambles_order = true;
  EngineConfig scrambled2;
  scrambled2.dbms_scrambles_order = true;
  scrambled2.scramble_seed = 0xabcdef12;
  return {{"plain", plain},
          {"scrambled", scrambled},
          {"scrambled-seed2", scrambled2}};
}

/// A messy temporal relation exercising duplicates, snapshot duplicates,
/// and adjacency.
Relation Messy(uint64_t seed, size_t n) {
  RelationGenParams p;
  p.cardinality = n;
  p.num_names = 6;
  p.num_categories = 3;
  p.time_horizon = 80;
  p.max_period_length = 14;
  p.duplicate_fraction = 0.25;
  p.adjacency_fraction = 0.3;
  p.overlap_fraction = 0.3;
  p.seed = seed;
  return GenerateRelation(p);
}

Relation MessyConventional(uint64_t seed, size_t n) {
  RelationGenParams p;
  p.cardinality = n;
  p.num_names = 5;
  p.num_categories = 3;
  p.duplicate_fraction = 0.35;
  p.temporal = false;
  p.seed = seed;
  return GenerateRelation(p);
}

/// A conventional relation with NULLs in every non-key column.
Relation WithNulls() {
  Schema s;
  s.Add(Attribute{"Name", ValueType::kString});
  s.Add(Attribute{"Cat", ValueType::kInt});
  s.Add(Attribute{"Val", ValueType::kInt});
  Relation r(s);
  auto add = [&](Value name, Value cat, Value val) {
    Tuple t;
    t.push_back(std::move(name));
    t.push_back(std::move(cat));
    t.push_back(std::move(val));
    r.Append(std::move(t));
  };
  add(Value::String("a"), Value::Int(1), Value::Int(10));
  add(Value::Null(), Value::Int(1), Value::Int(20));
  add(Value::String("b"), Value::Null(), Value::Null());
  add(Value::String("a"), Value::Int(1), Value::Null());
  add(Value::Null(), Value::Int(1), Value::Int(20));
  add(Value::String("b"), Value::Int(2), Value::Int(30));
  return r;
}

Catalog MakeCatalog(uint64_t seed) {
  Catalog catalog;
  TQP_CHECK(
      catalog.RegisterWithInferredFlags("R", Messy(seed, 40), Site::kDbms)
          .ok());
  TQP_CHECK(
      catalog
          .RegisterWithInferredFlags("S", Messy(seed + 101, 28), Site::kDbms)
          .ok());
  TQP_CHECK(catalog
                .RegisterWithInferredFlags(
                    "C", MessyConventional(seed + 7, 30), Site::kDbms)
                .ok());
  TQP_CHECK(catalog
                .RegisterWithInferredFlags(
                    "D", MessyConventional(seed + 13, 12), Site::kDbms)
                .ok());
  TQP_CHECK(
      catalog.RegisterWithInferredFlags("N", WithNulls(), Site::kDbms).ok());
  return catalog;
}

/// Every operator of Table 1 (plus transfers), as plan builders.
std::vector<std::pair<std::string, PlanPtr>> AllOperatorPlans() {
  auto R = [] { return PlanNode::Scan("R"); };
  auto S = [] { return PlanNode::Scan("S"); };
  auto C = [] { return PlanNode::Scan("C"); };
  auto D = [] { return PlanNode::Scan("D"); };
  auto N = [] { return PlanNode::Scan("N"); };
  ExprPtr pred = Expr::And(
      Expr::Compare(CompareOp::kLt, Expr::Attr("Cat"), Expr::Const(Value::Int(2))),
      Expr::Compare(CompareOp::kGt, Expr::Attr("Val"), Expr::Const(Value::Int(100))));
  ExprPtr name_eq = Expr::Compare(CompareOp::kEq, Expr::Attr("Name"),
                                  Expr::Const(Value::String("n3")));
  std::vector<ProjItem> proj = {
      ProjItem::Pass("Name"),
      ProjItem{Expr::Arith(ArithOp::kMul, Expr::Attr("Val"),
                           Expr::Const(Value::Int(2))),
               "V2"},
      ProjItem{Expr::Arith(ArithOp::kDiv, Expr::Attr("Val"),
                           Expr::Attr("Cat")),
               "VD"},
  };
  std::vector<AggSpec> aggs = {
      AggSpec{AggFunc::kCount, "", "n"},
      AggSpec{AggFunc::kSum, "Val", "s"},
      AggSpec{AggFunc::kMin, "Val", "lo"},
      AggSpec{AggFunc::kMax, "Val", "hi"},
      AggSpec{AggFunc::kAvg, "Val", "avg"},
  };
  SortSpec by_name_val = {{"Name", true}, {"Val", false}};

  std::vector<std::pair<std::string, PlanPtr>> plans;
  plans.emplace_back("scan", R());
  plans.emplace_back("select", PlanNode::Select(R(), pred));
  plans.emplace_back("select-string", PlanNode::Select(R(), name_eq));
  plans.emplace_back("project-arith", PlanNode::Project(C(), proj));
  plans.emplace_back("union-all", PlanNode::UnionAll(R(), S()));
  plans.emplace_back("union-max", PlanNode::Union(C(), D()));
  plans.emplace_back("difference", PlanNode::Difference(C(), D()));
  plans.emplace_back("product", PlanNode::Product(C(), D()));
  plans.emplace_back("aggregate",
                     PlanNode::Aggregate(C(), {"Name", "Cat"}, aggs));
  plans.emplace_back("aggregate-nulls",
                     PlanNode::Aggregate(N(), {"Name"}, aggs));
  plans.emplace_back("rdup", PlanNode::Rdup(C()));
  plans.emplace_back("rdup-temporal", PlanNode::Rdup(R()));
  plans.emplace_back("rdup-nulls", PlanNode::Rdup(N()));
  plans.emplace_back("sort", PlanNode::Sort(R(), by_name_val));
  plans.emplace_back("sort-nulls", PlanNode::Sort(N(), by_name_val));
  plans.emplace_back("product-t", PlanNode::ProductT(R(), S()));
  plans.emplace_back("difference-t", PlanNode::DifferenceT(R(), S()));
  plans.emplace_back("union-t", PlanNode::UnionT(R(), S()));
  plans.emplace_back("aggregate-t",
                     PlanNode::AggregateT(R(), {"Name"},
                                          {AggSpec{AggFunc::kCount, "", "n"},
                                           AggSpec{AggFunc::kSum, "Val", "s"}}));
  plans.emplace_back("rdup-t", PlanNode::RdupT(R()));
  plans.emplace_back("coalesce", PlanNode::Coalesce(R()));
  plans.emplace_back("transfer-pipeline",
                     PlanNode::Sort(PlanNode::Coalesce(PlanNode::TransferS(
                                        PlanNode::Select(R(), name_eq))),
                                    {{"Name", true}}));
  plans.emplace_back(
      "deep-pipeline",
      PlanNode::Sort(
          PlanNode::Coalesce(PlanNode::RdupT(PlanNode::Select(R(), pred))),
          by_name_val));
  plans.emplace_back(
      "join-pipeline",
      PlanNode::Sort(PlanNode::ProductT(PlanNode::Coalesce(R()),
                                        PlanNode::RdupT(S())),
                     {{"Name", true}}));
  // σ(equality ∧ residual)(C × D): the vectorized executor fuses this into a
  // partitioned hash join; the result must stay list-identical to the
  // unfused reference product + selection.
  ExprPtr equi = Expr::And(
      Expr::Compare(CompareOp::kEq, Expr::Attr("1.Name"), Expr::Attr("2.Name")),
      Expr::Compare(CompareOp::kLe, Expr::Attr("1.Val"), Expr::Attr("2.Val")));
  plans.emplace_back("equi-join",
                     PlanNode::Select(PlanNode::Product(C(), D()), equi));
  ExprPtr equi2 = Expr::And(
      Expr::Compare(CompareOp::kEq, Expr::Attr("1.Name"), Expr::Attr("2.Name")),
      Expr::Compare(CompareOp::kEq, Expr::Attr("1.Cat"), Expr::Attr("2.Cat")));
  plans.emplace_back(
      "equi-join-pipeline",
      PlanNode::Sort(PlanNode::Rdup(PlanNode::Select(
                         PlanNode::Product(PlanNode::Rdup(C()), D()), equi2)),
                     {{"1.Name", true}, {"1.Val", false}}));
  return plans;
}

// ---- The randomized A/B property suite ------------------------------------

TEST(VexecParity, AllOperatorsAllConfigsRandomized) {
  for (uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    Catalog catalog = MakeCatalog(seed);
    for (const auto& [cfg_name, config] : Configs()) {
      for (const auto& [plan_name, plan] : AllOperatorPlans()) {
        CheckPlan(plan, catalog, config,
                  "seed " + std::to_string(seed) + "/" + cfg_name + "/" +
                      plan_name);
      }
    }
  }
}

TEST(VexecParity, BatchSizeNeverChangesResults) {
  Catalog catalog = MakeCatalog(17);
  EngineConfig scrambled;
  scrambled.dbms_scrambles_order = true;
  for (size_t batch : {1u, 3u, 7u, 64u, 100000u}) {
    for (const auto& [plan_name, plan] : AllOperatorPlans()) {
      CheckPlan(plan, catalog, scrambled,
                "batch " + std::to_string(batch) + "/" + plan_name, batch);
    }
  }
}

// The morsel-parallel and out-of-core paths obey the same contract as the
// serial in-memory path: any thread count × memory budget × batch size is
// list-identical to the reference evaluator, scramble on or off.
TEST(VexecParity, ThreadsAndBudgetsNeverChangeResults) {
  for (uint64_t seed : {11u, 12u}) {
    Catalog catalog = MakeCatalog(seed);
    for (const auto& [cfg_name, config] : Configs()) {
      for (size_t threads : {2u, 4u}) {
        for (uint64_t budget : {uint64_t{0}, uint64_t{512}}) {
          for (size_t batch : {7u, 1024u}) {
            VexecOptions vopts;
            vopts.batch_size = batch;
            vopts.threads = threads;
            // Tiny morsels so 40-row inputs still split across workers.
            vopts.morsel_rows = 8;
            vopts.memory_budget = budget;
            for (const auto& [plan_name, plan] : AllOperatorPlans()) {
              CheckPlanWithOptions(
                  plan, catalog, config,
                  "seed " + std::to_string(seed) + "/" + cfg_name + "/t" +
                      std::to_string(threads) + "/b" + std::to_string(budget) +
                      "/batch" + std::to_string(batch) + "/" + plan_name,
                  vopts);
            }
          }
        }
      }
    }
  }
}

// N-thread output is byte-identical to the serial vectorized run — the
// determinism contract is vexec-vs-vexec, not just vexec-vs-reference.
// The deterministic stats (everything but the morsel/steal telemetry) must
// agree too.
TEST(VexecParity, FourThreadOutputByteIdenticalToSerial) {
  Catalog catalog;
  TQP_CHECK(
      catalog.RegisterWithInferredFlags("R", Messy(41, 600), Site::kDbms)
          .ok());
  TQP_CHECK(
      catalog.RegisterWithInferredFlags("S", Messy(43, 400), Site::kDbms)
          .ok());
  EngineConfig config;
  config.dbms_scrambles_order = true;
  std::vector<std::pair<std::string, PlanPtr>> plans;
  plans.emplace_back(
      "deep",
      PlanNode::Sort(PlanNode::Coalesce(PlanNode::RdupT(PlanNode::Scan("R"))),
                     {{"Name", true}, {"Val", false}}));
  plans.emplace_back(
      "join",
      PlanNode::Sort(
          PlanNode::ProductT(PlanNode::Coalesce(PlanNode::Scan("R")),
                             PlanNode::RdupT(PlanNode::Scan("S"))),
          {{"1.Name", true}}));
  plans.emplace_back(
      "agg", PlanNode::AggregateT(PlanNode::Scan("R"), {"Name"},
                                  {AggSpec{AggFunc::kCount, "", "n"},
                                   AggSpec{AggFunc::kSum, "Val", "s"}}));
  for (const auto& [plan_name, plan] : plans) {
    for (uint64_t budget : {uint64_t{0}, uint64_t{4096}}) {
      VexecOptions serial;
      serial.memory_budget = budget;
      VexecOptions par = serial;
      par.threads = 4;
      par.morsel_rows = 64;
      ExecStats sstats, pstats;
      Result<Relation> s =
          ExecuteVectorizedPlan(plan, catalog, config, &sstats, serial);
      Result<Relation> p =
          ExecuteVectorizedPlan(plan, catalog, config, &pstats, par);
      const std::string label =
          plan_name + "/budget" + std::to_string(budget);
      ASSERT_TRUE(s.ok() && p.ok()) << label;
      ExpectListIdentical(s.value(), p.value(), label);
      EXPECT_DOUBLE_EQ(sstats.dbms_work, pstats.dbms_work) << label;
      EXPECT_DOUBLE_EQ(sstats.stratum_work, pstats.stratum_work) << label;
      EXPECT_EQ(sstats.tuples_produced, pstats.tuples_produced) << label;
      EXPECT_EQ(sstats.op_counts, pstats.op_counts) << label;
      EXPECT_EQ(sstats.vec_rows, pstats.vec_rows) << label;
      // Spill volume is deterministic; morsel/steal counts are telemetry.
      EXPECT_EQ(sstats.spill_bytes, pstats.spill_bytes) << label;
      EXPECT_EQ(sstats.spill_runs, pstats.spill_runs) << label;
      EXPECT_EQ(sstats.morsels, 0) << label;  // serial run never morselizes
      EXPECT_GT(pstats.morsels, 0) << label;
    }
  }
}

// Under a budget smaller than the materialized input the blocking operators
// must actually go out of core (nonzero spill counters) and still match the
// reference; with no budget they must never touch disk.
TEST(VexecParity, SpillCountersTrackOutOfCoreWork) {
  Catalog catalog;
  TQP_CHECK(
      catalog.RegisterWithInferredFlags("R", Messy(47, 500), Site::kDbms)
          .ok());
  EngineConfig config;
  std::vector<std::pair<std::string, PlanPtr>> plans;
  plans.emplace_back("sort", PlanNode::Sort(PlanNode::Scan("R"),
                                            {{"Name", true}, {"Val", false}}));
  plans.emplace_back("rdup", PlanNode::Rdup(PlanNode::Scan("R")));
  plans.emplace_back("coalesce", PlanNode::Coalesce(PlanNode::Scan("R")));
  plans.emplace_back("aggregate",
                     PlanNode::Aggregate(PlanNode::Scan("R"), {"Name", "Cat"},
                                         {AggSpec{AggFunc::kSum, "Val", "s"},
                                          AggSpec{AggFunc::kAvg, "Val", "a"}}));
  for (const auto& [plan_name, plan] : plans) {
    ExecStats ref_stats;
    Result<Relation> ref = EvaluatePlan(plan, catalog, config, &ref_stats);
    ASSERT_TRUE(ref.ok()) << plan_name;

    VexecOptions unbounded;
    ExecStats mem_stats;
    Result<Relation> mem =
        ExecuteVectorizedPlan(plan, catalog, config, &mem_stats, unbounded);
    ASSERT_TRUE(mem.ok()) << plan_name;
    ExpectListIdentical(ref.value(), mem.value(), plan_name + "/in-memory");
    EXPECT_EQ(mem_stats.spill_bytes, 0) << plan_name;
    EXPECT_EQ(mem_stats.spill_runs, 0) << plan_name;

    VexecOptions tiny;
    tiny.memory_budget = 1024;  // far below 500 materialized rows
    ExecStats spill_stats;
    Result<Relation> spilled =
        ExecuteVectorizedPlan(plan, catalog, config, &spill_stats, tiny);
    ASSERT_TRUE(spilled.ok()) << plan_name;
    ExpectListIdentical(ref.value(), spilled.value(), plan_name + "/spilled");
    EXPECT_GT(spill_stats.spill_bytes, 0) << plan_name;
    EXPECT_GT(spill_stats.spill_runs, 0) << plan_name;

    // Spilling composes with morsel parallelism.
    VexecOptions both = tiny;
    both.threads = 4;
    both.morsel_rows = 64;
    ExecStats both_stats;
    Result<Relation> b =
        ExecuteVectorizedPlan(plan, catalog, config, &both_stats, both);
    ASSERT_TRUE(b.ok()) << plan_name;
    ExpectListIdentical(ref.value(), b.value(), plan_name + "/spill+threads");
    EXPECT_EQ(both_stats.spill_bytes, spill_stats.spill_bytes) << plan_name;
    EXPECT_EQ(both_stats.spill_runs, spill_stats.spill_runs) << plan_name;
  }
}

TEST(VexecParity, EmptyInputs) {
  Catalog catalog;
  RelationGenParams p;
  p.cardinality = 0;
  TQP_CHECK(catalog
                .RegisterWithInferredFlags("R", GenerateRelation(p),
                                           Site::kDbms)
                .ok());
  p.temporal = false;
  TQP_CHECK(catalog
                .RegisterWithInferredFlags("C", GenerateRelation(p),
                                           Site::kDbms)
                .ok());
  EngineConfig config;
  CheckPlan(PlanNode::Coalesce(PlanNode::Scan("R")), catalog, config,
            "empty-coalesce");
  CheckPlan(PlanNode::Rdup(PlanNode::Scan("C")), catalog, config,
            "empty-rdup");
  CheckPlan(PlanNode::Aggregate(PlanNode::Scan("C"), {"Name"},
                                {AggSpec{AggFunc::kSum, "Val", "s"}}),
            catalog, config, "empty-aggregate");
  CheckPlan(PlanNode::ProductT(PlanNode::Scan("R"), PlanNode::Scan("R")),
            catalog, config, "empty-product-t");
}

// Value::Compare treats numerically equal int/double/time cells as EQUAL
// (Int(1) == Double(1.0)), and the reference keys value-equivalence classes
// and group tables on that comparison — so the vectorized hash tables must
// merge mixed-type numerically-equal keys exactly the same way.
TEST(VexecParity, MixedNumericTypesShareClassesAndGroups) {
  Schema s;
  s.Add(Attribute{"Name", ValueType::kString});
  s.Add(Attribute{"Cat", ValueType::kInt});
  s.Add(Attribute{kT1, ValueType::kTime});
  s.Add(Attribute{kT2, ValueType::kTime});
  Relation r(s);
  auto add = [&](const std::string& n, Value cat, TimePoint a, TimePoint b) {
    Tuple t;
    t.push_back(Value::String(n));
    t.push_back(std::move(cat));
    t.push_back(Value::Time(a));
    t.push_back(Value::Time(b));
    r.Append(std::move(t));
  };
  // Same class under Compare (Int(1) == Double(1.0)), adjacent periods:
  // coalT must merge across the type mix; rdupT/ℵT/\T must see one class.
  add("a", Value::Int(1), 1, 5);
  add("a", Value::Double(1.0), 5, 9);
  add("a", Value::Time(1), 9, 12);
  add("b", Value::Double(-0.0), 2, 6);
  add("b", Value::Int(0), 6, 8);
  add("b", Value::Double(0.0), 4, 7);
  Catalog catalog;
  TQP_CHECK(catalog.RegisterWithInferredFlags("M", r, Site::kDbms).ok());
  TQP_CHECK(
      catalog
          .RegisterWithInferredFlags("M2", Messy(3, 10), Site::kDbms)
          .ok());
  for (const auto& [cfg_name, config] : Configs()) {
    auto M = [] { return PlanNode::Scan("M"); };
    CheckPlan(PlanNode::Coalesce(M()), catalog, config,
              "mixed-coalesce/" + cfg_name);
    CheckPlan(PlanNode::RdupT(M()), catalog, config,
              "mixed-rdupt/" + cfg_name);
    CheckPlan(PlanNode::AggregateT(M(), {"Cat"},
                                   {AggSpec{AggFunc::kCount, "", "n"}}),
              catalog, config, "mixed-aggregate-t/" + cfg_name);
    CheckPlan(PlanNode::Aggregate(M(), {"Cat"},
                                  {AggSpec{AggFunc::kCount, "", "n"},
                                   AggSpec{AggFunc::kMin, "Cat", "lo"}}),
              catalog, config, "mixed-aggregate/" + cfg_name);
    CheckPlan(PlanNode::DifferenceT(M(), M()), catalog, config,
              "mixed-difference-t/" + cfg_name);
  }
}

// rdupT's in-place replacement discipline on the exact Figure 3 input.
TEST(VexecParity, FigureThreeRdupT) {
  Schema s;
  s.Add(Attribute{"EmpName", ValueType::kString});
  s.Add(Attribute{kT1, ValueType::kTime});
  s.Add(Attribute{kT2, ValueType::kTime});
  Relation r1(s);
  auto add = [&](const std::string& n, TimePoint a, TimePoint b) {
    Tuple t;
    t.push_back(Value::String(n));
    t.push_back(Value::Time(a));
    t.push_back(Value::Time(b));
    r1.Append(std::move(t));
  };
  add("John", 1, 8);
  add("John", 6, 11);
  add("Anna", 2, 6);
  add("Anna", 2, 6);
  add("Anna", 6, 12);
  Catalog catalog;
  TQP_CHECK(catalog.RegisterWithInferredFlags("R1", r1, Site::kDbms).ok());
  for (const auto& [cfg_name, config] : Configs()) {
    CheckPlan(PlanNode::RdupT(PlanNode::Scan("R1")), catalog, config,
              "fig3-rdupt/" + cfg_name);
    CheckPlan(PlanNode::Coalesce(PlanNode::Scan("R1")), catalog, config,
              "fig3-coalesce/" + cfg_name);
  }
}

// ---- Engine wiring ---------------------------------------------------------

TEST(VexecEngine, VectorizedExecutorMatchesReferenceThroughEngine) {
  const std::vector<std::string> queries = {
      "VALIDTIME SELECT DISTINCT Name FROM R ORDER BY Name ASC",
      "VALIDTIME COALESCED SELECT DISTINCT Name FROM R",
      "SELECT Name FROM R UNION SELECT Name FROM S",
      "SELECT Cat, COUNT(*) AS n FROM R GROUP BY Cat ORDER BY Cat",
      "SELECT Name, Val FROM C WHERE Val > 200 ORDER BY Val DESC",
  };
  Catalog catalog = MakeCatalog(23);

  EngineOptions ref_opts;
  ASSERT_EQ(ref_opts.executor, ExecutorKind::kReference);  // the default
  EngineOptions vec_opts;
  vec_opts.executor = ExecutorKind::kVectorized;
  Engine ref_engine(catalog, ref_opts);
  Engine vec_engine(catalog, vec_opts);

  for (const std::string& q : queries) {
    Result<QueryResult> ref = ref_engine.Query(q);
    Result<QueryResult> vec = vec_engine.Query(q);
    ASSERT_TRUE(ref.ok()) << q << ": " << ref.status().ToString();
    ASSERT_TRUE(vec.ok()) << q << ": " << vec.status().ToString();
    ExpectListIdentical(ref->relation, vec->relation, q);
    EXPECT_EQ(ref->plan_fingerprint, vec->plan_fingerprint) << q;
    ExpectStatsAgree(ref->exec, vec->exec, q);
    // The execution stats are surfaced to the caller on both paths.
    EXPECT_GT(ref->exec.tuples_produced, 0) << q;
    EXPECT_GT(vec->exec.vec_batches, 0) << q;
  }
}

TEST(VexecEngine, ScrambledDbmsMatchesThroughEngineToo) {
  Catalog catalog = MakeCatalog(29);
  EngineOptions ref_opts;
  ref_opts.engine.dbms_scrambles_order = true;
  EngineOptions vec_opts = ref_opts;
  vec_opts.executor = ExecutorKind::kVectorized;
  vec_opts.vexec_batch_size = 33;
  Engine ref_engine(catalog, ref_opts);
  Engine vec_engine(catalog, vec_opts);
  const std::string q =
      "VALIDTIME SELECT DISTINCT Name FROM R ORDER BY Name ASC";
  Result<QueryResult> ref = ref_engine.Query(q);
  Result<QueryResult> vec = vec_engine.Query(q);
  ASSERT_TRUE(ref.ok() && vec.ok());
  ExpectListIdentical(ref->relation, vec->relation, q);
}

TEST(VexecEngine, ThreadsAndBudgetFlowThroughEngineOptions) {
  Catalog catalog = MakeCatalog(31);
  EngineOptions ref_opts;
  EngineOptions vec_opts;
  vec_opts.executor = ExecutorKind::kVectorized;
  vec_opts.vexec_threads = 4;
  vec_opts.vexec_memory_budget = 1024;
  Engine ref_engine(catalog, ref_opts);
  Engine vec_engine(catalog, vec_opts);
  const std::string q =
      "VALIDTIME SELECT DISTINCT Name FROM R ORDER BY Name ASC";
  Result<QueryResult> ref = ref_engine.Query(q);
  Result<QueryResult> vec = vec_engine.Query(q);
  ASSERT_TRUE(ref.ok() && vec.ok());
  ExpectListIdentical(ref->relation, vec->relation, q);
  // The budget reached the executor: the sort of 40 messy rows exceeds 1 KiB.
  EXPECT_GT(vec->exec.spill_bytes, 0);
  EXPECT_EQ(ref->exec.spill_bytes, 0);
}

// ---- Plan-driver goldens ----------------------------------------------------
//
// Both executors run their plans through one per-node driver (profile/span
// stamping, result-cache splice, transferS pushdown, accounting, scramble),
// so comparing one executor against the other cannot catch a driver bug.
// These fixtures freeze the driver's observable behaviour instead: the full
// ExecStats rendering and the timing-free profile tree of fixed plans, per
// executor and scramble mode.

enum class DriverExecutor { kReference, kVectorized };

struct DriverRun {
  std::string stats;    // ExecStats::ToJson, one line per run
  std::string profile;  // PrintProfile(show_times = false), per run
  std::vector<ProfileNode> roots;
};

/// One golden case: a sequence of plans run against one engine config (a
/// shared result cache, when `use_cache`, so later runs can splice).
struct DriverCase {
  std::string name;
  std::vector<PlanPtr> runs;
  bool use_backend = false;
  bool use_cache = false;
};

std::vector<DriverCase> DriverCases() {
  auto R = [] { return PlanNode::Scan("R"); };
  auto C = [] { return PlanNode::Scan("C"); };
  auto D = [] { return PlanNode::Scan("D"); };
  ExprPtr equi = Expr::And(
      Expr::Compare(CompareOp::kEq, Expr::Attr("1.Name"), Expr::Attr("2.Name")),
      Expr::Compare(CompareOp::kLe, Expr::Attr("1.Val"), Expr::Attr("2.Val")));
  ExprPtr big = Expr::Compare(CompareOp::kGt, Expr::Attr("Val"),
                              Expr::Const(Value::Int(100)));
  ExprPtr name_eq = Expr::Compare(CompareOp::kEq, Expr::Attr("Name"),
                                  Expr::Const(Value::String("n3")));
  PlanPtr cut = PlanNode::TransferS(PlanNode::Select(R(), name_eq));
  std::vector<DriverCase> cases;
  // σ over × with an equality conjunct: fused into a hash join by the
  // vectorized executor unless the scramble would observe the product.
  cases.push_back({"fused-join",
                   {PlanNode::Sort(
                       PlanNode::TransferS(
                           PlanNode::Select(PlanNode::Product(C(), D()), equi)),
                       {{"1.Name", true}})}});
  // A conventional cut the SQLite backend runs natively.
  cases.push_back({"pushed-cut",
                   {PlanNode::Sort(PlanNode::TransferS(PlanNode::Select(C(), big)),
                                   {{"Name", true}})},
                   /*use_backend=*/true});
  // A temporal cut the serializer refuses: evaluated in-engine.
  cases.push_back(
      {"refused-cut",
       {PlanNode::Sort(PlanNode::TransferS(PlanNode::Coalesce(R())),
                       {{"Name", true}})},
       /*use_backend=*/true});
  // A stratum result shipped back to the DBMS: transferD keeps its input's
  // order under the scramble, the DBMS-site selection above it does not.
  cases.push_back(
      {"transfer-d",
       {PlanNode::Sort(
           PlanNode::TransferS(PlanNode::Select(
               PlanNode::TransferD(PlanNode::Coalesce(PlanNode::TransferS(R()))),
               name_eq)),
           {{"Name", true}})}});
  // Run 1 fills the cache; run 2 shares the cut and splices it; run 3
  // repeats run 2 and splices the root.
  cases.push_back({"cache-hit",
                   {PlanNode::Sort(cut, {{"Name", true}}),
                    PlanNode::Coalesce(cut), PlanNode::Coalesce(cut)},
                   /*use_backend=*/false,
                   /*use_cache=*/true});
  return cases;
}

DriverRun RunDriverCase(const DriverCase& c, DriverExecutor executor,
                        bool scrambled, bool profiled, Backend* backend) {
  Catalog catalog = MakeCatalog(5);
  EngineConfig config;
  config.dbms_scrambles_order = scrambled;
  if (c.use_backend) config.backend = backend;
  SubplanResultCache cache(uint64_t{1} << 24);
  if (c.use_cache) config.result_cache = &cache;
  VexecOptions vopts;
  vopts.batch_size = 8;
  DriverRun out;
  for (const PlanPtr& plan : c.runs) {
    Result<AnnotatedPlan> ann =
        AnnotatedPlan::Make(plan, &catalog, QueryContract::Multiset());
    TQP_CHECK(ann.ok());
    ExecStats stats;
    ProfileNode root;
    ProfileNode* prof = profiled ? &root : nullptr;
    Result<Relation> result =
        executor == DriverExecutor::kReference
            ? Evaluate(ann.value(), config, &stats, prof)
            : ExecuteVectorized(ann.value(), config, &stats, vopts, prof);
    TQP_CHECK(result.ok());
    out.stats += stats.ToJson() + "\n";
    if (profiled) {
      ProfilePrintOptions popts;
      popts.show_times = false;
      out.profile += PrintProfile(root, popts);
      out.roots.push_back(std::move(root));
    }
  }
  return out;
}

/// {case, scramble} -> expected {reference, vectorized} stats + profile.
struct DriverGolden {
  const char* ref_stats;
  const char* ref_profile;
  const char* vec_stats;
  const char* vec_profile;
};

const DriverGolden* FindDriverGolden(const std::string& key);

void ExpectProfilesAgreeAcrossExecutors(const ProfileNode& ref,
                                        const ProfileNode& vec,
                                        const std::string& label) {
  EXPECT_EQ(ref.op, vec.op) << label;
  EXPECT_EQ(ref.kind, vec.kind) << label;
  EXPECT_EQ(ref.rows_in, vec.rows_in) << label << " " << ref.op;
  EXPECT_EQ(ref.rows_out, vec.rows_out) << label << " " << ref.op;
  EXPECT_EQ(ref.result_cache_hit, vec.result_cache_hit) << label;
  EXPECT_EQ(ref.backend_pushed, vec.backend_pushed) << label;
  EXPECT_EQ(ref.batches, 0) << label;
  ASSERT_EQ(ref.children.size(), vec.children.size()) << label << " " << ref.op;
  for (size_t i = 0; i < ref.children.size(); ++i) {
    ExpectProfilesAgreeAcrossExecutors(ref.children[i], vec.children[i],
                                       label);
  }
}

TEST(PlanDriverGolden, StatsAndProfilesMatchTheFixtures) {
  if (!SqliteBackend::Available()) GTEST_SKIP() << "built without sqlite3";
  Result<std::unique_ptr<Backend>> made = MakeBackend(BackendKind::kSqlite);
  ASSERT_TRUE(made.ok()) << made.status().ToString();
  for (const DriverCase& c : DriverCases()) {
    for (bool scrambled : {false, true}) {
      const std::string key = c.name + (scrambled ? "/scrambled" : "/plain");
      DriverRun ref[2], vec[2];
      for (bool profiled : {false, true}) {
        ref[profiled] = RunDriverCase(c, DriverExecutor::kReference, scrambled,
                                      profiled, made.value().get());
        vec[profiled] = RunDriverCase(c, DriverExecutor::kVectorized,
                                      scrambled, profiled, made.value().get());
      }
      // Profiling never changes what is accounted.
      EXPECT_EQ(ref[0].stats, ref[1].stats) << key;
      EXPECT_EQ(vec[0].stats, vec[1].stats) << key;
      const DriverGolden* g = FindDriverGolden(key);
      ASSERT_TRUE(g != nullptr)
          << key << "\nref stats:\n" << ref[1].stats << "ref profile:\n"
          << ref[1].profile << "vec stats:\n" << vec[1].stats
          << "vec profile:\n" << vec[1].profile;
      EXPECT_EQ(ref[1].stats, g->ref_stats) << key;
      EXPECT_EQ(ref[1].profile, g->ref_profile) << key;
      EXPECT_EQ(vec[1].stats, g->vec_stats) << key;
      EXPECT_EQ(vec[1].profile, g->vec_profile) << key;
      ASSERT_EQ(ref[1].roots.size(), vec[1].roots.size());
      for (size_t i = 0; i < ref[1].roots.size(); ++i) {
        ExpectProfilesAgreeAcrossExecutors(ref[1].roots[i], vec[1].roots[i],
                                           key + " run " + std::to_string(i));
      }
    }
  }
}

const DriverGolden* FindDriverGolden(const std::string& key) {
  static const std::vector<std::pair<std::string, DriverGolden>> goldens = {
      {"fused-join/plain",
       {R"({"dbms_work":1710,"stratum_work":2984.5670777321875,"total_work":4694.5670777321875,"tuples_transferred":92,"tuples_produced":1054,"vec_batches":0,"vec_materializations":0,"vec_rows":0,"morsels":0,"steals":0,"spill_bytes":0,"spill_runs":0,"backend_pushdowns":0,"backend_rows":0,"backend_fallbacks":0,"backend_refusals":0,"result_cache_hits":0,"result_cache_misses":0,"ops":{"product":1,"scan":2,"select":1,"sort":1,"transferS":1}}
)",
        R"(sort [1.Name ASC] | rows=92 in=92
  transferS | rows=92 in=92
    select ((1.Name = 2.Name) AND (1.Val <= 2.Val)) | rows=92 in=720
      product | rows=720 in=58
        scan C | rows=40
        scan D | rows=18
)",
        R"({"dbms_work":1710,"stratum_work":2984.5670777321875,"total_work":4694.5670777321875,"tuples_transferred":92,"tuples_produced":1054,"vec_batches":130,"vec_materializations":6,"vec_rows":1054,"morsels":0,"steals":0,"spill_bytes":0,"spill_runs":0,"backend_pushdowns":0,"backend_rows":0,"backend_fallbacks":0,"backend_refusals":0,"result_cache_hits":0,"result_cache_misses":0,"ops":{"product":1,"scan":2,"select":1,"sort":1,"transferS":1}}
)",
        R"(sort [1.Name ASC] | rows=92 in=92 batches=12
  transferS | rows=92 in=92 batches=12
    select ((1.Name = 2.Name) AND (1.Val <= 2.Val)) | rows=92 in=720 batches=90
      product | rows=720 in=58 batches=8
        scan C | rows=40 batches=5
        scan D | rows=18 batches=3
)"}},
      {"fused-join/scrambled",
       {R"({"dbms_work":1710,"stratum_work":2984.5670777321875,"total_work":4694.5670777321875,"tuples_transferred":92,"tuples_produced":1054,"vec_batches":0,"vec_materializations":0,"vec_rows":0,"morsels":0,"steals":0,"spill_bytes":0,"spill_runs":0,"backend_pushdowns":0,"backend_rows":0,"backend_fallbacks":0,"backend_refusals":0,"result_cache_hits":0,"result_cache_misses":0,"ops":{"product":1,"scan":2,"select":1,"sort":1,"transferS":1}}
)",
        R"(sort [1.Name ASC] | rows=92 in=92
  transferS | rows=92 in=92
    select ((1.Name = 2.Name) AND (1.Val <= 2.Val)) | rows=92 in=720
      product | rows=720 in=58
        scan C | rows=40
        scan D | rows=18
)",
        R"({"dbms_work":1710,"stratum_work":2984.5670777321875,"total_work":4694.5670777321875,"tuples_transferred":92,"tuples_produced":1054,"vec_batches":130,"vec_materializations":8,"vec_rows":1054,"morsels":0,"steals":0,"spill_bytes":0,"spill_runs":0,"backend_pushdowns":0,"backend_rows":0,"backend_fallbacks":0,"backend_refusals":0,"result_cache_hits":0,"result_cache_misses":0,"ops":{"product":1,"scan":2,"select":1,"sort":1,"transferS":1}}
)",
        R"(sort [1.Name ASC] | rows=92 in=92 batches=12
  transferS | rows=92 in=92 batches=12
    select ((1.Name = 2.Name) AND (1.Val <= 2.Val)) | rows=92 in=720 batches=90
      product | rows=720 in=58 batches=8
        scan C | rows=40 batches=5
        scan D | rows=18 batches=3
)"}},
      {"pushed-cut/plain",
       {R"({"dbms_work":0,"stratum_work":1085.5084951819781,"total_work":1085.5084951819781,"tuples_transferred":39,"tuples_produced":78,"vec_batches":0,"vec_materializations":0,"vec_rows":0,"morsels":0,"steals":0,"spill_bytes":0,"spill_runs":0,"backend_pushdowns":1,"backend_rows":39,"backend_fallbacks":0,"backend_refusals":0,"result_cache_hits":0,"result_cache_misses":0,"ops":{"sort":1,"transferS":1}}
)",
        R"(sort [Name ASC] | rows=39 in=39
  transferS | rows=39 | pushed
)",
        R"({"dbms_work":0,"stratum_work":1085.5084951819781,"total_work":1085.5084951819781,"tuples_transferred":39,"tuples_produced":78,"vec_batches":10,"vec_materializations":2,"vec_rows":78,"morsels":0,"steals":0,"spill_bytes":0,"spill_runs":0,"backend_pushdowns":1,"backend_rows":39,"backend_fallbacks":0,"backend_refusals":0,"result_cache_hits":0,"result_cache_misses":0,"ops":{"sort":1,"transferS":1}}
)",
        R"(sort [Name ASC] | rows=39 in=39 batches=5
  transferS | rows=39 | pushed
)"}},
      {"pushed-cut/scrambled",
       {R"({"dbms_work":0,"stratum_work":1085.5084951819781,"total_work":1085.5084951819781,"tuples_transferred":39,"tuples_produced":78,"vec_batches":0,"vec_materializations":0,"vec_rows":0,"morsels":0,"steals":0,"spill_bytes":0,"spill_runs":0,"backend_pushdowns":1,"backend_rows":39,"backend_fallbacks":0,"backend_refusals":0,"result_cache_hits":0,"result_cache_misses":0,"ops":{"sort":1,"transferS":1}}
)",
        R"(sort [Name ASC] | rows=39 in=39
  transferS | rows=39 | pushed
)",
        R"({"dbms_work":0,"stratum_work":1085.5084951819781,"total_work":1085.5084951819781,"tuples_transferred":39,"tuples_produced":78,"vec_batches":10,"vec_materializations":2,"vec_rows":78,"morsels":0,"steals":0,"spill_bytes":0,"spill_runs":0,"backend_pushdowns":1,"backend_rows":39,"backend_fallbacks":0,"backend_refusals":0,"result_cache_hits":0,"result_cache_misses":0,"ops":{"sort":1,"transferS":1}}
)",
        R"(sort [Name ASC] | rows=39 in=39 batches=5
  transferS | rows=39 | pushed
)"}},
      {"refused-cut/plain",
       {R"({"dbms_work":13961.534326781382,"stratum_work":1878.2745407219791,"total_work":15839.808867503361,"tuples_transferred":62,"tuples_produced":263,"vec_batches":0,"vec_materializations":0,"vec_rows":0,"morsels":0,"steals":0,"spill_bytes":0,"spill_runs":0,"backend_pushdowns":0,"backend_rows":0,"backend_fallbacks":0,"backend_refusals":1,"result_cache_hits":0,"result_cache_misses":0,"ops":{"coalT":1,"scan":1,"sort":1,"transferS":1}}
)",
        R"(sort [Name ASC] | rows=62 in=62
  transferS | rows=62 in=62
    coalT | rows=62 in=77
      scan R | rows=77
)",
        R"({"dbms_work":13961.534326781382,"stratum_work":1878.2745407219791,"total_work":15839.808867503361,"tuples_transferred":62,"tuples_produced":263,"vec_batches":36,"vec_materializations":4,"vec_rows":263,"morsels":0,"steals":0,"spill_bytes":0,"spill_runs":0,"backend_pushdowns":0,"backend_rows":0,"backend_fallbacks":0,"backend_refusals":1,"result_cache_hits":0,"result_cache_misses":0,"ops":{"coalT":1,"scan":1,"sort":1,"transferS":1}}
)",
        R"(sort [Name ASC] | rows=62 in=62 batches=8
  transferS | rows=62 in=62 batches=8
    coalT | rows=62 in=77 batches=10
      scan R | rows=77 batches=10
)"}},
      {"refused-cut/scrambled",
       {R"({"dbms_work":13961.534326781382,"stratum_work":1878.2745407219791,"total_work":15839.808867503361,"tuples_transferred":62,"tuples_produced":263,"vec_batches":0,"vec_materializations":0,"vec_rows":0,"morsels":0,"steals":0,"spill_bytes":0,"spill_runs":0,"backend_pushdowns":0,"backend_rows":0,"backend_fallbacks":0,"backend_refusals":1,"result_cache_hits":0,"result_cache_misses":0,"ops":{"coalT":1,"scan":1,"sort":1,"transferS":1}}
)",
        R"(sort [Name ASC] | rows=62 in=62
  transferS | rows=62 in=62
    coalT | rows=62 in=77
      scan R | rows=77
)",
        R"({"dbms_work":13961.534326781382,"stratum_work":1878.2745407219791,"total_work":15839.808867503361,"tuples_transferred":62,"tuples_produced":263,"vec_batches":36,"vec_materializations":5,"vec_rows":263,"morsels":0,"steals":0,"spill_bytes":0,"spill_runs":0,"backend_pushdowns":0,"backend_rows":0,"backend_fallbacks":0,"backend_refusals":1,"result_cache_hits":0,"result_cache_misses":0,"ops":{"coalT":1,"scan":1,"sort":1,"transferS":1}}
)",
        R"(sort [Name ASC] | rows=62 in=62 batches=8
  transferS | rows=62 in=62 batches=8
    coalT | rows=62 in=77 batches=10
      scan R | rows=77 batches=10
)"}},
      {"cache-hit/plain",
       {R"({"dbms_work":248,"stratum_work":346,"total_work":594,"tuples_transferred":15,"tuples_produced":122,"vec_batches":0,"vec_materializations":0,"vec_rows":0,"morsels":0,"steals":0,"spill_bytes":0,"spill_runs":0,"backend_pushdowns":0,"backend_rows":0,"backend_fallbacks":0,"backend_refusals":0,"result_cache_hits":0,"result_cache_misses":2,"ops":{"scan":1,"select":1,"sort":1,"transferS":1}}
{"dbms_work":0,"stratum_work":296,"total_work":296,"tuples_transferred":0,"tuples_produced":10,"vec_batches":0,"vec_materializations":0,"vec_rows":0,"morsels":0,"steals":0,"spill_bytes":0,"spill_runs":0,"backend_pushdowns":0,"backend_rows":0,"backend_fallbacks":0,"backend_refusals":0,"result_cache_hits":1,"result_cache_misses":1,"ops":{"coalT":1}}
{"dbms_work":0,"stratum_work":0,"total_work":0,"tuples_transferred":0,"tuples_produced":0,"vec_batches":0,"vec_materializations":0,"vec_rows":0,"morsels":0,"steals":0,"spill_bytes":0,"spill_runs":0,"backend_pushdowns":0,"backend_rows":0,"backend_fallbacks":0,"backend_refusals":0,"result_cache_hits":1,"result_cache_misses":0,"ops":{}}
)",
        R"(sort [Name ASC] | rows=15 in=15
  transferS | rows=15 in=15
    select (Name = 'n3') | rows=15 in=77
      scan R | rows=77
coalT | rows=10 in=15
  transferS | rows=15 | cache-hit
coalT | rows=10 | cache-hit
)",
        R"({"dbms_work":248,"stratum_work":346,"total_work":594,"tuples_transferred":15,"tuples_produced":122,"vec_batches":24,"vec_materializations":4,"vec_rows":122,"morsels":0,"steals":0,"spill_bytes":0,"spill_runs":0,"backend_pushdowns":0,"backend_rows":0,"backend_fallbacks":0,"backend_refusals":0,"result_cache_hits":0,"result_cache_misses":2,"ops":{"scan":1,"select":1,"sort":1,"transferS":1}}
{"dbms_work":0,"stratum_work":296,"total_work":296,"tuples_transferred":0,"tuples_produced":10,"vec_batches":2,"vec_materializations":1,"vec_rows":10,"morsels":0,"steals":0,"spill_bytes":0,"spill_runs":0,"backend_pushdowns":0,"backend_rows":0,"backend_fallbacks":0,"backend_refusals":0,"result_cache_hits":1,"result_cache_misses":1,"ops":{"coalT":1}}
{"dbms_work":0,"stratum_work":0,"total_work":0,"tuples_transferred":0,"tuples_produced":0,"vec_batches":0,"vec_materializations":0,"vec_rows":0,"morsels":0,"steals":0,"spill_bytes":0,"spill_runs":0,"backend_pushdowns":0,"backend_rows":0,"backend_fallbacks":0,"backend_refusals":0,"result_cache_hits":1,"result_cache_misses":0,"ops":{}}
)",
        R"(sort [Name ASC] | rows=15 in=15 batches=2
  transferS | rows=15 in=15 batches=2
    select (Name = 'n3') | rows=15 in=77 batches=10
      scan R | rows=77 batches=10
coalT | rows=10 in=15 batches=2
  transferS | rows=15 | cache-hit
coalT | rows=10 | cache-hit
)"}},
      {"cache-hit/scrambled",
       {R"({"dbms_work":248,"stratum_work":346,"total_work":594,"tuples_transferred":15,"tuples_produced":122,"vec_batches":0,"vec_materializations":0,"vec_rows":0,"morsels":0,"steals":0,"spill_bytes":0,"spill_runs":0,"backend_pushdowns":0,"backend_rows":0,"backend_fallbacks":0,"backend_refusals":0,"result_cache_hits":0,"result_cache_misses":2,"ops":{"scan":1,"select":1,"sort":1,"transferS":1}}
{"dbms_work":0,"stratum_work":296,"total_work":296,"tuples_transferred":0,"tuples_produced":10,"vec_batches":0,"vec_materializations":0,"vec_rows":0,"morsels":0,"steals":0,"spill_bytes":0,"spill_runs":0,"backend_pushdowns":0,"backend_rows":0,"backend_fallbacks":0,"backend_refusals":0,"result_cache_hits":1,"result_cache_misses":1,"ops":{"coalT":1}}
{"dbms_work":0,"stratum_work":0,"total_work":0,"tuples_transferred":0,"tuples_produced":0,"vec_batches":0,"vec_materializations":0,"vec_rows":0,"morsels":0,"steals":0,"spill_bytes":0,"spill_runs":0,"backend_pushdowns":0,"backend_rows":0,"backend_fallbacks":0,"backend_refusals":0,"result_cache_hits":1,"result_cache_misses":0,"ops":{}}
)",
        R"(sort [Name ASC] | rows=15 in=15
  transferS | rows=15 in=15
    select (Name = 'n3') | rows=15 in=77
      scan R | rows=77
coalT | rows=10 in=15
  transferS | rows=15 | cache-hit
coalT | rows=10 | cache-hit
)",
        R"({"dbms_work":248,"stratum_work":346,"total_work":594,"tuples_transferred":15,"tuples_produced":122,"vec_batches":24,"vec_materializations":5,"vec_rows":122,"morsels":0,"steals":0,"spill_bytes":0,"spill_runs":0,"backend_pushdowns":0,"backend_rows":0,"backend_fallbacks":0,"backend_refusals":0,"result_cache_hits":0,"result_cache_misses":2,"ops":{"scan":1,"select":1,"sort":1,"transferS":1}}
{"dbms_work":0,"stratum_work":296,"total_work":296,"tuples_transferred":0,"tuples_produced":10,"vec_batches":2,"vec_materializations":1,"vec_rows":10,"morsels":0,"steals":0,"spill_bytes":0,"spill_runs":0,"backend_pushdowns":0,"backend_rows":0,"backend_fallbacks":0,"backend_refusals":0,"result_cache_hits":1,"result_cache_misses":1,"ops":{"coalT":1}}
{"dbms_work":0,"stratum_work":0,"total_work":0,"tuples_transferred":0,"tuples_produced":0,"vec_batches":0,"vec_materializations":0,"vec_rows":0,"morsels":0,"steals":0,"spill_bytes":0,"spill_runs":0,"backend_pushdowns":0,"backend_rows":0,"backend_fallbacks":0,"backend_refusals":0,"result_cache_hits":1,"result_cache_misses":0,"ops":{}}
)",
        R"(sort [Name ASC] | rows=15 in=15 batches=2
  transferS | rows=15 in=15 batches=2
    select (Name = 'n3') | rows=15 in=77 batches=10
      scan R | rows=77 batches=10
coalT | rows=10 in=15 batches=2
  transferS | rows=15 | cache-hit
coalT | rows=10 | cache-hit
)"}},
      {"transfer-d/plain",
       {R"({"dbms_work":228,"stratum_work":2699.2604835050624,"total_work":2927.2604835050624,"tuples_transferred":149,"tuples_produced":308,"vec_batches":0,"vec_materializations":0,"vec_rows":0,"morsels":0,"steals":0,"spill_bytes":0,"spill_runs":0,"backend_pushdowns":0,"backend_rows":0,"backend_fallbacks":0,"backend_refusals":0,"result_cache_hits":0,"result_cache_misses":0,"ops":{"coalT":1,"scan":1,"select":1,"sort":1,"transferD":1,"transferS":2}}
)",
        R"(sort [Name ASC] | rows=10 in=10
  transferS | rows=10 in=10
    select (Name = 'n3') | rows=10 in=62
      transferD | rows=62 in=62
        coalT | rows=62 in=77
          transferS | rows=77 in=77
            scan R | rows=77
)",
        R"({"dbms_work":228,"stratum_work":2699.2604835050624,"total_work":2927.2604835050624,"tuples_transferred":149,"tuples_produced":308,"vec_batches":50,"vec_materializations":7,"vec_rows":308,"morsels":0,"steals":0,"spill_bytes":0,"spill_runs":0,"backend_pushdowns":0,"backend_rows":0,"backend_fallbacks":0,"backend_refusals":0,"result_cache_hits":0,"result_cache_misses":0,"ops":{"coalT":1,"scan":1,"select":1,"sort":1,"transferD":1,"transferS":2}}
)",
        R"(sort [Name ASC] | rows=10 in=10 batches=2
  transferS | rows=10 in=10 batches=2
    select (Name = 'n3') | rows=10 in=62 batches=8
      transferD | rows=62 in=62 batches=8
        coalT | rows=62 in=77 batches=10
          transferS | rows=77 in=77 batches=10
            scan R | rows=77 batches=10
)"}},
      {"transfer-d/scrambled",
       {R"({"dbms_work":228,"stratum_work":2699.2604835050624,"total_work":2927.2604835050624,"tuples_transferred":149,"tuples_produced":308,"vec_batches":0,"vec_materializations":0,"vec_rows":0,"morsels":0,"steals":0,"spill_bytes":0,"spill_runs":0,"backend_pushdowns":0,"backend_rows":0,"backend_fallbacks":0,"backend_refusals":0,"result_cache_hits":0,"result_cache_misses":0,"ops":{"coalT":1,"scan":1,"select":1,"sort":1,"transferD":1,"transferS":2}}
)",
        R"(sort [Name ASC] | rows=10 in=10
  transferS | rows=10 in=10
    select (Name = 'n3') | rows=10 in=62
      transferD | rows=62 in=62
        coalT | rows=62 in=77
          transferS | rows=77 in=77
            scan R | rows=77
)",
        R"({"dbms_work":228,"stratum_work":2699.2604835050624,"total_work":2927.2604835050624,"tuples_transferred":149,"tuples_produced":308,"vec_batches":50,"vec_materializations":8,"vec_rows":308,"morsels":0,"steals":0,"spill_bytes":0,"spill_runs":0,"backend_pushdowns":0,"backend_rows":0,"backend_fallbacks":0,"backend_refusals":0,"result_cache_hits":0,"result_cache_misses":0,"ops":{"coalT":1,"scan":1,"select":1,"sort":1,"transferD":1,"transferS":2}}
)",
        R"(sort [Name ASC] | rows=10 in=10 batches=2
  transferS | rows=10 in=10 batches=2
    select (Name = 'n3') | rows=10 in=62 batches=8
      transferD | rows=62 in=62 batches=8
        coalT | rows=62 in=77 batches=10
          transferS | rows=77 in=77 batches=10
            scan R | rows=77 batches=10
)"}},
  };
  for (const auto& [k, g] : goldens) {
    if (k == key) return &g;
  }
  return nullptr;
}

}  // namespace
}  // namespace tqp
