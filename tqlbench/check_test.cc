// Tests of the benchmark's result checker: an untouched result passes, and
// each perturbed one — a dropped row, two swapped sorted rows, a duplicated
// DISTINCT row, a split coalesced period, a wrong group count — is
// rejected. Exits non-zero on the first expectation that does not hold.
#include <cstdio>
#include <string>

#include "check.h"
#include "core/catalog.h"
#include "workload/generator.h"

namespace tqlbench {
namespace {

int failures = 0;

void Expect(bool ok, const std::string& what, const std::string& why) {
  std::printf("%s  %s%s%s\n", ok ? "ok  " : "FAIL", what.c_str(),
              why.empty() ? "" : " -- ", why.c_str());
  if (!ok) ++failures;
}

void Accepts(const std::string& what, const std::string& why) {
  Expect(why.empty(), what + " is accepted", why);
}

void Rejects(const std::string& what, const std::string& why) {
  Expect(!why.empty(), what + " is rejected", why);
}

tqp::Catalog TestCatalog() {
  tqp::RelationGenParams p;
  p.cardinality = 300;
  p.num_names = 20;
  p.duplicate_fraction = 0.2;
  p.adjacency_fraction = 0.3;
  p.overlap_fraction = 0.3;
  p.time_horizon = 2000;
  p.max_period_length = 40;
  p.seed = 7;
  tqp::Catalog catalog;
  (void)catalog.RegisterWithInferredFlags("R", tqp::GenerateRelation(p));
  return catalog;
}

void CoalescedOrdered(const tqp::Catalog& catalog) {
  const std::string text =
      "VALIDTIME COALESCED SELECT DISTINCT Name FROM R ORDER BY Name ASC";
  tqp::Result<Reference> ref = ReferenceResult(text, catalog);
  Expect(ref.ok(), "reference of " + text, ref.ok() ? "" : ref.status().message());
  if (!ref.ok()) return;
  Expectation e;
  e.sorted_by = {tqp::SortKey{"Name", true}};
  e.distinct = true;
  e.coalesced = true;
  e.cover_key = "Name";
  e.cover = CoverageByKey(catalog.Find("R")->data, "Name");
  const Relation& good = ref->relation;
  Accepts("the reference result", CheckResult(ref->contract, e, good, good));

  Relation dropped = good;
  dropped.mutable_tuples().erase(dropped.mutable_tuples().begin() + 3);
  Rejects("a dropped row", CheckResult(ref->contract, e, dropped, good));

  Relation swapped = good;
  auto& rows = swapped.mutable_tuples();
  for (size_t i = 1; i < rows.size(); ++i) {
    if (rows[i - 1].at(0) != rows[i].at(0)) {
      std::swap(rows[i - 1], rows[i]);
      break;
    }
  }
  Rejects("two swapped sorted rows (sortedness)", CheckSorted(swapped, e.sorted_by));
  Rejects("two swapped sorted rows", CheckResult(ref->contract, e, swapped, good));

  Relation duplicated = good;
  duplicated.mutable_tuples().push_back(duplicated.tuple(5));
  Rejects("a duplicated temporal DISTINCT row (distinctness)", CheckDistinct(duplicated));

  Relation split = good;
  for (tqp::Tuple& t : split.mutable_tuples()) {
    const int64_t b = t.at(1).AsTime(), end = t.at(2).AsTime();
    if (end - b >= 2) {
      tqp::Tuple tail = t;
      t.at(2) = tqp::Value::Time(b + 1);
      tail.at(1) = tqp::Value::Time(b + 1);
      split.mutable_tuples().push_back(tail);
      break;
    }
  }
  Rejects("a split coalesced period (coalescing)", CheckCoalesced(split, "Name", e.cover));
  Rejects("a split coalesced period", CheckResult(ref->contract, e, split, good));

  Relation shrunk = good;
  for (tqp::Tuple& t : shrunk.mutable_tuples()) {
    if (t.at(2).AsTime() - t.at(1).AsTime() >= 2) {
      t.at(2) = tqp::Value::Time(t.at(2).AsTime() - 1);
      break;
    }
  }
  Rejects("a shortened period (snapshot coverage)", CheckCoalesced(shrunk, "Name", e.cover));
}

void DistinctSet(const tqp::Catalog& catalog) {
  const std::string text = "SELECT DISTINCT Name FROM R";
  tqp::Result<Reference> ref = ReferenceResult(text, catalog);
  if (!ref.ok()) return Expect(false, "reference of " + text, ref.status().message());
  Expectation e;
  e.distinct = true;
  Accepts("the DISTINCT reference result", CheckResult(ref->contract, e, ref->relation, ref->relation));
  Relation duplicated = ref->relation;
  duplicated.mutable_tuples().push_back(duplicated.tuple(0));
  // ≡S ignores multiplicity, so only the independent check sees this.
  Accepts("a duplicated DISTINCT row under set equivalence",
          CheckContract(ref->contract, duplicated, ref->relation));
  Rejects("a duplicated DISTINCT row", CheckResult(ref->contract, e, duplicated, ref->relation));
}

void GroupCounts(const tqp::Catalog& catalog) {
  const std::string text = "SELECT Cat, COUNT(*) AS n FROM R GROUP BY Cat ORDER BY Cat";
  tqp::Result<Reference> ref = ReferenceResult(text, catalog);
  if (!ref.ok()) return Expect(false, "reference of " + text, ref.status().message());
  Expectation e;
  e.sorted_by = {tqp::SortKey{"Cat", true}};
  e.count_attr = "n";
  e.count_total = static_cast<int64_t>(catalog.Find("R")->data.size());
  Accepts("the GROUP BY reference result", CheckResult(ref->contract, e, ref->relation, ref->relation));
  Relation off = ref->relation;
  off.mutable_tuples()[0].at(1) = tqp::Value::Int(off.tuple(0).at(1).AsInt() + 1);
  Rejects("a group count off by one (count total)", CheckCountTotal(off, "n", e.count_total));
}

void Frames() {
  const std::string raw =
      "{\"type\":\"schema\",\"attrs\":[{\"name\":\"Name\",\"type\":\"string\"},"
      "{\"name\":\"n\",\"type\":\"int\"},{\"name\":\"T1\",\"type\":\"time\"}]}\n"
      "{\"type\":\"batch\",\"rows\":[[\"a\\\"b\",1,5],[\"c\",null,-2]]}\n";
  tqp::Result<Relation> r = ParseFrames(raw);
  Expect(r.ok() && r->size() == 2 && r->tuple(0).at(0).AsString() == "a\"b" &&
             r->tuple(0).at(2).type() == tqp::ValueType::kTime &&
             r->tuple(1).at(1).is_null(),
         "frames parse into typed rows", r.ok() ? "" : r.status().message());
  Expect(!ParseFrames("{\"type\":\"batch\",\"rows\":[[1]]}\n").ok(),
         "a batch before its schema is rejected", "");
  Expect(!ParseFrames(raw.substr(0, raw.size() - 5)).ok(),
         "a truncated frame is rejected", "");
}

}  // namespace
}  // namespace tqlbench

int main() {
  const tqp::Catalog catalog = tqlbench::TestCatalog();
  tqlbench::CoalescedOrdered(catalog);
  tqlbench::DistinctSet(catalog);
  tqlbench::GroupCounts(catalog);
  tqlbench::Frames();
  std::printf("%d failure(s)\n", tqlbench::failures);
  return tqlbench::failures == 0 ? 0 : 1;
}
