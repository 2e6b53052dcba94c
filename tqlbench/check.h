// Result checks of the end-to-end TQL benchmark, kept apart from the
// optimized path.
//
// Two kinds of oracle judge every distinct statement result:
//
//  * the reference evaluator run on the statement's *initial* plan (the
//    plan CompileQuery returns before any rewrite), compared under the
//    equivalence the statement's ≡SQL contract demands (Definition 5.1:
//    ORDER BY -> ≡M plus ≡L on the ORDER BY columns, DISTINCT without
//    ORDER BY -> ≡S, neither -> ≡M), through core/equivalence;
//  * properties recomputed here from the generated tuples, without the
//    program's operators: sortedness, absence of duplicates, coalescing
//    with the per-name snapshot coverage the inputs imply (snapshot
//    reducibility of the coalesced result), and GROUP BY counts that sum
//    to the input cardinality.
//
// Every check returns an empty string on success and a one-line reason on
// failure; nothing here aborts.
#ifndef TQLBENCH_CHECK_H_
#define TQLBENCH_CHECK_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "algebra/derivation.h"
#include "core/period.h"
#include "core/relation.h"

namespace tqlbench {

using tqp::Period;
using tqp::QueryContract;
using tqp::Relation;
using tqp::SortSpec;

/// Sorted, disjoint, non-adjacent periods: the snapshot coverage of a set of
/// periods. Built by Cover(); compared with ==.
using Coverage = std::vector<Period>;

/// Merges periods that overlap or meet into maximal periods.
Coverage Cover(std::vector<Period> periods);

/// Time points covered by `a` and not by `b`.
Coverage Minus(const Coverage& a, const Coverage& b);

/// Per-value coverage of a temporal relation: for every value of attribute
/// `key`, the union of the periods of the tuples carrying it, restricted to
/// tuples `keep` accepts (all when empty).
std::map<std::string, Coverage> CoverageByKey(
    const Relation& r, const std::string& key,
    const std::function<bool(const tqp::Tuple&)>& keep = {});

/// What a statement's result must satisfy besides the contract comparison.
/// Filled by the workload that generated the statement.
struct Expectation {
  /// The result must be sorted on these attributes (its ORDER BY).
  SortSpec sorted_by;
  /// DISTINCT or UNION: no two equal tuples; for a temporal result, no
  /// snapshot holding two value-equivalent tuples.
  bool distinct = false;
  /// Coalesced temporal result: per value of `cover_key`, the result's
  /// periods must be exactly `cover` (maximal, never overlapping or meeting
  /// a value-equivalent period).
  bool coalesced = false;
  std::string cover_key;
  std::map<std::string, Coverage> cover;
  /// GROUP BY ... COUNT(*): the count column must sum to this total.
  std::string count_attr;
  int64_t count_total = -1;
};

/// The contract comparison against the reference result.
std::string CheckContract(const QueryContract& contract, const Relation& got,
                          const Relation& reference);

/// The independent property checks.
std::string CheckSorted(const Relation& got, const SortSpec& spec);
std::string CheckDistinct(const Relation& got);
std::string CheckCoalesced(const Relation& got, const std::string& key,
                           const std::map<std::string, Coverage>& cover);
std::string CheckCountTotal(const Relation& got, const std::string& attr,
                            int64_t total);

/// All checks at once: the contract comparison, then every property the
/// expectation names. Returns the first failure.
std::string CheckResult(const QueryContract& contract, const Expectation& e,
                        const Relation& got, const Relation& reference);

/// Evaluates `text`'s initial plan with the reference evaluator: the oracle
/// result and the statement's contract.
struct Reference {
  Relation relation;
  QueryContract contract;
};
tqp::Result<Reference> ReferenceResult(const std::string& text,
                                       const tqp::Catalog& catalog);

/// Rebuilds the result relation from the service's "schema" and "batch"
/// frames (QueryOutcome::raw). Ints and time points travel as JSON numbers;
/// the schema frame's column types tell them apart.
tqp::Result<Relation> ParseFrames(const std::string& raw);

/// Order-sensitive 64-bit digest of a relation's schema and tuples. Two
/// results with equal digests are taken as the same list; used to recognise
/// a repeat of an already verified result without re-running the oracle.
uint64_t ListDigest(const Relation& r);

}  // namespace tqlbench

#endif  // TQLBENCH_CHECK_H_
