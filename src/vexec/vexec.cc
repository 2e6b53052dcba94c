// Vectorized operator kernels and their plan-driver policy.
//
// Every kernel is the columnar transcription of the corresponding Eval* in
// exec/eval_ops.cc: the same algorithm over row indices and typed columns
// instead of per-tuple Value vectors, so the produced list is identical —
// including which occurrence survives duplicate elimination, difference
// fragment order, and rdupT's in-place period replacement. Hash-based
// duplicate/class lookups reuse the exact Tuple::Hash / Tuple::Compare
// semantics through ColumnTable::RowHash / RowCompare; wherever the
// reference uses an ordered map whose iteration order is semantically inert
// (per-class temporal sweeps, group tables that record first-occurrence
// order separately), the kernels use open hashing instead.
#include "vexec/vexec.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "backend/simulated_backend.h"
#include "core/spill.h"
#include "core/task_pool.h"
#include "core/trace.h"
#include "exec/plan_driver.h"
#include "vexec/vexec_internal.h"

namespace tqp {

namespace {

using vexec::EvalColumn;
using vexec::VecEval;

// ---- Row-identity hashing (full-tuple equality) ---------------------------

struct RowRef {
  const ColumnTable* t;
  uint32_t row;
  uint64_t hash;  // ColumnTable::RowHash(row)
};

struct RowRefHash {
  size_t operator()(const RowRef& k) const { return k.hash; }
};

struct RowRefEq {
  bool operator()(const RowRef& a, const RowRef& b) const {
    if (a.hash != b.hash) return false;  // hash is a function of the row
    return ColumnTable::RowEquals(*a.t, a.row, *b.t, b.row);
  }
};

// ---- Value-equivalence-class hashing (non-time attributes) ----------------

struct ClassRefEq {
  bool operator()(const RowRef& a, const RowRef& b) const {
    if (a.hash != b.hash) return false;
    return ColumnTable::RowCompareNonTemporal(*a.t, a.row, *b.t, b.row) == 0;
  }
};

// ---- Morsel runtime -------------------------------------------------------

struct SpillCounters {
  int64_t bytes = 0;
  int64_t runs = 0;
};

// The execution context threaded through every kernel: the work-stealing
// pool (null = serial), the morsel granularity, and the spill budget.
// Parallel loops split row ranges into morsels whose results are stitched
// back in input order, so kernel output never depends on the thread count —
// with one pool worker or pool == nullptr, every loop degenerates to the
// single-range serial call.
struct VexecRuntime {
  WorkStealingPool* pool = nullptr;
  size_t morsel_rows = 32768;
  uint64_t memory_budget = 0;
  SpillCounters spill;
  /// Per-query span recorder; null = untraced (one pointer test per
  /// parallel loop, then one RAII span per *morsel*, never per row).
  Tracer* tracer = nullptr;

  size_t Workers() const { return pool == nullptr ? 1 : pool->workers(); }

  size_t NumMorsels(size_t count) const {
    size_t g = morsel_rows == 0 ? 1 : morsel_rows;
    return (count + g - 1) / g;
  }

  /// Runs body(begin, end) over [0, count): one call covering everything
  /// when serial, one call per morsel (any thread, any order) otherwise.
  /// Serial and parallel runs see the same begin-aligned morsel boundaries
  /// except for the single-call degenerate cases, so bodies must be
  /// per-row pure (they are: every caller writes row-indexed slots or
  /// per-morsel fragment lists).
  template <typename Body>
  void ForRows(size_t count, const Body& body) const {
    if (pool == nullptr || NumMorsels(count) <= 1) {
      if (count > 0) body(0, count);
      return;
    }
    if (tracer != nullptr) {
      pool->ParallelFor(count, morsel_rows, [&](size_t b, size_t e) {
        TraceSpan span(tracer, "vexec", "morsel");
        span.Arg("rows", static_cast<uint64_t>(e - b));
        body(b, e);
      });
      return;
    }
    pool->ParallelFor(count, morsel_rows, body);
  }

  /// Runs body(i) for i in [0, n): independent coarse tasks (one output
  /// column, one sort run), one morsel each.
  template <typename Body>
  void ForTasks(size_t n, const Body& body) const {
    if (pool == nullptr || n <= 1) {
      for (size_t i = 0; i < n; ++i) body(i);
      return;
    }
    pool->ParallelFor(n, 1, [&](size_t b, size_t e) {
      TraceSpan span(tracer, "vexec", "task");
      for (size_t i = b; i < e; ++i) body(i);
    });
  }

  /// Runs body(begin, end) over [0, n) work units (equivalence classes):
  /// the whole range at once when serial — preserving the scratch-reuse
  /// serial code path — and grain-sized ranges otherwise.
  template <typename Body>
  void ForUnits(size_t n, const Body& body) const {
    size_t grain = std::max<size_t>(1, n / (Workers() * 8));
    if (pool == nullptr || n <= grain) {
      if (n > 0) body(0, n);
      return;
    }
    pool->ParallelFor(n, grain, [&](size_t b, size_t e) {
      TraceSpan span(tracer, "vexec", "units");
      if (span.active()) span.Arg("units", static_cast<uint64_t>(e - b));
      body(b, e);
    });
  }
};

// Concatenates per-morsel row lists in morsel order — the deterministic
// stitch step of every parallel filter-style kernel.
std::vector<uint32_t> ConcatFrags(
    const std::vector<std::vector<uint32_t>>& per) {
  size_t total = 0;
  for (const auto& v : per) total += v.size();
  std::vector<uint32_t> out;
  out.reserve(total);
  for (const auto& v : per) out.insert(out.end(), v.begin(), v.end());
  return out;
}

// Gathers `rows` of `src` into a fresh table, one column per task.
ColumnTable GatherTable(const ColumnTable& src, const Schema& out_schema,
                        const std::vector<uint32_t>& rows,
                        const VexecRuntime& rt) {
  ColumnTable out(out_schema);
  rt.ForTasks(src.num_cols(), [&](size_t c) {
    out.mutable_col(c).AppendGather(src.col(c), rows.data(), rows.size());
  });
  out.CommitRows(rows.size());
  return out;
}

// Per-row hashes (RowHash, or RowHashNonTemporal for value-equivalence
// classes), computed morsel-parallel.
std::vector<uint64_t> RowHashes(const ColumnTable& t, bool non_temporal,
                                const VexecRuntime& rt) {
  std::vector<uint64_t> h(t.rows());
  rt.ForRows(t.rows(), [&](size_t b, size_t e) {
    for (size_t i = b; i < e; ++i) {
      h[i] = non_temporal ? t.RowHashNonTemporal(i) : t.RowHash(i);
    }
  });
  return h;
}

// Stable sort of the index vector [0, n) by `less`. Parallel plan: sort a
// power-of-two number of contiguous runs independently, then merge adjacent
// runs pairwise with std::inplace_merge — itself stable and left-biased —
// which reproduces std::stable_sort's result exactly for any run count
// (runs hold index-ascending row ranges, so ties resolve left-run-first =
// lower-index-first at every level).
template <typename Less>
std::vector<uint32_t> SortIndices(size_t n, const Less& less,
                                  const VexecRuntime& rt) {
  std::vector<uint32_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = static_cast<uint32_t>(i);
  size_t workers = rt.Workers();
  if (workers <= 1 || n < 8192) {
    std::stable_sort(order.begin(), order.end(), less);
    return order;
  }
  size_t runs = 1;
  while (runs < workers) runs <<= 1;
  std::vector<size_t> bound(runs + 1);
  for (size_t k = 0; k <= runs; ++k) bound[k] = k * n / runs;
  rt.ForTasks(runs, [&](size_t k) {
    std::stable_sort(order.begin() + bound[k], order.begin() + bound[k + 1],
                     less);
  });
  for (size_t width = 1; width < runs; width <<= 1) {
    size_t pairs = runs / (2 * width);
    rt.ForTasks(pairs, [&](size_t p) {
      size_t lo = bound[2 * width * p];
      size_t mid = bound[2 * width * p + width];
      size_t hi = bound[2 * width * p + 2 * width];
      std::inplace_merge(order.begin() + lo, order.begin() + mid,
                         order.begin() + hi, less);
    });
  }
  return order;
}

// ---- Spill helpers --------------------------------------------------------

bool ShouldSpill(const ColumnTable& t, const VexecRuntime& rt) {
  return rt.memory_budget > 0 && t.rows() > 1 &&
         t.ApproxBytes() > rt.memory_budget;
}

size_t SpillPartitionCount(uint64_t bytes, uint64_t budget) {
  uint64_t p = bytes / std::max<uint64_t>(1, budget / 2) + 1;
  return static_cast<size_t>(
      std::min<uint64_t>(256, std::max<uint64_t>(2, p)));
}

// Hash-partitions row records into a spill file: each record is the row's
// original index (u32) followed by its EncodeSpillRow payload. Records are
// buffered per partition and flushed in 64 KiB blocks; a partition reads
// back as the concatenation of its blocks, so its rows return in ascending
// original-row order — which is what lets the partitioned class/group
// algorithms reproduce the serial first-occurrence discipline.
class SpillPartitioner {
 public:
  explicit SpillPartitioner(size_t parts) : bufs_(parts), blocks_(parts) {}

  bool ok() const { return file_.ok(); }
  uint64_t bytes_written() const { return file_.bytes_written(); }
  size_t parts() const { return bufs_.size(); }

  void Add(size_t part, const ColumnTable& t, size_t row) {
    std::string& buf = bufs_[part];
    uint32_t idx = static_cast<uint32_t>(row);
    buf.append(reinterpret_cast<const char*>(&idx), sizeof(idx));
    EncodeSpillRow(t, row, &buf);
    if (buf.size() >= 64 * 1024) Flush(part);
  }

  void FlushAll() {
    for (size_t p = 0; p < bufs_.size(); ++p) Flush(p);
  }

  /// Decodes partition `p` into rows (as Values) plus their original
  /// indices, in ascending original order.
  void ReadPartition(size_t p, std::vector<uint32_t>* orig,
                     std::vector<std::vector<Value>>* rows) {
    orig->clear();
    rows->clear();
    size_t total = 0;
    for (const Block& b : blocks_[p]) total += b.bytes;
    std::string data(total, '\0');
    size_t at = 0;
    for (const Block& b : blocks_[p]) {
      file_.ReadAt(b.offset, &data[at], b.bytes);
      at += b.bytes;
    }
    const uint8_t* ptr = reinterpret_cast<const uint8_t*>(data.data());
    size_t avail = total;
    while (avail > 0) {
      TQP_CHECK(avail >= 4);
      uint32_t idx;
      std::memcpy(&idx, ptr, sizeof(idx));
      ptr += 4;
      avail -= 4;
      std::vector<Value> row;
      size_t used = DecodeSpillRow(ptr, avail, &row);
      TQP_CHECK(used != 0);
      ptr += used;
      avail -= used;
      orig->push_back(idx);
      rows->push_back(std::move(row));
    }
  }

 private:
  struct Block {
    uint64_t offset;
    size_t bytes;
  };

  void Flush(size_t p) {
    if (bufs_[p].empty()) return;
    uint64_t off = file_.Append(bufs_[p].data(), bufs_[p].size());
    blocks_[p].push_back(Block{off, bufs_[p].size()});
    bufs_[p].clear();
  }

  SpillFile file_;
  std::vector<std::string> bufs_;
  std::vector<std::vector<Block>> blocks_;
};

// Rebuilds a columnar table from decoded spill rows (one partition's worth).
ColumnTable TableFromRows(const Schema& schema,
                          const std::vector<std::vector<Value>>& rows) {
  ColumnTable t(schema);
  for (size_t c = 0; c < t.num_cols(); ++c) {
    ColumnVec& col = t.mutable_col(c);
    col.Reserve(rows.size());
    for (const std::vector<Value>& row : rows) col.AppendValue(row[c]);
  }
  t.CommitRows(rows.size());
  return t;
}

// ---- Kernels --------------------------------------------------------------

Result<ColumnTable> VecScan(const CatalogEntry& entry,
                            const VexecRuntime& rt) {
  if (rt.pool == nullptr) return ColumnTable::FromRelation(entry.data);
  // Column-parallel conversion: each task appends one column's cells in row
  // order — the same per-cell append sequence FromRelation performs.
  const Relation& r = entry.data;
  ColumnTable t(r.schema());
  rt.ForTasks(t.num_cols(), [&](size_t c) {
    ColumnVec& col = t.mutable_col(c);
    col.Reserve(r.size());
    for (size_t i = 0; i < r.size(); ++i) col.AppendValue(r.tuple(i).at(c));
  });
  t.CommitRows(r.size());
  return t;
}

// The columnar-to-row conversion of the root result, morsel-parallel:
// tuples are written into pre-sized slots, so the row order never depends
// on the thread count.
Relation VecToRelation(const ColumnTable& t, const VexecRuntime& rt) {
  if (rt.pool == nullptr) return t.ToRelation();
  std::vector<Tuple> tuples(t.rows());
  rt.ForRows(t.rows(), [&](size_t b, size_t e) {
    for (size_t i = b; i < e; ++i) {
      std::vector<Value> vals;
      vals.reserve(t.num_cols());
      for (size_t c = 0; c < t.num_cols(); ++c) {
        vals.push_back(t.col(c).ValueAt(i));
      }
      tuples[i] = Tuple(std::move(vals));
    }
  });
  return Relation(t.schema(), std::move(tuples));
}

ColumnTable VecSelect(const ColumnTable& in, const ExprPtr& predicate,
                      size_t batch_size, const VexecRuntime& rt) {
  size_t grain = rt.morsel_rows == 0 ? 1 : rt.morsel_rows;
  std::vector<std::vector<uint32_t>> frags(
      std::max<size_t>(1, rt.NumMorsels(in.rows())));
  rt.ForRows(in.rows(), [&](size_t mb, size_t me) {
    std::vector<uint32_t>& keep = frags[mb / grain];
    for (size_t b = mb; b < me; b += batch_size) {
      size_t e = std::min(me, b + batch_size);
      EvalColumn ec = VecEval(predicate, in, b, e);
      for (uint32_t k = 0; k < e - b; ++k) {
        // EvalPredicate semantics: an erroring or NULL row is simply false.
        if (ec.ErrAt(k) != nullptr) continue;
        CellRef c = ec.col.At(k);
        if (c.is_null()) continue;
        if (c.Numeric() != 0) keep.push_back(static_cast<uint32_t>(b + k));
      }
    }
  });
  return GatherTable(in, in.schema(), ConcatFrags(frags), rt);
}

Result<ColumnTable> VecProject(const ColumnTable& in,
                               const std::vector<ProjItem>& items,
                               const Schema& out_schema, size_t batch_size,
                               const VexecRuntime& rt) {
  // The reference fails with the error of the first erroring row (and that
  // row's first erroring item): rows outermost, so an error at (row, item)
  // is superseded only by one at a strictly smaller row. Evaluate
  // column-at-a-time (items outermost, serial), keep the minimum error row,
  // and bound every later item to rows below it: a strict `<` update means
  // the earliest item to error on the final minimum row wins, exactly the
  // reference's (row, item) order. Within an item the rows are evaluated
  // morsel-parallel — VecEval is per-row pure, so evaluating rows the
  // serial bound would have skipped changes nothing observable — and the
  // per-morsel column pieces are stitched back in morsel order.
  size_t err_row = static_cast<size_t>(-1);
  std::string err_msg;
  std::mutex err_mu;
  size_t grain = rt.morsel_rows == 0 ? 1 : rt.morsel_rows;
  std::vector<ColumnVec> cols(items.size());
  for (size_t i = 0; i < items.size(); ++i) {
    size_t limit = std::min(in.rows(), err_row);
    std::vector<ColumnVec> pieces(std::max<size_t>(1, rt.NumMorsels(limit)));
    rt.ForRows(limit, [&](size_t mb, size_t me) {
      ColumnVec& piece = pieces[mb / grain];
      for (size_t b = mb; b < me; b += batch_size) {
        size_t e = std::min(me, b + batch_size);
        EvalColumn ec = VecEval(items[i].expr, in, b, e);
        if (!ec.errs.empty()) {
          std::lock_guard<std::mutex> lock(err_mu);
          for (const auto& [k, msg] : ec.errs) {
            if (b + k < err_row) {
              err_row = b + k;
              err_msg = msg;
            }
          }
        }
        piece.AppendRangeFrom(ec.col, 0, e - b);
      }
    });
    for (ColumnVec& piece : pieces) {
      cols[i].AppendRangeFrom(piece, 0, piece.size());
    }
  }
  if (err_row != static_cast<size_t>(-1)) return Status::Error(err_msg);
  ColumnTable out(out_schema);
  for (size_t i = 0; i < cols.size(); ++i) {
    out.mutable_col(i) = std::move(cols[i]);
  }
  out.CommitRows(in.rows());
  return out;
}

ColumnTable VecUnionAll(const ColumnTable& l, const ColumnTable& r,
                        const Schema& out_schema, const VexecRuntime& rt) {
  ColumnTable out(out_schema);
  rt.ForTasks(out.num_cols(), [&](size_t c) {
    out.mutable_col(c).AppendRangeFrom(l.col(c), 0, l.rows());
    out.mutable_col(c).AppendRangeFrom(r.col(c), 0, r.rows());
  });
  out.CommitRows(l.rows() + r.rows());
  return out;
}

ColumnTable VecUnion(const ColumnTable& l, const ColumnTable& r,
                     const Schema& out_schema, const VexecRuntime& rt) {
  // Hashes morsel-parallel; the multiplicity bookkeeping stays serial (it
  // is inherently a running count in row order).
  std::vector<uint64_t> lh = RowHashes(l, false, rt);
  std::vector<uint64_t> rh = RowHashes(r, false, rt);
  std::unordered_map<RowRef, int64_t, RowRefHash, RowRefEq> left_count;
  left_count.reserve(l.rows());
  for (uint32_t i = 0; i < l.rows(); ++i) ++left_count[RowRef{&l, i, lh[i]}];
  std::unordered_map<RowRef, int64_t, RowRefHash, RowRefEq> right_seen;
  std::vector<uint32_t> extra;
  for (uint32_t j = 0; j < r.rows(); ++j) {
    RowRef key{&r, j, rh[j]};
    int64_t seen = ++right_seen[key];
    auto it = left_count.find(key);
    int64_t in_left = it == left_count.end() ? 0 : it->second;
    if (seen > in_left) extra.push_back(j);
  }
  ColumnTable out(out_schema);
  rt.ForTasks(out.num_cols(), [&](size_t c) {
    out.mutable_col(c).AppendRangeFrom(l.col(c), 0, l.rows());
    out.mutable_col(c).AppendGather(r.col(c), extra.data(), extra.size());
  });
  out.CommitRows(l.rows() + extra.size());
  return out;
}

ColumnTable VecProduct(const ColumnTable& l, const ColumnTable& r,
                       const Schema& out_schema, const VexecRuntime& rt) {
  // Left-major pair order, generated column-wise (one output column per
  // task): left columns repeat each cell |r| times, right columns tile |l|
  // times.
  ColumnTable out(out_schema);
  size_t lc = l.num_cols();
  rt.ForTasks(out.num_cols(), [&](size_t pos) {
    ColumnVec& dst = out.mutable_col(pos);
    dst.Reserve(l.rows() * r.rows());
    if (pos < lc) {
      for (size_t i = 0; i < l.rows(); ++i) {
        for (size_t j = 0; j < r.rows(); ++j) dst.AppendFrom(l.col(pos), i);
      }
    } else {
      for (size_t i = 0; i < l.rows(); ++i) {
        dst.AppendRangeFrom(r.col(pos - lc), 0, r.rows());
      }
    }
  });
  out.CommitRows(l.rows() * r.rows());
  return out;
}

ColumnTable VecDifference(const ColumnTable& l, const ColumnTable& r,
                          const VexecRuntime& rt) {
  std::vector<uint64_t> lh = RowHashes(l, false, rt);
  std::vector<uint64_t> rh = RowHashes(r, false, rt);
  std::unordered_map<RowRef, int64_t, RowRefHash, RowRefEq> cancel;
  cancel.reserve(r.rows());
  for (uint32_t j = 0; j < r.rows(); ++j) ++cancel[RowRef{&r, j, rh[j]}];
  std::vector<uint32_t> keep;
  for (uint32_t i = 0; i < l.rows(); ++i) {
    auto it = cancel.find(RowRef{&l, i, lh[i]});
    if (it != cancel.end() && it->second > 0) {
      --it->second;
      continue;
    }
    keep.push_back(i);
  }
  return GatherTable(l, l.schema(), keep, rt);
}

ColumnTable VecRdup(const ColumnTable& in, const Schema& out_schema,
                    VexecRuntime& rt) {
  std::vector<uint64_t> h = RowHashes(in, false, rt);
  std::vector<uint32_t> keep;
  bool done = false;
  if (ShouldSpill(in, rt)) {
    // Grace-partitioned rdup: rows hash-partition to a spill file, each
    // partition deduplicates independently (equal rows share a hash, hence
    // a partition), and the survivors merge ascending — exactly the serial
    // first-occurrence set.
    TraceSpan spill_span(rt.tracer, "vexec", "spill_rdup");
    size_t parts = SpillPartitionCount(in.ApproxBytes(), rt.memory_budget);
    SpillPartitioner sp(parts);
    if (sp.ok()) {
      for (size_t i = 0; i < in.rows(); ++i) sp.Add(h[i] % parts, in, i);
      sp.FlushAll();
      rt.spill.bytes += static_cast<int64_t>(sp.bytes_written());
      rt.spill.runs += static_cast<int64_t>(parts);
      std::vector<uint32_t> orig;
      std::vector<std::vector<Value>> vals;
      for (size_t p = 0; p < parts; ++p) {
        sp.ReadPartition(p, &orig, &vals);
        ColumnTable part = TableFromRows(in.schema(), vals);
        std::unordered_set<RowRef, RowRefHash, RowRefEq> seen;
        seen.reserve(part.rows());
        for (uint32_t k = 0; k < part.rows(); ++k) {
          if (seen.insert(RowRef{&part, k, h[orig[k]]}).second) {
            keep.push_back(orig[k]);
          }
        }
      }
      std::sort(keep.begin(), keep.end());
      done = true;
    }
  }
  if (!done) {
    std::unordered_set<RowRef, RowRefHash, RowRefEq> seen;
    seen.reserve(in.rows());
    for (uint32_t i = 0; i < in.rows(); ++i) {
      if (seen.insert(RowRef{&in, i, h[i]}).second) keep.push_back(i);
    }
  }
  return GatherTable(in, out_schema, keep, rt);
}

ColumnTable VecSort(ColumnTable&& in, const SortSpec& spec,
                    VexecRuntime& rt) {
  // Per-key comparators specialized once on the column's storage class, so
  // the O(n log n) comparison loop touches raw typed vectors. Null-free
  // typed columns order exactly as Value::Compare does (same type, payload
  // order); anything else falls back to the generic cell comparison.
  enum class KeyKind { kInt64, kDouble, kString, kGeneric };
  struct Key {
    const ColumnVec* col;
    int idx;
    KeyKind kind;
    bool ascending;
  };
  std::vector<Key> keys;
  for (const SortKey& k : spec) {
    int idx = in.schema().IndexOf(k.attr);
    TQP_CHECK(idx >= 0);
    const ColumnVec& col = in.col(static_cast<size_t>(idx));
    KeyKind kind = KeyKind::kGeneric;
    if (!col.MayHaveNulls()) {
      switch (col.storage()) {
        case ColumnStorage::kInt64:
          kind = KeyKind::kInt64;
          break;
        case ColumnStorage::kDouble:
          kind = KeyKind::kDouble;
          break;
        case ColumnStorage::kString:
          kind = KeyKind::kString;
          break;
        default:
          break;
      }
    }
    keys.push_back(Key{&col, idx, kind, k.ascending});
  }
  auto key_compare = [](const Key& k, uint32_t a, uint32_t b) {
    switch (k.kind) {
      case KeyKind::kInt64: {
        int64_t x = k.col->ints()[a], y = k.col->ints()[b];
        return x < y ? -1 : (y < x ? 1 : 0);
      }
      case KeyKind::kDouble: {
        double x = k.col->doubles()[a], y = k.col->doubles()[b];
        return x < y ? -1 : (y < x ? 1 : 0);
      }
      case KeyKind::kString: {
        int c = k.col->strings()[a].compare(k.col->strings()[b]);
        return c < 0 ? -1 : (c > 0 ? 1 : 0);
      }
      case KeyKind::kGeneric:
        return CellRef::Compare(k.col->At(a), k.col->At(b));
    }
    return 0;
  };
  auto less = [&](uint32_t a, uint32_t b) {
    for (const Key& k : keys) {
      int c = key_compare(k, a, b);
      if (c != 0) return k.ascending ? c < 0 : c > 0;
    }
    return false;
  };

  if (ShouldSpill(in, rt)) {
    // External merge sort: the input is cut into contiguous runs, each
    // run's rows are stable-sorted (in parallel) and spilled in sorted
    // order, the input is released, and the runs are streamed back through
    // a K-way merge keyed on the sort attributes with ties broken on
    // ascending run index. Earlier runs hold earlier input rows and each
    // run is internally stable, so the merged list is exactly the global
    // stable sort.
    TraceSpan spill_span(rt.tracer, "vexec", "spill_sort");
    size_t n = in.rows();
    uint64_t per_row = std::max<uint64_t>(1, in.ApproxBytes() / n);
    size_t run_rows = static_cast<size_t>(std::max<uint64_t>(
        {(rt.memory_budget / 2) / per_row, 16, n / 256 + 1}));
    size_t num_runs = (n + run_rows - 1) / run_rows;
    SpillFile file;
    if (num_runs > 1 && file.ok()) {
      struct Run {
        uint64_t offset = 0;
        uint64_t bytes = 0;
      };
      std::vector<Run> runs(num_runs);
      std::vector<std::vector<uint32_t>> run_order(num_runs);
      rt.ForTasks(num_runs, [&](size_t k) {
        size_t b = k * run_rows, e = std::min(n, b + run_rows);
        std::vector<uint32_t>& ord = run_order[k];
        ord.resize(e - b);
        for (size_t i = b; i < e; ++i) ord[i - b] = static_cast<uint32_t>(i);
        std::stable_sort(ord.begin(), ord.end(), less);
      });
      std::string buf;
      for (size_t k = 0; k < num_runs; ++k) {
        buf.clear();
        for (uint32_t row : run_order[k]) EncodeSpillRow(in, row, &buf);
        runs[k].offset = file.Append(buf.data(), buf.size());
        runs[k].bytes = buf.size();
        run_order[k] = std::vector<uint32_t>();
      }
      rt.spill.bytes += static_cast<int64_t>(file.bytes_written());
      rt.spill.runs += static_cast<int64_t>(num_runs);

      std::vector<std::pair<int, bool>> key_at;
      for (const Key& k : keys) key_at.emplace_back(k.idx, k.ascending);
      Schema schema = in.schema();
      in = ColumnTable(schema);  // release the input payload before merging

      struct Cursor {
        std::unique_ptr<SpillRegionReader> reader;
        std::vector<Value> row;
        size_t run = 0;
      };
      std::vector<Cursor> cursors;
      for (size_t k = 0; k < num_runs; ++k) {
        Cursor c;
        c.reader = std::make_unique<SpillRegionReader>(&file, runs[k].offset,
                                                       runs[k].bytes);
        c.run = k;
        if (c.reader->Next(&c.row)) cursors.push_back(std::move(c));
      }
      // Min-heap on (sort keys, run index): comp(a, b) = "a sorts after b",
      // so the heap top is the next output row.
      auto cursor_after = [&](const Cursor& a, const Cursor& b) {
        for (const auto& [idx, asc] : key_at) {
          int c = CellRef::Compare(CellRef::Of(a.row[idx]),
                                   CellRef::Of(b.row[idx]));
          if (c != 0) return asc ? c > 0 : c < 0;
        }
        return a.run > b.run;
      };
      std::make_heap(cursors.begin(), cursors.end(), cursor_after);
      ColumnTable out(schema);
      size_t total = 0;
      while (!cursors.empty()) {
        std::pop_heap(cursors.begin(), cursors.end(), cursor_after);
        Cursor& c = cursors.back();
        for (size_t col = 0; col < out.num_cols(); ++col) {
          out.mutable_col(col).AppendValue(c.row[col]);
        }
        ++total;
        if (c.reader->Next(&c.row)) {
          std::push_heap(cursors.begin(), cursors.end(), cursor_after);
        } else {
          cursors.pop_back();
        }
      }
      out.CommitRows(total);
      return out;
    }
  }

  std::vector<uint32_t> order = SortIndices(in.rows(), less, rt);
  return GatherTable(in, in.schema(), order, rt);
}

// Extracts the T1/T2 endpoints of every row into flat arrays.
void ExtractPeriods(const ColumnTable& t, std::vector<TimePoint>* begins,
                    std::vector<TimePoint>* ends, const VexecRuntime& rt) {
  begins->resize(t.rows());
  ends->resize(t.rows());
  const ColumnVec& c1 = t.col(static_cast<size_t>(t.t1_index()));
  const ColumnVec& c2 = t.col(static_cast<size_t>(t.t2_index()));
  rt.ForRows(t.rows(), [&](size_t b, size_t e) {
    for (size_t i = b; i < e; ++i) {
      (*begins)[i] = c1.At(i).i;
      (*ends)[i] = c2.At(i).i;
    }
  });
}

ColumnTable VecProductT(const ColumnTable& l, const ColumnTable& r,
                        const Schema& out_schema, const VexecRuntime& rt) {
  std::vector<TimePoint> lb, le, rb, re;
  ExtractPeriods(l, &lb, &le, rt);
  ExtractPeriods(r, &rb, &re, rt);
  // The hot loop: the overlap test runs over flat endpoint arrays —
  // max(begin) < min(end) is exactly lp.Intersect(rp).Valid(), the
  // reference's pair filter. Left rows probe morsel-parallel; each morsel's
  // (left, right) pairs stitch back in morsel order, reproducing the serial
  // left-major pair list.
  size_t grain = rt.morsel_rows == 0 ? 1 : rt.morsel_rows;
  std::vector<std::vector<uint32_t>> lfr(
      std::max<size_t>(1, rt.NumMorsels(l.rows())));
  std::vector<std::vector<uint32_t>> rfr(lfr.size());
  rt.ForRows(l.rows(), [&](size_t mb, size_t me) {
    std::vector<uint32_t>& lf = lfr[mb / grain];
    std::vector<uint32_t>& rf = rfr[mb / grain];
    for (size_t i = mb; i < me; ++i) {
      TimePoint b = lb[i], e = le[i];
      for (uint32_t j = 0; j < r.rows(); ++j) {
        if (std::max(b, rb[j]) < std::min(e, re[j])) {
          lf.push_back(static_cast<uint32_t>(i));
          rf.push_back(j);
        }
      }
    }
  });
  std::vector<uint32_t> li = ConcatFrags(lfr);
  std::vector<uint32_t> ri = ConcatFrags(rfr);

  ColumnTable out(out_schema);
  int l1 = l.t1_index(), l2 = l.t2_index();
  int r1 = r.t1_index(), r2 = r.t2_index();
  // Output column layout: left non-time, right non-time, then 1.T1, 1.T2,
  // 2.T1, 2.T2 and the overlap as T1/T2 — the exact value order
  // EvalProductT pushes. One output column per task.
  std::vector<size_t> lsrc, rsrc;
  for (size_t c = 0; c < l.num_cols(); ++c) {
    if (static_cast<int>(c) != l1 && static_cast<int>(c) != l2) {
      lsrc.push_back(c);
    }
  }
  for (size_t c = 0; c < r.num_cols(); ++c) {
    if (static_cast<int>(c) != r1 && static_cast<int>(c) != r2) {
      rsrc.push_back(c);
    }
  }
  size_t fill0 = lsrc.size() + rsrc.size();
  rt.ForTasks(out.num_cols(), [&](size_t pos) {
    ColumnVec& dst = out.mutable_col(pos);
    if (pos < lsrc.size()) {
      dst.AppendGather(l.col(lsrc[pos]), li.data(), li.size());
    } else if (pos < fill0) {
      dst.AppendGather(r.col(rsrc[pos - lsrc.size()]), ri.data(), ri.size());
    } else {
      dst.Reserve(li.size());
      size_t f = pos - fill0;
      for (size_t k = 0; k < li.size(); ++k) {
        TimePoint v = 0;
        switch (f) {
          case 0: v = lb[li[k]]; break;
          case 1: v = le[li[k]]; break;
          case 2: v = rb[ri[k]]; break;
          case 3: v = re[ri[k]]; break;
          case 4: v = std::max(lb[li[k]], rb[ri[k]]); break;
          default: v = std::min(le[li[k]], re[ri[k]]); break;
        }
        dst.AppendInt64(v);
      }
    }
  });
  out.CommitRows(li.size());
  return out;
}

// Emits one output row per (source row, period) pair, in pair order: every
// column is gathered from `in` except T1/T2, which carry the pair's period —
// the columnar form of "copy the tuple, replace its period in place".
ColumnTable EmitWithPeriods(const ColumnTable& in,
                            const std::vector<uint32_t>& rows,
                            const std::vector<Period>& periods,
                            const VexecRuntime& rt) {
  ColumnTable out(in.schema());
  int t1 = in.t1_index(), t2 = in.t2_index();
  rt.ForTasks(in.num_cols(), [&](size_t c) {
    ColumnVec& dst = out.mutable_col(c);
    if (static_cast<int>(c) == t1) {
      dst.Reserve(periods.size());
      for (const Period& p : periods) dst.AppendInt64(p.begin);
    } else if (static_cast<int>(c) == t2) {
      dst.Reserve(periods.size());
      for (const Period& p : periods) dst.AppendInt64(p.end);
    } else {
      dst.AppendGather(in.col(c), rows.data(), rows.size());
    }
  });
  out.CommitRows(rows.size());
  return out;
}

ColumnTable VecDifferenceT(const ColumnTable& l, const ColumnTable& r,
                           const VexecRuntime& rt) {
  // The endpoint-sweep algorithm of EvalDifferenceT, verbatim, over one
  // hash-keyed class table. Class iteration order is semantically inert:
  // fragments are recorded per left row and emitted in left-row order —
  // which is also what makes the per-class sweeps safe to run in parallel
  // (classes touch disjoint left rows).
  struct ClassData {
    std::vector<uint32_t> left_index;
    std::vector<Period> left_period;
    std::vector<Period> right_period;
  };
  std::vector<uint64_t> lh = RowHashes(l, true, rt);
  std::vector<uint64_t> rh = RowHashes(r, true, rt);
  std::unordered_map<RowRef, uint32_t, RowRefHash, ClassRefEq> class_of;
  class_of.reserve(l.rows());
  std::vector<ClassData> classes;
  for (uint32_t i = 0; i < l.rows(); ++i) {
    auto [it, inserted] = class_of.try_emplace(
        RowRef{&l, i, lh[i]}, static_cast<uint32_t>(classes.size()));
    if (inserted) classes.emplace_back();
    ClassData& cd = classes[it->second];
    cd.left_index.push_back(i);
    cd.left_period.push_back(l.RowPeriod(i));
  }
  for (uint32_t j = 0; j < r.rows(); ++j) {
    auto it = class_of.find(RowRef{&r, j, rh[j]});
    if (it == class_of.end()) continue;  // nothing to cancel
    classes[it->second].right_period.push_back(r.RowPeriod(j));
  }

  std::vector<std::vector<Period>> fragments(l.rows());
  auto SweepClass = [&](ClassData& cd) {
    if (cd.right_period.empty()) {
      for (size_t k = 0; k < cd.left_index.size(); ++k) {
        fragments[cd.left_index[k]].push_back(cd.left_period[k]);
      }
      return;
    }
    std::vector<TimePoint> cuts;
    for (const Period& p : cd.left_period) {
      cuts.push_back(p.begin);
      cuts.push_back(p.end);
    }
    for (const Period& p : cd.right_period) {
      cuts.push_back(p.begin);
      cuts.push_back(p.end);
    }
    std::sort(cuts.begin(), cuts.end());
    cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
    for (size_t c = 0; c + 1 < cuts.size(); ++c) {
      Period elem(cuts[c], cuts[c + 1]);
      int64_t right_cover = 0;
      for (const Period& p : cd.right_period) {
        if (p.Contains(elem)) ++right_cover;
      }
      int64_t budget = -right_cover;
      for (size_t k = 0; k < cd.left_index.size(); ++k) {
        if (!cd.left_period[k].Contains(elem)) continue;
        ++budget;
        if (budget > 0) {
          std::vector<Period>& fr = fragments[cd.left_index[k]];
          if (!fr.empty() && fr.back().end == elem.begin) {
            fr.back().end = elem.end;
          } else {
            fr.push_back(elem);
          }
        }
      }
    }
  };
  rt.ForUnits(classes.size(), [&](size_t b, size_t e) {
    for (size_t ci = b; ci < e; ++ci) SweepClass(classes[ci]);
  });

  std::vector<uint32_t> rows;
  std::vector<Period> periods;
  for (uint32_t i = 0; i < l.rows(); ++i) {
    for (const Period& p : fragments[i]) {
      rows.push_back(i);
      periods.push_back(p);
    }
  }
  return EmitWithPeriods(l, rows, periods, rt);
}

ColumnTable VecUnionT(const ColumnTable& l, const ColumnTable& r,
                      const VexecRuntime& rt) {
  ColumnTable extra = VecDifferenceT(r, l, rt);
  ColumnTable out(l.schema());
  rt.ForTasks(out.num_cols(), [&](size_t c) {
    out.mutable_col(c).AppendRangeFrom(l.col(c), 0, l.rows());
    out.mutable_col(c).AppendRangeFrom(extra.col(c), 0, extra.rows());
  });
  out.CommitRows(l.rows() + extra.rows());
  return out;
}

ColumnTable VecRdupT(const ColumnTable& in, const VexecRuntime& rt) {
  // Class member lists in insertion (= row) order; each class's coverage
  // sweep is independent of every other class, so classes run in parallel
  // while the (row, fragment) pairs are still emitted in ascending row
  // order — the reference's exact in-place replacement discipline.
  size_t n = in.rows();
  std::vector<uint64_t> h = RowHashes(in, true, rt);
  std::unordered_map<RowRef, uint32_t, RowRefHash, ClassRefEq> class_of;
  class_of.reserve(n);
  std::vector<std::vector<uint32_t>> members;
  for (uint32_t i = 0; i < n; ++i) {
    auto [it, inserted] = class_of.try_emplace(
        RowRef{&in, i, h[i]}, static_cast<uint32_t>(members.size()));
    if (inserted) members.emplace_back();
    members[it->second].push_back(i);
  }
  std::vector<Period> row_period(n);
  rt.ForRows(n, [&](size_t b, size_t e) {
    for (size_t i = b; i < e; ++i) row_period[i] = in.RowPeriod(i);
  });
  std::vector<std::vector<Period>> fragments(n);
  rt.ForUnits(members.size(), [&](size_t b, size_t e) {
    std::vector<Period> cov;
    for (size_t ci = b; ci < e; ++ci) {
      cov.clear();
      for (uint32_t i : members[ci]) {
        Period p = row_period[i];
        fragments[i] = SubtractAll(p, cov);
        cov.push_back(p);
        cov = NormalizePeriods(std::move(cov));
      }
    }
  });
  std::vector<uint32_t> rows;
  std::vector<Period> periods;
  for (uint32_t i = 0; i < n; ++i) {
    for (const Period& p : fragments[i]) {
      rows.push_back(i);
      periods.push_back(p);
    }
  }
  return EmitWithPeriods(in, rows, periods, rt);
}

// The greedy adjacency merge of one coalescing class — EvalCoalesce's inner
// loop, verbatim: the head absorbs the first later adjacent fragment until
// a fixpoint. `idxs` lists the class rows in ascending row order;
// period/consumed are global row-indexed arrays (a class only ever touches
// its own rows, so classes can run concurrently; consumed is uint8_t, not
// vector<bool>, precisely so concurrent classes never share a byte through
// bit packing).
void CoalesceClass(const std::vector<uint32_t>& idxs,
                   std::vector<Period>& period,
                   std::vector<uint8_t>& consumed) {
  for (size_t a = 0; a < idxs.size(); ++a) {
    uint32_t head = idxs[a];
    if (consumed[head]) continue;
    bool changed = true;
    while (changed) {
      changed = false;
      for (size_t b = a + 1; b < idxs.size(); ++b) {
        uint32_t j = idxs[b];
        if (consumed[j]) continue;
        if (period[head].Adjacent(period[j])) {
          period[head] = period[head].Merge(period[j]);
          consumed[j] = 1;
          changed = true;
          break;  // restart: the grown period may meet earlier fragments
        }
      }
    }
  }
}

ColumnTable VecCoalesce(const ColumnTable& in, VexecRuntime& rt) {
  // Classes interact with nothing, so a hash class table with
  // insertion-ordered member lists reproduces the reference's ordered-map
  // version exactly — and the per-class merges parallelize freely. Over
  // budget, the class table grace-partitions to a spill file instead
  // (value-equivalent rows share a non-temporal hash, hence a partition),
  // and partitions are processed one at a time.
  size_t n = in.rows();
  std::vector<uint8_t> consumed(n, 0);
  std::vector<Period> period(n);
  rt.ForRows(n, [&](size_t b, size_t e) {
    for (size_t i = b; i < e; ++i) period[i] = in.RowPeriod(i);
  });
  std::vector<uint64_t> h = RowHashes(in, true, rt);

  bool done = false;
  if (ShouldSpill(in, rt)) {
    TraceSpan spill_span(rt.tracer, "vexec", "spill_coalesce");
    size_t parts = SpillPartitionCount(in.ApproxBytes(), rt.memory_budget);
    SpillPartitioner sp(parts);
    if (sp.ok()) {
      for (size_t i = 0; i < n; ++i) sp.Add(h[i] % parts, in, i);
      sp.FlushAll();
      rt.spill.bytes += static_cast<int64_t>(sp.bytes_written());
      rt.spill.runs += static_cast<int64_t>(parts);
      std::vector<uint32_t> orig;
      std::vector<std::vector<Value>> vals;
      for (size_t p = 0; p < parts; ++p) {
        sp.ReadPartition(p, &orig, &vals);
        ColumnTable part = TableFromRows(in.schema(), vals);
        std::unordered_map<RowRef, uint32_t, RowRefHash, ClassRefEq> class_of;
        class_of.reserve(part.rows());
        std::vector<std::vector<uint32_t>> members;
        for (uint32_t k = 0; k < part.rows(); ++k) {
          auto [it, inserted] = class_of.try_emplace(
              RowRef{&part, k, h[orig[k]]},
              static_cast<uint32_t>(members.size()));
          if (inserted) members.emplace_back();
          members[it->second].push_back(orig[k]);
        }
        rt.ForUnits(members.size(), [&](size_t b, size_t e) {
          for (size_t ci = b; ci < e; ++ci) {
            CoalesceClass(members[ci], period, consumed);
          }
        });
      }
      done = true;
    }
  }
  if (!done) {
    std::unordered_map<RowRef, uint32_t, RowRefHash, ClassRefEq> class_of;
    class_of.reserve(n);
    // Class member lists as intrusive linked lists (head/tail per class,
    // one next[] array): most classes are tiny, and per-class vectors
    // would cost one allocation each at million-row scale.
    std::vector<uint32_t> class_head, class_tail;
    std::vector<int32_t> next_in_class(n, -1);
    for (uint32_t i = 0; i < n; ++i) {
      auto [it, inserted] = class_of.try_emplace(
          RowRef{&in, i, h[i]}, static_cast<uint32_t>(class_head.size()));
      if (inserted) {
        class_head.push_back(i);
        class_tail.push_back(i);
      } else {
        next_in_class[class_tail[it->second]] = static_cast<int32_t>(i);
        class_tail[it->second] = i;
      }
    }
    rt.ForUnits(class_head.size(), [&](size_t b, size_t e) {
      std::vector<uint32_t> idxs;  // per-range scratch, reused
      for (size_t cid = b; cid < e; ++cid) {
        idxs.clear();
        for (int32_t j = static_cast<int32_t>(class_head[cid]); j >= 0;
             j = next_in_class[j]) {
          idxs.push_back(static_cast<uint32_t>(j));
        }
        CoalesceClass(idxs, period, consumed);
      }
    });
  }
  std::vector<uint32_t> rows;
  std::vector<Period> periods;
  for (uint32_t i = 0; i < n; ++i) {
    if (consumed[i]) continue;
    rows.push_back(i);
    periods.push_back(period[i]);
  }
  return EmitWithPeriods(in, rows, periods, rt);
}

// ---- Aggregation ----------------------------------------------------------

// AggState of exec/eval_ops.cc over cells: same accumulation order, same
// min/max update rule (strict comparisons keep the first extremum), same
// Finish typing.
struct VecAggState {
  int64_t count = 0;
  double sum = 0.0;
  bool has_minmax = false;
  Value min, max;
  int64_t non_null = 0;

  void Add(const CellRef& v) {
    ++count;
    if (v.is_null()) return;
    ++non_null;
    if (v.IsNumeric()) sum += v.Numeric();
    if (!has_minmax) {
      min = v.ToValue();
      max = min;
      has_minmax = true;
    } else {
      if (CellRef::Compare(v, CellRef::Of(min)) < 0) min = v.ToValue();
      if (CellRef::Compare(CellRef::Of(max), v) < 0) max = v.ToValue();
    }
  }

  Value Finish(AggFunc f, ValueType input_type) const {
    switch (f) {
      case AggFunc::kCount:
        return Value::Int(count);
      case AggFunc::kSum:
        if (non_null == 0) return Value::Null();
        if (input_type == ValueType::kDouble) return Value::Double(sum);
        return Value::Int(static_cast<int64_t>(sum));
      case AggFunc::kAvg:
        if (non_null == 0) return Value::Null();
        return Value::Double(sum / static_cast<double>(non_null));
      case AggFunc::kMin:
        return has_minmax ? min : Value::Null();
      case AggFunc::kMax:
        return has_minmax ? max : Value::Null();
    }
    return Value::Null();
  }
};

/// Resolves group-by / aggregate attribute positions with the reference's
/// exact error messages.
Status ResolveAggColumns(const Schema& schema,
                         const std::vector<std::string>& group_by,
                         const std::vector<AggSpec>& aggs,
                         std::vector<int>* group_idx,
                         std::vector<int>* agg_idx,
                         std::vector<ValueType>* agg_type) {
  for (const std::string& g : group_by) {
    int idx = schema.IndexOf(g);
    if (idx < 0) return Status::InvalidArgument("unknown group attr " + g);
    group_idx->push_back(idx);
  }
  for (const AggSpec& a : aggs) {
    if (a.func == AggFunc::kCount && a.attr.empty()) {
      agg_idx->push_back(-1);
      agg_type->push_back(ValueType::kInt);
      continue;
    }
    int idx = schema.IndexOf(a.attr);
    if (idx < 0) return Status::InvalidArgument("unknown agg attr " + a.attr);
    agg_idx->push_back(idx);
    agg_type->push_back(schema.attr(static_cast<size_t>(idx)).type);
  }
  return Status::OK();
}

// Hash/equality over a row's group-key cells only.
struct GroupTable {
  const ColumnTable& in;
  const std::vector<int>& group_idx;

  uint64_t HashRow(uint32_t row) const {
    // Group keys compare with CellRef::Compare (cross-type numeric
    // equality), so hash with the Compare-consistent ClassHash.
    uint64_t seed = 0x51ab1e5;
    for (int gi : group_idx) {
      uint64_t h = in.col(static_cast<size_t>(gi)).At(row).ClassHash();
      seed ^= h + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2);
    }
    return seed;
  }
  bool RowsEqual(uint32_t a, uint32_t b) const {
    for (int gi : group_idx) {
      const ColumnVec& c = in.col(static_cast<size_t>(gi));
      if (CellRef::Compare(c.At(a), c.At(b)) != 0) return false;
    }
    return true;
  }
};

struct GroupKey {
  uint32_t row;
  uint64_t hash;
};
struct GroupKeyHash {
  size_t operator()(const GroupKey& k) const { return k.hash; }
};
struct GroupKeyEq {
  const GroupTable* gt;
  bool operator()(const GroupKey& a, const GroupKey& b) const {
    return a.hash == b.hash && gt->RowsEqual(a.row, b.row);
  }
};

Result<ColumnTable> VecAggregate(const ColumnTable& in,
                                 const std::vector<std::string>& group_by,
                                 const std::vector<AggSpec>& aggs,
                                 const Schema& out_schema, VexecRuntime& rt) {
  std::vector<int> group_idx, agg_idx;
  std::vector<ValueType> agg_type;
  TQP_RETURN_IF_ERROR(ResolveAggColumns(in.schema(), group_by, aggs,
                                        &group_idx, &agg_idx, &agg_type));
  GroupTable gt{in, group_idx};
  // Group-key hashes morsel-parallel; accumulation stays serial so every
  // group's cells fold in global row order (floating-point sums are not
  // associative — the order is part of the contract).
  std::vector<uint64_t> gh(in.rows());
  rt.ForRows(in.rows(), [&](size_t b, size_t e) {
    for (size_t i = b; i < e; ++i) gh[i] = gt.HashRow(i);
  });

  if (ShouldSpill(in, rt)) {
    // Grace-partitioned aggregation: equal group keys share a hash, hence a
    // partition, and a partition's rows read back in ascending row order —
    // so per-partition accumulation folds each group in exactly the global
    // row order. Groups re-sort by first-occurrence row before emission.
    TraceSpan spill_span(rt.tracer, "vexec", "spill_aggregate");
    size_t parts = SpillPartitionCount(in.ApproxBytes(), rt.memory_budget);
    SpillPartitioner sp(parts);
    if (sp.ok()) {
      for (size_t i = 0; i < in.rows(); ++i) sp.Add(gh[i] % parts, in, i);
      sp.FlushAll();
      rt.spill.bytes += static_cast<int64_t>(sp.bytes_written());
      rt.spill.runs += static_cast<int64_t>(parts);
      struct GroupOut {
        uint32_t first_row;
        std::vector<Value> finished;
      };
      std::vector<GroupOut> groups;
      std::vector<uint32_t> orig;
      std::vector<std::vector<Value>> vals;
      for (size_t p = 0; p < parts; ++p) {
        sp.ReadPartition(p, &orig, &vals);
        ColumnTable part = TableFromRows(in.schema(), vals);
        GroupTable pgt{part, group_idx};
        std::unordered_map<GroupKey, uint32_t, GroupKeyHash, GroupKeyEq>
            group_of(16, GroupKeyHash{}, GroupKeyEq{&pgt});
        std::vector<uint32_t> first_orig;
        std::vector<std::vector<VecAggState>> states;
        for (uint32_t k = 0; k < part.rows(); ++k) {
          auto [it, inserted] = group_of.try_emplace(
              GroupKey{k, gh[orig[k]]}, static_cast<uint32_t>(states.size()));
          if (inserted) {
            first_orig.push_back(orig[k]);
            states.emplace_back(aggs.size());
          }
          std::vector<VecAggState>& st = states[it->second];
          for (size_t a = 0; a < aggs.size(); ++a) {
            CellRef cell;
            if (agg_idx[a] < 0) {
              cell.type = ValueType::kInt;
              cell.i = 1;
            } else {
              cell = part.col(static_cast<size_t>(agg_idx[a])).At(k);
            }
            st[a].Add(cell);
          }
        }
        for (size_t g = 0; g < states.size(); ++g) {
          GroupOut go;
          go.first_row = first_orig[g];
          for (size_t a = 0; a < aggs.size(); ++a) {
            go.finished.push_back(states[g][a].Finish(aggs[a].func,
                                                      agg_type[a]));
          }
          groups.push_back(std::move(go));
        }
      }
      std::sort(groups.begin(), groups.end(),
                [](const GroupOut& a, const GroupOut& b) {
                  return a.first_row < b.first_row;
                });
      ColumnTable out(out_schema);
      size_t pos = 0;
      for (int gi : group_idx) {
        ColumnVec& dst = out.mutable_col(pos++);
        for (const GroupOut& g : groups) {
          dst.AppendFrom(in.col(static_cast<size_t>(gi)), g.first_row);
        }
      }
      for (size_t a = 0; a < aggs.size(); ++a) {
        ColumnVec& dst = out.mutable_col(pos++);
        for (const GroupOut& g : groups) dst.AppendValue(g.finished[a]);
      }
      out.CommitRows(groups.size());
      return out;
    }
  }

  std::unordered_map<GroupKey, uint32_t, GroupKeyHash, GroupKeyEq> group_of(
      16, GroupKeyHash{}, GroupKeyEq{&gt});
  std::vector<uint32_t> first_row;  // groups in first-occurrence order
  std::vector<std::vector<VecAggState>> states;
  for (uint32_t i = 0; i < in.rows(); ++i) {
    auto [it, inserted] = group_of.try_emplace(
        GroupKey{i, gh[i]}, static_cast<uint32_t>(first_row.size()));
    if (inserted) {
      first_row.push_back(i);
      states.emplace_back(aggs.size());
    }
    std::vector<VecAggState>& st = states[it->second];
    for (size_t a = 0; a < aggs.size(); ++a) {
      CellRef cell;
      if (agg_idx[a] < 0) {
        cell.type = ValueType::kInt;
        cell.i = 1;
      } else {
        cell = in.col(static_cast<size_t>(agg_idx[a])).At(i);
      }
      st[a].Add(cell);
    }
  }

  ColumnTable out(out_schema);
  size_t pos = 0;
  for (int gi : group_idx) {
    ColumnVec& dst = out.mutable_col(pos++);
    for (uint32_t g : first_row) {
      dst.AppendFrom(in.col(static_cast<size_t>(gi)), g);
    }
  }
  for (size_t a = 0; a < aggs.size(); ++a) {
    ColumnVec& dst = out.mutable_col(pos++);
    for (size_t g = 0; g < first_row.size(); ++g) {
      dst.AppendValue(states[g][a].Finish(aggs[a].func, agg_type[a]));
    }
  }
  out.CommitRows(first_row.size());
  return out;
}

Result<ColumnTable> VecAggregateT(const ColumnTable& in,
                                  const std::vector<std::string>& group_by,
                                  const std::vector<AggSpec>& aggs,
                                  const Schema& out_schema,
                                  const VexecRuntime& rt) {
  std::vector<int> group_idx, agg_idx;
  std::vector<ValueType> agg_type;
  TQP_RETURN_IF_ERROR(ResolveAggColumns(in.schema(), group_by, aggs,
                                        &group_idx, &agg_idx, &agg_type));
  GroupTable gt{in, group_idx};
  // Hash and period precompute morsel-parallel; the per-group constancy
  // interval sweep appends output rows group-at-a-time and stays serial.
  std::vector<uint64_t> gh(in.rows());
  rt.ForRows(in.rows(), [&](size_t b, size_t e) {
    for (size_t i = b; i < e; ++i) gh[i] = gt.HashRow(i);
  });
  std::unordered_map<GroupKey, uint32_t, GroupKeyHash, GroupKeyEq> group_of(
      16, GroupKeyHash{}, GroupKeyEq{&gt});
  std::vector<uint32_t> first_row;
  std::vector<std::vector<uint32_t>> members;
  for (uint32_t i = 0; i < in.rows(); ++i) {
    auto [it, inserted] = group_of.try_emplace(
        GroupKey{i, gh[i]}, static_cast<uint32_t>(first_row.size()));
    if (inserted) {
      first_row.push_back(i);
      members.emplace_back();
    }
    members[it->second].push_back(i);
  }

  std::vector<Period> row_period(in.rows());
  rt.ForRows(in.rows(), [&](size_t b, size_t e) {
    for (size_t i = b; i < e; ++i) row_period[i] = in.RowPeriod(i);
  });

  ColumnTable out(out_schema);
  const size_t key_cols = group_idx.size();
  for (size_t g = 0; g < first_row.size(); ++g) {
    std::vector<TimePoint> cuts;
    for (uint32_t m : members[g]) {
      cuts.push_back(row_period[m].begin);
      cuts.push_back(row_period[m].end);
    }
    std::sort(cuts.begin(), cuts.end());
    cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());

    std::vector<Value> prev_aggs;
    Period open;
    bool has_open = false;
    auto flush = [&]() {
      if (!has_open) return;
      size_t pos = 0;
      for (size_t c = 0; c < key_cols; ++c) {
        out.mutable_col(pos++).AppendFrom(
            in.col(static_cast<size_t>(group_idx[c])), first_row[g]);
      }
      for (const Value& v : prev_aggs) {
        out.mutable_col(pos++).AppendValue(v);
      }
      out.mutable_col(pos++).AppendValue(Value::Time(open.begin));
      out.mutable_col(pos++).AppendValue(Value::Time(open.end));
      out.CommitRows(1);
      has_open = false;
    };
    for (size_t c = 0; c + 1 < cuts.size(); ++c) {
      Period elem(cuts[c], cuts[c + 1]);
      std::vector<VecAggState> st(aggs.size());
      int64_t covering = 0;
      for (uint32_t m : members[g]) {
        if (!row_period[m].Contains(elem)) continue;
        ++covering;
        for (size_t a = 0; a < aggs.size(); ++a) {
          CellRef cell;
          if (agg_idx[a] < 0) {
            cell.type = ValueType::kInt;
            cell.i = 1;
          } else {
            cell = in.col(static_cast<size_t>(agg_idx[a])).At(m);
          }
          st[a].Add(cell);
        }
      }
      if (covering == 0) {
        flush();
        continue;
      }
      std::vector<Value> cur;
      for (size_t a = 0; a < aggs.size(); ++a) {
        cur.push_back(st[a].Finish(aggs[a].func, agg_type[a]));
      }
      if (has_open && cur == prev_aggs && open.end == elem.begin) {
        open.end = elem.end;
      } else {
        flush();
        open = elem;
        prev_aggs = std::move(cur);
        has_open = true;
      }
    }
    flush();
  }
  return out;
}

// ---- DBMS order scramble --------------------------------------------------

// The columnar twin of SimulatedBackend::ScrambleRelation: the same seeded
// hash-key stable sort over row indices yields the same permutation.
ColumnTable VecScramble(const ColumnTable& in, uint64_t seed,
                        const VexecRuntime& rt) {
  std::vector<uint64_t> key(in.rows());
  rt.ForRows(in.rows(), [&](size_t b, size_t e) {
    for (size_t i = b; i < e; ++i) {
      key[i] = SimulatedBackend::MixHash(in.RowHash(i), seed);
    }
  });
  std::vector<uint32_t> order = SortIndices(
      in.rows(),
      [&](uint32_t a, uint32_t b) {
        if (key[a] != key[b]) return key[a] < key[b];
        return ColumnTable::RowCompare(in, a, in, b) < 0;
      },
      rt);
  return GatherTable(in, in.schema(), order, rt);
}

// ---- Vectorized hash join (σ over ×, fused) -------------------------------

// Collects the equality conjuncts Attr = Attr joining the two product sides
// from the predicate's AND tree, as (left column, right column) pairs
// resolved against the product schema (left columns first). Any other
// connective or comparison is simply not a key — the residual predicate is
// re-evaluated in full over the candidates, so keys only need to be
// *necessary* conditions.
void CollectEquiKeys(const ExprPtr& e, const Schema& combined,
                     size_t left_cols,
                     std::vector<std::pair<int, int>>* keys) {
  if (e == nullptr) return;
  if (e->kind() == ExprKind::kAnd) {
    for (const ExprPtr& c : e->children()) {
      CollectEquiKeys(c, combined, left_cols, keys);
    }
    return;
  }
  if (e->kind() != ExprKind::kCompare || e->compare_op() != CompareOp::kEq) {
    return;
  }
  const ExprPtr& a = e->children()[0];
  const ExprPtr& b = e->children()[1];
  if (a->kind() != ExprKind::kAttr || b->kind() != ExprKind::kAttr) return;
  int ia = combined.IndexOf(a->attr_name());
  int ib = combined.IndexOf(b->attr_name());
  if (ia < 0 || ib < 0) return;
  bool a_left = ia < static_cast<int>(left_cols);
  bool b_left = ib < static_cast<int>(left_cols);
  if (a_left == b_left) return;  // both keys on one side: not a join key
  int li = a_left ? ia : ib;
  int ri = (a_left ? ib : ia) - static_cast<int>(left_cols);
  keys->emplace_back(li, ri);
}

// Builds the (left, right) candidate pairs whose key columns compare equal,
// in left-major order with ascending right rows — a subsequence of the
// Cartesian product's pair order, so the residual selection sees its
// surviving rows in exactly the order σ(×) would emit them. A row with a
// NULL key never satisfies `=` (NULL comparisons are not truthy), so both
// sides drop NULL keys up front. Key equality is CellRef::Compare == 0 —
// the same cross-type numeric equality the predicate's `=` uses — with the
// Compare-consistent ClassHash, so every satisfying pair is a candidate.
void HashJoinCandidates(const ColumnTable& l, const ColumnTable& r,
                        const std::vector<std::pair<int, int>>& keys,
                        const VexecRuntime& rt, std::vector<uint32_t>* li,
                        std::vector<uint32_t>* ri) {
  auto key_hash = [&](const ColumnTable& t, size_t row, bool left,
                      uint64_t* out) {
    uint64_t seed = 0x51ab1e5;
    for (const auto& [lc, rc] : keys) {
      CellRef c = t.col(static_cast<size_t>(left ? lc : rc)).At(row);
      if (c.is_null()) return false;
      seed ^= c.ClassHash() + 0x9e3779b97f4a7c15ULL + (seed << 6) +
              (seed >> 2);
    }
    *out = seed;
    return true;
  };
  std::vector<uint64_t> rh(r.rows());
  std::vector<uint8_t> rvalid(r.rows());
  rt.ForRows(r.rows(), [&](size_t b, size_t e) {
    for (size_t j = b; j < e; ++j) {
      rvalid[j] = key_hash(r, j, false, &rh[j]) ? 1 : 0;
    }
  });
  // Bucketed build side: power-of-two bucket count, counting-sort scatter
  // so each bucket lists its rows in ascending row order.
  size_t nb = 16;
  while (nb < 2 * std::max<size_t>(1, r.rows())) nb <<= 1;
  std::vector<uint32_t> bucket_start(nb + 1, 0);
  for (size_t j = 0; j < r.rows(); ++j) {
    if (rvalid[j]) ++bucket_start[(rh[j] & (nb - 1)) + 1];
  }
  for (size_t b = 0; b < nb; ++b) bucket_start[b + 1] += bucket_start[b];
  std::vector<uint32_t> bucket_rows(bucket_start[nb]);
  {
    std::vector<uint32_t> cur(bucket_start.begin(), bucket_start.end() - 1);
    for (size_t j = 0; j < r.rows(); ++j) {
      if (rvalid[j]) {
        bucket_rows[cur[rh[j] & (nb - 1)]++] = static_cast<uint32_t>(j);
      }
    }
  }
  auto keys_equal = [&](size_t i, size_t j) {
    for (const auto& [lc, rc] : keys) {
      if (CellRef::Compare(l.col(static_cast<size_t>(lc)).At(i),
                           r.col(static_cast<size_t>(rc)).At(j)) != 0) {
        return false;
      }
    }
    return true;
  };
  size_t grain = rt.morsel_rows == 0 ? 1 : rt.morsel_rows;
  std::vector<std::vector<uint32_t>> lfr(
      std::max<size_t>(1, rt.NumMorsels(l.rows())));
  std::vector<std::vector<uint32_t>> rfr(lfr.size());
  rt.ForRows(l.rows(), [&](size_t mb, size_t me) {
    std::vector<uint32_t>& lf = lfr[mb / grain];
    std::vector<uint32_t>& rf = rfr[mb / grain];
    for (size_t i = mb; i < me; ++i) {
      uint64_t h;
      if (!key_hash(l, i, true, &h)) continue;
      size_t b = h & (nb - 1);
      for (uint32_t k = bucket_start[b]; k < bucket_start[b + 1]; ++k) {
        uint32_t j = bucket_rows[k];
        if (rh[j] == h && keys_equal(i, j)) {
          lf.push_back(static_cast<uint32_t>(i));
          rf.push_back(j);
        }
      }
    }
  });
  *li = ConcatFrags(lfr);
  *ri = ConcatFrags(rfr);
}

// ---- The plan-driver policy -----------------------------------------------

/// The vectorized executor's side of the plan driver (exec/plan_driver.h):
/// rows are ColumnTables, operators are the Vec* kernels above, and each
/// operator output counts as one columnar materialization.
struct VecPolicy {
  using Rows = ColumnTable;
  static constexpr const char* kCategory = "vexec";
  /// Folded into the result-cache contract fingerprint; distinct from the
  /// reference evaluator's tag so the executors never splice each other's
  /// cut-point materializations (only their root results are contractually
  /// identical). The vectorized pipeline itself is byte-deterministic across
  /// thread counts, so one tag covers every VexecOptions setting. Entries
  /// store the row Relation (ColumnTable's ToRelation/FromRelation round
  /// trip is byte-identical).
  static constexpr uint64_t kExecutorTag = 2;

  const Catalog& catalog;
  const VexecOptions& options;
  VexecRuntime& rt;

  static size_t RowCount(const ColumnTable& t) { return t.rows(); }
  static ColumnTable FromRelation(const Relation& r) {
    return ColumnTable::FromRelation(r);
  }
  static Relation ToRelation(const ColumnTable& t) { return t.ToRelation(); }

  void Scramble(ColumnTable* t, uint64_t seed, ExecStats* stats) {
    *t = VecScramble(*t, seed, rt);
    if (stats != nullptr) ++stats->vec_materializations;
  }

  // Batches consumed (input rows, or the scanned rows for leaves, per
  // batch_size) and one columnar materialization per operator output.
  void AccountExtra(size_t consumed_rows, size_t out_rows, ExecStats* stats,
                    ProfileNode* prof) {
    const int64_t batches = static_cast<int64_t>(
        (consumed_rows + options.batch_size - 1) / options.batch_size);
    if (prof != nullptr) prof->batches += batches;
    if (stats == nullptr) return;
    stats->vec_batches += batches;
    stats->vec_rows += static_cast<int64_t>(out_rows);
    ++stats->vec_materializations;
  }

  // σ over × with equality conjuncts across the sides, fused into a
  // partitioned hash join: build buckets on the right input's keys, probe
  // with the left morsels, materialize only the key-equal candidate pairs
  // (a superset of the satisfying rows, in product order), and re-evaluate
  // the full predicate over them. VecEval is per-row pure, so the
  // surviving list — and every stat — is byte-identical to the unfused
  // σ(×). Fusion is skipped when the DBMS scramble would observe the
  // unfiltered product's order.
  std::optional<Result<ColumnTable>> PreChildren(PlanDriver<VecPolicy>& d,
                                                 const PlanPtr& select,
                                                 ProfileNode* prof);

  Result<ColumnTable> Apply(const PlanPtr& node, const NodeInfo& info,
                            std::vector<ColumnTable>& in) {
    switch (node->kind()) {
      case OpKind::kScan: {
        const CatalogEntry* e = catalog.Find(node->rel_name());
        if (e == nullptr) return Status::NotFound(node->rel_name());
        return VecScan(*e, rt);
      }
      case OpKind::kSelect:
        return VecSelect(in[0], node->predicate(), options.batch_size, rt);
      case OpKind::kProject:
        return VecProject(in[0], node->projections(), info.schema,
                          options.batch_size, rt);
      case OpKind::kUnionAll:
        return VecUnionAll(in[0], in[1], info.schema, rt);
      case OpKind::kUnion:
        return VecUnion(in[0], in[1], info.schema, rt);
      case OpKind::kProduct:
        return VecProduct(in[0], in[1], info.schema, rt);
      case OpKind::kDifference:
        return VecDifference(in[0], in[1], rt);
      case OpKind::kAggregate:
        return VecAggregate(in[0], node->group_by(), node->aggregates(),
                            info.schema, rt);
      case OpKind::kRdup:
        return VecRdup(in[0], info.schema, rt);
      case OpKind::kProductT:
        return VecProductT(in[0], in[1], info.schema, rt);
      case OpKind::kDifferenceT:
        return VecDifferenceT(in[0], in[1], rt);
      case OpKind::kAggregateT:
        return VecAggregateT(in[0], node->group_by(), node->aggregates(),
                             info.schema, rt);
      case OpKind::kRdupT:
        return VecRdupT(in[0], rt);
      case OpKind::kUnionT:
        return VecUnionT(in[0], in[1], rt);
      case OpKind::kSort:
        return VecSort(std::move(in[0]), node->sort_spec(), rt);
      case OpKind::kCoalesce:
        return VecCoalesce(in[0], rt);
      case OpKind::kTransferS:
      case OpKind::kTransferD:
        return std::move(in[0]);
    }
    return Status::Error("unreachable operator kind");
  }
};

std::optional<Result<ColumnTable>> VecPolicy::PreChildren(
    PlanDriver<VecPolicy>& d, const PlanPtr& select, ProfileNode* prof) {
  if (select->kind() != OpKind::kSelect ||
      select->child(0)->kind() != OpKind::kProduct) {
    return std::nullopt;
  }
  const PlanPtr& product = select->child(0);
  const NodeInfo& sinfo = d.ann().info(select.get());
  const NodeInfo& pinfo = d.ann().info(product.get());
  if (d.config().dbms_scrambles_order && pinfo.site == Site::kDbms) {
    return std::nullopt;
  }
  size_t left_cols = d.ann().info(product->child(0).get()).schema.size();
  std::vector<std::pair<int, int>> keys;
  CollectEquiKeys(select->predicate(), pinfo.schema, left_cols, &keys);
  if (keys.empty()) return std::nullopt;

  // The fused product never runs through the driver's Eval, so its profile
  // node is stamped here: same shape as the unfused plan, with the join's
  // wall time attributed to the selection (its self time).
  ProfileNode* pprof = nullptr;
  ProfileNode* lp = nullptr;
  ProfileNode* rp = nullptr;
  if (prof != nullptr) {
    prof->children.emplace_back();
    pprof = &prof->children.back();
    pprof->op = product->Describe();
    pprof->kind = OpKindName(product->kind());
    pprof->children.resize(2);
    lp = &pprof->children[0];
    rp = &pprof->children[1];
  }
  TQP_ASSIGN_OR_RETURN(l, d.Eval(product->child(0), lp));
  TQP_ASSIGN_OR_RETURN(r, d.Eval(product->child(1), rp));
  std::vector<uint32_t> li, ri;
  HashJoinCandidates(l, r, keys, rt, &li, &ri);
  ColumnTable cand(pinfo.schema);
  size_t lc = l.num_cols();
  rt.ForTasks(cand.num_cols(), [&](size_t pos) {
    if (pos < lc) {
      cand.mutable_col(pos).AppendGather(l.col(pos), li.data(), li.size());
    } else {
      cand.mutable_col(pos).AppendGather(r.col(pos - lc), ri.data(),
                                         ri.size());
    }
  });
  cand.CommitRows(li.size());
  ColumnTable out =
      VecSelect(cand, select->predicate(), options.batch_size, rt);
  // Simulated costs are the *unfused* plan's: the product is charged for
  // its full |l|*|r| output, the selection for consuming it.
  double in1 = static_cast<double>(l.rows());
  double in2 = static_cast<double>(r.rows());
  d.AccountNode(product.get(), pinfo, in1, in2, l.rows() * r.rows(), pprof);
  d.AccountNode(select.get(), sinfo, in1 * in2, 0.0, out.rows(), prof);
  if (pprof != nullptr) {
    // Modeled output (the product never materialized); zero self time —
    // its wall is its children's, the join work lands in the selection.
    pprof->rows_out = static_cast<int64_t>(l.rows() * r.rows());
    for (const ProfileNode& c : pprof->children) pprof->wall_ns += c.wall_ns;
  }
  d.MaybeScramble(select.get(), sinfo, &out);
  return Result<ColumnTable>(std::move(out));
}

}  // namespace

Result<Relation> ExecuteVectorized(const AnnotatedPlan& plan,
                                   const EngineConfig& config,
                                   ExecStats* stats,
                                   const VexecOptions& options,
                                   ProfileNode* profile) {
  VexecOptions opts = options;
  if (opts.batch_size == 0) opts.batch_size = 1;
  if (opts.morsel_rows == 0) opts.morsel_rows = 1;
  if (opts.threads == 0) opts.threads = 1;
  std::unique_ptr<WorkStealingPool> pool;
  VexecRuntime rt;
  rt.morsel_rows = opts.morsel_rows;
  rt.memory_budget = opts.memory_budget;
  rt.tracer = config.tracer;
  if (opts.threads > 1) {
    pool = std::make_unique<WorkStealingPool>(opts.threads);
    rt.pool = pool.get();
  }
  VecPolicy policy{plan.catalog(), opts, rt};
  PlanDriver<VecPolicy> driver(plan, config, stats, policy);
  TQP_ASSIGN_OR_RETURN(table, driver.Eval(plan.plan(), profile));
  Relation out = VecToRelation(table, rt);
  out.set_order(plan.root_info().order);
  if (stats != nullptr) {
    stats->spill_bytes += rt.spill.bytes;
    stats->spill_runs += rt.spill.runs;
    if (pool != nullptr) {
      stats->morsels += static_cast<int64_t>(pool->morsels_executed());
      stats->steals += static_cast<int64_t>(pool->steals());
    }
  }
  return out;
}

Result<Relation> ExecuteVectorizedPlan(const PlanPtr& plan,
                                       const Catalog& catalog,
                                       const EngineConfig& config,
                                       ExecStats* stats,
                                       const VexecOptions& options) {
  TQP_ASSIGN_OR_RETURN(
      ann, AnnotatedPlan::Make(plan, &catalog, QueryContract::Multiset()));
  return ExecuteVectorized(ann, config, stats, options);
}

}  // namespace tqp
