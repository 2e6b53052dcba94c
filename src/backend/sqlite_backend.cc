#include "backend/sqlite_backend.h"

#ifdef TQP_HAVE_SQLITE3

#include <sqlite3.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <functional>
#include <mutex>

#include "backend/sql_serializer.h"
#include "core/hash.h"
#include "exec/evaluator.h"

namespace tqp {

namespace {

// Window functions (ROW_NUMBER) arrived in 3.25.0; the serializer's list
// semantics depend on them.
constexpr int kMinSqliteVersion = 3025000;

const char* SqlType(ValueType t) {
  switch (t) {
    case ValueType::kInt:
    case ValueType::kTime:
      return " INTEGER";
    case ValueType::kDouble:
      return " REAL";
    case ValueType::kString:
      return " TEXT";
    case ValueType::kNull:
      return "";  // no affinity; the column only ever holds NULLs
  }
  return "";
}

Status ExecRaw(sqlite3* db, const std::string& sql) {
  char* err = nullptr;
  if (sqlite3_exec(db, sql.c_str(), nullptr, nullptr, &err) != SQLITE_OK) {
    std::string msg = err != nullptr ? err : "unknown sqlite error";
    sqlite3_free(err);
    return Status::Error("sqlite: " + msg);
  }
  return Status::OK();
}

int BindValue(sqlite3_stmt* st, int idx, const Value& v) {
  switch (v.type()) {
    case ValueType::kNull:
      return sqlite3_bind_null(st, idx);
    case ValueType::kInt:
      return sqlite3_bind_int64(st, idx, v.AsInt());
    case ValueType::kTime:
      return sqlite3_bind_int64(st, idx, v.AsTime());
    case ValueType::kDouble:
      return sqlite3_bind_double(st, idx, v.AsDouble());
    case ValueType::kString:
      return sqlite3_bind_text(st, idx, v.AsString().c_str(),
                               static_cast<int>(v.AsString().size()),
                               SQLITE_TRANSIENT);
  }
  return SQLITE_MISUSE;
}

Value DecodeColumn(sqlite3_stmt* st, int i, ValueType t) {
  if (sqlite3_column_type(st, i) == SQLITE_NULL) return Value::Null();
  switch (t) {
    case ValueType::kInt:
      return Value::Int(sqlite3_column_int64(st, i));
    case ValueType::kTime:
      return Value::Time(sqlite3_column_int64(st, i));
    case ValueType::kDouble:
      return Value::Double(sqlite3_column_double(st, i));
    case ValueType::kString:
      return Value::String(
          reinterpret_cast<const char*>(sqlite3_column_text(st, i)));
    case ValueType::kNull:
      return Value::Null();
  }
  return Value::Null();
}

/// Digest of the DBMS-site relations: names, schemas, and each relation's
/// catalog content digest (computed once when the relation was stored), so
/// an unchanged catalog costs O(#relations) to recognize. This — not the
/// catalog pointer or version — keys the mirror, so a file-backed mirror
/// written by another process (or an unrelated catalog object with
/// identical contents) is recognized. The seed names the formula: a mirror
/// stamped under another one never matches and is reloaded once.
uint64_t CatalogContentFingerprint(const Catalog& catalog) {
  uint64_t h = 0x7ab1e5d16e57;
  for (const std::string& name : catalog.Names()) {
    const CatalogEntry* e = catalog.Find(name);
    if (e == nullptr || e->site != Site::kDbms) continue;
    h = HashCombine(h, std::hash<std::string>{}(name));
    for (const Attribute& a : e->data.schema().attrs()) {
      h = HashCombine(h, std::hash<std::string>{}(a.name));
      h = HashCombine(h, static_cast<uint64_t>(a.type));
    }
    h = HashCombine(h, catalog.content_digest(name));
  }
  return h;
}

}  // namespace

struct SqliteBackend::Impl {
  sqlite3* db = nullptr;
  // One statement at a time: sqlite connections are not meant for
  // concurrent statement execution, and a single coarse lock keeps the
  // backend trivially TSan-clean under the multi-tenant engine.
  mutable std::mutex mu;
  uint64_t mirrored_fp = 0;  // content fingerprint of the current mirror
  int64_t mirror_loads = 0;

  Status CreateTableLocked(const std::string& table, const Schema& schema) {
    TQP_RETURN_IF_ERROR(ExecRaw(db, "DROP TABLE IF EXISTS \"" + table + "\""));
    std::string sql = "CREATE TABLE \"" + table + "\" (";
    for (size_t i = 0; i < schema.size(); ++i) {
      if (i) sql += ", ";
      sql += "c" + std::to_string(i) + SqlType(schema.attr(i).type);
    }
    sql += ")";
    return ExecRaw(db, sql);
  }

  Status LoadLocked(const std::string& table, const Relation& rows) {
    std::string sql = "INSERT INTO \"" + table + "\" VALUES (";
    for (size_t i = 0; i < rows.schema().size(); ++i) {
      sql += i ? ", ?" : "?";
    }
    sql += ")";
    sqlite3_stmt* st = nullptr;
    if (sqlite3_prepare_v2(db, sql.c_str(), -1, &st, nullptr) != SQLITE_OK) {
      return Status::Error(std::string("sqlite prepare: ") +
                           sqlite3_errmsg(db));
    }
    for (const Tuple& t : rows.tuples()) {
      for (size_t i = 0; i < t.size(); ++i) {
        if (BindValue(st, static_cast<int>(i) + 1, t.at(i)) != SQLITE_OK) {
          sqlite3_finalize(st);
          return Status::Error(std::string("sqlite bind: ") +
                               sqlite3_errmsg(db));
        }
      }
      if (sqlite3_step(st) != SQLITE_DONE) {
        sqlite3_finalize(st);
        return Status::Error(std::string("sqlite insert: ") +
                             sqlite3_errmsg(db));
      }
      sqlite3_reset(st);
    }
    sqlite3_finalize(st);
    return Status::OK();
  }

  Result<Relation> ExecuteSqlLocked(const std::string& sql,
                                    const std::vector<Value>& params,
                                    const Schema& out_schema) {
    sqlite3_stmt* st = nullptr;
    if (sqlite3_prepare_v2(db, sql.c_str(), -1, &st, nullptr) != SQLITE_OK) {
      return Status::Error(std::string("sqlite prepare: ") +
                           sqlite3_errmsg(db));
    }
    for (size_t i = 0; i < params.size(); ++i) {
      if (BindValue(st, static_cast<int>(i) + 1, params[i]) != SQLITE_OK) {
        sqlite3_finalize(st);
        return Status::Error(std::string("sqlite bind: ") +
                             sqlite3_errmsg(db));
      }
    }
    size_t width = out_schema.size();
    Relation out(out_schema);
    int rc;
    while ((rc = sqlite3_step(st)) == SQLITE_ROW) {
      if (static_cast<size_t>(sqlite3_column_count(st)) != width) {
        sqlite3_finalize(st);
        return Status::Error("sqlite: column count mismatch");
      }
      Tuple t;
      for (size_t i = 0; i < width; ++i) {
        t.push_back(DecodeColumn(st, static_cast<int>(i),
                                 out_schema.attr(i).type));
      }
      out.Append(std::move(t));
    }
    if (rc != SQLITE_DONE) {
      Status s = Status::Error(std::string("sqlite step: ") +
                               sqlite3_errmsg(db));
      sqlite3_finalize(st);
      return s;
    }
    sqlite3_finalize(st);
    return out;
  }
};

bool SqliteBackend::Available() {
  return sqlite3_libversion_number() >= kMinSqliteVersion;
}

SqliteBackend::SqliteBackend() : impl_(new Impl()) {}

SqliteBackend::~SqliteBackend() {
  if (impl_ != nullptr && impl_->db != nullptr) sqlite3_close(impl_->db);
}

Result<std::unique_ptr<SqliteBackend>> SqliteBackend::Open(
    const std::string& db_path) {
  if (!Available()) {
    return Status::Error("system sqlite3 too old (need >= 3.25 for window "
                         "functions)");
  }
  std::string target = db_path.empty() ? ":memory:" : db_path;
  sqlite3* db = nullptr;
  int flags = SQLITE_OPEN_READWRITE | SQLITE_OPEN_CREATE |
              SQLITE_OPEN_FULLMUTEX;
  if (sqlite3_open_v2(target.c_str(), &db, flags, nullptr) != SQLITE_OK) {
    std::string msg = db != nullptr ? sqlite3_errmsg(db) : "open failed";
    if (db != nullptr) sqlite3_close(db);
    return Status::Error("sqlite open '" + target + "': " + msg);
  }
  std::unique_ptr<SqliteBackend> be(new SqliteBackend());
  be->impl_->db = db;
  TQP_RETURN_IF_ERROR(ExecRaw(
      db, "CREATE TABLE IF NOT EXISTS tqp_meta (key TEXT PRIMARY KEY, "
          "value TEXT)"));
  // A file-backed database may already mirror a catalog from an earlier
  // process; adopt its fingerprint so SyncCatalog can reuse it.
  sqlite3_stmt* st = nullptr;
  if (sqlite3_prepare_v2(db,
                         "SELECT value FROM tqp_meta WHERE key='catalog_fp'",
                         -1, &st, nullptr) == SQLITE_OK) {
    if (sqlite3_step(st) == SQLITE_ROW) {
      const char* v = reinterpret_cast<const char*>(sqlite3_column_text(st, 0));
      if (v != nullptr) {
        be->impl_->mirrored_fp = std::strtoull(v, nullptr, 16);
      }
    }
    sqlite3_finalize(st);
  }
  return be;
}

Status SqliteBackend::SyncCatalog(const Catalog& catalog) {
  uint64_t fp = CatalogContentFingerprint(catalog);
  std::lock_guard<std::mutex> lock(impl_->mu);
  if (fp == impl_->mirrored_fp) return Status::OK();

  Status st = [&]() -> Status {
    TQP_RETURN_IF_ERROR(ExecRaw(impl_->db, "BEGIN IMMEDIATE"));
    // Drop every stale mirror table, then rebuild from the catalog.
    std::vector<std::string> stale;
    {
      sqlite3_stmt* q = nullptr;
      if (sqlite3_prepare_v2(impl_->db,
                             "SELECT name FROM sqlite_master WHERE "
                             "type='table' AND name LIKE 'rel!_%' ESCAPE '!'",
                             -1, &q, nullptr) != SQLITE_OK) {
        return Status::Error(std::string("sqlite prepare: ") +
                             sqlite3_errmsg(impl_->db));
      }
      while (sqlite3_step(q) == SQLITE_ROW) {
        stale.emplace_back(
            reinterpret_cast<const char*>(sqlite3_column_text(q, 0)));
      }
      sqlite3_finalize(q);
    }
    for (const std::string& t : stale) {
      TQP_RETURN_IF_ERROR(ExecRaw(impl_->db, "DROP TABLE \"" + t + "\""));
    }
    for (const std::string& name : catalog.Names()) {
      const CatalogEntry* e = catalog.Find(name);
      if (e == nullptr || e->site != Site::kDbms) continue;
      std::string table = SqlSerializer::MirrorTable(name);
      TQP_RETURN_IF_ERROR(impl_->CreateTableLocked(table, e->data.schema()));
      TQP_RETURN_IF_ERROR(impl_->LoadLocked(table, e->data));
    }
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(fp));
    TQP_RETURN_IF_ERROR(
        ExecRaw(impl_->db,
                std::string("INSERT INTO tqp_meta (key, value) VALUES "
                            "('catalog_fp', '") +
                    buf +
                    "') ON CONFLICT(key) DO UPDATE SET value=excluded.value"));
    return ExecRaw(impl_->db, "COMMIT");
  }();
  if (!st.ok()) {
    (void)ExecRaw(impl_->db, "ROLLBACK");
    return st;
  }
  impl_->mirrored_fp = fp;
  ++impl_->mirror_loads;
  return Status::OK();
}

bool SqliteBackend::CanPush(const PlanPtr& plan,
                            const AnnotatedPlan& ann) const {
  return SqlSerializer(ann).CanSerialize(plan);
}

Result<Relation> SqliteBackend::ExecuteSubplan(const PlanPtr& plan,
                                               const AnnotatedPlan& ann) {
  SqlSerializer ser(ann);
  TQP_ASSIGN_OR_RETURN(ss, ser.Serialize(plan));
  return ExecuteSql(ss.sql, ss.params, ann.info(plan.get()).schema);
}

Status SqliteBackend::CreateTable(const std::string& table,
                                  const Schema& schema) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->CreateTableLocked(table, schema);
}

Status SqliteBackend::Load(const std::string& table, const Relation& rows) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->LoadLocked(table, rows);
}

Result<Relation> SqliteBackend::ExecuteSql(const std::string& sql,
                                           const std::vector<Value>& params,
                                           const Schema& out_schema) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->ExecuteSqlLocked(sql, params, out_schema);
}

int64_t SqliteBackend::mirror_loads() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->mirror_loads;
}

// ---- Calibration --------------------------------------------------------

namespace {

double TimeUs(const std::function<void()>& fn) {
  fn();  // warm-up
  double best = 1e18;
  for (int rep = 0; rep < 3; ++rep) {
    auto t0 = std::chrono::steady_clock::now();
    fn();
    auto t1 = std::chrono::steady_clock::now();
    double us =
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count() /
        1000.0;
    best = std::min(best, us);
  }
  return std::max(best, 0.5);  // clock-resolution floor
}

/// Quantize a measured ratio to the nearest power of two in [1/64, 64]:
/// run-to-run timing jitter collapses to a stable bucket, so the profile
/// fingerprint (and with it plan-cache validity) is reproducible.
double QuantizeFactor(double f) {
  f = std::max(1.0 / 64.0, std::min(64.0, f));
  int e = static_cast<int>(std::lround(std::log2(f)));
  return std::ldexp(1.0, e);
}

}  // namespace

BackendCostProfile SqliteBackend::Calibrate(const EngineConfig& config) {
  BackendCostProfile p;
  p.transfer_cost_per_tuple = config.transfer_cost_per_tuple;
  for (size_t k = 0; k < kOpKindCount; ++k) {
    p.dbms_op_factor[k] = IsTemporalOp(static_cast<OpKind>(k))
                              ? config.dbms_temporal_penalty
                              : 1.0;
  }

  // Deterministic conventional probe data.
  Schema ps(std::vector<Attribute>{{"K", ValueType::kInt},
                                   {"V", ValueType::kInt},
                                   {"S", ValueType::kString}});
  Relation probe(ps);
  for (int i = 0; i < 1500; ++i) {
    Tuple t;
    t.push_back(Value::Int(i % 97));
    t.push_back(Value::Int((i * 7) % 1001));
    t.push_back(Value::String("s" + std::to_string(i % 13)));
    probe.Append(std::move(t));
  }
  Relation small(ps);
  for (int i = 0; i < 150; ++i) {
    Tuple t;
    t.push_back(Value::Int(i % 23));
    t.push_back(Value::Int((i * 11) % 311));
    t.push_back(Value::String("t" + std::to_string(i % 7)));
    small.Append(std::move(t));
  }
  if (!CreateTable("cal_probe", ps).ok() || !Load("cal_probe", probe).ok() ||
      !CreateTable("cal_small", ps).ok() || !Load("cal_small", small).ok()) {
    return p;  // probes unavailable; keep the constant model
  }

  // One representative per cost class, stratum vs backend, with the fetch
  // cost included on the backend side (that is what pushdown pays).
  struct ClassProbe {
    std::vector<OpKind> kinds;
    std::function<void()> stratum;
    std::function<void()> backend;
  };
  ExprPtr sel_pred = Expr::Compare(CompareOp::kLt, Expr::Attr("V"),
                                   Expr::Const(Value::Int(500)));
  Schema pair_schema(std::vector<Attribute>{{"K1", ValueType::kInt},
                                            {"V1", ValueType::kInt},
                                            {"S1", ValueType::kString},
                                            {"K2", ValueType::kInt},
                                            {"V2", ValueType::kInt},
                                            {"S2", ValueType::kString}});
  Schema agg_schema(std::vector<Attribute>{{"K", ValueType::kInt},
                                           {"n", ValueType::kInt},
                                           {"sv", ValueType::kInt}});
  Schema count_schema(std::vector<Attribute>{{"n", ValueType::kInt}});
  SortSpec sort_spec{{"V", true}, {"K", true}};
  std::vector<AggSpec> aggs{{AggFunc::kCount, "", "n"},
                            {AggFunc::kSum, "V", "sv"}};
  auto run_sql = [this](const std::string& sql, const Schema& out) {
    auto r = ExecuteSql(sql, {}, out);
    (void)r;
  };
  std::vector<ClassProbe> probes;
  probes.push_back(
      {{OpKind::kScan, OpKind::kSelect, OpKind::kProject, OpKind::kUnionAll},
       [&] { EvalSelect(probe, sel_pred); },
       [&] { run_sql("SELECT c0, c1, c2 FROM cal_probe WHERE c1 < 500", ps); }});
  probes.push_back(
      {{OpKind::kUnion, OpKind::kDifference, OpKind::kRdup},
       [&] { EvalRdup(probe, ps); },
       [&] {
         run_sql("SELECT c0, c1, c2 FROM cal_probe GROUP BY c0, c1, c2", ps);
       }});
  probes.push_back(
      {{OpKind::kProduct},
       [&] { EvalProduct(small, small, pair_schema); },
       [&] {
         run_sql("SELECT a.c0, a.c1, a.c2, b.c0, b.c1, b.c2 FROM cal_small "
                 "AS a, cal_small AS b",
                 pair_schema);
       }});
  probes.push_back(
      {{OpKind::kSort},
       [&] { EvalSort(probe, sort_spec); },
       [&] {
         run_sql("SELECT c0, c1, c2 FROM cal_probe ORDER BY c1, c0", ps);
       }});
  probes.push_back(
      {{OpKind::kAggregate},
       [&] {
         auto r = EvalAggregate(probe, {"K"}, aggs, agg_schema);
         (void)r;
       },
       [&] {
         run_sql("SELECT c0, COUNT(*), CAST(TOTAL(c1) AS INTEGER) FROM "
                 "cal_probe GROUP BY c0",
                 agg_schema);
       }});

  for (const ClassProbe& cp : probes) {
    double t_stratum = TimeUs(cp.stratum);
    double t_backend = TimeUs(cp.backend);
    // The cost model charges stratum work `units * stratum_cpu_factor` and
    // DBMS work `units * factor`; equal wall time therefore means
    // factor = stratum_cpu_factor * (t_backend / t_stratum).
    double f =
        QuantizeFactor(config.stratum_cpu_factor * t_backend / t_stratum);
    for (OpKind k : cp.kinds) {
      p.dbms_op_factor[static_cast<size_t>(k)] = f;
    }
  }
  (void)ExecuteSql("DROP TABLE IF EXISTS cal_probe", {}, count_schema);
  (void)ExecuteSql("DROP TABLE IF EXISTS cal_small", {}, count_schema);

  uint64_t fp = 0x5ca1e0b5;
  for (size_t k = 0; k < kOpKindCount; ++k) {
    fp = HashCombine(fp, static_cast<uint64_t>(
                             std::lround(std::log2(p.dbms_op_factor[k]) * 4)));
  }
  fp = HashCombine(fp, static_cast<uint64_t>(p.transfer_cost_per_tuple * 16));
  p.fingerprint = fp;
  p.calibrated = true;
  return p;
}

}  // namespace tqp

#else  // !TQP_HAVE_SQLITE3

namespace tqp {

struct SqliteBackend::Impl {};

bool SqliteBackend::Available() { return false; }

SqliteBackend::SqliteBackend() = default;
SqliteBackend::~SqliteBackend() = default;

Result<std::unique_ptr<SqliteBackend>> SqliteBackend::Open(
    const std::string& db_path) {
  (void)db_path;
  return Status::Error("built without sqlite3 (install libsqlite3-dev)");
}

Status SqliteBackend::SyncCatalog(const Catalog&) {
  return Status::Error("sqlite3 unavailable");
}
bool SqliteBackend::CanPush(const PlanPtr&, const AnnotatedPlan&) const {
  return false;
}
Result<Relation> SqliteBackend::ExecuteSubplan(const PlanPtr&,
                                               const AnnotatedPlan&) {
  return Status::Error("sqlite3 unavailable");
}
BackendCostProfile SqliteBackend::Calibrate(const EngineConfig&) {
  return BackendCostProfile{};
}
Status SqliteBackend::CreateTable(const std::string&, const Schema&) {
  return Status::Error("sqlite3 unavailable");
}
Status SqliteBackend::Load(const std::string&, const Relation&) {
  return Status::Error("sqlite3 unavailable");
}
Result<Relation> SqliteBackend::ExecuteSql(const std::string&,
                                           const std::vector<Value>&,
                                           const Schema&) {
  return Status::Error("sqlite3 unavailable");
}
int64_t SqliteBackend::mirror_loads() const { return 0; }

}  // namespace tqp

#endif  // TQP_HAVE_SQLITE3
