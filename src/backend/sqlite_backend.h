// SQL pushdown to an embedded SQLite database (system sqlite3).
//
// DBMS-site catalog relations are mirrored as positional tables
// ("rel_<name>", columns c0..cN-1, rowid = list position); conventional cut
// subplans run as one serialized SQL statement each (sql_serializer.h). The
// mirror is keyed on a content fingerprint of the DBMS-site relations
// (names, schemas and per-relation Catalog::content_digest values), so a
// repeated sync is an O(#relations) no-op and a file-backed database
// written by an earlier process is reused across restarts without
// reloading.
//
// Compiled against system sqlite3 when available (TQP_HAVE_SQLITE3,
// detected by CMake); otherwise Available() is false and Open() fails,
// and everything falls back to the SimulatedBackend.
#ifndef TQP_BACKEND_SQLITE_BACKEND_H_
#define TQP_BACKEND_SQLITE_BACKEND_H_

#include <memory>
#include <string>
#include <vector>

#include "backend/backend.h"

namespace tqp {

class SqliteBackend : public Backend {
 public:
  /// True iff this build links sqlite3 with window-function support.
  static bool Available();

  /// Opens a backend over a private in-memory database (empty path) or a
  /// file-backed one whose catalog mirror survives restarts.
  static Result<std::unique_ptr<SqliteBackend>> Open(
      const std::string& db_path = "");

  ~SqliteBackend() override;

  BackendKind kind() const override { return BackendKind::kSqlite; }
  Status SyncCatalog(const Catalog& catalog) override;
  bool SupportsPushdown() const override { return true; }
  bool CanPush(const PlanPtr& plan, const AnnotatedPlan& ann) const override;
  Result<Relation> ExecuteSubplan(const PlanPtr& plan,
                                  const AnnotatedPlan& ann) override;
  BackendCostProfile Calibrate(const EngineConfig& config) override;
  Status CreateTable(const std::string& table, const Schema& schema) override;
  Status Load(const std::string& table, const Relation& rows) override;
  Result<Relation> ExecuteSql(const std::string& sql,
                              const std::vector<Value>& params,
                              const Schema& out_schema) override;

  /// Number of full catalog mirrors loaded since Open. Stays 0 when a
  /// file-backed mirror from an earlier process was reused.
  int64_t mirror_loads() const;

 private:
  SqliteBackend();
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace tqp

#endif  // TQP_BACKEND_SQLITE_BACKEND_H_
