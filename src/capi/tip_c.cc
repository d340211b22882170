#include "capi/tip_c.h"

#include <map>
#include <memory>
#include <string>
#include <utility>

#include "client/connection.h"

/// C handles wrap the C++ client objects, which serve the embedded
/// engine and tipd alike; text cells are rendered lazily and cached so
/// the returned pointers stay valid for the result's lifetime.
struct tip_connection {
  std::unique_ptr<tip::client::Connection> impl;
  std::string last_error;
};

struct tip_stmt {
  tip_connection* conn;  // owner; carries last_error for this handle
  tip::client::Statement impl;
};

struct tip_result {
  tip::client::ResultSet impl;
  std::map<std::pair<size_t, size_t>, std::string> text_cache;
};

namespace {

bool InRange(const tip_result* result, size_t row, size_t col) {
  return result != nullptr && row < result->impl.row_count() &&
         col < result->impl.column_count();
}

/// Folds a Status into the C convention (0 / -1 + last_error).
int FoldStatus(tip_connection* conn, const tip::Status& status) {
  if (!status.ok()) {
    conn->last_error = status.ToString();
    return -1;
  }
  conn->last_error.clear();
  return 0;
}

/// Folds a statement's outcome into the C convention, handing a
/// successful result to `*out` when the caller wants it.
int FoldResult(tip_connection* conn,
               tip::Result<tip::client::ResultSet> result, tip_result** out) {
  if (!result.ok()) return FoldStatus(conn, result.status());
  conn->last_error.clear();
  if (out != nullptr) *out = new tip_result{std::move(*result), {}};
  return 0;
}

/// Wraps a freshly opened connection in its C handle (NULL on failure).
tip_connection* Wrap(
    tip::Result<std::unique_ptr<tip::client::Connection>> conn) {
  if (!conn.ok()) return nullptr;
  return new tip_connection{std::move(*conn), {}};
}

}  // namespace

extern "C" {

tip_connection* tip_open(void) {
  return Wrap(tip::client::Connection::Open());
}

tip_connection* tip_open_dir(const char* dir) {
  if (dir == nullptr) return nullptr;
  return Wrap(tip::client::Connection::OpenDurable(dir));
}

tip_connection* tip_open_dir_recovery(const char* dir, const char* mode) {
  if (dir == nullptr || mode == nullptr) return nullptr;
  tip::Result<tip::engine::RecoveryMode> parsed =
      tip::engine::ParseRecoveryMode(mode);
  if (!parsed.ok()) return nullptr;
  return Wrap(tip::client::Connection::OpenDurable(dir, nullptr, *parsed));
}

tip_connection* tip_connect(const char* host, int port) {
  if (host == nullptr || port <= 0 || port > 65535) return nullptr;
  return Wrap(tip::client::Connection::Connect(host, port));
}

void tip_close(tip_connection* conn) { delete conn; }

const char* tip_last_error(const tip_connection* conn) {
  return conn == nullptr ? "null connection" : conn->last_error.c_str();
}

int tip_set_now(tip_connection* conn, const char* chronon_literal) {
  if (conn == nullptr || chronon_literal == nullptr) return -1;
  tip::Result<tip::Chronon> now = tip::Chronon::Parse(chronon_literal);
  if (!now.ok()) return FoldStatus(conn, now.status());
  return FoldStatus(conn, conn->impl->SetNow(*now));
}

int tip_clear_now(tip_connection* conn) {
  if (conn == nullptr) return -1;
  return FoldStatus(conn, conn->impl->ClearNow());
}

int tip_cancel(tip_connection* conn) {
  if (conn == nullptr) return -1;
  /* No last_error write here: the racing tip_exec owns that field. */
  return conn->impl->Cancel().ok() ? 0 : -1;
}

int tip_set_timeout_ms(tip_connection* conn, long long ms) {
  if (conn == nullptr || ms < 0) return -1;
  return FoldStatus(conn, conn->impl->SetStatementTimeoutMs(ms));
}

int tip_set_memory_limit_kb(tip_connection* conn,
                            unsigned long long kb) {
  if (conn == nullptr) return -1;
  return FoldStatus(conn,
                    conn->impl->SetMemoryLimitKb(static_cast<size_t>(kb)));
}

int tip_set_wal_mode(tip_connection* conn, const char* mode) {
  if (conn == nullptr || mode == nullptr) return -1;
  tip::Result<tip::engine::WalMode> parsed =
      tip::engine::ParseWalMode(mode);
  if (!parsed.ok()) return FoldStatus(conn, parsed.status());
  return FoldStatus(conn, conn->impl->SetWalMode(*parsed));
}

int tip_checkpoint(tip_connection* conn) {
  if (conn == nullptr) return -1;
  return FoldStatus(conn, conn->impl->Checkpoint());
}

int tip_sync_wal(tip_connection* conn) {
  if (conn == nullptr) return -1;
  return FoldStatus(conn, conn->impl->SyncWal());
}

int tip_verify(tip_connection* conn) {
  if (conn == nullptr) return -1;
  tip::Result<tip::client::ResultSet> result =
      conn->impl->Execute("SELECT tip_verify()");
  if (!result.ok()) return FoldStatus(conn, result.status());
  /* tip_verify() reports corruption as data, not as a statement error
   * (the operator usually wants the whole damage map); fold it back
   * into the C convention here. */
  const std::string verdict = result->GetString(0, 0);
  if (verdict.rfind("ok", 0) != 0) {
    conn->last_error = "integrity check failed: " + verdict;
    return -1;
  }
  conn->last_error.clear();
  return 0;
}

int tip_begin(tip_connection* conn) {
  if (conn == nullptr) return -1;
  return FoldStatus(conn, conn->impl->Begin());
}

int tip_commit(tip_connection* conn) {
  if (conn == nullptr) return -1;
  return FoldStatus(conn, conn->impl->Commit());
}

int tip_rollback(tip_connection* conn) {
  if (conn == nullptr) return -1;
  return FoldStatus(conn, conn->impl->Rollback());
}

int tip_in_transaction(const tip_connection* conn) {
  if (conn == nullptr) return -1;
  return conn->impl->in_transaction() ? 1 : 0;
}

int tip_exec(tip_connection* conn, const char* sql, tip_result** out) {
  if (out != nullptr) *out = nullptr;
  if (conn == nullptr || sql == nullptr) return -1;
  return FoldResult(conn, conn->impl->Execute(sql), out);
}

int tip_prepare(tip_connection* conn, const char* sql, tip_stmt** out) {
  if (out != nullptr) *out = nullptr;
  if (conn == nullptr || sql == nullptr || out == nullptr) return -1;
  tip::client::Statement stmt = conn->impl->Prepare(sql);
  if (FoldStatus(conn, stmt.status()) != 0) return -1;
  *out = new tip_stmt{conn, std::move(stmt)};
  return 0;
}

int tip_stmt_bind_int(tip_stmt* stmt, const char* name, long long value) {
  if (stmt == nullptr || name == nullptr) return -1;
  stmt->impl.BindInt(name, value);
  return 0;
}

int tip_stmt_bind_double(tip_stmt* stmt, const char* name, double value) {
  if (stmt == nullptr || name == nullptr) return -1;
  stmt->impl.BindDouble(name, value);
  return 0;
}

int tip_stmt_bind_text(tip_stmt* stmt, const char* name,
                       const char* value) {
  if (stmt == nullptr || name == nullptr || value == nullptr) return -1;
  stmt->impl.BindString(name, value);
  return 0;
}

int tip_stmt_bind_null(tip_stmt* stmt, const char* name) {
  if (stmt == nullptr || name == nullptr) return -1;
  stmt->impl.BindNull(name);
  return 0;
}

int tip_stmt_clear_bindings(tip_stmt* stmt) {
  if (stmt == nullptr) return -1;
  stmt->impl.ClearBindings();
  return 0;
}

int tip_stmt_execute(tip_stmt* stmt, tip_result** out) {
  if (out != nullptr) *out = nullptr;
  if (stmt == nullptr) return -1;
  return FoldResult(stmt->conn, stmt->impl.Execute(), out);
}

void tip_stmt_close(tip_stmt* stmt) { delete stmt; }

void tip_result_free(tip_result* result) { delete result; }

size_t tip_result_row_count(const tip_result* result) {
  return result == nullptr ? 0 : result->impl.row_count();
}

size_t tip_result_column_count(const tip_result* result) {
  return result == nullptr ? 0 : result->impl.column_count();
}

long long tip_result_affected_rows(const tip_result* result) {
  return result == nullptr ? 0 : result->impl.affected_rows();
}

const char* tip_result_column_name(const tip_result* result, size_t col) {
  if (result == nullptr || col >= result->impl.column_count()) {
    return nullptr;
  }
  return result->impl.column_name(col).c_str();
}

const char* tip_result_column_type(const tip_result* result, size_t col) {
  if (result == nullptr || col >= result->impl.column_count()) {
    return nullptr;
  }
  return result->impl.column_type_name(col).c_str();
}

int tip_result_is_null(const tip_result* result, size_t row, size_t col) {
  if (!InRange(result, row, col)) return 1;
  return result->impl.IsNull(row, col) ? 1 : 0;
}

const char* tip_result_text(tip_result* result, size_t row, size_t col) {
  if (!InRange(result, row, col)) return nullptr;
  auto [it, inserted] = result->text_cache.try_emplace(
      std::make_pair(row, col));
  if (inserted) it->second = result->impl.GetText(row, col);
  return it->second.c_str();
}

long long tip_result_int64(const tip_result* result, size_t row,
                           size_t col) {
  if (!InRange(result, row, col)) return 0;
  const tip::engine::Datum& d = result->impl.raw().rows[row][col];
  if (d.is_null() || d.type_id() != tip::engine::TypeId::kInt) return 0;
  return d.int_value();
}

double tip_result_double(const tip_result* result, size_t row,
                         size_t col) {
  if (!InRange(result, row, col)) return 0.0;
  const tip::engine::Datum& d = result->impl.raw().rows[row][col];
  if (d.is_null() || d.type_id() != tip::engine::TypeId::kDouble) {
    return 0.0;
  }
  return d.double_value();
}

}  // extern "C"
