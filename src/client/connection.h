#ifndef TIP_CLIENT_CONNECTION_H_
#define TIP_CLIENT_CONNECTION_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "common/status.h"
#include "core/chronon.h"
#include "datablade/datablade.h"
#include "engine/database.h"

namespace tip::client {

class Statement;
class ResultSet;

/// A client connection to a TIP-enabled database — the C++ analogue of
/// the paper's TIP C/Java client libraries over ODBC/JDBC. One class
/// serves two transports, chosen when the connection is made:
///  - an embedded engine with the TIP DataBlade installed (Open,
///    OpenDurable, Attach);
///  - a session on a remote `tipd` over the TIP wire protocol (Connect).
///
/// Every verb with a SQL form (transactions, SET NOW, the guardrails,
/// the durability controls) runs as that statement on either
/// transport, so the two behave alike. Only four things go through the
/// transport: running a statement, Prepare, Cancel, and reading the
/// transaction flag and NOW override.
///
/// Over tipd, values cross the wire in binary, addressed by type name.
/// The connection keeps a tiny engine with the DataBlade installed (no
/// tables) purely as a type registry, so TIP types arrive as native C++
/// objects exactly as they do embedded ("customized type mapping", a la
/// JDBC 2.0). A wire failure is fail-stop: the connection is dead
/// afterwards and every later call fails.
class Connection {
 public:
  /// Opens a fresh embedded database with the TIP DataBlade installed.
  static Result<std::unique_ptr<Connection>> Open();

  /// Opens a *durable* database homed in `dir`: installs the DataBlade,
  /// then runs crash recovery (checkpoint snapshot + WAL replay; see
  /// Database::AttachDurableDir). Subsequent statements are logged
  /// according to `SET wal_mode`. `report` (optional) says what
  /// recovery found. `mode` picks the corruption policy — kStrict
  /// (default) refuses a damaged directory outright; kSalvage
  /// quarantines the corrupt tables, fills the report's corruption
  /// manifest, and recovers everything else.
  static Result<std::unique_ptr<Connection>> OpenDurable(
      const std::string& dir, engine::RecoveryReport* report = nullptr,
      engine::RecoveryMode mode = engine::RecoveryMode::kStrict);

  /// Attaches to an existing TIP-enabled database (not owned). Fails if
  /// the DataBlade is not installed.
  static Result<std::unique_ptr<Connection>> Attach(engine::Database* db);

  /// Connects to a running `tipd` at host:port. NOW overrides and the
  /// guardrails are then scoped to this server session.
  static Result<std::unique_ptr<Connection>> Connect(
      const std::string& host, int port, int connect_timeout_ms = 5000);

  ~Connection();
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// One-shot execution without parameters.
  Result<ResultSet> Execute(std::string_view sql);

  /// Prepares a statement for (repeated) parameterized execution. The
  /// SQL is parsed (and validated) here, once: a syntax error is
  /// reported by the returned handle's status() — and again by its
  /// Execute — rather than deferred to the first execution. Embedded,
  /// repeated Execute calls reuse the engine's plan, rebinding
  /// parameters without replanning; over tipd the server plans it into
  /// its plan cache, and each Execute sends the SQL and the bindings.
  Statement Prepare(std::string_view sql);

  /// Transaction control: BEGIN / COMMIT / ROLLBACK. Statements between
  /// Begin and Commit share one pinned NOW and are atomic: Rollback (or
  /// a fatal statement error, or a crash before Commit) restores the
  /// pre-Begin state exactly. Auto-commit remains the default.
  Status Begin();
  Status Commit();
  Status Rollback();
  bool in_transaction() const;

  /// `SET NOW '<now>'` / `SET NOW DEFAULT`: overrides the
  /// interpretation of NOW for this session's later statements, the
  /// Browser's what-if mechanism. Refused inside a transaction, whose
  /// NOW is pinned.
  Status SetNow(Chronon now);
  Status ClearNow();
  std::optional<Chronon> now_override() const;

  /// Requests cancellation of the statement running on this connection.
  /// This is the one entry point that is safe to call from another
  /// thread while Execute is blocked; the interrupted statement fails
  /// with Status::Cancelled and leaves tables, indexes and session
  /// state untouched. Embedded, it cancels every statement running on
  /// the database; over tipd it dials a fresh connection that presents
  /// this session's cancel key, since the session's own socket is busy.
  Status Cancel();

  /// Statement guardrails for later statements (0 = no limit):
  /// `SET statement_timeout_ms` and `SET memory_limit_kb`.
  Status SetStatementTimeoutMs(int64_t ms);
  Status SetMemoryLimitKb(size_t kb);

  /// Durability controls, as SQL: SetWalMode is `SET wal_mode` — a
  /// transition into or out of `off` on a durable database forces a
  /// checkpoint, and fails without changing the mode if the checkpoint
  /// fails; it is refused inside a transaction. Checkpoint is
  /// `SELECT tip_checkpoint()` (snapshot, then truncate the WAL) and
  /// SyncWal is `SELECT tip_sync_wal()` (force the group-commit tail to
  /// disk).
  Status SetWalMode(engine::WalMode mode);
  Status Checkpoint();
  Status SyncWal();

  /// Wire session accessors. Embedded they answer trivially: Ping is
  /// OK, the ids are 0 and the connection is always alive.
  Status Ping();
  uint64_t session_id() const;
  uint64_t cancel_key() const;
  /// False once a wire failure has fail-stopped the connection.
  bool alive() const;

  /// The engine type ids of the five TIP types (customized type
  /// mapping, a la JDBC 2.0).
  const datablade::TipTypes& tip_types() const { return types_; }
  /// The type registry results are decoded against and formatted by.
  const engine::TypeRegistry& types() const { return *registry_; }

  /// The embedded engine, for in-process callers (tests, benches). A
  /// tipd connection has no database in this process; calling this on
  /// one aborts rather than hand out its type registry.
  engine::Database& database();

 private:
  friend class Statement;
  /// A tipd session: the socket, the handshake's identity and what the
  /// last frame said. Defined in connection.cc.
  struct Wire;

  Connection(std::unique_ptr<engine::Database> owned, engine::Database* db,
             datablade::TipTypes types, std::unique_ptr<Wire> wire);

  /// Runs one statement: on the engine, or as a kExec round trip that
  /// carries the SQL and `params` (null = no bindings).
  Result<ResultSet> Run(std::string_view sql, const engine::Params* params);
  /// Runs a statement for its effect.
  Status Command(std::string_view sql);

  /// Embedded: the database when this connection opened it. Over tipd:
  /// the type registry. Null when attached.
  std::unique_ptr<engine::Database> owned_;
  /// The engine statements run on; null over tipd.
  engine::Database* db_;
  const engine::TypeRegistry* registry_;
  datablade::TipTypes types_;
  /// The tipd session; null when embedded.
  std::unique_ptr<Wire> wire_;
};

/// A prepared statement with named-parameter binding. Bind* calls are
/// chainable; Execute may be called repeatedly (rebinding in between).
class Statement {
 public:
  /// The outcome of preparation: a parse error surfaces here without
  /// executing anything.
  const Status& status() const { return prepare_status_; }

  Statement& BindInt(std::string_view name, int64_t value);
  Statement& BindDouble(std::string_view name, double value);
  Statement& BindBool(std::string_view name, bool value);
  Statement& BindString(std::string_view name, std::string value);
  Statement& BindNull(std::string_view name);
  Statement& BindChronon(std::string_view name, const Chronon& value);
  Statement& BindSpan(std::string_view name, const Span& value);
  Statement& BindInstant(std::string_view name, const Instant& value);
  Statement& BindPeriod(std::string_view name, const Period& value);
  Statement& BindElement(std::string_view name, const Element& value);
  /// Binds a raw engine value (power users: re-binding a cell read from
  /// a ResultSet without unwrapping it).
  Statement& BindDatum(std::string_view name, engine::Datum value);

  /// Removes all bindings.
  Statement& ClearBindings();

  Result<ResultSet> Execute();

 private:
  friend class Connection;
  Statement(Connection* connection, std::string sql,
            std::shared_ptr<const engine::PreparedPlan> plan,
            Status prepare_status)
      : connection_(connection), sql_(std::move(sql)),
        plan_(std::move(plan)), prepare_status_(std::move(prepare_status)) {}

  Connection* connection_;
  std::string sql_;
  /// The engine's shared plan; null over tipd, where Execute sends the
  /// SQL and the bindings.
  std::shared_ptr<const engine::PreparedPlan> plan_;
  Status prepare_status_;
  engine::Params params_;
};

/// A client-side result set with typed accessors that map TIP datatypes
/// to their C++ classes — the "customized type mapping" of the paper's
/// JDBC client. Row/column indexes are 0-based.
class ResultSet {
 public:
  ResultSet(engine::ResultSet result, const datablade::TipTypes& types,
            const engine::TypeRegistry* registry)
      : result_(std::move(result)), types_(types), registry_(registry) {}

  size_t row_count() const { return result_.rows.size(); }
  size_t column_count() const { return result_.columns.size(); }
  int64_t affected_rows() const { return result_.affected_rows; }

  const std::string& column_name(size_t col) const {
    return result_.columns[col].name;
  }
  engine::TypeId column_type(size_t col) const {
    return result_.columns[col].type;
  }
  /// The registered name of the column's type ("int", "element", ...).
  const std::string& column_type_name(size_t col) const {
    return registry_->Get(column_type(col)).name;
  }
  /// Case-insensitive lookup; -1 on miss.
  int FindColumn(std::string_view name) const {
    return result_.FindColumn(name);
  }

  bool IsNull(size_t row, size_t col) const;

  // Typed getters. Preconditions: cell is non-null and of the matching
  // type (column_type tells the caller which getter applies).
  int64_t GetInt(size_t row, size_t col) const;
  double GetDouble(size_t row, size_t col) const;
  bool GetBool(size_t row, size_t col) const;
  const std::string& GetString(size_t row, size_t col) const;
  const Chronon& GetChronon(size_t row, size_t col) const;
  const Span& GetSpan(size_t row, size_t col) const;
  const Instant& GetInstant(size_t row, size_t col) const;
  const Period& GetPeriod(size_t row, size_t col) const;
  const Element& GetElement(size_t row, size_t col) const;

  /// Formats any cell through its type's output function.
  std::string GetText(size_t row, size_t col) const;

  /// The TIP type ids this result set was produced under.
  const datablade::TipTypes& tip_types() const { return types_; }

  /// The raw engine result (power users, the Browser).
  const engine::ResultSet& raw() const { return result_; }
  /// Renders via engine formatting.
  std::string ToTable() const { return result_.ToTable(*registry_); }

 private:
  const engine::Datum& at(size_t row, size_t col) const {
    return result_.rows[row][col];
  }

  engine::ResultSet result_;
  datablade::TipTypes types_;
  const engine::TypeRegistry* registry_;
};

}  // namespace tip::client

#endif  // TIP_CLIENT_CONNECTION_H_
