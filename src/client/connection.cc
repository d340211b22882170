#include "client/connection.h"

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <utility>

#include "engine/storage/wal.h"
#include "server/wire.h"

namespace tip::client {

namespace wire = tip::server::wire;

struct Connection::Wire {
  Wire(std::string host_name, int port_number, int socket)
      : host(std::move(host_name)), port(port_number), fd(socket) {}
  Wire(const Wire&) = delete;
  Wire& operator=(const Wire&) = delete;
  ~Wire() {
    if (fd >= 0) {
      (void)wire::WriteFrame(fd, wire::FrameType::kGoodbye, "", 1000);
      Close();
    }
  }

  void Close() {
    if (fd >= 0) {
      close(fd);
      fd = -1;
    }
  }

  Status Dead() const {
    return Status::Internal("connection is closed (previous wire failure)");
  }

  /// Sends one request frame and reads the single reply frame. Any
  /// wire-level failure closes the connection.
  Result<wire::Frame> Exchange(wire::FrameType type,
                               std::string_view payload, int wait_ms) {
    if (fd < 0) return Dead();
    Status sent = wire::WriteFrame(fd, type, payload, io_timeout_ms);
    if (!sent.ok()) {
      Close();
      return sent;
    }
    Result<wire::Frame> reply = wire::ReadFrame(fd, wait_ms, io_timeout_ms);
    if (!reply.ok()) Close();
    return reply;
  }

  /// Sends one request frame and decodes the response stream
  /// (ResultHeader + row chunks + Done, or Error) against `registry`.
  Result<ResultSet> RoundTrip(wire::FrameType type, std::string_view payload,
                              const datablade::TipTypes& types,
                              const engine::TypeRegistry& registry);

  /// kPrepare: the server parses and plans the statement.
  Status Prepare(std::string_view sql);

  const std::string host;
  const int port;
  int fd = -1;
  uint64_t session_id = 0;
  uint64_t cancel_key = 0;
  /// The transaction flag of the last reply frame.
  bool in_txn = false;
  /// The override of the last SET NOW the server acknowledged.
  std::optional<Chronon> now;
  /// Per-poll deadline on writes and mid-frame reads; result waits are
  /// unbounded (the server's ExecGuard bounds statement time).
  int io_timeout_ms = 10000;
};

Result<ResultSet> Connection::Wire::RoundTrip(
    wire::FrameType type, std::string_view payload,
    const datablade::TipTypes& types, const engine::TypeRegistry& registry) {
  if (fd < 0) return Dead();
  Status sent = wire::WriteFrame(fd, type, payload, io_timeout_ms);
  if (!sent.ok()) {
    Close();
    return sent;
  }
  engine::ResultSet raw;
  std::vector<engine::TypeId> column_types;
  bool have_header = false;
  for (;;) {
    Result<wire::Frame> frame = wire::ReadFrame(fd, -1, io_timeout_ms);
    if (!frame.ok()) {
      Close();
      if (wire::IsCleanEof(frame.status())) {
        return Status::Internal(
            "server closed the connection mid-statement");
      }
      return frame.status();
    }
    switch (frame->type) {
      case wire::FrameType::kError: {
        TIP_ASSIGN_OR_RETURN(wire::WireError err,
                             wire::ParseError(frame->payload));
        in_txn = err.in_txn;
        return err.status;
      }
      case wire::FrameType::kResultHeader: {
        TIP_ASSIGN_OR_RETURN(wire::ResultHeader header,
                             wire::ParseResultHeader(frame->payload));
        in_txn = header.in_txn;
        TIP_ASSIGN_OR_RETURN(column_types,
                             wire::ResolveColumnTypes(header, registry));
        raw.affected_rows = header.affected_rows;
        raw.message = std::move(header.message);
        raw.columns.reserve(header.column_names.size());
        for (size_t i = 0; i < header.column_names.size(); ++i) {
          raw.columns.push_back(
              {std::move(header.column_names[i]), column_types[i]});
        }
        have_header = true;
        break;
      }
      case wire::FrameType::kResultRows: {
        if (!have_header) {
          Close();
          return Status::Corruption("rows before result header");
        }
        TIP_ASSIGN_OR_RETURN(
            std::vector<engine::Row> rows,
            wire::ParseRowsChunk(frame->payload, column_types, registry));
        for (engine::Row& row : rows) raw.rows.push_back(std::move(row));
        break;
      }
      case wire::FrameType::kResultDone:
        if (!have_header) {
          Close();
          return Status::Corruption("done before result header");
        }
        return ResultSet(std::move(raw), types, &registry);
      case wire::FrameType::kPong:
        break;  // stray liveness reply; ignore
      default:
        Close();
        return Status::Corruption("unexpected frame in result stream");
    }
  }
}

Status Connection::Wire::Prepare(std::string_view sql) {
  TIP_ASSIGN_OR_RETURN(
      wire::Frame reply,
      Exchange(wire::FrameType::kPrepare, wire::BuildPrepare(sql), -1));
  if (reply.type == wire::FrameType::kError) {
    Result<wire::WireError> err = wire::ParseError(reply.payload);
    if (!err.ok()) {
      Close();
      return err.status();
    }
    in_txn = err->in_txn;
    return err->status;
  }
  if (reply.type != wire::FrameType::kPrepareOk) {
    Close();
    return Status::Corruption("unexpected prepare reply");
  }
  return Status::OK();
}

Connection::Connection(std::unique_ptr<engine::Database> owned,
                       engine::Database* db, datablade::TipTypes types,
                       std::unique_ptr<Wire> wire)
    : owned_(std::move(owned)),
      db_(db),
      registry_(db != nullptr ? &db->types() : &owned_->types()),
      types_(types),
      wire_(std::move(wire)) {}

Connection::~Connection() = default;

Result<std::unique_ptr<Connection>> Connection::Open() {
  auto db = std::make_unique<engine::Database>();
  TIP_RETURN_IF_ERROR(datablade::Install(db.get()));
  TIP_ASSIGN_OR_RETURN(datablade::TipTypes types,
                       datablade::TipTypes::Lookup(*db));
  engine::Database* raw = db.get();
  return std::unique_ptr<Connection>(
      new Connection(std::move(db), raw, types, nullptr));
}

Result<std::unique_ptr<Connection>> Connection::OpenDurable(
    const std::string& dir, engine::RecoveryReport* report,
    engine::RecoveryMode mode) {
  auto db = std::make_unique<engine::Database>();
  // Extensions first: recovery re-executes statements that may use the
  // TIP types, and snapshots resolve types by name.
  TIP_RETURN_IF_ERROR(datablade::Install(db.get()));
  TIP_RETURN_IF_ERROR(db->AttachDurableDir(dir, report, mode));
  TIP_ASSIGN_OR_RETURN(datablade::TipTypes types,
                       datablade::TipTypes::Lookup(*db));
  engine::Database* raw = db.get();
  return std::unique_ptr<Connection>(
      new Connection(std::move(db), raw, types, nullptr));
}

Result<std::unique_ptr<Connection>> Connection::Attach(
    engine::Database* db) {
  TIP_ASSIGN_OR_RETURN(datablade::TipTypes types,
                       datablade::TipTypes::Lookup(*db));
  return std::unique_ptr<Connection>(
      new Connection(nullptr, db, types, nullptr));
}

Result<std::unique_ptr<Connection>> Connection::Connect(
    const std::string& host, int port, int connect_timeout_ms) {
  // The local engine is a type registry, nothing more: it never holds
  // tables and never executes statements.
  auto type_db = std::make_unique<engine::Database>();
  TIP_RETURN_IF_ERROR(datablade::Install(type_db.get()));
  TIP_ASSIGN_OR_RETURN(datablade::TipTypes types,
                       datablade::TipTypes::Lookup(*type_db));

  TIP_ASSIGN_OR_RETURN(int fd,
                       wire::DialTcp(host, port, connect_timeout_ms));
  auto session = std::make_unique<Wire>(host, port, fd);
  Status sent = wire::WriteFrame(fd, wire::FrameType::kHello,
                                 wire::BuildHello(), connect_timeout_ms);
  if (!sent.ok()) return sent;
  // The admission queue may hold us up to the server's admission_wait
  // before HelloOk (or the explicit rejection) arrives; wait patiently.
  Result<wire::Frame> reply =
      wire::ReadFrame(fd, -1, session->io_timeout_ms);
  if (!reply.ok()) {
    if (wire::IsCleanEof(reply.status())) {
      return Status::ResourceExhausted(
          "server closed the connection during handshake");
    }
    return reply.status();
  }
  if (reply->type == wire::FrameType::kError) {
    TIP_ASSIGN_OR_RETURN(wire::WireError err,
                         wire::ParseError(reply->payload));
    return err.status;
  }
  if (reply->type != wire::FrameType::kHelloOk) {
    return Status::Corruption("unexpected handshake reply");
  }
  TIP_ASSIGN_OR_RETURN(wire::HelloOk hello,
                       wire::ParseHelloOk(reply->payload));
  if (hello.protocol_version != wire::kProtocolVersion) {
    return Status::InvalidArgument(
        "protocol version mismatch: server speaks " +
        std::to_string(hello.protocol_version));
  }
  session->session_id = hello.session_id;
  session->cancel_key = hello.cancel_key;
  return std::unique_ptr<Connection>(
      new Connection(std::move(type_db), nullptr, types, std::move(session)));
}

Result<ResultSet> Connection::Run(std::string_view sql,
                                  const engine::Params* params) {
  if (wire_ != nullptr) {
    static const engine::Params kNoParams;
    return wire_->RoundTrip(
        wire::FrameType::kExec,
        wire::BuildExec(sql, params != nullptr ? *params : kNoParams,
                        *registry_),
        types_, *registry_);
  }
  TIP_ASSIGN_OR_RETURN(engine::ResultSet result,
                       db_->Execute(sql, params, nullptr));
  return ResultSet(std::move(result), types_, registry_);
}

Status Connection::Command(std::string_view sql) {
  return Run(sql, nullptr).status();
}

Result<ResultSet> Connection::Execute(std::string_view sql) {
  return Run(sql, nullptr);
}

Statement Connection::Prepare(std::string_view sql) {
  if (wire_ != nullptr) {
    return Statement(this, std::string(sql), nullptr, wire_->Prepare(sql));
  }
  // Parse eagerly: a malformed statement is reported by the handle's
  // status() before anything executes, and a well-formed one shares the
  // engine's cached plan across every later Execute.
  Result<std::shared_ptr<const engine::PreparedPlan>> plan =
      db_->Prepare(sql);
  if (!plan.ok()) {
    return Statement(this, std::string(sql), nullptr, plan.status());
  }
  return Statement(this, std::string(sql), std::move(*plan), Status::OK());
}

Status Connection::Begin() { return Command("BEGIN"); }

Status Connection::Commit() { return Command("COMMIT"); }

Status Connection::Rollback() { return Command("ROLLBACK"); }

bool Connection::in_transaction() const {
  return wire_ != nullptr ? wire_->in_txn : db_->InTransaction();
}

Status Connection::SetNow(Chronon now) {
  TIP_RETURN_IF_ERROR(Command("SET NOW '" + now.ToString() + "'"));
  if (wire_ != nullptr) wire_->now = now;
  return Status::OK();
}

Status Connection::ClearNow() {
  TIP_RETURN_IF_ERROR(Command("SET NOW DEFAULT"));
  if (wire_ != nullptr) wire_->now = std::nullopt;
  return Status::OK();
}

std::optional<Chronon> Connection::now_override() const {
  return wire_ != nullptr ? wire_->now : db_->now_override();
}

Status Connection::Cancel() {
  if (wire_ == nullptr) {
    db_->CancelActiveStatements();
    return Status::OK();
  }
  // The session's own socket is busy carrying the statement to cancel,
  // so cancellation travels out-of-band: a throwaway connection that
  // presents the handshake's cancel credentials and hangs up.
  TIP_ASSIGN_OR_RETURN(
      int fd, wire::DialTcp(wire_->host, wire_->port, wire_->io_timeout_ms));
  wire::CancelRequest request;
  request.session_id = wire_->session_id;
  request.cancel_key = wire_->cancel_key;
  Status sent =
      wire::WriteFrame(fd, wire::FrameType::kCancel,
                       wire::BuildCancel(request), wire_->io_timeout_ms);
  close(fd);
  return sent;
}

Status Connection::SetStatementTimeoutMs(int64_t ms) {
  return Command("SET statement_timeout_ms " + std::to_string(ms));
}

Status Connection::SetMemoryLimitKb(size_t kb) {
  return Command("SET memory_limit_kb " + std::to_string(kb));
}

Status Connection::SetWalMode(engine::WalMode mode) {
  return Command("SET wal_mode " + std::string(engine::WalModeName(mode)));
}

Status Connection::Checkpoint() { return Command("SELECT tip_checkpoint()"); }

Status Connection::SyncWal() { return Command("SELECT tip_sync_wal()"); }

Status Connection::Ping() {
  if (wire_ == nullptr) return Status::OK();
  TIP_ASSIGN_OR_RETURN(wire::Frame reply,
                       wire_->Exchange(wire::FrameType::kPing, "",
                                       wire_->io_timeout_ms));
  if (reply.type != wire::FrameType::kPong) {
    wire_->Close();
    return Status::Corruption("unexpected ping reply");
  }
  return Status::OK();
}

uint64_t Connection::session_id() const {
  return wire_ != nullptr ? wire_->session_id : 0;
}

uint64_t Connection::cancel_key() const {
  return wire_ != nullptr ? wire_->cancel_key : 0;
}

bool Connection::alive() const { return wire_ == nullptr || wire_->fd >= 0; }

engine::Database& Connection::database() {
  if (db_ == nullptr) {
    std::fputs("client::Connection::database() on a tipd connection\n",
               stderr);
    std::abort();
  }
  return *db_;
}

Statement& Statement::BindInt(std::string_view name, int64_t value) {
  params_[std::string(name)] = engine::Datum::Int(value);
  return *this;
}
Statement& Statement::BindDouble(std::string_view name, double value) {
  params_[std::string(name)] = engine::Datum::Double(value);
  return *this;
}
Statement& Statement::BindBool(std::string_view name, bool value) {
  params_[std::string(name)] = engine::Datum::Bool(value);
  return *this;
}
Statement& Statement::BindString(std::string_view name, std::string value) {
  params_[std::string(name)] = engine::Datum::String(std::move(value));
  return *this;
}
Statement& Statement::BindNull(std::string_view name) {
  params_[std::string(name)] = engine::Datum::Null();
  return *this;
}
Statement& Statement::BindChronon(std::string_view name,
                                  const Chronon& value) {
  params_[std::string(name)] =
      datablade::MakeChronon(connection_->tip_types(), value);
  return *this;
}
Statement& Statement::BindSpan(std::string_view name, const Span& value) {
  params_[std::string(name)] =
      datablade::MakeSpan(connection_->tip_types(), value);
  return *this;
}
Statement& Statement::BindInstant(std::string_view name,
                                  const Instant& value) {
  params_[std::string(name)] =
      datablade::MakeInstant(connection_->tip_types(), value);
  return *this;
}
Statement& Statement::BindPeriod(std::string_view name,
                                 const Period& value) {
  params_[std::string(name)] =
      datablade::MakePeriod(connection_->tip_types(), value);
  return *this;
}
Statement& Statement::BindElement(std::string_view name,
                                  const Element& value) {
  params_[std::string(name)] =
      datablade::MakeElement(connection_->tip_types(), value);
  return *this;
}
Statement& Statement::BindDatum(std::string_view name,
                                engine::Datum value) {
  params_[std::string(name)] = std::move(value);
  return *this;
}
Statement& Statement::ClearBindings() {
  params_.clear();
  return *this;
}

Result<ResultSet> Statement::Execute() {
  if (!prepare_status_.ok()) return prepare_status_;
  if (plan_ == nullptr) return connection_->Run(sql_, &params_);
  TIP_ASSIGN_OR_RETURN(
      engine::ResultSet result,
      connection_->db_->ExecutePrepared(*plan_, &params_));
  return ResultSet(std::move(result), connection_->types_,
                   connection_->registry_);
}

bool ResultSet::IsNull(size_t row, size_t col) const {
  return at(row, col).is_null();
}
int64_t ResultSet::GetInt(size_t row, size_t col) const {
  return at(row, col).int_value();
}
double ResultSet::GetDouble(size_t row, size_t col) const {
  return at(row, col).double_value();
}
bool ResultSet::GetBool(size_t row, size_t col) const {
  return at(row, col).bool_value();
}
const std::string& ResultSet::GetString(size_t row, size_t col) const {
  return at(row, col).string_value();
}
const Chronon& ResultSet::GetChronon(size_t row, size_t col) const {
  return datablade::GetChronon(at(row, col));
}
const Span& ResultSet::GetSpan(size_t row, size_t col) const {
  return datablade::GetSpan(at(row, col));
}
const Instant& ResultSet::GetInstant(size_t row, size_t col) const {
  return datablade::GetInstant(at(row, col));
}
const Period& ResultSet::GetPeriod(size_t row, size_t col) const {
  return datablade::GetPeriod(at(row, col));
}
const Element& ResultSet::GetElement(size_t row, size_t col) const {
  return datablade::GetElement(at(row, col));
}
std::string ResultSet::GetText(size_t row, size_t col) const {
  return registry_->Format(at(row, col));
}

}  // namespace tip::client
