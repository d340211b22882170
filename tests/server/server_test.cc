// Functional coverage for the network front-end: one in-process tipd
// (`server::Server`) serving remote sessions over real TCP sockets on
// the loopback interface. The properties under test are the tentpole's
// contract: full SQL round-trips with TIP-typed values, per-session
// settings isolation, admission control with explicit rejection,
// busy-gate backpressure, idle reaping, out-of-band cancel, chunked
// result streaming, protocol hygiene (version/garbage/CRC), and the
// tip_server_stats observability surface.

#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "client/connection.h"
#include "common/fault_injection.h"
#include "common/string_util.h"
#include "datablade/datablade.h"
#include "engine/database.h"
#include "engine/storage/recovery.h"
#include "engine/storage/wire_format.h"
#include "server/server.h"
#include "server/wire.h"

namespace tip::server {
namespace {

using client::Connection;
using client::Statement;

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override { fault::ClearAll(); }
  void TearDown() override {
    fault::ClearAll();
    if (server_ != nullptr) server_->Shutdown();
  }

  /// Starts the server over a fresh in-memory database.
  void StartServer(ServerOptions options = ServerOptions()) {
    db_ = std::make_unique<engine::Database>();
    ASSERT_TRUE(datablade::Install(db_.get()).ok());
    Result<std::unique_ptr<Server>> server =
        Server::Start(db_.get(), options);
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    server_ = std::move(*server);
  }

  std::unique_ptr<Connection> Connect() {
    Result<std::unique_ptr<Connection>> conn =
        Connection::Connect("127.0.0.1", server_->port());
    EXPECT_TRUE(conn.ok()) << conn.status().ToString();
    return conn.ok() ? std::move(*conn) : nullptr;
  }

  static client::ResultSet Exec(Connection* conn,
                                const std::string& sql) {
    Result<client::ResultSet> r = conn->Execute(sql);
    EXPECT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
    return r.ok() ? std::move(*r)
                  : client::ResultSet(engine::ResultSet{}, conn->tip_types(),
                                      &conn->types());
  }

  std::unique_ptr<engine::Database> db_;
  std::unique_ptr<Server> server_;
};

// ---- Round trips -----------------------------------------------------------

TEST_F(ServerTest, BasicStatementsRoundTrip) {
  StartServer();
  std::unique_ptr<Connection> conn = Connect();
  ASSERT_NE(conn, nullptr);

  Exec(conn.get(), "CREATE TABLE emp (id INT, name CHAR(16), valid Element)");
  client::ResultSet ins = Exec(
      conn.get(),
      "INSERT INTO emp VALUES (1, 'ada', '{[1999-01-01, NOW]}'), "
      "(2, 'grace', '{[1995-06-01, 1997-06-01]}')");
  EXPECT_EQ(ins.affected_rows(), 2);

  client::ResultSet rs =
      Exec(conn.get(), "SELECT id, name, valid FROM emp ORDER BY id");
  ASSERT_EQ(rs.row_count(), 2u);
  ASSERT_EQ(rs.column_count(), 3u);
  EXPECT_EQ(rs.column_name(0), "id");
  EXPECT_EQ(rs.GetInt(0, 0), 1);
  EXPECT_EQ(rs.GetString(0, 1), "ada");
  // The TIP-typed column crosses the wire in binary and lands as the
  // native C++ class — the paper's customized type mapping, remotely.
  const Element& valid = rs.GetElement(0, 2);
  EXPECT_TRUE(valid.ToString().find("NOW") != std::string::npos)
      << valid.ToString();
  EXPECT_EQ(rs.GetElement(1, 2).ToString(), "{[1995-06-01, 1997-06-01]}");
}

TEST_F(ServerTest, NullsAndAffectedRowsRoundTrip) {
  StartServer();
  std::unique_ptr<Connection> conn = Connect();
  ASSERT_NE(conn, nullptr);
  Exec(conn.get(), "CREATE TABLE t (id INT, v CHAR(8))");
  Exec(conn.get(), "INSERT INTO t VALUES (1, NULL)");
  client::ResultSet rs = Exec(conn.get(), "SELECT id, v FROM t");
  ASSERT_EQ(rs.row_count(), 1u);
  EXPECT_FALSE(rs.IsNull(0, 0));
  EXPECT_TRUE(rs.IsNull(0, 1));
  client::ResultSet upd =
      Exec(conn.get(), "UPDATE t SET v = 'x' WHERE id = 1");
  EXPECT_EQ(upd.affected_rows(), 1);
}

// Row chunks and bound parameters carry the WAL's row image byte for
// byte. The expected field bytes are spelled out from the grammar
// (varint 0 for NULL, n+1 then the n serialized bytes), not taken from
// the encoder both sides share.
TEST(WireRowImageTest, RowChunksAndParamsCarryTheWalRowImage) {
  engine::Database db;
  ASSERT_TRUE(datablade::Install(&db).ok());
  const engine::TypeRegistry& types = db.types();
  Result<datablade::TipTypes> tip = datablade::TipTypes::Lookup(db);
  ASSERT_TRUE(tip.ok());
  // Seven periods serialize to 8 + 7 * 18 = 134 bytes: the field needs a
  // two-byte varint prefix.
  std::vector<Period> periods;
  for (int i = 0; i < 7; ++i) {
    periods.push_back(*Period::Parse("[199" + std::to_string(i) +
                                     "-01-01, 199" + std::to_string(i) +
                                     "-06-30]"));
  }
  const engine::Datum element =
      datablade::MakeElement(*tip, Element::FromPeriods(periods));
  const engine::Row row = {engine::Datum::NullOf(engine::TypeId::kInt),
                           engine::Datum::String("statin"), element};

  auto field = [&](const engine::Datum& d) {
    std::string out;
    if (d.is_null()) {
      engine::wire::PutVarint(0, &out);
      return out;
    }
    const std::string bytes = types.Serialize(d);
    engine::wire::PutVarint(bytes.size() + 1, &out);
    return out + bytes;
  };
  const std::string element_field = field(element);
  ASSERT_GE(static_cast<unsigned char>(element_field[0]), 0x80u);
  ASSERT_LT(static_cast<unsigned char>(element_field[1]), 0x80u);
  const std::string image = field(row[0]) + field(row[1]) + element_field;

  std::string wal_image;
  engine::EncodeRowImage(row, types, &wal_image);
  EXPECT_EQ(wal_image, image);

  wire::ResultFrames frames(types, ServerOptions().max_rows_frame_bytes);
  engine::Row sent = row;
  EXPECT_EQ(frames.Add(&sent), image.size());
  frames.Finish(0, "");
  ASSERT_EQ(frames.chunks().size(), 1u);
  std::string chunk;
  engine::wire::PutU32(1, &chunk);
  EXPECT_EQ(frames.chunks()[0].substr(wire::kFrameHeaderSize), chunk + image);

  engine::Params params = {{"w", element}};
  std::string exec;
  engine::wire::PutString("SELECT :w", &exec);
  engine::wire::PutU32(1, &exec);
  engine::wire::PutString("w", &exec);
  engine::wire::PutString("element", &exec);
  EXPECT_EQ(wire::BuildExec("SELECT :w", params, types),
            exec + element_field);
}

TEST_F(ServerTest, PreparedStatementBindsOverTheWire) {
  StartServer();
  std::unique_ptr<Connection> conn = Connect();
  ASSERT_NE(conn, nullptr);
  Exec(conn.get(), "CREATE TABLE t (id INT, name CHAR(16), seen Chronon)");

  Statement stmt =
      conn->Prepare("INSERT INTO t VALUES (:id, :name, :seen)");
  ASSERT_TRUE(stmt.status().ok()) << stmt.status().ToString();
  Result<Chronon> day = Chronon::Parse("1999-11-15");
  ASSERT_TRUE(day.ok());
  for (int i = 0; i < 3; ++i) {
    stmt.ClearBindings();
    stmt.BindInt("id", i).BindString("name", "n" + std::to_string(i));
    if (i == 2) {
      stmt.BindNull("seen");
    } else {
      stmt.BindChronon("seen", *day);
    }
    Result<client::ResultSet> r = stmt.Execute();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }
  client::ResultSet rs =
      Exec(conn.get(), "SELECT id, name, seen FROM t ORDER BY id");
  ASSERT_EQ(rs.row_count(), 3u);
  EXPECT_EQ(rs.GetString(1, 1), "n1");
  EXPECT_EQ(rs.GetChronon(0, 2).ToString(), "1999-11-15");
  EXPECT_TRUE(rs.IsNull(2, 2));

  // Eager validation: a malformed statement fails at Prepare time.
  Statement bad = conn->Prepare("SELEC nothing");
  EXPECT_FALSE(bad.status().ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kParseError)
      << bad.status().ToString();
}

TEST_F(ServerTest, ErrorsKeepTheirStatusCodes) {
  StartServer();
  std::unique_ptr<Connection> conn = Connect();
  ASSERT_NE(conn, nullptr);

  Result<client::ResultSet> syntax = conn->Execute("SELEC 1");
  ASSERT_FALSE(syntax.ok());
  EXPECT_EQ(syntax.status().code(), StatusCode::kParseError)
      << syntax.status().ToString();

  Result<client::ResultSet> missing =
      conn->Execute("SELECT * FROM no_such_table");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound)
      << missing.status().ToString();

  // An error does not fail-stop the session: SQL keeps working.
  Exec(conn.get(), "CREATE TABLE t (id INT)");
  EXPECT_TRUE(conn->alive());
}

TEST_F(ServerTest, TransactionsSpanStatements) {
  StartServer();
  std::unique_ptr<Connection> conn = Connect();
  ASSERT_NE(conn, nullptr);
  Exec(conn.get(), "CREATE TABLE t (id INT)");

  ASSERT_TRUE(conn->Begin().ok());
  EXPECT_TRUE(conn->in_transaction());
  Exec(conn.get(), "INSERT INTO t VALUES (1)");
  ASSERT_TRUE(conn->Rollback().ok());
  EXPECT_FALSE(conn->in_transaction());
  EXPECT_EQ(Exec(conn.get(), "SELECT count(*) FROM t").GetInt(0, 0), 0);

  ASSERT_TRUE(conn->Begin().ok());
  Exec(conn.get(), "INSERT INTO t VALUES (2)");
  ASSERT_TRUE(conn->Commit().ok());
  EXPECT_EQ(Exec(conn.get(), "SELECT count(*) FROM t").GetInt(0, 0), 1);
}

// ---- Per-session state -----------------------------------------------------

TEST_F(ServerTest, NowOverrideIsScopedToTheSession) {
  StartServer();
  std::unique_ptr<Connection> a = Connect();
  std::unique_ptr<Connection> b = Connect();
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  Exec(a.get(), "CREATE TABLE p (id INT, valid Element)");
  Exec(a.get(), "INSERT INTO p VALUES (1, '{[1990-01-01, 1991-01-01]}')");

  // Session A rewinds NOW into the interval; session B stays on the
  // system clock. The same currency predicate must answer differently
  // per session — the what-if override is session state, not engine
  // state.
  const char* current =
      "SELECT count(*) FROM p WHERE contains(valid, transaction_time())";
  Result<Chronon> past = Chronon::Parse("1990-06-01");
  ASSERT_TRUE(past.ok());
  ASSERT_TRUE(a->SetNow(*past).ok());
  EXPECT_EQ(Exec(a.get(), current).GetInt(0, 0), 1);
  EXPECT_EQ(Exec(b.get(), current).GetInt(0, 0), 0);
  ASSERT_TRUE(a->ClearNow().ok());
  EXPECT_EQ(Exec(a.get(), current).GetInt(0, 0), 0);
}

TEST_F(ServerTest, StatementTimeoutIsScopedToTheSession) {
  StartServer();
  std::unique_ptr<Connection> a = Connect();
  std::unique_ptr<Connection> b = Connect();
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);

  ASSERT_TRUE(a->SetStatementTimeoutMs(30).ok());
  Result<client::ResultSet> timed_out =
      a->Execute("SELECT tip_sleep_ms(2000)");
  ASSERT_FALSE(timed_out.ok());
  EXPECT_EQ(timed_out.status().code(), StatusCode::kDeadlineExceeded)
      << timed_out.status().ToString();
  // The tripped guard is a statement error, not a session failure.
  EXPECT_TRUE(a->alive());

  // B never set a timeout; the same statement completes there.
  Result<client::ResultSet> fine = b->Execute("SELECT tip_sleep_ms(50)");
  EXPECT_TRUE(fine.ok()) << fine.status().ToString();
}

TEST_F(ServerTest, ServerDefaultTimeoutAppliesToNewSessions) {
  ServerOptions options;
  options.default_statement_timeout_ms = 30;
  StartServer(options);
  std::unique_ptr<Connection> conn = Connect();
  ASSERT_NE(conn, nullptr);
  Result<client::ResultSet> r = conn->Execute("SELECT tip_sleep_ms(2000)");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
  // The session can lift its own guardrail.
  ASSERT_TRUE(conn->SetStatementTimeoutMs(0).ok());
  EXPECT_TRUE(conn->Execute("SELECT tip_sleep_ms(50)").ok());
}

// ---- Admission control and backpressure ------------------------------------

TEST_F(ServerTest, FullServerRejectsWithResourceExhausted) {
  ServerOptions options;
  options.max_sessions = 1;
  options.admission_wait_ms = 100;
  StartServer(options);

  std::unique_ptr<Connection> first = Connect();
  ASSERT_NE(first, nullptr);
  Result<std::unique_ptr<Connection>> second =
      Connection::Connect("127.0.0.1", server_->port());
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kResourceExhausted)
      << second.status().ToString();
}

TEST_F(ServerTest, QueuedConnectionIsAdmittedWhenASlotFrees) {
  ServerOptions options;
  options.max_sessions = 1;
  options.admission_wait_ms = 5000;
  StartServer(options);

  std::unique_ptr<Connection> first = Connect();
  ASSERT_NE(first, nullptr);
  Exec(first.get(), "CREATE TABLE t (id INT)");

  std::atomic<bool> admitted{false};
  std::thread waiter([&] {
    Result<std::unique_ptr<Connection>> conn =
        Connection::Connect("127.0.0.1", server_->port());
    if (conn.ok()) {
      admitted = true;
      (void)(*conn)->Execute("INSERT INTO t VALUES (1)");
    }
  });
  // Give the waiter time to join the admission queue, then free the
  // slot; the queued connection must be promoted, not rejected.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  first.reset();
  waiter.join();
  EXPECT_TRUE(admitted);

  std::unique_ptr<Connection> check = Connect();
  ASSERT_NE(check, nullptr);
  EXPECT_EQ(Exec(check.get(), "SELECT count(*) FROM t").GetInt(0, 0), 1);
}

TEST_F(ServerTest, BusyGateAnswersServerBusy) {
  ServerOptions options;
  options.lock_wait_ms = 50;
  StartServer(options);
  std::unique_ptr<Connection> a = Connect();
  std::unique_ptr<Connection> b = Connect();
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  Exec(a.get(), "CREATE TABLE t (id INT)");

  // A transaction holds the statement gate; B's statement must get an
  // explicit "server busy" within lock_wait_ms, never a silent stall.
  ASSERT_TRUE(a->Begin().ok());
  Result<client::ResultSet> busy = b->Execute("INSERT INTO t VALUES (9)");
  ASSERT_FALSE(busy.ok());
  EXPECT_EQ(busy.status().code(), StatusCode::kResourceExhausted)
      << busy.status().ToString();
  EXPECT_NE(busy.status().message().find("busy"), std::string::npos);

  ASSERT_TRUE(a->Commit().ok());
  EXPECT_TRUE(b->Execute("INSERT INTO t VALUES (10)").ok());
}

TEST_F(ServerTest, BigResultsStreamInBoundedChunks) {
  ServerOptions options;
  options.max_rows_frame_bytes = 512;  // force many kResultRows frames
  StartServer(options);
  std::unique_ptr<Connection> conn = Connect();
  ASSERT_NE(conn, nullptr);
  Exec(conn.get(), "CREATE TABLE t (id INT, pad CHAR(64))");
  ASSERT_TRUE(conn->Begin().ok());
  for (int i = 0; i < 400; ++i) {
    Exec(conn.get(), "INSERT INTO t VALUES (" + std::to_string(i) +
                         ", 'xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx')");
  }
  ASSERT_TRUE(conn->Commit().ok());
  client::ResultSet rs = Exec(conn.get(), "SELECT id FROM t ORDER BY id");
  ASSERT_EQ(rs.row_count(), 400u);
  EXPECT_EQ(rs.GetInt(0, 0), 0);
  EXPECT_EQ(rs.GetInt(399, 0), 399);
}

// Each result chunk is encoded straight into its frame. The frames must
// carry exactly the bytes of the reference encoding, which encodes a
// chunk's row images on their own, puts the row count before them and
// the header before that; bytes_out counts every byte sent.
TEST_F(ServerTest, ResultChunksMatchTheReferenceEncoding) {
  ServerOptions options;
  options.max_rows_frame_bytes = 512;  // many kResultRows frames
  StartServer(options);
  ASSERT_TRUE(
      db_->Execute("CREATE TABLE t (id INT, name CHAR(20), valid Element)")
          .ok());
  std::string insert = "INSERT INTO t VALUES ";
  for (int i = 0; i < 300; ++i) {
    if (i > 0) insert += ", ";
    insert += "(" + std::to_string(i) + ", 'name" + std::to_string(i) +
              "', '" +
              (i % 2 == 0 ? "{[1999-01-01, NOW]}"
                          : "{[1995-05-05, 1996-06-06], [1997-01-01, "
                            "1997-02-01]}") +
              "')";
  }
  ASSERT_TRUE(db_->Execute(insert).ok());
  const std::string sql = "SELECT id, name, valid FROM t";
  Result<engine::ResultSet> local = db_->Execute(sql);
  ASSERT_TRUE(local.ok()) << local.status().ToString();

  std::vector<std::string> expected;  // kResultRows payloads
  for (size_t i = 0; i < local->rows.size();) {
    std::string rows_bytes;
    uint32_t count = 0;
    while (i < local->rows.size() &&
           rows_bytes.size() < options.max_rows_frame_bytes) {
      engine::EncodeRowImage(local->rows[i++], db_->types(), &rows_bytes);
      ++count;
    }
    std::string payload;
    engine::wire::PutU32(count, &payload);
    payload += rows_bytes;
    expected.push_back(std::move(payload));
  }
  ASSERT_GT(expected.size(), 2u);

  const uint64_t bytes_before = db_->server_stats().bytes_out.load();
  Result<int> fd = wire::DialTcp("127.0.0.1", server_->port(), 1000);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(wire::WriteFrame(*fd, wire::FrameType::kHello,
                               wire::BuildHello(), 1000)
                  .ok());
  // ReadFrame checks each frame's length and CRC against its payload,
  // so equal payloads mean equal frames.
  uint64_t bytes_received = 0;
  Result<wire::Frame> hello_ok = wire::ReadFrame(*fd, 5000, 5000);
  ASSERT_TRUE(hello_ok.ok());
  bytes_received += wire::kFrameHeaderSize + hello_ok->payload.size();
  ASSERT_TRUE(wire::WriteFrame(*fd, wire::FrameType::kExec,
                               wire::BuildExec(sql, {}, db_->types()), 1000)
                  .ok());
  std::vector<std::string> received;
  for (;;) {
    Result<wire::Frame> frame = wire::ReadFrame(*fd, 5000, 5000);
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    bytes_received += wire::kFrameHeaderSize + frame->payload.size();
    if (frame->type == wire::FrameType::kResultDone) break;
    if (frame->type == wire::FrameType::kResultRows) {
      received.push_back(std::move(frame->payload));
    } else {
      ASSERT_EQ(frame->type, wire::FrameType::kResultHeader);
    }
  }
  close(*fd);
  EXPECT_EQ(received, expected);
  // The server counts a frame once its send returns, which may be just
  // after the client has read it.
  for (int i = 0; i < 100 && db_->server_stats().bytes_out.load() -
                                     bytes_before <
                                 bytes_received;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(db_->server_stats().bytes_out.load() - bytes_before,
            bytes_received);
}

// ---- Results encoded from the plan ----------------------------------------

// Opens a session over a bare socket, so a test sees every frame the
// server sends rather than what the client library makes of them.
// Returns the socket, or -1 after a failed expectation.
int OpenRawSession(int port, wire::HelloOk* hello) {
  Result<int> fd = wire::DialTcp("127.0.0.1", port, 1000);
  EXPECT_TRUE(fd.ok()) << fd.status().ToString();
  if (!fd.ok()) return -1;
  Status sent =
      wire::WriteFrame(*fd, wire::FrameType::kHello, wire::BuildHello(), 1000);
  Result<wire::Frame> reply =
      sent.ok() ? wire::ReadFrame(*fd, 5000, 5000) : Result<wire::Frame>(sent);
  Result<wire::HelloOk> parsed =
      reply.ok() ? wire::ParseHelloOk(reply->payload)
                 : Result<wire::HelloOk>(reply.status());
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  if (!parsed.ok()) {
    close(*fd);
    return -1;
  }
  *hello = *parsed;
  return *fd;
}

// Sends one statement on a bare session and returns the frames of its
// reply, up to the kResultDone or kError that ends it.
std::vector<wire::Frame> RawExec(int fd, const std::string& sql,
                                 const engine::TypeRegistry& types,
                                 const engine::Params& params = {}) {
  std::vector<wire::Frame> frames;
  Status sent = wire::WriteFrame(fd, wire::FrameType::kExec,
                                 wire::BuildExec(sql, params, types), 1000);
  EXPECT_TRUE(sent.ok()) << sent.ToString();
  while (sent.ok()) {
    Result<wire::Frame> frame = wire::ReadFrame(fd, 10000, 5000);
    EXPECT_TRUE(frame.ok()) << sql << " -> " << frame.status().ToString();
    if (!frame.ok()) break;
    frames.push_back(std::move(*frame));
    if (frames.back().type == wire::FrameType::kResultDone ||
        frames.back().type == wire::FrameType::kError) {
      break;
    }
  }
  return frames;
}

// The error of a reply that must consist of one kError frame alone:
// no header and no rows before it.
wire::WireError OnlyError(const std::vector<wire::Frame>& frames) {
  EXPECT_EQ(frames.size(), 1u);
  if (frames.empty() || frames.back().type != wire::FrameType::kError) {
    ADD_FAILURE() << "the reply does not end in an error frame";
    return wire::WireError{Status::Internal("no error frame"), false};
  }
  Result<wire::WireError> error = wire::ParseError(frames.back().payload);
  EXPECT_TRUE(error.ok());
  return error.ok() ? *error
                    : wire::WireError{Status::Internal("torn error"), false};
}

// Total row-chunk payload bytes of a successful reply.
size_t RowBytes(const std::vector<wire::Frame>& frames) {
  EXPECT_FALSE(frames.empty());
  if (!frames.empty()) {
    EXPECT_EQ(frames.back().type, wire::FrameType::kResultDone);
  }
  size_t bytes = 0;
  for (const wire::Frame& frame : frames) {
    if (frame.type == wire::FrameType::kResultRows) {
      bytes += frame.payload.size();
    }
  }
  return bytes;
}

// 3,000 prescriptions whose validities mix NOW-relative and absolute
// Elements, behind an interval index; kWindow overlaps every one of
// them under NOW 1999-11-15.
constexpr int kWindowRows = 3000;
constexpr char kWindow[] =
    "SELECT id, patient, drug, valid FROM rx "
    "WHERE overlaps(valid, '{[1999-01-01, 1999-12-31]}'::Element)";

void LoadWindowTable(engine::Database* db) {
  ASSERT_TRUE(db->Execute("CREATE TABLE rx (id INT, patient CHAR(20), "
                          "drug CHAR(20), valid Element)")
                  .ok());
  std::string insert = "INSERT INTO rx VALUES ";
  for (int i = 0; i < kWindowRows; ++i) {
    const std::string day = std::to_string(10 + i % 18);
    std::string valid;
    switch (i % 3) {
      case 0:
        valid = "{[1999-02-" + day + ", NOW]}";
        break;
      case 1:
        valid = "{[1998-06-" + day + ", 1999-03-01], [1999-06-" + day +
                ", NOW]}";
        break;
      default:
        valid = "{[1995-01-" + day + ", 2001-01-01]}";
        break;
    }
    if (i > 0) insert += ", ";
    insert += "(" + std::to_string(i) + ", 'patient" +
              std::to_string(i % 500) + "', 'drug" + std::to_string(i % 40) +
              "', '" + valid + "')";
  }
  ASSERT_TRUE(db->Execute(insert).ok());
  ASSERT_TRUE(
      db->Execute("CREATE INDEX rx_valid ON rx (valid) USING interval").ok());
}

// The rows of a result as text, in their order.
std::vector<std::string> RowTexts(const engine::ResultSet& result,
                                  const engine::TypeRegistry& types) {
  std::vector<std::string> lines;
  for (const engine::Row& row : result.rows) {
    std::string line;
    for (const engine::Datum& value : row) line += types.Format(value) + "|";
    lines.push_back(std::move(line));
  }
  return lines;
}

TEST_F(ServerTest, MemoryBudgetBoundsABigRemoteResult) {
  StartServer();
  LoadWindowTable(db_.get());
  wire::HelloOk hello;
  const int fd = OpenRawSession(server_->port(), &hello);
  ASSERT_GE(fd, 0);
  const engine::TypeRegistry& types = db_->types();
  RawExec(fd, "SET NOW '1999-11-15'", types);
  const size_t encoded = RowBytes(RawExec(fd, kWindow, types));
  const size_t limit_kb = 64;
  ASSERT_GT(encoded, limit_kb * 1024);

  RawExec(fd, "SET memory_limit_kb " + std::to_string(limit_kb), types);
  const wire::WireError error = OnlyError(RawExec(fd, kWindow, types));
  EXPECT_EQ(error.status.code(), StatusCode::kResourceExhausted)
      << error.status.ToString();
  EXPECT_FALSE(error.in_txn);

  // The session and its gate survive: the next statement, under the
  // same limit, answers.
  std::vector<wire::Frame> next = RawExec(
      fd,
      "SELECT count(*) FROM rx "
      "WHERE overlaps(valid, '{[1999-01-01, 1999-12-31]}'::Element)",
      types);
  ASSERT_EQ(next.size(), 3u);
  Result<std::vector<engine::Row>> count =
      wire::ParseRowsChunk(next[1].payload, {engine::TypeId::kInt}, types);
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  EXPECT_EQ((*count)[0][0].int_value(), kWindowRows);
  close(fd);

  // The same limit trips the embedded path, which charges each row
  // it collects.
  ASSERT_TRUE(db_->Execute("SET NOW '1999-11-15'").ok());
  ASSERT_TRUE(
      db_->Execute("SET memory_limit_kb " + std::to_string(limit_kb)).ok());
  Result<engine::ResultSet> embedded = db_->Execute(kWindow);
  ASSERT_FALSE(embedded.ok());
  EXPECT_EQ(embedded.status().code(), StatusCode::kResourceExhausted);
}

TEST_F(ServerTest, FailureAfterEncodedRowsSendsNoPartialResult) {
  ServerOptions options;
  options.max_rows_frame_bytes = 512;  // chunks close before the failure
  StartServer(options);
  LoadWindowTable(db_.get());
  wire::HelloOk hello;
  const int fd = OpenRawSession(server_->port(), &hello);
  ASSERT_GE(fd, 0);
  const engine::TypeRegistry& types = db_->types();
  // Row 2500 divides by zero after 2,500 rows were encoded.
  const std::string failing = "SELECT id, 10 / (id - 2500) FROM rx";

  wire::WireError error = OnlyError(RawExec(fd, failing, types));
  EXPECT_EQ(error.status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(error.status.message().find("division by zero"),
            std::string::npos);
  EXPECT_FALSE(error.in_txn);

  // Inside a transaction the error leaves it open, as a validation
  // error does, and ROLLBACK ends it.
  ASSERT_EQ(RawExec(fd, "BEGIN", types).back().type,
            wire::FrameType::kResultDone);
  error = OnlyError(RawExec(fd, failing, types));
  EXPECT_EQ(error.status.code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(error.in_txn);
  std::vector<wire::Frame> rollback = RawExec(fd, "ROLLBACK", types);
  ASSERT_EQ(rollback.size(), 2u);
  Result<wire::ResultHeader> header =
      wire::ParseResultHeader(rollback[0].payload);
  ASSERT_TRUE(header.ok());
  EXPECT_EQ(header->message, "ROLLBACK");
  EXPECT_FALSE(header->in_txn);
  close(fd);
}

TEST_F(ServerTest, CancelDuringALongScanSendsNoPartialResult) {
  ServerOptions options;
  options.max_rows_frame_bytes = 512;
  StartServer(options);
  LoadWindowTable(db_.get());
  wire::HelloOk hello;
  const int fd = OpenRawSession(server_->port(), &hello);
  ASSERT_GE(fd, 0);
  // About 1 ms a row, so rows are being encoded when the cancel lands.
  ASSERT_TRUE(wire::WriteFrame(
                  fd, wire::FrameType::kExec,
                  wire::BuildExec("SELECT id, tip_sleep_ms(1) FROM rx", {},
                                  db_->types()),
                  1000)
                  .ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  std::vector<wire::Frame> frames;
  for (int i = 0; i < 200 && frames.empty(); ++i) {
    Result<int> cancel_fd = wire::DialTcp("127.0.0.1", server_->port(), 1000);
    ASSERT_TRUE(cancel_fd.ok());
    ASSERT_TRUE(wire::WriteFrame(*cancel_fd, wire::FrameType::kCancel,
                                 wire::BuildCancel({hello.session_id,
                                                    hello.cancel_key}),
                                 1000)
                    .ok());
    close(*cancel_fd);
    Result<wire::Frame> frame = wire::ReadFrame(fd, 20, 5000);
    if (frame.ok()) {
      frames.push_back(std::move(*frame));
    } else {
      ASSERT_TRUE(wire::IsIdleTimeout(frame.status()))
          << frame.status().ToString();
    }
  }
  const wire::WireError error = OnlyError(frames);
  EXPECT_EQ(error.status.code(), StatusCode::kCancelled)
      << error.status.ToString();
  EXPECT_FALSE(error.in_txn);
  // The session goes on.
  EXPECT_EQ(RawExec(fd, "SELECT count(*) FROM rx", db_->types()).back().type,
            wire::FrameType::kResultDone);
  close(fd);
}

TEST_F(ServerTest, NowRelativeWindowMatchesEmbeddedAtEveryChunkSize) {
  for (const size_t frame_bytes :
       {size_t{512}, ServerOptions().max_rows_frame_bytes}) {
    if (server_ != nullptr) {
      server_->Shutdown();
      server_.reset();
    }
    ServerOptions options;
    options.max_rows_frame_bytes = frame_bytes;
    StartServer(options);
    LoadWindowTable(db_.get());
    ASSERT_TRUE(db_->Execute("SET NOW '1999-11-15'").ok());
    Result<engine::ResultSet> embedded = db_->Execute(kWindow);
    ASSERT_TRUE(embedded.ok()) << embedded.status().ToString();
    ASSERT_EQ(embedded->row_count(), static_cast<size_t>(kWindowRows));

    std::unique_ptr<Connection> conn = Connect();
    ASSERT_NE(conn, nullptr);
    ASSERT_TRUE(conn->SetNow(*Chronon::Parse("1999-11-15")).ok());
    client::ResultSet remote = Exec(conn.get(), kWindow);
    EXPECT_EQ(RowTexts(remote.raw(), conn->types()),
              RowTexts(*embedded, db_->types()))
        << "max_rows_frame_bytes " << frame_bytes;
  }
}

// ---- Idle, cancel, disconnect ----------------------------------------------

TEST_F(ServerTest, IdleSessionIsReaped) {
  ServerOptions options;
  options.idle_timeout_ms = 100;
  StartServer(options);
  std::unique_ptr<Connection> conn = Connect();
  ASSERT_NE(conn, nullptr);
  Exec(conn.get(), "CREATE TABLE t (id INT)");
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  Result<client::ResultSet> r = conn->Execute("SELECT count(*) FROM t");
  EXPECT_FALSE(r.ok());
  // The first statement may surface the server's buffered idle-timeout
  // error frame as an ordinary statement error; the next operation hits
  // the closed socket for certain.
  if (conn->alive()) EXPECT_FALSE(conn->Ping().ok());
  EXPECT_FALSE(conn->alive());
  EXPECT_GE(db_->server_stats().idle_timeouts.load(), 1u);
  // The reaped slot is free again.
  std::unique_ptr<Connection> again = Connect();
  ASSERT_NE(again, nullptr);
  EXPECT_TRUE(again->Ping().ok());
}

TEST_F(ServerTest, RemoteCancelInterruptsARunningStatement) {
  StartServer();
  std::unique_ptr<Connection> conn = Connect();
  ASSERT_NE(conn, nullptr);

  std::atomic<bool> done{false};
  Result<client::ResultSet> outcome = Status::Internal("not run");
  std::thread runner([&] {
    outcome = conn->Execute("SELECT tip_sleep_ms(20000)");
    done = true;
  });
  // Cancels race the statement's arrival; keep presenting the cancel
  // key until the statement reports in.
  for (int i = 0; i < 500 && !done; ++i) {
    ASSERT_TRUE(conn->Cancel().ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  runner.join();
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kCancelled)
      << outcome.status().ToString();
  // Cancellation is a statement error; the session survives it.
  EXPECT_TRUE(conn->alive());
  EXPECT_TRUE(conn->Ping().ok());
  EXPECT_GE(db_->server_stats().cancels_received.load(), 1u);
}

TEST_F(ServerTest, CancelWithWrongKeyIsIgnored) {
  StartServer();
  std::unique_ptr<Connection> conn = Connect();
  ASSERT_NE(conn, nullptr);

  // A forged cancel (right session, wrong key) must not interrupt.
  wire::CancelRequest forged;
  forged.session_id = conn->session_id();
  forged.cancel_key = conn->cancel_key() ^ 0xdeadbeef;
  Result<int> fd = wire::DialTcp("127.0.0.1", server_->port(), 1000);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(wire::WriteFrame(*fd, wire::FrameType::kCancel,
                               wire::BuildCancel(forged), 1000)
                  .ok());
  close(*fd);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  Result<client::ResultSet> r = conn->Execute("SELECT tip_sleep_ms(20)");
  EXPECT_TRUE(r.ok()) << r.status().ToString();
}

TEST_F(ServerTest, AbruptDisconnectRollsBackTheOpenTransaction) {
  ServerOptions options;
  options.max_sessions = 1;  // the freed slot is part of the assertion
  StartServer(options);
  {
    std::unique_ptr<Connection> conn = Connect();
    ASSERT_NE(conn, nullptr);
    Exec(conn.get(), "CREATE TABLE t (id INT)");
    Exec(conn.get(), "INSERT INTO t VALUES (1)");
    ASSERT_TRUE(conn->Begin().ok());
    Exec(conn.get(), "INSERT INTO t VALUES (2)");
    // Dead client: the connection object goes away mid-transaction.
  }
  // The server must roll the abandoned transaction back and release
  // the (only) session slot.
  std::unique_ptr<Connection> conn;
  for (int i = 0; i < 100 && conn == nullptr; ++i) {
    Result<std::unique_ptr<Connection>> attempt =
        Connection::Connect("127.0.0.1", server_->port());
    if (attempt.ok()) {
      conn = std::move(*attempt);
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
  ASSERT_NE(conn, nullptr) << "dead client's slot was never released";
  EXPECT_EQ(Exec(conn.get(), "SELECT count(*) FROM t").GetInt(0, 0), 1);
}

// ---- Protocol hygiene ------------------------------------------------------

TEST_F(ServerTest, ProtocolVersionMismatchIsRefused) {
  StartServer();
  Result<int> fd = wire::DialTcp("127.0.0.1", server_->port(), 1000);
  ASSERT_TRUE(fd.ok());
  std::string hello;
  engine::wire::PutU32(wire::kProtocolVersion + 7, &hello);
  ASSERT_TRUE(
      wire::WriteFrame(*fd, wire::FrameType::kHello, hello, 1000).ok());
  Result<wire::Frame> reply = wire::ReadFrame(*fd, 2000, 2000);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_EQ(reply->type, wire::FrameType::kError);
  Result<wire::WireError> err = wire::ParseError(reply->payload);
  ASSERT_TRUE(err.ok());
  EXPECT_EQ(err->status.code(), StatusCode::kInvalidArgument)
      << err->status.ToString();
  close(*fd);
}

TEST_F(ServerTest, CorruptFrameFailStopsOnlyThatSession) {
  StartServer();
  std::unique_ptr<Connection> bystander = Connect();
  ASSERT_NE(bystander, nullptr);
  Exec(bystander.get(), "CREATE TABLE t (id INT)");

  // A hand-rolled session that sends a frame whose CRC does not match.
  Result<int> fd = wire::DialTcp("127.0.0.1", server_->port(), 1000);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(wire::WriteFrame(*fd, wire::FrameType::kHello,
                               wire::BuildHello(), 1000)
                  .ok());
  Result<wire::Frame> ok = wire::ReadFrame(*fd, 5000, 5000);
  ASSERT_TRUE(ok.ok());
  ASSERT_EQ(ok->type, wire::FrameType::kHelloOk);

  std::string frame;
  std::string payload = "SELECT 1";
  engine::wire::PutU32(static_cast<uint32_t>(payload.size()), &frame);
  engine::wire::PutU8(static_cast<uint8_t>(wire::FrameType::kExec), &frame);
  engine::wire::PutU32(0xbad0bad0, &frame);  // wrong CRC
  frame += payload;
  ssize_t wrote = write(*fd, frame.data(), frame.size());
  ASSERT_EQ(wrote, static_cast<ssize_t>(frame.size()));
  // Fail-stop: the server hangs up on this session without replying.
  Result<wire::Frame> gone = wire::ReadFrame(*fd, 5000, 5000);
  EXPECT_FALSE(gone.ok());
  close(*fd);

  // ...and the bystander session never noticed.
  EXPECT_TRUE(bystander->Ping().ok());
  EXPECT_EQ(Exec(bystander.get(), "SELECT count(*) FROM t").GetInt(0, 0), 0);
  EXPECT_GE(db_->server_stats().wire_faults.load(), 1u);
}

TEST_F(ServerTest, SlowHandshakeIsDropped) {
  ServerOptions options;
  options.hello_timeout_ms = 100;
  StartServer(options);
  // Connect but never say Hello: the slot must not be consumed.
  Result<int> fd = wire::DialTcp("127.0.0.1", server_->port(), 1000);
  ASSERT_TRUE(fd.ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  // A well-behaved client still gets in afterwards.
  std::unique_ptr<Connection> conn = Connect();
  ASSERT_NE(conn, nullptr);
  EXPECT_TRUE(conn->Ping().ok());
  close(*fd);
}

// ---- Observability ---------------------------------------------------------

TEST_F(ServerTest, ServerStatsCountTheTraffic) {
  StartServer();
  std::unique_ptr<Connection> a = Connect();
  std::unique_ptr<Connection> b = Connect();
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  Exec(a.get(), "CREATE TABLE t (id INT)");
  Exec(b.get(), "INSERT INTO t VALUES (1)");

  client::ResultSet sessions =
      Exec(a.get(), "SELECT tip_server_stats('sessions_total')");
  EXPECT_GE(sessions.GetInt(0, 0), 2);
  client::ResultSet active =
      Exec(a.get(), "SELECT tip_server_stats('sessions_active')");
  EXPECT_EQ(active.GetInt(0, 0), 2);
  client::ResultSet served =
      Exec(a.get(), "SELECT tip_server_stats('statements_served')");
  EXPECT_GE(served.GetInt(0, 0), 2);
  EXPECT_GT(Exec(a.get(), "SELECT tip_server_stats('bytes_in')").GetInt(0, 0),
            0);
  EXPECT_GT(
      Exec(a.get(), "SELECT tip_server_stats('bytes_out')").GetInt(0, 0), 0);

  client::ResultSet formatted = Exec(a.get(), "SELECT tip_server_stats()");
  EXPECT_NE(formatted.GetString(0, 0).find("sessions_active=2"),
            std::string::npos)
      << formatted.GetString(0, 0);

  // Server traffic does not leak into plans: EXPLAIN shows no
  // database-wide counter row.
  client::ResultSet explain = Exec(a.get(), "EXPLAIN SELECT * FROM t");
  ASSERT_GT(explain.row_count(), 0u);
  for (size_t i = 0; i < explain.row_count(); ++i) {
    EXPECT_EQ(explain.GetText(i, 0).find("ServerStats("), std::string::npos)
        << explain.GetText(i, 0);
  }

  Result<client::ResultSet> unknown =
      a->Execute("SELECT tip_server_stats('no_such_counter')");
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status().code(), StatusCode::kInvalidArgument);
}

// Every stats routine is generated from one counter list per
// subsystem: each name its formatted line prints is a name its
// one-counter overload accepts (in any case), and an unknown name is
// InvalidArgument.
TEST_F(ServerTest, StatsRoutinesAcceptEveryNameTheyPrint) {
  StartServer();
  std::unique_ptr<Connection> conn = Connect();
  ASSERT_NE(conn, nullptr);
  Exec(conn.get(), "CREATE TABLE rx (patient INT, valid Element)");
  Exec(conn.get(), "INSERT INTO rx VALUES (1, '{[1999-01-01, NOW]}')");
  Exec(conn.get(), "CREATE INDEX rx_valid ON rx (valid) USING interval");
  Exec(conn.get(),
       "SELECT patient FROM rx WHERE overlaps(valid, "
       "'{[1999-06-01, 1999-07-01]}'::Element)");

  // Each routine with the leading arguments of its two overloads.
  const std::pair<std::string, std::string> routines[] = {
      {"tip_index_stats", "'rx', 'rx_valid'"},
      {"tip_guard_stats", ""},
      {"tip_wal_stats", ""},
      {"tip_plan_stats", ""},
      {"tip_health", ""},
      {"tip_server_stats", ""}};
  for (const auto& [routine, args] : routines) {
    auto by_name = [&](const std::string& name) {
      return conn->Execute("SELECT " + routine + "(" + args +
                           (args.empty() ? "'" : ", '") + name + "')");
    };
    const std::string line =
        Exec(conn.get(), "SELECT " + routine + "(" + args + ")")
            .GetString(0, 0);
    size_t counters = 0;
    for (std::string_view token : SplitString(line, ' ')) {
      const size_t eq = token.find('=');
      if (eq == std::string_view::npos) continue;
      const std::string name(token.substr(0, eq));
      const std::string_view value = token.substr(eq + 1);
      if (value.empty() ||
          value.find_first_not_of("0123456789") != std::string_view::npos) {
        // The WAL mode word is the one non-counter `name=` field.
        EXPECT_EQ(routine + "." + name, "tip_wal_stats.mode") << line;
        continue;
      }
      ++counters;
      Result<client::ResultSet> exact = by_name(name);
      EXPECT_TRUE(exact.ok()) << routine << "('" << name
                              << "'): " << exact.status().ToString();
      Result<client::ResultSet> upper = by_name(ToUpperAscii(name));
      EXPECT_TRUE(upper.ok()) << routine << "('" << ToUpperAscii(name)
                              << "'): " << upper.status().ToString();
    }
    EXPECT_GT(counters, 0u) << line;
    Result<client::ResultSet> unknown = by_name("no_such_counter");
    ASSERT_FALSE(unknown.ok()) << routine;
    EXPECT_EQ(unknown.status().code(), StatusCode::kInvalidArgument)
        << routine << ": " << unknown.status().ToString();
  }

  // The 17 counters the benchmark reads around every run
  // (tipbench/workloads.cc) keep their names.
  client::ResultSet bench = Exec(
      conn.get(),
      "SELECT tip_index_stats('rx', 'rx_valid', 'probes'), "
      "tip_index_stats('rx', 'rx_valid', 'rows_scanned'), "
      "tip_index_stats('rx', 'rx_valid', 'rows_returned'), "
      "tip_index_stats('rx', 'rx_valid', 'overlay_builds'), "
      "tip_index_stats('rx', 'rx_valid', 'absolute_builds'), "
      "tip_wal_stats('bytes_written'), tip_wal_stats('fsyncs'), "
      "tip_plan_stats('hits'), tip_plan_stats('misses'), "
      "tip_server_stats('statements_served'), "
      "tip_server_stats('bytes_out'), "
      "tip_server_stats('gate_shared'), "
      "tip_server_stats('gate_exclusive'), "
      "tip_server_stats('gate_wait_shared_ms'), "
      "tip_server_stats('gate_wait_exclusive_ms'), "
      "tip_server_stats('gate_busy_shared'), "
      "tip_server_stats('gate_busy_exclusive')");
  ASSERT_EQ(bench.row_count(), 1u);
  EXPECT_EQ(bench.column_count(), 17u);
  EXPECT_GE(bench.GetInt(0, 0), 1);  // the probe above
}

TEST_F(ServerTest, RejectionsShowUpInStats) {
  ServerOptions options;
  options.max_sessions = 1;
  options.admission_wait_ms = 50;
  StartServer(options);
  std::unique_ptr<Connection> keeper = Connect();
  ASSERT_NE(keeper, nullptr);
  for (int i = 0; i < 3; ++i) {
    Result<std::unique_ptr<Connection>> refused =
        Connection::Connect("127.0.0.1", server_->port());
    EXPECT_FALSE(refused.ok());
  }
  client::ResultSet rejected =
      Exec(keeper.get(), "SELECT tip_server_stats('sessions_rejected')");
  EXPECT_GE(rejected.GetInt(0, 0), 3);
}

// ---- Shutdown --------------------------------------------------------------

TEST_F(ServerTest, ShutdownDrainsAndCountsIt) {
  StartServer();
  std::unique_ptr<Connection> conn = Connect();
  ASSERT_NE(conn, nullptr);
  Exec(conn.get(), "CREATE TABLE t (id INT)");
  Exec(conn.get(), "INSERT INTO t VALUES (1)");

  server_->Shutdown();
  EXPECT_EQ(db_->server_stats().drains.load(), 1u);
  EXPECT_EQ(db_->server_stats().sessions_active.load(), 0u);
  // The engine survives its server: embedded access still works.
  Result<engine::ResultSet> direct = db_->Execute("SELECT count(*) FROM t");
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(direct->rows[0][0].int_value(), 1);
  // New connections are refused after shutdown.
  Result<std::unique_ptr<Connection>> late =
      Connection::Connect("127.0.0.1", server_->port());
  EXPECT_FALSE(late.ok());
  server_.reset();
}

}  // namespace
}  // namespace tip::server
