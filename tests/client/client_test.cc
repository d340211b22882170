#include "client/connection.h"

#include <gtest/gtest.h>

#include "testing/transports.h"

namespace tip::client {
namespace {

using transports::Transport;

/// The client API, run on both transports: ClientTest.* embedded and
/// ClientOverTipdTest.* through an in-process tipd.
class ClientTest : public ::testing::Test {
 protected:
  virtual Transport transport() const { return Transport::kEmbedded; }

  void SetUp() override {
    ASSERT_TRUE(harness_.Start(transport()).ok());
    Result<std::unique_ptr<Connection>> conn = harness_.Connect();
    ASSERT_TRUE(conn.ok()) << conn.status().ToString();
    conn_ = std::move(*conn);
    ASSERT_TRUE(conn_->SetNow(*Chronon::Parse("1999-11-15")).ok());
    Must("CREATE TABLE t (name CHAR(10), dob Chronon, valid Element)");
    Must("INSERT INTO t VALUES ('a', '1990-05-01', "
         "'{[1999-01-01, NOW]}')");
    Must("INSERT INTO t VALUES ('b', '1985-03-02', "
         "'{[1998-01-01, 1998-06-30]}')");
  }

  ResultSet Must(std::string_view sql) {
    Result<ResultSet> r = conn_->Execute(sql);
    EXPECT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
    return r.ok() ? std::move(*r)
                  : ResultSet(engine::ResultSet{}, conn_->tip_types(),
                              &conn_->types());
  }

  // The cases both transports run (CLIENT_TEST).
  void OpenInstallsDataBlade();
  void TypedGettersMapTipTypes();
  void GetTextFormatsAnyCell();
  void PreparedStatementBindsAllTipTypes();
  void BindEveryType();
  void NowOverridePerConnection();
  void SessionSetsAreRefusedInsideATransaction();
  void AffectedRowsAndErrors();
  void ToTableRendersSomething();

  transports::TransportHarness harness_;
  std::unique_ptr<Connection> conn_;
};

using ClientOverTipdTest = transports::OverTipd<ClientTest>;

#define CLIENT_TEST(Name) \
  TIP_TRANSPORT_TEST(ClientTest, ClientOverTipdTest, Name)

CLIENT_TEST(OpenInstallsDataBlade) {
  EXPECT_TRUE(conn_->types().FindByName("element").ok());
  EXPECT_EQ(conn_->tip_types().element,
            *conn_->types().FindByName("element"));
}

TEST_F(ClientTest, AttachRequiresInstalledBlade) {
  engine::Database bare;
  EXPECT_FALSE(Connection::Attach(&bare).ok());
  engine::Database equipped;
  ASSERT_TRUE(datablade::Install(&equipped).ok());
  Result<std::unique_ptr<Connection>> attached =
      Connection::Attach(&equipped);
  ASSERT_TRUE(attached.ok());
  EXPECT_TRUE((*attached)->Execute("SELECT 1").ok());
}

CLIENT_TEST(TypedGettersMapTipTypes) {
  ResultSet r = Must("SELECT name, dob, valid, length(valid) AS len "
                     "FROM t WHERE name = 'a'");
  ASSERT_EQ(r.row_count(), 1u);
  ASSERT_EQ(r.column_count(), 4u);
  EXPECT_EQ(r.GetString(0, 0), "a");
  EXPECT_EQ(r.GetChronon(0, 1).ToString(), "1990-05-01");
  const Element& valid = r.GetElement(0, 2);
  EXPECT_EQ(valid.ToString(), "{[1999-01-01, NOW]}");
  EXPECT_FALSE(valid.is_absolute());
  EXPECT_GT(r.GetSpan(0, 3).seconds(), 0);
  EXPECT_EQ(r.column_name(3), "len");
  EXPECT_EQ(r.column_type(1), conn_->tip_types().chronon);
  EXPECT_EQ(r.FindColumn("VALID"), 2);
  EXPECT_EQ(r.FindColumn("nosuch"), -1);
}

CLIENT_TEST(GetTextFormatsAnyCell) {
  ResultSet r = Must("SELECT dob, valid FROM t WHERE name = 'b'");
  EXPECT_EQ(r.GetText(0, 0), "1985-03-02");
  EXPECT_EQ(r.GetText(0, 1), "{[1998-01-01, 1998-06-30]}");
}

CLIENT_TEST(PreparedStatementBindsAllTipTypes) {
  Statement stmt = conn_->Prepare(
      "SELECT name FROM t WHERE contains(valid, :c) AND dob < :d");
  Result<ResultSet> r = stmt.BindChronon("c", *Chronon::Parse("1999-06-01"))
                            .BindChronon("d", *Chronon::Parse("2000-01-01"))
                            .Execute();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->row_count(), 1u);
  EXPECT_EQ(r->GetString(0, 0), "a");

  // Rebind and re-execute the same statement.
  r = stmt.ClearBindings()
          .BindChronon("c", *Chronon::Parse("1998-03-01"))
          .BindChronon("d", *Chronon::Parse("2000-01-01"))
          .Execute();
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->GetString(0, 0), "b");
}

CLIENT_TEST(BindEveryType) {
  Statement stmt = conn_->Prepare(
      "SELECT :i, :f, :b, :s, :c::char, :sp::char, :in::char, :p::char, "
      ":e::char, :n");
  Result<ResultSet> r =
      stmt.BindInt("i", 7)
          .BindDouble("f", 1.5)
          .BindBool("b", true)
          .BindString("s", "str")
          .BindChronon("c", *Chronon::Parse("1999-01-01"))
          .BindSpan("sp", *Span::Parse("7"))
          .BindInstant("in", *Instant::Parse("NOW-1"))
          .BindPeriod("p", *Period::Parse("[NOW-7, NOW]"))
          .BindElement("e", *Element::Parse("{[1999-01-01, NOW]}"))
          .BindNull("n")
          .Execute();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->GetInt(0, 0), 7);
  EXPECT_DOUBLE_EQ(r->GetDouble(0, 1), 1.5);
  EXPECT_TRUE(r->GetBool(0, 2));
  EXPECT_EQ(r->GetString(0, 3), "str");
  EXPECT_EQ(r->GetString(0, 4), "1999-01-01");
  EXPECT_EQ(r->GetString(0, 5), "7");
  EXPECT_EQ(r->GetString(0, 6), "NOW-1");
  EXPECT_EQ(r->GetString(0, 7), "[NOW-7, NOW]");
  EXPECT_EQ(r->GetString(0, 8), "{[1999-01-01, NOW]}");
  EXPECT_TRUE(r->IsNull(0, 9));
}

CLIENT_TEST(NowOverridePerConnection) {
  EXPECT_EQ(conn_->now_override()->ToString(), "1999-11-15");
  ResultSet before = Must("SELECT length(valid) FROM t WHERE name = 'a'");
  ASSERT_TRUE(conn_->SetNow(*Chronon::Parse("1999-12-15")).ok());
  ResultSet after = Must("SELECT length(valid) FROM t WHERE name = 'a'");
  EXPECT_EQ(after.GetSpan(0, 0).seconds() - before.GetSpan(0, 0).seconds(),
            30 * 86400);
  ASSERT_TRUE(conn_->ClearNow().ok());
  EXPECT_FALSE(conn_->now_override().has_value());
}

CLIENT_TEST(SessionSetsAreRefusedInsideATransaction) {
  // A transaction pins NOW and brackets its WAL records under one mode,
  // so the session SETs that would move either are refused until it
  // ends, on a durable database behind either transport.
  transports::ScratchDir dir;
  transports::TransportHarness durable;
  ASSERT_TRUE(durable.Start(transport(), dir.path()).ok());
  Result<std::unique_ptr<Connection>> conn = durable.Connect();
  ASSERT_TRUE(conn.ok()) << conn.status().ToString();
  Connection& c = **conn;
  ASSERT_TRUE(c.Begin().ok());
  const Status refusals[] = {c.SetWalMode(engine::WalMode::kSync),
                             c.SetNow(*Chronon::Parse("1999-12-15")),
                             c.ClearNow()};
  for (const Status& refused : refusals) {
    EXPECT_NE(refused.message().find("not allowed inside a transaction"),
              std::string::npos)
        << refused.ToString();
  }
  EXPECT_TRUE(c.in_transaction());
  EXPECT_FALSE(c.now_override().has_value());
  ASSERT_TRUE(c.Commit().ok());
  Result<ResultSet> stats = c.Execute("SELECT tip_wal_stats()");
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_NE(stats->GetString(0, 0).find("mode=group"), std::string::npos)
      << stats->GetString(0, 0);
}

CLIENT_TEST(AffectedRowsAndErrors) {
  ResultSet dml = Must("UPDATE t SET name = upper(name)");
  EXPECT_EQ(dml.affected_rows(), 2);
  EXPECT_FALSE(conn_->Execute("SELECT nosuch FROM t").ok());
  EXPECT_FALSE(conn_->Prepare("SELECT :unbound").Execute().ok());
}

CLIENT_TEST(ToTableRendersSomething) {
  ResultSet r = Must("SELECT name FROM t ORDER BY name");
  std::string table = r.ToTable();
  EXPECT_NE(table.find("name"), std::string::npos);
  EXPECT_NE(table.find("(2 rows)"), std::string::npos);
}

}  // namespace
}  // namespace tip::client
