#include "ttime/tracked_table.h"

#include "common/string_util.h"

namespace tip::ttime {

namespace {

std::string AndWhere(std::string_view base, std::string_view extra) {
  if (extra.empty()) return std::string(base);
  return std::string(base) + " AND (" + std::string(extra) + ")";
}

/// The NOW the connection's statements evaluate under: its open
/// transaction's pin, else its NOW override, else the clock.
Result<Chronon> TransactionTime(client::Connection* conn) {
  TIP_ASSIGN_OR_RETURN(client::ResultSet now,
                       conn->Execute("SELECT transaction_time()"));
  return now.GetChronon(0, 0);
}

}  // namespace

std::string TrackedTable::CurrentPredicate() {
  // A version is current while its tt_end is still the symbolic NOW.
  return "is_now_relative(tt_end)";
}

std::string TrackedTable::UserColumnList() const {
  std::string out;
  for (size_t i = 0; i < user_columns_.size(); ++i) {
    if (i > 0) out += ", ";
    out += user_columns_[i];
  }
  return out;
}

Result<TrackedTable> TrackedTable::Create(client::Connection* conn,
                                          std::string_view name,
                                          std::string_view column_defs) {
  const std::string sql = "CREATE TABLE " + std::string(name) + " (" +
                          std::string(column_defs) +
                          ", tt_start Chronon, tt_end Instant)";
  TIP_ASSIGN_OR_RETURN(client::ResultSet created, conn->Execute(sql));
  (void)created;
  return Attach(conn, name);
}

Result<TrackedTable> TrackedTable::Attach(client::Connection* conn,
                                          std::string_view name) {
  // A zero-row SELECT's header lists the table's columns.
  TIP_ASSIGN_OR_RETURN(
      client::ResultSet header,
      conn->Execute("SELECT * FROM " + std::string(name) + " WHERE 1 = 0"));
  if (header.FindColumn("tt_start") < 0 || header.FindColumn("tt_end") < 0) {
    return Status::InvalidArgument("table '" + std::string(name) +
                                   "' is not transaction-time tracked");
  }
  std::vector<std::string> user_columns;
  for (size_t i = 0; i < header.column_count(); ++i) {
    const std::string& col = header.column_name(i);
    if (col != "tt_start" && col != "tt_end") user_columns.push_back(col);
  }
  if (user_columns.empty()) {
    return Status::InvalidArgument("tracked table needs user columns");
  }
  return TrackedTable(conn, std::string(name), std::move(user_columns));
}

Status TrackedTable::Insert(std::string_view values_sql) {
  // transaction_time() stamps the assertion time; 'NOW' marks it
  // current (string -> Instant through the implicit cast).
  const std::string sql = "INSERT INTO " + name_ + " VALUES (" +
                          std::string(values_sql) +
                          ", transaction_time(), 'NOW')";
  TIP_ASSIGN_OR_RETURN(client::ResultSet inserted, conn_->Execute(sql));
  (void)inserted;
  return Status::OK();
}

Result<int64_t> TrackedTable::Update(
    const std::vector<Assignment>& assignments,
    std::string_view where_sql) {
  TIP_ASSIGN_OR_RETURN(const Chronon tx, TransactionTime(conn_));
  // Closed versions end one chronon before the new assertion so an
  // AS OF at the update instant sees exactly the new version. A version
  // asserted and superseded within the same chronon collapses to a
  // single-chronon history entry.
  TIP_ASSIGN_OR_RETURN(Chronon close, tx.Subtract(Span::FromSeconds(1)));

  // 1. Evaluate the new versions while the old ones are still visible.
  std::string projection;
  for (size_t i = 0; i < user_columns_.size(); ++i) {
    if (i > 0) projection += ", ";
    const std::string& col = user_columns_[i];
    std::string expr = col;
    for (const Assignment& a : assignments) {
      if (EqualsIgnoreCase(a.column, col)) {
        expr = "(" + a.expression_sql + ")";
        break;
      }
    }
    projection += expr + " AS " + col;
  }
  TIP_ASSIGN_OR_RETURN(
      client::ResultSet new_versions,
      conn_->Execute("SELECT " + projection + " FROM " + name_ +
                     " WHERE " + AndWhere(CurrentPredicate(), where_sql)));

  // 2. Close the old versions (clamped so tt_start <= tt_end holds even
  //    for same-chronon churn).
  client::Statement close_stmt = conn_->Prepare(
      "UPDATE " + name_ + " SET tt_end = CASE WHEN tt_start > :close "
      "THEN tt_start ELSE :close END WHERE " +
      AndWhere(CurrentPredicate(), where_sql));
  TIP_ASSIGN_OR_RETURN(client::ResultSet closed,
                       close_stmt.BindChronon("close", close).Execute());

  // 3. Assert the new versions.
  std::string insert_sql = "INSERT INTO " + name_ + " VALUES (";
  for (size_t i = 0; i < user_columns_.size(); ++i) {
    insert_sql += ":c" + std::to_string(i) + ", ";
  }
  insert_sql += ":tt, 'NOW')";
  client::Statement insert_stmt = conn_->Prepare(insert_sql);
  for (size_t r = 0; r < new_versions.row_count(); ++r) {
    for (size_t c = 0; c < user_columns_.size(); ++c) {
      insert_stmt.BindDatum("c" + std::to_string(c),
                            new_versions.raw().rows[r][c]);
    }
    insert_stmt.BindChronon("tt", tx);
    TIP_ASSIGN_OR_RETURN(client::ResultSet inserted,
                         insert_stmt.Execute());
    (void)inserted;
  }
  return closed.affected_rows();
}

Result<int64_t> TrackedTable::Delete(std::string_view where_sql) {
  TIP_ASSIGN_OR_RETURN(const Chronon tx, TransactionTime(conn_));
  TIP_ASSIGN_OR_RETURN(Chronon close, tx.Subtract(Span::FromSeconds(1)));
  client::Statement close_stmt = conn_->Prepare(
      "UPDATE " + name_ + " SET tt_end = CASE WHEN tt_start > :close "
      "THEN tt_start ELSE :close END WHERE " +
      AndWhere(CurrentPredicate(), where_sql));
  TIP_ASSIGN_OR_RETURN(client::ResultSet closed,
                       close_stmt.BindChronon("close", close).Execute());
  return closed.affected_rows();
}

Result<client::ResultSet> TrackedTable::Current(
    std::string_view select_list, std::string_view where_sql) const {
  return conn_->Execute("SELECT " + std::string(select_list) + " FROM " +
                        name_ + " WHERE " +
                        AndWhere(CurrentPredicate(), where_sql));
}

Result<client::ResultSet> TrackedTable::AsOf(
    const Chronon& t, std::string_view select_list,
    std::string_view where_sql) const {
  // Current versions ("until changed") cover every transaction time
  // from their assertion on — including times after the statement's
  // NOW, which grounding the symbolic tt_end would not.
  client::Statement stmt = conn_->Prepare(
      "SELECT " + std::string(select_list) + " FROM " + name_ +
      " WHERE " +
      AndWhere("tt_start <= :asof AND (is_now_relative(tt_end) OR "
               ":asof <= tt_end)",
               where_sql));
  return stmt.BindChronon("asof", t).Execute();
}

Result<client::ResultSet> TrackedTable::History(
    std::string_view where_sql) const {
  std::string sql = "SELECT " + UserColumnList() +
                    ", tt_start, tt_end FROM " + name_;
  if (!where_sql.empty()) sql += " WHERE " + std::string(where_sql);
  sql += " ORDER BY tt_start";
  return conn_->Execute(sql);
}

}  // namespace tip::ttime
