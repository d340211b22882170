#ifndef TIP_TTIME_TRACKED_TABLE_H_
#define TIP_TTIME_TRACKED_TABLE_H_

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "client/connection.h"
#include "common/status.h"

namespace tip::ttime {

/// Transaction-time table maintenance built *on* TIP's types — the
/// step from the paper's valid-time model toward bitemporal data (the
/// TimeCenter lineage the paper situates itself in).
///
/// A tracked table carries two system columns:
///
///   tt_start  Chronon   when this version was asserted
///   tt_end    Instant   when it was superseded; the special value NOW
///                       means "still current" — TIP's NOW-relative
///                       Instant is exactly the right type for the
///                       "until changed" marker, and timeslices fall
///                       out of ordinary TIP routines:
///                       contains(period(tt_start, tt_end), :t)
///
/// Writes never destroy history: Update and Delete close the current
/// versions (grounding their tt_end at the transaction time) and, for
/// Update, insert the new versions. Combined with a `valid Element`
/// user column, a tracked table is a bitemporal table. Everything is
/// plain SQL through the connection, so a tracked table works on either
/// client transport: an embedded engine or a session on `tipd`.
class TrackedTable {
 public:
  /// Creates `name` with `column_defs` (e.g. "patient CHAR(20), valid
  /// Element") plus the two system columns.
  static Result<TrackedTable> Create(client::Connection* conn,
                                     std::string_view name,
                                     std::string_view column_defs);

  /// Attaches to an existing tracked table.
  static Result<TrackedTable> Attach(client::Connection* conn,
                                     std::string_view name);

  /// Inserts one row; `values_sql` covers the user columns only (the
  /// system columns are filled with the transaction time and NOW).
  Status Insert(std::string_view values_sql);

  /// One assignment of an Update.
  struct Assignment {
    std::string column;
    std::string expression_sql;  // may reference the old row's columns
  };

  /// Sequenced-transaction update: closes every current row matching
  /// `where_sql` (empty = all) and asserts new versions with the
  /// assignments applied. Returns the number of updated rows.
  Result<int64_t> Update(const std::vector<Assignment>& assignments,
                         std::string_view where_sql);

  /// Logical delete: closes matching current rows. Returns the count.
  Result<int64_t> Delete(std::string_view where_sql);

  /// The current snapshot: `SELECT <select_list> ... ` over rows whose
  /// tt_end is still NOW. Empty `where_sql` selects everything.
  Result<client::ResultSet> Current(std::string_view select_list,
                                    std::string_view where_sql) const;

  /// Transaction-time slice: the table as it was recorded at `t`.
  Result<client::ResultSet> AsOf(const Chronon& t,
                                 std::string_view select_list,
                                 std::string_view where_sql) const;

  /// Full history (every version), tt columns included.
  Result<client::ResultSet> History(std::string_view where_sql) const;

  const std::string& name() const { return name_; }

 private:
  TrackedTable(client::Connection* conn, std::string name,
               std::vector<std::string> user_columns)
      : conn_(conn),
        name_(std::move(name)),
        user_columns_(std::move(user_columns)) {}

  /// The predicate selecting *current* versions.
  static std::string CurrentPredicate();
  std::string UserColumnList() const;

  client::Connection* conn_;
  std::string name_;
  std::vector<std::string> user_columns_;
};

}  // namespace tip::ttime

#endif  // TIP_TTIME_TRACKED_TABLE_H_
