#ifndef TIP_ENGINE_EXEC_RESULT_SET_H_
#define TIP_ENGINE_EXEC_RESULT_SET_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "engine/types/datum.h"
#include "engine/types/type.h"

namespace tip::engine {

struct ResultColumn {
  std::string name;
  TypeId type;
};

/// The materialized outcome of one statement: a relation for queries,
/// an affected-row count for DML, a message for DDL / SET / EXPLAIN.
class ResultSet {
 public:
  ResultSet() = default;

  std::vector<ResultColumn> columns;
  std::vector<Row> rows;
  int64_t affected_rows = 0;
  std::string message;

  size_t row_count() const { return rows.size(); }
  size_t column_count() const { return columns.size(); }

  /// Case-insensitive column lookup; -1 on miss.
  int FindColumn(std::string_view name) const;

  /// Renders an aligned ASCII table (values formatted through the type
  /// registry's output functions).
  std::string ToTable(const TypeRegistry& types) const;
};

/// Where a statement's result goes as the engine produces it: the one
/// place rows leave a plan. The engine calls Columns once, Add once per
/// output row, then Finish. A failing statement stops calling it, and
/// the caller discards whatever the sink holds by then.
class ResultSink {
 public:
  virtual ~ResultSink() = default;

  /// The result's columns, before its first row (none for a statement
  /// that returns no relation).
  virtual void Columns(std::vector<ResultColumn> columns) = 0;

  /// Takes one output row, which the sink may move from, and returns
  /// the bytes it now holds for it; the engine charges them to the
  /// statement's memory budget.
  virtual size_t Add(Row* row) = 0;

  /// After the last row: the affected-row count and the message of a
  /// statement that is not a query.
  virtual void Finish(int64_t affected_rows, std::string message) = 0;
};

/// The embedded sink: collects the result into a ResultSet, charging
/// each row's ApproxRowBytes.
class CollectingSink final : public ResultSink {
 public:
  void Columns(std::vector<ResultColumn> columns) override;
  size_t Add(Row* row) override;
  void Finish(int64_t affected_rows, std::string message) override;

  ResultSet Take() { return std::move(result_); }

 private:
  ResultSet result_;
};

}  // namespace tip::engine

#endif  // TIP_ENGINE_EXEC_RESULT_SET_H_
