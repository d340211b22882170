#ifndef TIP_BENCH_BENCH_UTIL_H_
#define TIP_BENCH_BENCH_UTIL_H_

// Shared scaffolding for the table-style experiment harnesses: each
// bench binary prints the rows/series of one paper-reproduction
// experiment (see DESIGN.md section 4 and EXPERIMENTS.md).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "client/connection.h"
#include "workload/medical.h"

namespace tip::bench {

/// Wall-clock milliseconds of one call.
inline double TimeMs(const std::function<void()>& fn) {
  auto start = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// The median of an odd number of values.
inline double Median(std::vector<double> values) {
  std::nth_element(values.begin(), values.begin() + values.size() / 2,
                   values.end());
  return values[values.size() / 2];
}

/// Median-of-three wall-clock milliseconds.
inline double MedianTimeMs(const std::function<void()>& fn) {
  return Median({TimeMs(fn), TimeMs(fn), TimeMs(fn)});
}

/// Writes the fields every BENCH_*.json opens with, so each number can
/// be traced to what produced it: the bench name, the machine's
/// hardware thread count, and the build type and git revision CMake
/// recorded when it configured the build (bench/CMakeLists.txt).
inline void WriteJsonHeader(std::FILE* json, const char* bench) {
  std::fprintf(json,
               "{\n  \"bench\": \"%s\",\n  \"cpu_count\": %u,\n"
               "  \"build_type\": \"%s\",\n  \"git_revision\": \"%s\",\n",
               bench, std::thread::hardware_concurrency(), TIP_BUILD_TYPE,
               TIP_GIT_REVISION);
}

/// Aborts with a message on error — benches have no recovery story.
inline void Check(const Status& status, const char* what) {
  if (!status.ok()) {
    std::fprintf(stderr, "%s: %s\n", what, status.ToString().c_str());
    std::exit(EXIT_FAILURE);
  }
}

template <typename T>
T CheckResult(Result<T> result, const char* what) {
  if (!result.ok()) {
    std::fprintf(stderr, "%s: %s\n", what,
                 result.status().ToString().c_str());
    std::exit(EXIT_FAILURE);
  }
  return std::move(result).value();
}

/// Opens a TIP connection pinned to the canonical demo NOW.
inline std::unique_ptr<client::Connection> OpenTip() {
  std::unique_ptr<client::Connection> conn =
      CheckResult(client::Connection::Open(), "open");
  conn->SetNow(*Chronon::Parse("1999-11-15"));
  return conn;
}

/// Executes SQL, aborting on failure; returns the engine result.
inline engine::ResultSet MustExec(engine::Database* db,
                                  std::string_view sql) {
  Result<engine::ResultSet> r = db->Execute(sql);
  if (!r.ok()) {
    std::fprintf(stderr, "sql failed: %.*s\n  %s\n",
                 static_cast<int>(sql.size()), sql.data(),
                 r.status().ToString().c_str());
    std::exit(EXIT_FAILURE);
  }
  return std::move(*r);
}

/// One worker count of a MeasureScaling run.
struct ScalingRow {
  int workers = 0;
  double ms = 0;       // median over rounds
  double speedup = 0;  // median over rounds of the first count's ms / ms
  bool agree = true;   // every answer equalled the first one
};

/// Times `sql` at each worker count (SET parallel_workers) over `rounds`
/// rounds (an odd count). Each round runs every worker count once, and
/// a speedup is taken within a round, so host load that comes in bursts
/// slows both sides of a ratio alike. Answers compare as sorted
/// formatted rows, whatever their order. Leaves the session at 1 worker.
inline std::vector<ScalingRow> MeasureScaling(
    engine::Database* db, const std::string& sql,
    const std::vector<int>& workers, int rounds) {
  auto answer = [&](const engine::ResultSet& result) {
    std::vector<std::string> lines;
    for (const engine::Row& row : result.rows) {
      std::string line;
      for (const engine::Datum& value : row) {
        line += db->types().Format(value) + "|";
      }
      lines.push_back(std::move(line));
    }
    std::sort(lines.begin(), lines.end());
    return lines;
  };
  std::vector<ScalingRow> rows(workers.size());
  std::vector<std::vector<double>> ms(workers.size());
  std::vector<std::string> first;
  for (int round = 0; round < rounds; ++round) {
    for (size_t k = 0; k < workers.size(); ++k) {
      MustExec(db, "SET parallel_workers " + std::to_string(workers[k]));
      engine::ResultSet result;
      ms[k].push_back(TimeMs([&] { result = MustExec(db, sql); }));
      if (round == 0 && k == 0) first = answer(result);
      rows[k].agree = rows[k].agree && answer(result) == first;
    }
  }
  MustExec(db, "SET parallel_workers 1");
  for (size_t k = 0; k < workers.size(); ++k) {
    std::vector<double> ratios;
    for (int round = 0; round < rounds; ++round) {
      ratios.push_back(ms[0][round] / ms[k][round]);
    }
    rows[k].workers = workers[k];
    rows[k].ms = Median(ms[k]);
    rows[k].speedup = Median(std::move(ratios));
  }
  return rows;
}

}  // namespace tip::bench

#endif  // TIP_BENCH_BENCH_UTIL_H_
