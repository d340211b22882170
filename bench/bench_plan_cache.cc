// EXP-PLAN-CACHE: parse/bind/plan once, execute many (DESIGN.md
// section 10). Two parameterized statements — a point SELECT and an
// overlaps join — run 10,000 times each under three regimes:
//
//   cold      SET plan_cache off; every execution pays lexer + parser
//             + planner for a handle of its own, used once;
//   cached    SET plan_cache on; one-shot Execute(sql, params) hits the
//             text-keyed LRU, skipping parse and plan after warmup;
//   prepared  an explicit Database::Prepare handle, rebinding the
//             parameter each iteration — the paper's client-library
//             prepare-once-execute-many loop.
//
// Tables are deliberately small (the point SELECT hits a 16-row
// table, the join 128/16 rows): the point is per-statement overhead,
// not scan cost. The acceptance bar is prepared >= 3x faster per
// statement than cold on the point SELECT; the `agree` column
// cross-checks that all three regimes return identical answers.
//
// Results are also written to BENCH_plan_cache.json.

#include <cinttypes>

#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "engine/exec/prepared_plan.h"

namespace {

constexpr int kIterations = 10000;
constexpr int kRows = 128;
constexpr int kPointRows = 16;

struct Regime {
  double total_ms = 0;
  int64_t checksum = 0;  // sum of first-cell ints, for cross-checking
};

}  // namespace

int main() {
  using namespace tip;
  std::unique_ptr<client::Connection> conn = bench::OpenTip();
  engine::Database& db = conn->database();

  bench::MustExec(&db,
                  "CREATE TABLE emp (id INT, dept INT, valid Element)");
  bench::MustExec(&db, "CREATE TABLE proj (dept INT, valid Element)");
  bench::MustExec(&db,
                  "CREATE TABLE acct (id INT, bal INT, dept INT)");
  for (int i = 0; i < kPointRows; ++i) {
    bench::MustExec(&db, "INSERT INTO acct VALUES (" + std::to_string(i) +
                             ", " + std::to_string(100 * i) + ", " +
                             std::to_string(i % 4) + ")");
  }
  for (int i = 0; i < kRows; ++i) {
    const int start_day = 1 + (i % 27);
    const std::string period = "'{[1999-0" + std::to_string(1 + i % 9) +
                               "-0" + std::to_string(1 + start_day % 9) +
                               ", NOW]}'";
    bench::MustExec(&db, "INSERT INTO emp VALUES (" + std::to_string(i) +
                             ", " + std::to_string(i % 8) + ", " + period +
                             ")");
    if (i % 8 == 0) {
      bench::MustExec(&db, "INSERT INTO proj VALUES (" +
                               std::to_string(i % 8) + ", " + period + ")");
    }
  }

  struct Experiment {
    const char* name;
    std::string sql;
    int id_range;  // :id cycles through [0, id_range)
  };
  const Experiment experiments[] = {
      {"point_select",
       "SELECT bal, dept FROM acct WHERE id = :id AND bal >= 0",
       kPointRows},
      {"overlaps_join",
       "SELECT count(*) FROM emp e, proj p WHERE e.dept = p.dept "
       "AND overlaps(e.valid, p.valid) AND e.id = :id",
       kRows},
  };

  std::printf("EXP-PLAN-CACHE: %d executions per regime, %d-row tables\n",
              kIterations, kRows);
  std::printf("%14s %10s %10s %10s %9s %7s\n", "query", "cold_us",
              "cached_us", "prep_us", "speedup", "agree");

  struct ReportRow {
    std::string name;
    double cold_us, cached_us, prepared_us, speedup;
    bool agree;
    uint64_t hits, misses;
  };
  std::vector<ReportRow> report;

  for (const Experiment& exp : experiments) {
    engine::Params params;

    // A fixed id sequence shared by every regime, so checksums match.
    // Median-of-3 over the whole loop keeps CPU-frequency drift from
    // deciding the comparison.
    auto run_one = [&](auto&& execute) {
      Regime regime;
      regime.total_ms = bench::MedianTimeMs([&] {
        regime.checksum = 0;
        for (int i = 0; i < kIterations; ++i) {
          params["id"] = engine::Datum::Int(i % exp.id_range);
          engine::ResultSet r = execute();
          if (!r.rows.empty() && !r.rows[0][0].is_null()) {
            regime.checksum += r.rows[0][0].int_value();
          }
        }
      });
      return regime;
    };

    bench::MustExec(&db, "SET plan_cache off");
    const Regime cold =
        run_one([&] { return bench::CheckResult(db.Execute(exp.sql, params),
                                                "cold execute"); });

    bench::MustExec(&db, "SET plan_cache on");
    db.Execute(exp.sql, params).value();  // warm the text cache
    const uint64_t hits_before = db.plan_cache_stats().hits.load();
    const uint64_t misses_before = db.plan_cache_stats().misses.load();
    const Regime cached =
        run_one([&] { return bench::CheckResult(db.Execute(exp.sql, params),
                                                "cached execute"); });

    std::shared_ptr<const engine::PreparedPlan> plan =
        bench::CheckResult(db.Prepare(exp.sql), "prepare");
    const Regime prepared = run_one([&] {
      return bench::CheckResult(db.ExecutePrepared(*plan, &params),
                                "prepared execute");
    });

    const double cold_us = cold.total_ms * 1000.0 / kIterations;
    const double cached_us = cached.total_ms * 1000.0 / kIterations;
    const double prepared_us = prepared.total_ms * 1000.0 / kIterations;
    const double speedup = cold_us / prepared_us;
    const bool agree = cold.checksum == cached.checksum &&
                       cold.checksum == prepared.checksum;
    std::printf("%14s %10.2f %10.2f %10.2f %8.2fx %7s\n", exp.name,
                cold_us, cached_us, prepared_us, speedup,
                agree ? "yes" : "NO");
    report.push_back(ReportRow{
        exp.name, cold_us, cached_us, prepared_us, speedup, agree,
        db.plan_cache_stats().hits.load() - hits_before,
        db.plan_cache_stats().misses.load() - misses_before});
  }

  std::printf(
      "\nshape check: cold pays lexer+parser+planner per execution;"
      "\ncached and prepared pay it once, so per-statement time drops"
      "\nwell past the 3x acceptance bar on the point SELECT.\n");

  const char* json_path = "BENCH_plan_cache.json";
  std::FILE* json = std::fopen(json_path, "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", json_path);
    return 1;
  }
  bench::WriteJsonHeader(json, "plan_cache");
  std::fprintf(json, "  \"iterations\": %d,\n  \"rows\": %d,\n",
               kIterations, kRows);
  std::fprintf(json, "  \"queries\": [\n");
  for (size_t i = 0; i < report.size(); ++i) {
    const ReportRow& r = report[i];
    std::fprintf(json,
                 "    {\"query\": \"%s\", \"cold_us\": %.3f"
                 ", \"cached_us\": %.3f, \"prepared_us\": %.3f"
                 ", \"speedup\": %.3f, \"agree\": %s"
                 ", \"cache_hits\": %" PRIu64 ", \"cache_misses\": %" PRIu64
                 "}%s\n",
                 r.name.c_str(), r.cold_us, r.cached_us, r.prepared_us,
                 r.speedup, r.agree ? "true" : "false", r.hits, r.misses,
                 i + 1 < report.size() ? "," : "");
  }
  std::fprintf(json, "  ]\n}\n");
  std::fclose(json);
  std::printf("\nwrote %s\n", json_path);

  bool ok = true;
  for (const ReportRow& r : report) {
    ok = ok && r.agree;
    if (r.name == "point_select") ok = ok && r.speedup >= 3.0;
  }
  return ok ? 0 : 1;
}
