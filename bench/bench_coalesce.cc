// EXP-COALESCE: temporal coalescing, integrated vs layered (paper
// Section 2's group_union example and Section 5's layered-architecture
// critique).
//
// Three strategies compute "total coalesced validity per patient":
//   tip      length(group_union(valid)) — one SQL statement, in-engine
//            user-defined aggregate over Element values;
//   layered  the standard-SQL maximal-interval translation (triply
//            nested NOT EXISTS) over the flattened schema, plus the
//            temp-table aggregation round trip;
//   client   pull the flattened rows out and coalesce in the client.
//
// The paper argues the layered translation is "very complex and
// potentially difficult to optimize"; the series below quantifies it:
// tip and client scale near-linearly, layered blows up cubically.
//
// EXP-PARALLEL: each plan shape the morsel-driven executor considers,
// on one 20,000-row table at 1/2/4 workers (SET parallel_workers), over
// 25 rounds. Each round runs every worker count once, and a speedup is
// the median over rounds of serial_ms / ms within the round: load on a
// shared host comes in bursts that slow a whole round alike. Three shapes
// run in parallel: a global aggregate with and without a filter, and a
// filtered scan. Three stay serial at every worker count, because
// splitting them did not pay: GROUP BY (count and group_union) and a
// bare scan. The 1-worker row is the serial plan; every answer is
// checked against its first answer, and the bench exits nonzero on any
// disagreement.
//
// Results are also written to BENCH_coalesce.json.

#include <cinttypes>

#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "layered/layered.h"

int main() {
  using namespace tip;
  std::printf("EXP-COALESCE: coalesced total validity per patient\n");
  std::printf("%8s %10s %12s %12s %12s %10s\n", "rows", "flat_rows",
              "tip_ms", "layered_ms", "client_ms", "agree");

  struct StrategyRow {
    int64_t rows, flat_rows;
    double tip_ms, layered_ms, client_ms;
    bool agree;
  };
  std::vector<StrategyRow> strategy_rows;

  for (int64_t rows : {25, 50, 100, 200, 400}) {
    std::unique_ptr<client::Connection> conn = bench::OpenTip();
    engine::Database& db = conn->database();

    workload::MedicalConfig config;
    config.rows = rows;
    config.num_patients = static_cast<int>(rows / 10) + 1;
    config.now_relative_fraction = 0.1;
    std::vector<workload::PrescriptionRow> data = bench::CheckResult(
        workload::SetUpPrescriptionTable(&db, conn->tip_types(), config,
                                         "rx"),
        "setup rx");
    bench::Check(layered::CreateFlatPrescriptionTable(&db, "rx_flat"),
                 "create flat");
    bench::Check(layered::LoadFlatPrescriptions(&db, data, "rx_flat",
                                                db.CurrentTx()),
                 "load flat");
    const int64_t flat_rows =
        bench::MustExec(&db, "SELECT count(*) FROM rx_flat")
            .rows[0][0].int_value();

    engine::ResultSet tip_result, layered_result;
    std::vector<layered::ClientCoalesceResult> client_result;

    const double tip_ms = bench::MedianTimeMs([&] {
      tip_result = bench::MustExec(
          &db,
          "SELECT patient, length(group_union(valid)) / "
          "'0 00:00:01'::Span FROM rx GROUP BY patient ORDER BY patient");
    });
    const double layered_ms = bench::MedianTimeMs([&] {
      layered_result = bench::CheckResult(
          layered::RunCoalescedDuration(&db, "rx_flat", "patient"),
          "layered coalesce");
    });
    const double client_ms = bench::MedianTimeMs([&] {
      client_result = bench::CheckResult(
          layered::ClientSideCoalesce(&db, "rx_flat", "patient"),
          "client coalesce");
    });

    // Cross-check all three answers.
    bool agree = tip_result.rows.size() == layered_result.rows.size() &&
                 tip_result.rows.size() == client_result.size();
    for (size_t i = 0; agree && i < tip_result.rows.size(); ++i) {
      const int64_t tip_total = tip_result.rows[i][1].int_value();
      agree = tip_total == layered_result.rows[i][1].int_value() &&
              tip_total ==
                  client_result[i].coalesced.TotalDuration().seconds();
    }

    std::printf("%8" PRId64 " %10" PRId64 " %12.2f %12.2f %12.2f %10s\n",
                rows, flat_rows, tip_ms, layered_ms, client_ms,
                agree ? "yes" : "NO");
    strategy_rows.push_back(StrategyRow{rows, flat_rows, tip_ms,
                                        layered_ms, client_ms, agree});
  }
  std::printf(
      "\nshape check: layered_ms grows ~cubically with rows while tip_ms"
      "\nand client_ms stay near-linear — the integrated-DataBlade"
      "\nadvantage the paper argues for in Section 5.\n");

  // ---- EXP-PARALLEL ------------------------------------------------------
  constexpr int64_t kScalingRows = 20000;
  constexpr int kScalingRuns = 25;
  std::unique_ptr<client::Connection> conn = bench::OpenTip();
  engine::Database& db = conn->database();

  workload::MedicalConfig config;
  config.rows = kScalingRows;
  config.num_patients = 2000;
  config.num_drugs = 50;
  config.now_relative_fraction = 0.1;
  bench::CheckResult(workload::SetUpPrescriptionTable(
                         &db, conn->tip_types(), config, "rx"),
                     "setup scaling rx");

  struct Shape {
    const char* name;
    const char* sql;
  };
  const Shape shapes[] = {
      {"global_count", "SELECT count(*) FROM rx"},
      {"filtered_count",
       "SELECT count(*) FROM rx WHERE patient = 'patient0007'"},
      {"filtered_scan",
       "SELECT drug, valid FROM rx WHERE patient = 'patient0007'"},
      {"group_by_count", "SELECT patient, count(*) FROM rx GROUP BY patient"},
      {"group_by_union",
       "SELECT patient, length(group_union(valid)) / '0 00:00:01'::Span "
       "FROM rx GROUP BY patient"},
      {"bare_scan", "SELECT length(valid) FROM rx"},
  };
  std::printf("\nEXP-PARALLEL: plan shapes over %" PRId64
              " rows, %u hardware thread(s), medians over %d rounds\n",
              kScalingRows, std::thread::hardware_concurrency(),
              kScalingRuns);
  std::printf("%16s %9s %8s %10s %9s %7s\n", "shape", "parallel",
              "workers", "ms", "speedup", "agree");

  struct ShapeResult {
    const Shape* shape;
    bool parallel_plan;  // EXPLAIN at 4 workers shows a parallel operator
    std::vector<bench::ScalingRow> rows;
  };
  std::vector<ShapeResult> shape_results;
  bool all_agree = true;
  for (const Shape& shape : shapes) {
    bench::MustExec(&db, "SET parallel_workers 4");
    std::string plan;
    for (const engine::Row& row :
         bench::MustExec(&db, std::string("EXPLAIN ") + shape.sql).rows) {
      plan += row[0].string_value() + "\n";
    }
    ShapeResult result{&shape, plan.find("Parallel(") != std::string::npos,
                       bench::MeasureScaling(&db, shape.sql, {1, 2, 4},
                                             kScalingRuns)};
    for (const bench::ScalingRow& row : result.rows) {
      all_agree = all_agree && row.agree;
      std::printf("%16s %9s %8d %10.3f %8.2fx %7s\n", shape.name,
                  result.parallel_plan ? "yes" : "no", row.workers, row.ms,
                  row.speedup, row.agree ? "yes" : "NO");
    }
    shape_results.push_back(std::move(result));
  }
  std::printf(
      "\nshape check: the parallel shapes drop toward serial_ms /"
      "\nmin(workers, cores); the serial ones read ~1.0x at every worker"
      "\ncount (same plan).\n");

  // ---- machine-readable output -------------------------------------------
  const char* json_path = "BENCH_coalesce.json";
  std::FILE* json = std::fopen(json_path, "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", json_path);
    return 1;
  }
  bench::WriteJsonHeader(json, "coalesce");
  std::fprintf(json, "  \"strategies\": [\n");
  for (size_t i = 0; i < strategy_rows.size(); ++i) {
    const StrategyRow& s = strategy_rows[i];
    std::fprintf(json,
                 "    {\"rows\": %" PRId64 ", \"flat_rows\": %" PRId64
                 ", \"tip_ms\": %.3f, \"layered_ms\": %.3f"
                 ", \"client_ms\": %.3f, \"agree\": %s}%s\n",
                 s.rows, s.flat_rows, s.tip_ms, s.layered_ms, s.client_ms,
                 s.agree ? "true" : "false",
                 i + 1 < strategy_rows.size() ? "," : "");
  }
  std::fprintf(json, "  ],\n");
  std::fprintf(json, "  \"parallel\": {\n");
  std::fprintf(json, "    \"rows\": %" PRId64 ",\n", kScalingRows);
  std::fprintf(json, "    \"runs\": %d,\n", kScalingRuns);
  std::fprintf(json, "    \"shapes\": [\n");
  for (size_t i = 0; i < shape_results.size(); ++i) {
    const ShapeResult& r = shape_results[i];
    std::fprintf(json,
                 "      {\"shape\": \"%s\", \"parallel_plan\": %s, "
                 "\"workers\": [",
                 r.shape->name, r.parallel_plan ? "true" : "false");
    for (size_t j = 0; j < r.rows.size(); ++j) {
      const bench::ScalingRow& w = r.rows[j];
      std::fprintf(json,
                   "%s{\"workers\": %d, \"ms\": %.3f, \"speedup\": %.3f"
                   ", \"agree\": %s}",
                   j > 0 ? ", " : "", w.workers, w.ms, w.speedup,
                   w.agree ? "true" : "false");
    }
    std::fprintf(json, "]}%s\n", i + 1 < shape_results.size() ? "," : "");
  }
  std::fprintf(json, "    ]\n  }\n}\n");
  std::fclose(json);
  std::printf("\nwrote %s\n", json_path);
  if (!all_agree) {
    std::fprintf(stderr, "EXP-PARALLEL: a parallel answer disagrees\n");
    return 1;
  }
  return 0;
}
