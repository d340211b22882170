// EXP-JOIN: the temporal self-join (paper Q2: "who has taken Diabeta
// and Aspirin simultaneously") across physical strategies and scales.
//
//   nl        TIP integrated, nested-loop with the overlaps() routine;
//   ixjoin    TIP integrated, interval-index join (the Bliujute-style
//             period index as a DataBlade access method);
//   layered   flattened schema, standard-SQL inequality join.
//
// The layered join produces one row per overlapping *period pair* and
// still needs a coalescing pass to match TIP's Element output; its
// reported time excludes that extra pass, so it is a lower bound.
//
// EXP-JOIN-SCALING: the interval-index join on one large table under
// the morsel-driven parallel executor at 1/2/4/8 workers (SET
// parallel_workers), over five rounds (bench::MeasureScaling): workers
// claim morsels of the outer (filtered) scan and probe the shared
// interval index concurrently; the 1-worker row runs the serial plan.
// Exits nonzero if any worker count disagrees with the serial answer.
//
// Results are also written to BENCH_temporal_join.json.

#include <cinttypes>

#include <thread>
#include <vector>

#include "bench_util.h"
#include "layered/layered.h"

int main() {
  using namespace tip;
  std::printf("EXP-JOIN: temporal self-join (drug A x drug B overlap)\n");
  std::printf("%8s %8s %10s %10s %12s %8s\n", "rows", "pairs", "nl_ms",
              "ixjoin_ms", "layered_ms", "agree");

  struct StrategyRow {
    int64_t rows, pairs;
    double nl_ms, ix_ms, layered_ms;
    bool agree;
  };
  std::vector<StrategyRow> strategy_rows;

  for (int64_t rows : {100, 200, 400, 800, 1600, 3200}) {
    std::unique_ptr<client::Connection> conn = bench::OpenTip();
    engine::Database& db = conn->database();

    workload::MedicalConfig config;
    config.rows = rows;
    config.num_patients = static_cast<int>(rows / 8) + 1;
    config.num_drugs = 10;
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
    bench::MustExec(&db,
                    "CREATE INDEX rx_valid ON rx (valid) USING interval");

    const std::string tip_join =
        "SELECT count(*) FROM rx p1, rx p2 "
        "WHERE p1.drug = 'drug0001' AND p2.drug = 'drug0002' "
        "AND p1.patient = p2.patient AND overlaps(p1.valid, p2.valid)";

    engine::ResultSet nl_result, ix_result, layered_result;

    // Nested loop: both accelerations off. (Hash join stays off too so
    // the baseline is the plain O(n^2) loop a naive plan would run.)
    bench::MustExec(&db, "SET interval_join off");
    bench::MustExec(&db, "SET hash_join off");
    const double nl_ms = bench::MedianTimeMs(
        [&] { nl_result = bench::MustExec(&db, tip_join); });

    // Interval-index join.
    bench::MustExec(&db, "SET interval_join on");
    const double ix_ms = bench::MedianTimeMs(
        [&] { ix_result = bench::MustExec(&db, tip_join); });
    bench::MustExec(&db, "SET hash_join on");

    // Layered flattened join (hash join on, its best case).
    const double layered_ms = bench::MedianTimeMs([&] {
      layered_result = bench::MustExec(
          &db, layered::TemporalJoinSql("rx_flat", "drug0001",
                                        "drug0002"));
    });

    const int64_t pairs = nl_result.rows[0][0].int_value();
    const bool agree = pairs == ix_result.rows[0][0].int_value();

    std::printf("%8" PRId64 " %8" PRId64 " %10.2f %10.2f %12.2f %8s\n",
                rows, pairs, nl_ms, ix_ms, layered_ms,
                agree ? "yes" : "NO");
    (void)layered_result;
    strategy_rows.push_back(
        StrategyRow{rows, pairs, nl_ms, ix_ms, layered_ms, agree});
  }
  std::printf(
      "\nshape check: nl_ms grows quadratically; ixjoin_ms stays far"
      "\nbelow it at scale (index probes replace the inner scan); the"
      "\nlayered join needs a further coalescing pass TIP does not.\n");

  // ---- EXP-JOIN-SCALING --------------------------------------------------
  constexpr int64_t kScalingRows = 12800;
  const unsigned hw = std::thread::hardware_concurrency();
  std::unique_ptr<client::Connection> conn = bench::OpenTip();
  engine::Database& db = conn->database();

  workload::MedicalConfig config;
  config.rows = kScalingRows;
  config.num_patients = static_cast<int>(kScalingRows / 8) + 1;
  config.num_drugs = 10;
  config.now_relative_fraction = 0.1;
  bench::CheckResult(workload::SetUpPrescriptionTable(
                         &db, conn->tip_types(), config, "rx"),
                     "setup scaling rx");
  bench::MustExec(&db,
                  "CREATE INDEX rx_valid ON rx (valid) USING interval");

  const std::string tip_join =
      "SELECT count(*) FROM rx p1, rx p2 "
      "WHERE p1.drug = 'drug0001' AND p2.drug = 'drug0002' "
      "AND p1.patient = p2.patient AND overlaps(p1.valid, p2.valid)";

  constexpr int kScalingRuns = 5;
  const std::vector<bench::ScalingRow> scaling_rows =
      bench::MeasureScaling(&db, tip_join, {1, 2, 4, 8}, kScalingRuns);
  const int64_t pairs =
      bench::MustExec(&db, tip_join).rows[0][0].int_value();
  const double serial_ms = scaling_rows[0].ms;

  std::printf("\nEXP-JOIN-SCALING: interval-index join over %" PRId64
              " rows (%" PRId64 " pairs), %u hardware thread(s), medians "
              "over %d rounds\n",
              kScalingRows, pairs, hw, kScalingRuns);
  std::printf("%8s %10s %9s %7s\n", "workers", "ms", "speedup", "agree");
  bool all_agree = true;
  for (const bench::ScalingRow& row : scaling_rows) {
    all_agree = all_agree && row.agree;
    std::printf("%8d %10.2f %8.2fx %7s\n", row.workers, row.ms, row.speedup,
                row.agree ? "yes" : "NO");
  }
  std::printf(
      "\nshape check: with more hardware threads the concurrent index"
      "\nprobes drop toward serial_ms / min(workers, cores).\n");

  // ---- machine-readable output -------------------------------------------
  const char* json_path = "BENCH_temporal_join.json";
  std::FILE* json = std::fopen(json_path, "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", json_path);
    return 1;
  }
  bench::WriteJsonHeader(json, "temporal_join");
  std::fprintf(json, "  \"strategies\": [\n");
  for (size_t i = 0; i < strategy_rows.size(); ++i) {
    const StrategyRow& s = strategy_rows[i];
    std::fprintf(json,
                 "    {\"rows\": %" PRId64 ", \"pairs\": %" PRId64
                 ", \"nl_ms\": %.3f, \"ixjoin_ms\": %.3f"
                 ", \"layered_ms\": %.3f, \"agree\": %s}%s\n",
                 s.rows, s.pairs, s.nl_ms, s.ix_ms, s.layered_ms,
                 s.agree ? "true" : "false",
                 i + 1 < strategy_rows.size() ? "," : "");
  }
  std::fprintf(json, "  ],\n");
  std::fprintf(json, "  \"scaling\": {\n");
  std::fprintf(json, "    \"rows\": %" PRId64 ",\n", kScalingRows);
  std::fprintf(json, "    \"pairs\": %" PRId64 ",\n", pairs);
  std::fprintf(json, "    \"runs\": %d,\n", kScalingRuns);
  std::fprintf(json, "    \"serial_ms\": %.3f,\n", serial_ms);
  std::fprintf(json, "    \"workers\": [\n");
  for (size_t i = 0; i < scaling_rows.size(); ++i) {
    const bench::ScalingRow& s = scaling_rows[i];
    std::fprintf(json,
                 "      {\"workers\": %d, \"ms\": %.3f"
                 ", \"speedup\": %.3f, \"agree\": %s}%s\n",
                 s.workers, s.ms, s.speedup,
                 s.agree ? "true" : "false",
                 i + 1 < scaling_rows.size() ? "," : "");
  }
  std::fprintf(json, "    ]\n  }\n}\n");
  std::fclose(json);
  std::printf("\nwrote %s\n", json_path);
  if (!all_agree) {
    std::fprintf(stderr, "EXP-JOIN-SCALING: a parallel answer disagrees\n");
    return 1;
  }
  return 0;
}
