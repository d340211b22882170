// EXP-GUARD: the per-row cost of the statement lifecycle guard.
//
// Every operator checks a cancellation flag per row and accounts
// buffered bytes per morsel, so the guard must be paid for by ALL
// statements, tripped or not. This harness A/Bs the same queries with
// the guard armed (the default) and disabled (`SET statement_guard
// off`, which reproduces the pre-guard execution path bit for bit) on
// the EXP-COALESCE and EXP-JOIN shapes, and records the relative
// overhead in BENCH_guard_overhead.json. The budget is < 1%.

#include <cinttypes>
#include <algorithm>
#include <vector>

#include "bench_util.h"

namespace {

using tip::bench::MustExec;

struct ABResult {
  double guarded_ms = 0;
  double unguarded_ms = 0;
  double overhead_pct() const {
    return unguarded_ms <= 0
               ? 0
               : (guarded_ms - unguarded_ms) / unguarded_ms * 100.0;
  }
};

// The guard delta is far below this machine's run-to-run noise, so the
// A/B runs strictly interleaved (one guarded sample, one unguarded
// sample, per rep), each sample times a BATCH of executions to
// amortize timer jitter, and each side keeps its MINIMUM — the
// noise-robust estimator for a deterministic workload; any scheduling
// hiccup only inflates, never deflates, a sample.
constexpr int kBatch = 8;

ABResult RunAB(tip::engine::Database* db, const std::string& sql,
               int reps) {
  ABResult out;
  // Warm both paths once.
  MustExec(db, "SET statement_guard on");
  MustExec(db, sql);
  MustExec(db, "SET statement_guard off");
  MustExec(db, sql);
  out.guarded_ms = 1e300;
  out.unguarded_ms = 1e300;
  auto batch = [&] {
    for (int i = 0; i < kBatch; ++i) MustExec(db, sql);
  };
  for (int i = 0; i < reps; ++i) {
    MustExec(db, "SET statement_guard on");
    out.guarded_ms =
        std::min(out.guarded_ms, tip::bench::TimeMs(batch) / kBatch);
    MustExec(db, "SET statement_guard off");
    out.unguarded_ms =
        std::min(out.unguarded_ms, tip::bench::TimeMs(batch) / kBatch);
  }
  MustExec(db, "SET statement_guard on");
  return out;
}

}  // namespace

int main() {
  using namespace tip;
  constexpr int64_t kCoalesceRows = 8000;
  constexpr int64_t kJoinRows = 1200;
  constexpr int kReps = 15;

  std::unique_ptr<client::Connection> conn = bench::OpenTip();
  engine::Database& db = conn->database();

  workload::MedicalConfig config;
  config.rows = kCoalesceRows;
  config.now_relative_fraction = 0.3;
  bench::CheckResult(workload::SetUpPrescriptionTable(
                         &db, conn->tip_types(), config, "rx"),
                     "setup rx");
  workload::MedicalConfig join_config;
  join_config.rows = kJoinRows;
  join_config.now_relative_fraction = 0.3;
  bench::CheckResult(workload::SetUpPrescriptionTable(
                         &db, conn->tip_types(), join_config, "rx_a"),
                     "setup rx_a");
  bench::CheckResult(workload::SetUpPrescriptionTable(
                         &db, conn->tip_types(), join_config, "rx_b"),
                     "setup rx_b");

  // The two reference shapes: EXP-COALESCE's group_union aggregation
  // (row-at-a-time aggregate with per-group Reserve calls) and
  // EXP-JOIN's equality join with a temporal residual (build-side
  // Reserve plus per-probe Check calls).
  const std::string coalesce_sql =
      "SELECT patient, length(group_union(valid)) FROM rx "
      "GROUP BY patient";
  const std::string join_sql =
      "SELECT count(*) FROM rx_a a, rx_b b "
      "WHERE a.patient = b.patient AND overlaps(a.valid, b.valid)";

  std::printf("EXP-GUARD: statement guard overhead (min of %d interleaved)\n",
              kReps);
  std::printf("%14s %12s %12s %10s\n", "query", "guarded_ms",
              "unguarded_ms", "overhead");
  const ABResult coalesce = RunAB(&db, coalesce_sql, kReps);
  std::printf("%14s %12.3f %12.3f %9.2f%%\n", "EXP-COALESCE",
              coalesce.guarded_ms, coalesce.unguarded_ms,
              coalesce.overhead_pct());
  const ABResult join = RunAB(&db, join_sql, kReps);
  std::printf("%14s %12.3f %12.3f %9.2f%%\n", "EXP-JOIN",
              join.guarded_ms, join.unguarded_ms, join.overhead_pct());

  std::FILE* out = std::fopen("BENCH_guard_overhead.json", "w");
  if (out != nullptr) {
    bench::WriteJsonHeader(out, "guard_overhead");
    std::fprintf(
        out,
        "  \"reps\": %d,\n"
        "  \"coalesce\": {\"rows\": %" PRId64
        ", \"guarded_ms\": %.3f, \"unguarded_ms\": %.3f, "
        "\"overhead_pct\": %.2f},\n"
        "  \"join\": {\"rows\": %" PRId64
        ", \"guarded_ms\": %.3f, \"unguarded_ms\": %.3f, "
        "\"overhead_pct\": %.2f}\n"
        "}\n",
        kReps, kCoalesceRows, coalesce.guarded_ms, coalesce.unguarded_ms,
        coalesce.overhead_pct(), kJoinRows, join.guarded_ms,
        join.unguarded_ms, join.overhead_pct());
    std::fclose(out);
    std::printf("\nwrote BENCH_guard_overhead.json\n");
  }
  return 0;
}
