// EXP-WAL: the price of durability on an insert-heavy workload.
//
// Every DML statement appends one logical record to the write-ahead
// log before it is acknowledged, so the WAL is a per-statement tax
// whose size depends on `SET wal_mode`: off logs nothing, async
// writes to the kernel without fsync, group fsyncs every
// wal_group_size records, sync fsyncs every record. This harness runs
// the same insert trace against a non-durable database (the floor)
// and a durable directory under each mode, and records the relative
// overhead in BENCH_wal_overhead.json. The budgets: off within noise
// of the floor and group < 15% over off.

#include <cinttypes>
#include <algorithm>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "datablade/datablade.h"
#include "engine/database.h"

namespace {

using tip::bench::MustExec;
using tip::engine::Database;
using tip::engine::WalMode;

constexpr int64_t kStatements = 120;
constexpr int64_t kRowsPerStatement = 50;
constexpr int kReps = 17;

/// The insert-heavy trace: batch loads into a table with a TIP-typed
/// column — each INSERT is a multi-row batch, the shape of a loader
/// feeding rows in chunks, and every tenth batch is followed by the
/// loader's bookkeeping: a progress count and a single-row correction.
/// One logical WAL record is paid per statement (the reads log
/// nothing). Built once so every mode replays identical bytes.
std::vector<std::string> BuildTrace() {
  std::vector<std::string> trace;
  int64_t id = 0;
  for (int64_t s = 0; s < kStatements; ++s) {
    std::string sql = "INSERT INTO rx VALUES ";
    for (int64_t r = 0; r < kRowsPerStatement; ++r, ++id) {
      if (r > 0) sql += ", ";
      const int day = static_cast<int>(id % 27) + 1;
      sql += "(" + std::to_string(id) + ", 'drug" +
             std::to_string(id % 97) + "', '{[1999-01-" +
             (day < 10 ? "0" : "") + std::to_string(day) + ", NOW]}')";
    }
    trace.push_back(std::move(sql));
    if (s % 10 == 9) {
      trace.push_back(
          "SELECT count(*) FROM rx WHERE overlaps(valid, "
          "'{[1999-06-01, 1999-07-01]}')");
      trace.push_back("UPDATE rx SET drug = 'fixup' WHERE id = " +
                      std::to_string(id - 1));
    }
  }
  return trace;
}

double TimeTrace(Database* db, const std::vector<std::string>& trace) {
  return tip::bench::TimeMs([&] {
    for (const std::string& sql : trace) MustExec(db, sql);
  });
}

/// One timed replay of the trace on a fresh database; `durable` false
/// gives the in-memory floor. Starts from an empty directory so no run
/// pays for a previous run's log.
double RunOnce(bool durable, WalMode mode,
               const std::vector<std::string>& trace) {
  const std::string dir =
      std::filesystem::temp_directory_path() / "tip_bench_wal";
  std::error_code ignored;
  std::filesystem::remove_all(dir, ignored);
  auto db = std::make_unique<Database>();
  tip::bench::Check(tip::datablade::Install(db.get()), "install");
  MustExec(db.get(), "SET NOW '1999-11-15'");
  if (durable) {
    tip::bench::Check(db->AttachDurableDir(dir), "attach");
    db->set_wal_mode(mode);
  }
  MustExec(db.get(),
           "CREATE TABLE rx (id INT, drug CHAR(8), valid Element)");
  MustExec(db.get(), "CREATE INDEX rx_valid ON rx(valid) USING interval");
  const double ms = TimeTrace(db.get(), trace);
  db.reset();
  std::filesystem::remove_all(dir, ignored);
  return ms;
}

double OverheadPct(double ms, double base_ms) {
  return base_ms <= 0 ? 0 : (ms - base_ms) / base_ms * 100.0;
}

}  // namespace

int main() {
  const std::vector<std::string> trace = BuildTrace();

  std::printf("EXP-WAL: durability overhead, %" PRId64
              " batch inserts x %" PRId64 " rows (min of %d reps)\n",
              kStatements, kRowsPerStatement, kReps);
  std::printf("%10s %10s %14s %14s\n", "mode", "ms", "vs in-memory",
              "vs off");

  // Strictly interleaved reps with a per-mode minimum: the fsync cost
  // on a shared machine is bursty, and interleaving shares any drift
  // across all configurations instead of letting one mode absorb a
  // bad stretch; the minimum is the noise-robust estimator for a
  // deterministic workload.
  struct Config {
    const char* name;
    bool durable;
    WalMode mode;
    double ms = 1e300;
  };
  Config configs[] = {{"in-memory", false, WalMode::kOff},
                      {"off", true, WalMode::kOff},
                      {"async", true, WalMode::kAsync},
                      {"group", true, WalMode::kGroup},
                      {"sync", true, WalMode::kSync}};
  for (Config& config : configs) {  // warm every path once
    RunOnce(config.durable, config.mode, trace);
  }
  for (int rep = 0; rep < kReps; ++rep) {
    for (Config& config : configs) {
      config.ms =
          std::min(config.ms, RunOnce(config.durable, config.mode, trace));
    }
  }
  const double memory_ms = configs[0].ms;
  const double off_ms = configs[1].ms;
  const double async_ms = configs[2].ms;
  const double group_ms = configs[3].ms;
  const double sync_ms = configs[4].ms;
  for (const Config& config : configs) {
    std::printf("%10s %10.3f %13.2f%% %13.2f%%\n", config.name, config.ms,
                OverheadPct(config.ms, memory_ms),
                OverheadPct(config.ms, off_ms));
  }

  std::FILE* out = std::fopen("BENCH_wal_overhead.json", "w");
  if (out != nullptr) {
    tip::bench::WriteJsonHeader(out, "wal_overhead");
    std::fprintf(
        out,
        "  \"statements\": %" PRId64 ",\n"
        "  \"rows_per_statement\": %" PRId64 ",\n"
        "  \"reps\": %d,\n"
        "  \"in_memory_ms\": %.3f,\n"
        "  \"off\": {\"ms\": %.3f, \"overhead_vs_memory_pct\": %.2f},\n"
        "  \"async\": {\"ms\": %.3f, \"overhead_vs_off_pct\": %.2f},\n"
        "  \"group\": {\"ms\": %.3f, \"overhead_vs_off_pct\": %.2f},\n"
        "  \"sync\": {\"ms\": %.3f, \"overhead_vs_off_pct\": %.2f}\n"
        "}\n",
        kStatements, kRowsPerStatement, kReps, memory_ms, off_ms,
        OverheadPct(off_ms, memory_ms),
        async_ms, OverheadPct(async_ms, off_ms), group_ms,
        OverheadPct(group_ms, off_ms), sync_ms,
        OverheadPct(sync_ms, off_ms));
    std::fclose(out);
    std::printf("\nwrote BENCH_wal_overhead.json\n");
  }
  return 0;
}
