// EXP-INDEX: the period/interval index as a DataBlade access method
// (the Bliujute et al. ICDE'99 related-work line: "a temporal index for
// period-valued tuple timestamps").
//
// Overlap ("window") queries over an Element column at fixed table size
// and varying window selectivity: full scan vs interval-index scan, and
// the one-time index build cost. Also a stabbing ("timeslice") probe.
//
// EXP-NOWTHRASH: the Browser's what-if loop — alternate the NOW
// override between probes. The index keys each row once, without a
// NOW, and evaluates NOW-relative keys at each probe's NOW, so no table
// pays anything per flip. The "forced rebuild" column emulates an index
// rebuilt for every NOW by bumping the heap version before every probe.
// Exits 1 if the index builds while NOW alternates.
//
// Results are also written to BENCH_period_index.json.

#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"

int main() {
  using namespace tip;
  constexpr int64_t kRows = 20000;

  std::unique_ptr<client::Connection> conn = bench::OpenTip();
  engine::Database& db = conn->database();

  workload::MedicalConfig config;
  config.rows = kRows;
  config.num_patients = 2000;
  config.num_drugs = 50;
  config.now_relative_fraction = 0.0;
  // Short prescriptions over a long history: window selectivity actually
  // sweeps from per-mille to everything.
  config.history_days = 7300;
  config.min_periods = 1;
  config.max_periods = 2;
  config.min_period_days = 3;
  config.max_period_days = 21;
  bench::CheckResult(workload::SetUpPrescriptionTable(
                         &db, conn->tip_types(), config, "rx"),
                     "setup");

  const double build_ms = bench::TimeMs([&] {
    bench::MustExec(&db,
                    "CREATE INDEX rx_valid ON rx (valid) USING interval");
    // Force the lazy build with a tiny probe.
    bench::MustExec(&db,
                    "SELECT count(*) FROM rx WHERE overlaps(valid, "
                    "'{[1990-01-01, 1990-01-02]}'::Element)");
  });
  std::printf("EXP-INDEX: %" PRId64 " rows; index build+first-probe "
              "%.1f ms\n\n",
              kRows, build_ms);
  std::printf("%14s %10s %9s %9s %9s\n", "window_days", "matches",
              "scan_ms", "index_ms", "speedup");

  struct WindowRow {
    int64_t days, matches;
    double scan_ms, index_ms;
  };
  std::vector<WindowRow> window_rows;

  const char* window_start = "1994-06-01";
  for (int64_t days : {1, 7, 30, 180, 730, 3650}) {
    Chronon start = *Chronon::Parse(window_start);
    Chronon end = *start.Add(*Span::FromDays(days));
    const std::string window =
        "'{[" + start.ToString() + ", " + end.ToString() + "]}'::Element";
    const std::string query =
        "SELECT count(*) FROM rx WHERE overlaps(valid, " + window + ")";

    engine::ResultSet scan_result, index_result;
    bench::MustExec(&db, "SET interval_join off");
    const double scan_ms = bench::MedianTimeMs(
        [&] { scan_result = bench::MustExec(&db, query); });
    bench::MustExec(&db, "SET interval_join on");
    const double index_ms = bench::MedianTimeMs(
        [&] { index_result = bench::MustExec(&db, query); });

    const int64_t matches = scan_result.rows[0][0].int_value();
    if (matches != index_result.rows[0][0].int_value()) {
      std::fprintf(stderr, "MISMATCH at window %" PRId64 "\n", days);
      return 1;
    }
    std::printf("%14" PRId64 " %10" PRId64 " %9.2f %9.2f %8.1fx\n", days,
                matches, scan_ms, index_ms, scan_ms / index_ms);
    window_rows.push_back(WindowRow{days, matches, scan_ms, index_ms});
  }

  // Timeslice probes (stabbing queries) via contains(valid, chronon):
  // the index path requires the overlaps() spelling, so express the
  // slice as a one-chronon window.
  std::printf("\ntimeslice (one-chronon window):\n");
  engine::ResultSet scan_result, index_result;
  const std::string slice =
      "SELECT count(*) FROM rx WHERE overlaps(valid, "
      "'{[1994-06-01, 1994-06-01]}'::Element)";
  bench::MustExec(&db, "SET interval_join off");
  const double scan_ms = bench::MedianTimeMs(
      [&] { scan_result = bench::MustExec(&db, slice); });
  bench::MustExec(&db, "SET interval_join on");
  const double index_ms = bench::MedianTimeMs(
      [&] { index_result = bench::MustExec(&db, slice); });
  std::printf("%14s %10" PRId64 " %9.2f %9.2f %8.1fx\n", "slice",
              scan_result.rows[0][0].int_value(), scan_ms, index_ms,
              scan_ms / index_ms);
  std::printf(
      "\nshape check: the index wins big at low selectivity and"
      "\nconverges toward the scan as the window approaches the whole"
      "\nhistory (every tuple matches either way).\n");

  // ---- EXP-NOWTHRASH -----------------------------------------------------
  auto counter = [&](const std::string& table, const std::string& index,
                     const char* name) {
    engine::ResultSet r =
        bench::MustExec(&db, "SELECT tip_index_stats('" + table + "', '" +
                                 index + "', '" + name + "')");
    return r.rows[0][0].int_value();
  };

  struct ThrashRow {
    double frac;
    double per_probe_ms, forced_per_probe_ms;
    int64_t absolute_builds, overlay_builds;
  };
  std::vector<ThrashRow> thrash_rows;
  constexpr int kThrashProbes = 200;
  constexpr int kForcedProbes = 30;
  const char* kNows[2] = {"SET NOW '1999-11-15'", "SET NOW '1999-11-16'"};

  std::printf("\nEXP-NOWTHRASH: alternating NOW override per probe\n");
  std::printf("%14s %13s %13s %9s %10s %9s\n", "now_rel_frac",
              "per_probe_ms", "forced_ms", "speedup", "abs_builds",
              "ovl_builds");
  for (double frac : {0.0, 0.10}) {
    const std::string table = frac == 0.0 ? "rx_abs" : "rx_mixed";
    const std::string index = table + "_valid";
    config.now_relative_fraction = frac;
    bench::CheckResult(workload::SetUpPrescriptionTable(
                           &db, conn->tip_types(), config, table),
                       ("setup " + table).c_str());
    bench::MustExec(&db, "CREATE INDEX " + index + " ON " + table +
                             " (valid) USING interval");
    const std::string probe = "SELECT count(*) FROM " + table +
                              " WHERE overlaps(valid, "
                              "'{[1994-06-01, 1994-07-01]}'::Element)";
    bench::MustExec(&db, probe);  // force the initial build

    const int64_t abs0 = counter(table, index, "absolute_builds");
    const int64_t ovl0 = counter(table, index, "overlay_builds");
    const double thrash_ms = bench::TimeMs([&] {
      for (int i = 0; i < kThrashProbes; ++i) {
        bench::MustExec(&db, kNows[i % 2]);
        bench::MustExec(&db, probe);
      }
    });
    const int64_t abs_builds = counter(table, index, "absolute_builds") - abs0;
    const int64_t ovl_builds = counter(table, index, "overlay_builds") - ovl0;

    // An index rebuilt for every NOW, emulated: the index is dropped
    // and declared again before each probe, which builds it lazily.
    const double forced_ms = bench::TimeMs([&] {
      for (int i = 0; i < kForcedProbes; ++i) {
        bench::MustExec(&db, "DROP INDEX " + index + " ON " + table);
        bench::MustExec(&db, "CREATE INDEX " + index + " ON " + table +
                                 " (valid) USING interval");
        bench::MustExec(&db, kNows[i % 2]);
        bench::MustExec(&db, probe);
      }
    });

    const double per_probe = thrash_ms / kThrashProbes;
    const double forced_per_probe = forced_ms / kForcedProbes;
    std::printf("%14.2f %13.4f %13.3f %8.1fx %10" PRId64 " %9" PRId64 "\n",
                frac, per_probe, forced_per_probe,
                forced_per_probe / per_probe, abs_builds, ovl_builds);
    thrash_rows.push_back(ThrashRow{frac, per_probe, forced_per_probe,
                                    abs_builds, ovl_builds});
  }
  std::printf(
      "\nshape check: neither table builds its index while NOW"
      "\nthrashes (the 10%% table evaluates its NOW-relative keys at"
      "\neach probe's NOW); both beat the forced full rebuild by a wide"
      "\nmargin.\n");
  bool built_while_thrashing = false;
  for (const ThrashRow& t : thrash_rows) {
    if (t.absolute_builds != 0 || t.overlay_builds != 0) {
      std::fprintf(stderr,
                   "FAIL: %.2f NOW-relative table built its index %" PRId64
                   " times while NOW alternated\n",
                   t.frac, t.absolute_builds);
      built_while_thrashing = true;
    }
  }

  // ---- machine-readable output -------------------------------------------
  const char* json_path = "BENCH_period_index.json";
  std::FILE* json = std::fopen(json_path, "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", json_path);
    return 1;
  }
  bench::WriteJsonHeader(json, "period_index");
  std::fprintf(json, "  \"rows\": %" PRId64 ",\n", kRows);
  std::fprintf(json, "  \"build_ms\": %.3f,\n", build_ms);
  std::fprintf(json, "  \"windows\": [\n");
  for (size_t i = 0; i < window_rows.size(); ++i) {
    const WindowRow& w = window_rows[i];
    std::fprintf(json,
                 "    {\"days\": %" PRId64 ", \"matches\": %" PRId64
                 ", \"scan_ms\": %.3f, \"index_ms\": %.3f}%s\n",
                 w.days, w.matches, w.scan_ms, w.index_ms,
                 i + 1 < window_rows.size() ? "," : "");
  }
  std::fprintf(json, "  ],\n");
  std::fprintf(json,
               "  \"timeslice\": {\"matches\": %" PRId64
               ", \"scan_ms\": %.3f, \"index_ms\": %.3f},\n",
               scan_result.rows[0][0].int_value(), scan_ms, index_ms);
  std::fprintf(json, "  \"now_thrash\": [\n");
  for (size_t i = 0; i < thrash_rows.size(); ++i) {
    const ThrashRow& t = thrash_rows[i];
    std::fprintf(json,
                 "    {\"now_relative_fraction\": %.2f, \"probes\": %d"
                 ", \"per_probe_ms\": %.4f"
                 ", \"forced_rebuild_per_probe_ms\": %.4f"
                 ", \"rebuild_speedup\": %.1f"
                 ", \"absolute_builds\": %" PRId64
                 ", \"overlay_builds\": %" PRId64 "}%s\n",
                 t.frac, kThrashProbes, t.per_probe_ms,
                 t.forced_per_probe_ms,
                 t.forced_per_probe_ms / t.per_probe_ms, t.absolute_builds,
                 t.overlay_builds,
                 i + 1 < thrash_rows.size() ? "," : "");
  }
  std::fprintf(json, "  ]\n}\n");
  std::fclose(json);
  std::printf("\nwrote %s\n", json_path);
  return built_while_thrashing ? 1 : 0;
}
