// EXP-ABLATION: measurements behind seven design choices DESIGN.md
// calls out.
//
// (a) Hash join in the engine substrate: the paper's Q2-style join with
//     an equality conjunct, hash join on vs off. Justifies shipping a
//     real executor under the DataBlade rather than a toy.
// (b) NOW-free index keys: the interval index keys each row once,
//     without a NOW, and evaluates NOW-relative keys at each probe's
//     NOW. Measures a query under an alternating NOW versus a stable
//     one; they should cost the same.
// (c) Eager canonicalization: GroundedElement::FromPeriods detects
//     already-canonical input with one linear pass and skips the
//     sort+coalesce; measures construction from canonical vs shuffled
//     periods. Element::FromPeriods keeps canonical all-absolute input
//     as it is (no grounded copy and no copy back); measures it on the
//     canonical periods and on decode-sized two-period Elements.
// (d) Index maintenance under writes: a window probe right after one
//     INSERT replays the changed row into the index's delta instead of
//     rescanning the table. Measures that probe against a warm one.
// (e) Borrowed evaluation: expressions and routines read their operands
//     in place and all-absolute Elements are not re-grounded. Measures
//     the per-row cost of a string-equality filter (against a plain
//     scan), of one Element routine call per row, and of a window
//     query per interval-index candidate, at one worker.
// (f) Parallel by default: the benchmark's three scans (a filtered
//     read, an UPDATE that matches nothing, a 180-day window fetch) at
//     one worker and at the default cap. At one worker the heap cursor's
//     row prefetch is what moves; the window fetch does not prefetch.
// (g) Results encoded from the plan: one browse operation (a 180-day
//     window and its TimelineView) split into its stages at one
//     thread: execution into a ResultSet and straight into wire
//     frames, then encoding a ResultSet's rows, the frames' CRC, the
//     client's decode, TimelineView::Create and Density.

#include <algorithm>
#include <cinttypes>
#include <optional>
#include <string>
#include <vector>

#include "bench_util.h"
#include "browser/timeline.h"
#include "common/rng.h"
#include "server/server.h"
#include "server/wire.h"

int main() {
  using namespace tip;

  // -- (a) hash join ---------------------------------------------------------
  std::printf("EXP-ABLATION (a): equality join, hash join on vs off\n");
  std::printf("%8s %12s %12s %10s\n", "rows", "hash_ms", "nested_ms",
              "speedup");
  for (int64_t rows : {500, 2000, 8000}) {
    std::unique_ptr<client::Connection> conn = bench::OpenTip();
    engine::Database& db = conn->database();
    workload::MedicalConfig config;
    config.rows = rows;
    config.num_patients = static_cast<int>(rows / 10) + 1;
    bench::CheckResult(workload::SetUpPrescriptionTable(
                           &db, conn->tip_types(), config, "rx"),
                       "setup");
    const char* join =
        "SELECT count(*) FROM rx p1, rx p2 "
        "WHERE p1.patient = p2.patient AND p1.drug = 'drug0001' "
        "AND overlaps(p1.valid, p2.valid)";
    bench::MustExec(&db, "SET interval_join off");
    const double hash_ms =
        bench::MedianTimeMs([&] { bench::MustExec(&db, join); });
    bench::MustExec(&db, "SET hash_join off");
    const double nl_ms =
        bench::MedianTimeMs([&] { bench::MustExec(&db, join); });
    std::printf("%8" PRId64 " %12.2f %12.2f %9.1fx\n", rows, hash_ms,
                nl_ms, nl_ms / hash_ms);
  }

  // -- (b) index probes under a moving NOW ------------------------------------
  std::printf("\nEXP-ABLATION (b): interval index probes under NOW "
              "changes\n");
  {
    std::unique_ptr<client::Connection> conn = bench::OpenTip();
    engine::Database& db = conn->database();
    workload::MedicalConfig config;
    config.rows = 20000;
    config.now_relative_fraction = 0.2;
    bench::CheckResult(workload::SetUpPrescriptionTable(
                           &db, conn->tip_types(), config, "rx"),
                       "setup");
    bench::MustExec(&db,
                    "CREATE INDEX rx_valid ON rx (valid) USING interval");
    const char* query =
        "SELECT count(*) FROM rx WHERE overlaps(valid, "
        "'{[1994-06-01, 1994-06-08]}'::Element)";
    bench::MustExec(&db, query);  // warm build

    const double stable_ms =
        bench::MedianTimeMs([&] { bench::MustExec(&db, query); });

    Chronon base = *Chronon::Parse("1999-11-15");
    int flip = 0;
    const double moving_ms = bench::MedianTimeMs([&] {
      // Alternate NOW so every query runs under a NOW the last did not.
      conn->SetNow(*base.Add(Span::FromSeconds(++flip % 2)));
      bench::MustExec(&db, query);
    });
    std::printf("%24s %10.2f ms/query\n", "stable NOW", stable_ms);
    std::printf("%24s %10.2f ms/query\n", "NOW changing", moving_ms);
  }

  // -- (c) canonical-input fast path -----------------------------------------
  std::printf("\nEXP-ABLATION (c): Element construction, canonical vs "
              "shuffled input\n");
  std::printf("%10s %14s %14s %14s\n", "periods", "canonical_ms",
              "shuffled_ms", "element_ms");
  for (size_t n : {1000u, 10000u, 100000u}) {
    Rng rng(7);
    std::vector<GroundedPeriod> canonical;
    int64_t cursor = 0;
    for (size_t i = 0; i < n; ++i) {
      const int64_t len = rng.Uniform(10, 1000);
      canonical.push_back(*GroundedPeriod::Make(
          *Chronon::FromSeconds(cursor),
          *Chronon::FromSeconds(cursor + len)));
      cursor += len + 2 + rng.Uniform(0, 500);
    }
    std::vector<GroundedPeriod> shuffled = canonical;
    for (size_t i = shuffled.size(); i > 1; --i) {
      std::swap(shuffled[i - 1],
                shuffled[static_cast<size_t>(
                    rng.Uniform(0, static_cast<int64_t>(i) - 1))]);
    }
    const double canonical_ms = bench::MedianTimeMs([&] {
      for (int rep = 0; rep < 10; ++rep) {
        GroundedElement e = GroundedElement::FromPeriods(canonical);
        if (e.size() != n) std::exit(1);
      }
    });
    const double shuffled_ms = bench::MedianTimeMs([&] {
      for (int rep = 0; rep < 10; ++rep) {
        GroundedElement e = GroundedElement::FromPeriods(shuffled);
        if (e.size() != n) std::exit(1);
      }
    });
    std::vector<Period> periods;
    for (const GroundedPeriod& p : canonical) {
      periods.push_back(Period::FromGrounded(p));
    }
    const double element_ms = bench::MedianTimeMs([&] {
      for (int rep = 0; rep < 10; ++rep) {
        Element e = Element::FromPeriods(periods);
        if (e.size() != n) std::exit(1);
      }
    });
    std::printf("%10zu %14.2f %14.2f %14.2f\n", n, canonical_ms, shuffled_ms,
                element_ms);
  }
  {
    // What every decoded value costs: a canonical two-period Element.
    constexpr int kElements = 100000;
    const std::vector<Period> two = {
        Period::FromGrounded(*GroundedPeriod::Make(
            *Chronon::Parse("1995-01-01"), *Chronon::Parse("1995-06-30"))),
        Period::FromGrounded(*GroundedPeriod::Make(
            *Chronon::Parse("1996-01-01"), *Chronon::Parse("1996-06-30")))};
    const double ms = bench::MedianTimeMs([&] {
      for (int i = 0; i < kElements; ++i) {
        Element e = Element::FromPeriods(two);
        if (!e.is_absolute()) std::exit(1);
      }
    });
    std::printf("%10s %14.1f ns/Element (canonical, 2 periods)\n",
                "decode", ms * 1e6 / kElements);
  }
  // -- (d) probe right after a write ------------------------------------------
  std::printf("\nEXP-ABLATION (d): window probe right after one write vs "
              "warm, 20,000 rows\n");
  {
    std::unique_ptr<client::Connection> conn = bench::OpenTip();
    engine::Database& db = conn->database();
    workload::MedicalConfig config;
    config.rows = 20000;
    bench::CheckResult(workload::SetUpPrescriptionTable(
                           &db, conn->tip_types(), config, "rx"),
                       "setup");
    bench::MustExec(&db,
                    "CREATE INDEX rx_valid ON rx (valid) USING interval");
    // A week at the start of the history: selective (few bounding
    // periods reach back that far), so index work dominates the probe.
    const char* probe =
        "SELECT count(*) FROM rx WHERE overlaps(valid, "
        "'{[1990-01-01, 1990-01-08]}'::Element)";
    const char* write =
        "INSERT INTO rx VALUES ('doc', 'patient0001', '1950-01-01', "
        "'drug0001', 1, '0 08:00:00', '{[1999-06-01, NOW]}')";
    bench::MustExec(&db, probe);  // warm build
    constexpr int kRounds = 31;
    std::vector<double> warm_ms, write_ms, after_write_ms;
    for (int i = 0; i < kRounds; ++i) {
      warm_ms.push_back(bench::TimeMs([&] { bench::MustExec(&db, probe); }));
      write_ms.push_back(bench::TimeMs([&] { bench::MustExec(&db, write); }));
      after_write_ms.push_back(
          bench::TimeMs([&] { bench::MustExec(&db, probe); }));
    }
    auto median = [](std::vector<double> v) {
      std::nth_element(v.begin(), v.begin() + kRounds / 2, v.end());
      return v[kRounds / 2];
    };
    const int64_t builds =
        bench::MustExec(&db,
                        "SELECT tip_index_stats('rx', 'rx_valid', "
                        "'absolute_builds')")
            .rows[0][0]
            .int_value();
    std::printf("%24s %10.3f ms\n", "INSERT", median(write_ms));
    std::printf("%24s %10.3f ms/query\n", "probe after the INSERT",
                median(after_write_ms));
    std::printf("%24s %10.3f ms/query\n", "warm probe", median(warm_ms));
    std::printf("%24s %10" PRId64 " (median of %d rounds)\n",
                "absolute builds", builds, kRounds);
  }

  // -- (e) per-row cost of evaluation -----------------------------------------
  constexpr int kEvalRuns = 40;
  std::printf("\nEXP-ABLATION (e): cost per row of evaluation, 20,000 rows "
              "(min of %d runs)\n", kEvalRuns);
  {
    std::unique_ptr<client::Connection> conn = bench::OpenTip();
    engine::Database& db = conn->database();
    // The benchmark's prescription table: rows/8 patients, 10 drugs.
    workload::MedicalConfig config;
    config.rows = 20000;
    config.num_patients = static_cast<int>(config.rows / 8) + 1;
    config.num_drugs = 10;
    bench::CheckResult(workload::SetUpPrescriptionTable(
                           &db, conn->tip_types(), config, "rx"),
                       "setup");
    bench::MustExec(&db,
                    "CREATE INDEX rx_valid ON rx (valid) USING interval");
    bench::MustExec(&db, "SET parallel_workers 1");
    auto min_ms = [&](const char* sql, const engine::Params& params) {
      double best = 0;
      for (int i = 0; i < kEvalRuns; ++i) {
        const double ms = bench::TimeMs([&] {
          bench::CheckResult(db.Execute(sql, params), sql);
        });
        if (i == 0 || ms < best) best = ms;
      }
      return best;
    };
    const double rows = static_cast<double>(config.rows);
    const engine::Params none;
    const engine::Params patient = {
        {"p", engine::Datum::String("patient0042")}};
    const engine::Params window = {
        {"w", datablade::MakeElement(
                  conn->tip_types(),
                  *Element::Parse("{[1995-03-01, 1995-08-27]}"))}};
    const char* scan = "SELECT count(*) FROM rx";
    const char* filter = "SELECT count(*) FROM rx WHERE patient = :p";
    const char* length = "SELECT length(valid) FROM rx";
    const char* probe = "SELECT count(*) FROM rx WHERE overlaps(valid, :w)";
    const double scan_ms = min_ms(scan, none);
    const double filter_ms = min_ms(filter, patient);
    const double length_ms = min_ms(length, none);
    auto returned = [&] {
      return bench::MustExec(&db,
                             "SELECT tip_index_stats('rx', 'rx_valid', "
                             "'rows_returned')")
          .rows[0][0]
          .int_value();
    };
    const int64_t before = returned();
    bench::CheckResult(db.Execute(probe, window), probe);
    const double candidates = static_cast<double>(returned() - before);
    const double probe_ms = min_ms(probe, window);
    std::printf("%34s %10.1f ns/row\n", "count(*) scan", scan_ms * 1e6 / rows);
    std::printf("%34s %10.1f ns/row\n", "WHERE patient = :p (over the scan)",
                (filter_ms - scan_ms) * 1e6 / rows);
    std::printf("%34s %10.1f ns/row\n", "SELECT length(valid)",
                length_ms * 1e6 / rows);
    std::printf("%34s %10.1f ns/candidate (%.0f candidates, %.3f ms)\n",
                "180-day window overlaps(valid, :w)",
                probe_ms * 1e6 / candidates, candidates, probe_ms);
  }

  // -- (f) the benchmark's scans, one worker vs the default cap ---------------
  constexpr int kScanRuns = 40;
  std::printf("\nEXP-ABLATION (f): the benchmark's scans, 20,000 rows, one "
              "worker vs the default cap (min of %d runs)\n", kScanRuns);
  {
    std::unique_ptr<client::Connection> conn = bench::OpenTip();
    engine::Database& db = conn->database();
    workload::MedicalConfig config;  // as in (e)
    config.rows = 20000;
    config.num_patients = static_cast<int>(config.rows / 8) + 1;
    config.num_drugs = 10;
    bench::CheckResult(workload::SetUpPrescriptionTable(
                           &db, conn->tip_types(), config, "rx"),
                       "setup");
    bench::MustExec(&db,
                    "CREATE INDEX rx_valid ON rx (valid) USING interval");
    const size_t default_cap = db.parallel_workers();
    auto element = [&](const char* text) {
      return datablade::MakeElement(conn->tip_types(),
                                    *Element::Parse(text));
    };
    const engine::Params patient = {
        {"p", engine::Datum::String("patient0042")}};
    const engine::Params no_match = {
        {"upto", element("{[1990-01-01, 1999-01-01]}")},
        {"tag", engine::Datum::String("nobody")}};
    const engine::Params window = {
        {"w", element("{[1995-03-01, 1995-08-27]}")}};
    const struct {
      const char* name;
      const char* sql;
      const engine::Params* params;
      bool per_candidate;  // else per table row
    } cases[] = {
        {"SELECT ... WHERE patient = :p",
         "SELECT drug, valid FROM rx WHERE patient = :p", &patient, false},
        {"UPDATE ... WHERE doctor = :tag (none)",
         "UPDATE rx SET valid = intersect(valid, :upto) WHERE doctor = :tag",
         &no_match, false},
        {"180-day window (per candidate)",
         "SELECT patient, drug, valid FROM rx WHERE overlaps(valid, :w)",
         &window, true},
    };
    auto returned = [&] {
      return bench::MustExec(&db,
                             "SELECT tip_index_stats('rx', 'rx_valid', "
                             "'rows_returned')")
          .rows[0][0]
          .int_value();
    };
    const int64_t before = returned();
    bench::CheckResult(db.Execute(cases[2].sql, window), cases[2].sql);
    const double candidates = static_cast<double>(returned() - before);
    std::printf("%38s %12s %12s\n", "statement", "1 worker",
                ("default " + std::to_string(default_cap)).c_str());
    for (const auto& c : cases) {
      double best[2] = {0, 0};
      for (int i = 0; i < kScanRuns; ++i) {
        for (int k = 0; k < 2; ++k) {
          bench::MustExec(&db, "SET parallel_workers " +
                                   std::to_string(k == 0 ? 1 : default_cap));
          const double ms = bench::TimeMs([&] {
            bench::CheckResult(db.Execute(c.sql, *c.params), c.sql);
          });
          if (i == 0 || ms < best[k]) best[k] = ms;
        }
      }
      const double per =
          c.per_candidate ? candidates : static_cast<double>(config.rows);
      std::printf("%38s %9.1f ns %9.1f ns\n", c.name, best[0] * 1e6 / per,
                  best[1] * 1e6 / per);
    }
  }

  // -- (g) one browse operation by stage ------------------------------------
  constexpr int kStageRuns = 40;
  std::printf("\nEXP-ABLATION (g): one browse window by stage, 20,000 rows, "
              "one thread (min of %d runs)\n", kStageRuns);
  {
    std::unique_ptr<client::Connection> conn = bench::OpenTip();
    engine::Database& db = conn->database();
    workload::MedicalConfig config;  // as in (e)
    config.rows = 20000;
    config.num_patients = static_cast<int>(config.rows / 8) + 1;
    config.num_drugs = 10;
    bench::CheckResult(workload::SetUpPrescriptionTable(
                           &db, conn->tip_types(), config, "rx"),
                       "setup");
    bench::MustExec(&db,
                    "CREATE INDEX rx_valid ON rx (valid) USING interval");
    bench::MustExec(&db, "SET parallel_workers 1");
    const browser::TimeWindow window{*Chronon::Parse("1995-03-01"),
                                     *Chronon::Parse("1995-08-27")};
    const engine::Params params = {
        {"w", datablade::MakeElement(
                  conn->tip_types(),
                  *Element::Parse("{[1995-03-01, 1995-08-27]}"))}};
    const std::shared_ptr<const engine::PreparedPlan> plan =
        bench::CheckResult(
            db.Prepare(
                "SELECT patient, drug, valid FROM rx WHERE overlaps(valid, :w)"),
            "prepare");
    const size_t frame_bytes = server::ServerOptions().max_rows_frame_bytes;
    auto min_us = [&](const std::function<void()>& fn) {
      double best = 0;
      for (int i = 0; i < kStageRuns; ++i) {
        const double ms = bench::TimeMs(fn);
        if (i == 0 || ms < best) best = ms;
      }
      return best * 1e3;
    };

    engine::ResultSet collected;
    const double collect_us = min_us([&] {
      collected =
          bench::CheckResult(db.ExecutePrepared(*plan, &params), "collect");
    });
    const double frames_us = min_us([&] {
      server::wire::ResultFrames frames(db.types(), frame_bytes);
      bench::Check(db.ExecutePrepared(*plan, &params, nullptr, &frames),
                   "frames");
    });
    std::vector<std::string> chunks;
    const double encode_us = min_us([&] {
      server::wire::ResultFrames frames(db.types(), frame_bytes);
      for (engine::Row& row : collected.rows) frames.Add(&row);
      frames.Finish(0, std::string());
      chunks = std::move(frames.chunks());
    });
    const double crc_us = min_us([&] {
      for (std::string& chunk : chunks) {
        bench::Check(
            server::wire::SealFrame(server::wire::FrameType::kResultRows,
                                    &chunk),
            "seal");
      }
    });
    std::vector<engine::TypeId> column_types;
    for (const engine::ResultColumn& column : collected.columns) {
      column_types.push_back(column.type);
    }
    engine::ResultSet decoded;
    const double decode_us = min_us([&] {
      decoded = engine::ResultSet();
      decoded.columns = collected.columns;
      for (const std::string& chunk : chunks) {
        bench::Check(
            server::wire::ParseRowsChunk(
                std::string_view(chunk).substr(server::wire::kFrameHeaderSize),
                column_types, db.types(), &decoded.rows),
            "decode");
      }
    });
    const double rows = static_cast<double>(decoded.rows.size());
    const client::ResultSet result(std::move(decoded), conn->tip_types(),
                                   &db.types());
    std::optional<browser::TimelineView> view;
    const double create_us = min_us([&] {
      view = bench::CheckResult(
          browser::TimelineView::Create(result, "valid", db.CurrentTx()),
          "view");
    });
    size_t density_sum = 0;
    const double density_us = min_us([&] {
      for (size_t count : view->Density(window, 80)) density_sum += count;
    });
    if (density_sum == 0) std::exit(1);

    std::printf("%38s %10s %10s   (%.0f rows, %zu frame(s))\n", "stage",
                "us/op", "ns/row", rows, chunks.size());
    const struct {
      const char* name;
      double us;
    } stages[] = {
        {"execute into a ResultSet", collect_us},
        {"execute into frames", frames_us},
        {"encode a ResultSet's rows", encode_us},
        {"CRC of the frames", crc_us},
        {"client decode", decode_us},
        {"TimelineView::Create", create_us},
        {"Density (80 buckets)", density_us},
    };
    for (const auto& stage : stages) {
      std::printf("%38s %10.1f %10.1f\n", stage.name, stage.us,
                  stage.us * 1e3 / rows);
    }
  }

  std::printf(
      "\nshape check: (a) hash join wins increasingly with scale;"
      "\n(b) a moving NOW costs what a stable one does: the index"
      "\nkeys rows without a NOW and builds nothing; (c) the canonical"
      "\nfast path skips the sort entirely; (d) a probe right after a"
      "\nwrite costs about a warm probe, not a rebuild; (e) a filter or"
      "\nroutine call costs tens to hundreds of ns per row, not µs; (f)"
      "\nthe filtered read and the UPDATE's scan cost less per row at the"
      "\ndefault cap than at one worker; the window fetch is an index"
      "\nscan at both; (g) executing into frames costs less than"
      "\nexecuting into a ResultSet and encoding its rows.\n");
  return 0;
}
