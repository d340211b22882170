// EXP-SERVER-ECHO: what does the wire cost per statement? (DESIGN.md
// section 12). One in-process Server on loopback, one RemoteConnection,
// and the same tiny statements executed embedded and remotely:
//
//   embedded   Database::Execute in-process — the floor;
//   remote     RemoteConnection::Execute — frame build + CRC + TCP
//              round-trip + result decode on top of the same engine
//              work;
//   prepared   RemoteStatement::Execute — the remote
//              prepare-once-bind-many loop.
//
// The per-statement delta (remote_us - embedded_us) is the protocol
// overhead; the acceptance budget is <= 25us per statement for the
// point SELECT on loopback. Results are also written to
// BENCH_server.json.
//
// --sessions N runs the multi-client variant: N connections issue the
// point SELECT concurrently (through the shared gate) and the
// per-statement cost is aggregate wall time over total statements. The
// budget must hold at N=4 — concurrent readers may not tax each other
// on uncontended point reads. The default run includes the N=4 row.
//
// The large-result row times what a browsing window costs: seeded
// windows (1, 7, 30 or 180 days) over a 20,000-row prescription table
// with an interval index, each a prepared statement executed embedded
// and remotely, thousands of rows per window; `agree` compares every
// window's rows.

#include <cinttypes>
#include <cstdlib>
#include <cstring>

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "client/remote_connection.h"
#include "common/rng.h"
#include "datablade/datablade.h"
#include "engine/database.h"
#include "server/server.h"

namespace {

constexpr int kIterations = 5000;
constexpr int kPointRows = 16;
constexpr int64_t kWindowTableRows = 20000;
constexpr int kWindows = 200;

using namespace tip;

/// An order-free fingerprint of a result's rows, formatted through
/// `types`: its row count and the sum of its rows' text hashes.
std::pair<size_t, uint64_t> Fingerprint(const engine::ResultSet& result,
                                        const engine::TypeRegistry& types) {
  uint64_t sum = 0;
  for (const engine::Row& row : result.rows) {
    std::string line;
    for (const engine::Datum& value : row) line += types.Format(value) + "|";
    sum += std::hash<std::string>{}(line);
  }
  return {result.rows.size(), sum};
}

/// The large-result row: per-window cost embedded and remote.
struct WindowRow {
  double rows_per_window = 0;
  double embedded_us = 0;
  double remote_us = 0;
  bool agree = true;
};

WindowRow MeasureWindows(engine::Database* db, server::Server* srv) {
  const datablade::TipTypes tip =
      bench::CheckResult(datablade::TipTypes::Lookup(*db), "tip types");
  workload::MedicalConfig config;  // the benchmark's prescription table
  config.rows = kWindowTableRows;
  config.num_patients = static_cast<int>(config.rows / 8) + 1;
  config.num_drugs = 10;
  bench::CheckResult(
      workload::SetUpPrescriptionTable(db, tip, config, "rx"), "setup");
  bench::MustExec(db, "CREATE INDEX rx_valid ON rx (valid) USING interval");
  const Chronon now = *Chronon::Parse("1999-11-15");
  db->SetNowOverride(now);

  // Seeded windows anywhere in 1990-1999, one of four widths.
  const Chronon base = *Chronon::Parse("1990-01-01");
  constexpr int64_t kWidths[] = {1, 7, 30, 180};
  Rng rng(2026);
  std::vector<Element> windows;
  for (int i = 0; i < kWindows; ++i) {
    const int64_t days = kWidths[rng.Uniform(0, 3)];
    const int64_t first = rng.Uniform(0, 3651 - days);
    const Chronon start = *base.Add(*Span::FromDays(first));
    const Chronon end = *start.Add(*Span::FromDays(days));
    windows.push_back(Element::Of(*Period::Make(Instant::Absolute(start),
                                                Instant::Absolute(end))));
  }

  const char* sql =
      "SELECT patient, drug, valid FROM rx WHERE overlaps(valid, :w)";
  std::unique_ptr<client::RemoteConnection> remote = bench::CheckResult(
      client::RemoteConnection::Connect("127.0.0.1", srv->port()),
      "connect");
  bench::Check(remote->SetNow(now), "remote SET NOW");
  client::RemoteStatement stmt = remote->Prepare(sql);
  bench::Check(stmt.status(), "remote prepare");
  const std::shared_ptr<const engine::PreparedPlan> plan =
      bench::CheckResult(db->Prepare(sql), "prepare");

  auto embedded = [&](const Element& window) {
    const engine::Params params = {{"w", datablade::MakeElement(tip, window)}};
    return bench::CheckResult(db->ExecutePrepared(*plan, &params),
                              "embedded window");
  };
  auto remote_window = [&](const Element& window) {
    return bench::CheckResult(stmt.BindElement("w", window).Execute(),
                              "remote window");
  };
  // One untimed pass compares every window's rows; the timed passes
  // keep only the row counts.
  WindowRow out;
  size_t rows = 0;
  for (const Element& window : windows) {
    const engine::ResultSet local = embedded(window);
    const client::ResultSet far = remote_window(window);
    out.agree = out.agree && Fingerprint(local, db->types()) ==
                                 Fingerprint(far.raw(), remote->types());
    rows += local.rows.size();
  }
  size_t embedded_rows = 0, remote_rows = 0;
  const double embedded_ms = bench::MedianTimeMs([&] {
    embedded_rows = 0;
    for (const Element& window : windows) {
      embedded_rows += embedded(window).rows.size();
    }
  });
  const double remote_ms = bench::MedianTimeMs([&] {
    remote_rows = 0;
    for (const Element& window : windows) {
      remote_rows += remote_window(window).row_count();
    }
  });
  out.agree = out.agree && embedded_rows == rows && remote_rows == rows;
  out.rows_per_window = static_cast<double>(rows) / kWindows;
  out.embedded_us = embedded_ms * 1000.0 / kWindows;
  out.remote_us = remote_ms * 1000.0 / kWindows;
  return out;
}

/// Aggregate per-statement cost (us) of `sessions` concurrent clients
/// each running `per_session` point SELECTs; median of three passes,
/// like every other regime here.
double MultiSessionUs(server::Server* srv, int sessions, int per_session) {
  std::vector<std::unique_ptr<client::RemoteConnection>> conns;
  for (int i = 0; i < sessions; ++i) {
    conns.push_back(bench::CheckResult(
        client::RemoteConnection::Connect("127.0.0.1", srv->port()),
        "connect"));
  }
  const double ms = bench::MedianTimeMs([&] {
    std::atomic<bool> go{false};
    std::vector<std::thread> threads;
    threads.reserve(sessions);
    for (int i = 0; i < sessions; ++i) {
      threads.emplace_back([&, i] {
        while (!go.load(std::memory_order_acquire)) {
          std::this_thread::yield();
        }
        for (int n = 0; n < per_session; ++n) {
          (void)bench::CheckResult(
              conns[i]->Execute("SELECT bal FROM acct WHERE id = " +
                                std::to_string((i + n) % kPointRows)),
              "multi select");
        }
      });
    }
    go.store(true, std::memory_order_release);
    for (std::thread& t : threads) t.join();
  });
  return ms * 1000.0 / (static_cast<double>(sessions) * per_session);
}

}  // namespace

int main(int argc, char** argv) {
  int sessions_flag = 0;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--sessions") == 0) {
      sessions_flag = std::atoi(argv[i + 1]);
    }
  }
  auto db = std::make_unique<engine::Database>();
  bench::Check(datablade::Install(db.get()), "install");

  server::ServerOptions options;
  std::unique_ptr<server::Server> srv =
      bench::CheckResult(server::Server::Start(db.get(), options), "start");
  std::unique_ptr<client::RemoteConnection> remote = bench::CheckResult(
      client::RemoteConnection::Connect("127.0.0.1", srv->port()),
      "connect");

  bench::MustExec(db.get(), "CREATE TABLE acct (id INT, bal INT)");
  for (int i = 0; i < kPointRows; ++i) {
    bench::MustExec(db.get(), "INSERT INTO acct VALUES (" +
                                  std::to_string(i) + ", " +
                                  std::to_string(100 * i) + ")");
  }

  if (sessions_flag > 0) {
    // Multi-client mode: aggregate cost per statement across N
    // concurrent sessions, judged against the same embedded floor.
    const double embedded_ms = bench::MedianTimeMs([&] {
      for (int i = 0; i < kIterations; ++i) {
        (void)bench::CheckResult(
            db->Execute("SELECT bal FROM acct WHERE id = " +
                        std::to_string(i % kPointRows)),
            "embedded");
      }
    });
    const double embedded_us = embedded_ms * 1000.0 / kIterations;
    const int per_session = kIterations / sessions_flag;
    const double multi_us =
        MultiSessionUs(srv.get(), sessions_flag, per_session);
    const double wire_us = multi_us - embedded_us;
    std::printf("EXP-SERVER-ECHO --sessions %d: aggregate %.2f us/stmt, "
                "embedded %.2f us/stmt, wire overhead %.2f us (budget 25)\n",
                sessions_flag, multi_us, embedded_us, wire_us);
    remote.reset();
    srv->Shutdown();
    return wire_us <= 25.0 ? 0 : 1;
  }

  struct Experiment {
    const char* name;
    std::string sql;  // :id cycles through [0, kPointRows)
  };
  const Experiment experiments[] = {
      {"select_1", "SELECT 1"},
      {"point_select", "SELECT bal FROM acct WHERE id = :id"},
  };

  std::printf("EXP-SERVER-ECHO: %d executions per regime, loopback TCP\n",
              kIterations);
  std::printf("%14s %12s %10s %10s %10s\n", "query", "embedded_us",
              "remote_us", "prep_us", "wire_us");

  struct ReportRow {
    std::string name;
    double embedded_us, remote_us, prepared_us, wire_us;
    bool agree;
  };
  std::vector<ReportRow> report;

  for (const Experiment& exp : experiments) {
    const bool has_param = exp.sql.find(":id") != std::string::npos;

    int64_t embedded_sum = 0;
    const double embedded_ms = bench::MedianTimeMs([&] {
      embedded_sum = 0;
      engine::Params params;
      for (int i = 0; i < kIterations; ++i) {
        if (has_param) {
          params["id"] = engine::Datum::Int(i % kPointRows);
        }
        engine::ResultSet r = bench::CheckResult(
            db->Execute(exp.sql, has_param ? params : engine::Params{}),
            "embedded");
        embedded_sum += r.rows[0][0].int_value();
      }
    });

    // Remote one-shot: parameters fold client-side into the SQL text,
    // so each iteration sends a fresh statement string.
    int64_t remote_sum = 0;
    const double remote_ms = bench::MedianTimeMs([&] {
      remote_sum = 0;
      for (int i = 0; i < kIterations; ++i) {
        std::string sql = exp.sql;
        if (has_param) {
          const std::string id = std::to_string(i % kPointRows);
          sql.replace(sql.find(":id"), 3, id);
        }
        client::ResultSet r =
            bench::CheckResult(remote->Execute(sql), "remote");
        remote_sum += r.GetInt(0, 0);
      }
    });

    // Remote prepared: parse/plan once server-side, bind per call.
    int64_t prepared_sum = 0;
    client::RemoteStatement stmt = remote->Prepare(exp.sql);
    bench::Check(stmt.status(), "remote prepare");
    const double prepared_ms = bench::MedianTimeMs([&] {
      prepared_sum = 0;
      for (int i = 0; i < kIterations; ++i) {
        if (has_param) stmt.BindInt("id", i % kPointRows);
        client::ResultSet r =
            bench::CheckResult(stmt.Execute(), "remote prepared");
        prepared_sum += r.GetInt(0, 0);
      }
    });

    const double embedded_us = embedded_ms * 1000.0 / kIterations;
    const double remote_us = remote_ms * 1000.0 / kIterations;
    const double prepared_us = prepared_ms * 1000.0 / kIterations;
    const double wire_us = remote_us - embedded_us;
    const bool agree =
        embedded_sum == remote_sum && embedded_sum == prepared_sum;
    std::printf("%14s %12.2f %10.2f %10.2f %10.2f%s\n", exp.name,
                embedded_us, remote_us, prepared_us, wire_us,
                agree ? "" : "  DISAGREE");
    report.push_back(ReportRow{exp.name, embedded_us, remote_us,
                               prepared_us, wire_us, agree});
  }

  // The N=4 concurrent-reader row: four sessions through the shared
  // gate must not tax each other's point reads beyond the wire budget.
  double point_embedded_us = 0;
  for (const ReportRow& r : report) {
    if (r.name == "point_select") point_embedded_us = r.embedded_us;
  }
  const double multi4_us = MultiSessionUs(srv.get(), 4, kIterations / 4);
  const double multi4_wire_us = multi4_us - point_embedded_us;
  std::printf("%14s %12.2f %10.2f %10s %10.2f\n", "point_select_x4",
              point_embedded_us, multi4_us, "-", multi4_wire_us);

  const WindowRow window = MeasureWindows(db.get(), srv.get());
  std::printf("%14s %12.2f %10.2f %10s %10.2f%s   (%d windows, %.0f "
              "rows/window)\n",
              "window_20000", window.embedded_us, window.remote_us, "-",
              window.remote_us - window.embedded_us,
              window.agree ? "" : "  DISAGREE", kWindows,
              window.rows_per_window);

  const engine::ServerStatsCounters& stats = db->server_stats();
  std::printf("\nserver counters: statements=%" PRIu64 " bytes_in=%" PRIu64
              " bytes_out=%" PRIu64 "\n",
              stats.statements_served.load(), stats.bytes_in.load(),
              stats.bytes_out.load());

  const char* json_path = "BENCH_server.json";
  std::FILE* json = std::fopen(json_path, "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", json_path);
    return 1;
  }
  bench::WriteJsonHeader(json, "server_echo");
  std::fprintf(json, "  \"iterations\": %d,\n  \"budget_wire_us\": 25,\n",
               kIterations);
  std::fprintf(json, "  \"queries\": [\n");
  for (size_t i = 0; i < report.size(); ++i) {
    const ReportRow& r = report[i];
    std::fprintf(json,
                 "    {\"query\": \"%s\", \"embedded_us\": %.3f"
                 ", \"remote_us\": %.3f, \"prepared_us\": %.3f"
                 ", \"wire_us\": %.3f, \"agree\": %s}%s\n",
                 r.name.c_str(), r.embedded_us, r.remote_us, r.prepared_us,
                 r.wire_us, r.agree ? "true" : "false",
                 i + 1 < report.size() ? "," : "");
  }
  std::fprintf(json, "  ],\n");
  std::fprintf(json,
               "  \"multi_session\": {\"sessions\": 4, \"aggregate_us\": "
               "%.3f, \"wire_us\": %.3f},\n",
               multi4_us, multi4_wire_us);
  std::fprintf(json,
               "  \"large_result\": {\"table_rows\": %lld, \"windows\": %d, "
               "\"rows_per_window\": %.1f, \"embedded_us\": %.3f, "
               "\"remote_us\": %.3f, \"wire_us\": %.3f, \"agree\": %s}\n}\n",
               static_cast<long long>(kWindowTableRows), kWindows,
               window.rows_per_window, window.embedded_us, window.remote_us,
               window.remote_us - window.embedded_us,
               window.agree ? "true" : "false");
  std::fclose(json);
  std::printf("\nwrote %s\n", json_path);

  remote.reset();
  srv->Shutdown();

  bool ok = multi4_wire_us <= 25.0 && window.agree;
  for (const ReportRow& r : report) {
    ok = ok && r.agree;
    if (r.name == "point_select") ok = ok && r.wire_us <= 25.0;
  }
  return ok ? 0 : 1;
}
