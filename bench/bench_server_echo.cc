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

#include <cinttypes>
#include <cstdlib>
#include <cstring>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "client/remote_connection.h"
#include "datablade/datablade.h"
#include "engine/database.h"
#include "server/server.h"

namespace {

constexpr int kIterations = 5000;
constexpr int kPointRows = 16;

using namespace tip;

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
               "%.3f, \"wire_us\": %.3f}\n}\n",
               multi4_us, multi4_wire_us);
  std::fclose(json);
  std::printf("\nwrote %s\n", json_path);

  remote.reset();
  srv->Shutdown();

  bool ok = multi4_wire_us <= 25.0;
  for (const ReportRow& r : report) {
    ok = ok && r.agree;
    if (r.name == "point_select") ok = ok && r.wire_us <= 25.0;
  }
  return ok ? 0 : 1;
}
