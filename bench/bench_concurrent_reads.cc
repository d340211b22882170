// EXP-CONCURRENT-READS: what does the shared/exclusive gate buy a fleet
// of read-mostly sessions? (DESIGN.md section 13). One in-process
// Server on loopback; N client threads each run "browse" transactions —
// BEGIN, four point SELECTs separated by ~2ms of client think time,
// COMMIT — against the same small table. Under the old exclusive gate
// (ServerOptions::exclusive_gate, the PR 9 behavior) a transaction
// holds the gate from BEGIN to COMMIT, so every other session stalls
// through its think time; under the shared gate the browses overlap and
// aggregate throughput scales with the fleet. Note the win is
// *overlap*, not CPU parallelism — it holds on a single-core host,
// which is exactly the paper's multi-user-server deployment story.
//
// Headline: aggregate browse throughput at 8 sessions, shared vs
// forced-exclusive; acceptance is a >= 3x ratio. Also measured: the
// session-count curve, a writer-mix curve (readers browsing while
// 0/1/4 writers insert), and single-session point-SELECT latency in
// both modes (the no-regression guard: the classifier and RW gate must
// not tax the uncontended path). Results land in
// BENCH_concurrent_reads.json.
//
// --smoke: 2 sessions, tiny iteration counts, no JSON — the CI wiring
// (check_sanitizers.sh) uses it to prove overlap survives under
// sanitizers without paying the full curve.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
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

using namespace tip;

constexpr int kPointRows = 16;
constexpr int kThinkMs = 2;
constexpr int kSelectsPerTxn = 4;

struct Fixture {
  std::unique_ptr<engine::Database> db;
  std::unique_ptr<server::Server> srv;
};

Fixture StartFixture(bool exclusive_gate) {
  Fixture f;
  f.db = std::make_unique<engine::Database>();
  bench::Check(datablade::Install(f.db.get()), "install");
  server::ServerOptions options;
  options.exclusive_gate = exclusive_gate;
  options.max_sessions = 64;
  f.srv = bench::CheckResult(server::Server::Start(f.db.get(), options),
                             "start");
  bench::MustExec(f.db.get(), "CREATE TABLE acct (id INT, bal INT)");
  for (int i = 0; i < kPointRows; ++i) {
    bench::MustExec(f.db.get(), "INSERT INTO acct VALUES (" +
                                    std::to_string(i) + ", " +
                                    std::to_string(100 * i) + ")");
  }
  bench::MustExec(f.db.get(), "CREATE TABLE scratch (id INT)");
  return f;
}

std::unique_ptr<client::RemoteConnection> Connect(const Fixture& f) {
  return bench::CheckResult(
      client::RemoteConnection::Connect("127.0.0.1", f.srv->port()),
      "connect");
}

/// One browse transaction: BEGIN; kSelectsPerTxn point reads with think
/// time between them; COMMIT.
void BrowseOnce(client::RemoteConnection* conn, int seed) {
  bench::Check(conn->Begin(), "begin");
  for (int s = 0; s < kSelectsPerTxn; ++s) {
    const std::string sql = "SELECT bal FROM acct WHERE id = " +
                            std::to_string((seed + s) % kPointRows);
    (void)bench::CheckResult(conn->Execute(sql), "browse select");
    std::this_thread::sleep_for(std::chrono::milliseconds(kThinkMs));
  }
  bench::Check(conn->Commit(), "commit");
}

/// Aggregate browse throughput (transactions/sec) for `sessions`
/// concurrent client threads, `txns` browse transactions each.
double BrowseTps(const Fixture& f, int sessions, int txns) {
  std::vector<std::unique_ptr<client::RemoteConnection>> conns;
  for (int i = 0; i < sessions; ++i) conns.push_back(Connect(f));
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  threads.reserve(sessions);
  for (int i = 0; i < sessions; ++i) {
    threads.emplace_back([&, i] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (int t = 0; t < txns; ++t) BrowseOnce(conns[i].get(), i + t);
    });
  }
  const auto start = std::chrono::steady_clock::now();
  go.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();
  const double sec =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return static_cast<double>(sessions) * txns / sec;
}

struct MixPoint {
  int writers = 0;
  double reader_tps = 0;   // browse txns/sec across the readers
  double writer_sps = 0;   // insert statements/sec across the writers
};

/// 8 sessions total on the shared gate: `writers` of them run
/// think-time INSERT loops, the rest browse. Shows reader throughput
/// degrading gracefully (writer preference serializes only the writes).
MixPoint WriterMix(const Fixture& f, int writers, int txns) {
  const int total = 8;
  const int readers = total - writers;
  std::vector<std::unique_ptr<client::RemoteConnection>> conns;
  for (int i = 0; i < total; ++i) conns.push_back(Connect(f));
  std::atomic<bool> go{false};
  std::atomic<long> writer_ops{0};
  std::vector<std::thread> threads;
  threads.reserve(total);
  for (int i = 0; i < readers; ++i) {
    threads.emplace_back([&, i] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (int t = 0; t < txns; ++t) BrowseOnce(conns[i].get(), i + t);
    });
  }
  std::atomic<bool> readers_done{false};
  for (int w = 0; w < writers; ++w) {
    threads.emplace_back([&, w] {
      client::RemoteConnection* conn = conns[readers + w].get();
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (int i = 0; !readers_done.load(std::memory_order_acquire); ++i) {
        (void)bench::CheckResult(
            conn->Execute("INSERT INTO scratch VALUES (" +
                          std::to_string(w * 1000000 + i) + ")"),
            "mix insert");
        writer_ops.fetch_add(1, std::memory_order_relaxed);
        std::this_thread::sleep_for(std::chrono::milliseconds(kThinkMs));
      }
    });
  }
  const auto start = std::chrono::steady_clock::now();
  go.store(true, std::memory_order_release);
  for (int i = 0; i < readers; ++i) threads[i].join();
  const double sec =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  readers_done.store(true, std::memory_order_release);
  for (int i = readers; i < total; ++i) threads[i].join();
  MixPoint p;
  p.writers = writers;
  p.reader_tps = static_cast<double>(readers) * txns / sec;
  p.writer_sps = static_cast<double>(writer_ops.load()) / sec;
  return p;
}

/// Median per-statement latency (us) of an uncontended single-session
/// point SELECT — the no-regression guard for the gate rework.
double SingleSessionUs(const Fixture& f, int iterations) {
  std::unique_ptr<client::RemoteConnection> conn = Connect(f);
  const double ms = bench::MedianTimeMs([&] {
    for (int i = 0; i < iterations; ++i) {
      (void)bench::CheckResult(
          conn->Execute("SELECT bal FROM acct WHERE id = " +
                        std::to_string(i % kPointRows)),
          "latency select");
    }
  });
  return ms * 1000.0 / iterations;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  const int txns = smoke ? 6 : 30;
  const unsigned cpus = std::thread::hardware_concurrency();

  if (smoke) {
    Fixture shared_f = StartFixture(false);
    const double shared_tps = BrowseTps(shared_f, 2, txns);
    shared_f.srv->Shutdown();
    Fixture excl_f = StartFixture(true);
    const double excl_tps = BrowseTps(excl_f, 2, txns);
    excl_f.srv->Shutdown();
    const double ratio = shared_tps / excl_tps;
    std::printf("EXP-CONCURRENT-READS --smoke: 2 sessions, %d txns each: "
                "shared=%.1f tps exclusive=%.1f tps ratio=%.2fx\n",
                txns, shared_tps, excl_tps, ratio);
    // Two overlapping think-time browsers must beat the serialized
    // pair even under sanitizer slowdowns.
    if (ratio < 1.25) {
      std::fprintf(stderr, "smoke FAILED: ratio %.2f < 1.25\n", ratio);
      return 1;
    }
    return 0;
  }

  std::printf("EXP-CONCURRENT-READS: browse txns (%d point SELECTs, "
              "%dms think) per session, %d txns/session, cpus=%u\n",
              kSelectsPerTxn, kThinkMs, txns, cpus);
  std::printf("%10s %12s %14s %8s\n", "sessions", "shared_tps",
              "exclusive_tps", "ratio");

  struct CurvePoint {
    int sessions;
    double shared_tps, exclusive_tps, ratio;
  };
  std::vector<CurvePoint> curve;
  for (int sessions : {1, 2, 4, 8}) {
    Fixture shared_f = StartFixture(false);
    const double shared_tps = BrowseTps(shared_f, sessions, txns);
    shared_f.srv->Shutdown();
    Fixture excl_f = StartFixture(true);
    const double excl_tps = BrowseTps(excl_f, sessions, txns);
    excl_f.srv->Shutdown();
    curve.push_back(
        {sessions, shared_tps, excl_tps, shared_tps / excl_tps});
    std::printf("%10d %12.1f %14.1f %7.2fx\n", sessions, shared_tps,
                excl_tps, shared_tps / excl_tps);
  }
  const double headline = curve.back().ratio;

  // Writer mix: a realistic fleet is not all-read; show what 1 and 4
  // think-time writers cost the browsing majority.
  std::printf("\nwriter mix at 8 sessions (shared gate):\n");
  std::printf("%8s %8s %12s %12s\n", "writers", "readers", "reader_tps",
              "writer_sps");
  std::vector<MixPoint> mix;
  for (int writers : {0, 1, 4}) {
    Fixture f = StartFixture(false);
    mix.push_back(WriterMix(f, writers, txns));
    f.srv->Shutdown();
    std::printf("%8d %8d %12.1f %12.1f\n", writers, 8 - writers,
                mix.back().reader_tps, mix.back().writer_sps);
  }

  // Uncontended latency, both gate modes: the classifier + RW gate must
  // not tax a lone session (acceptance: within 5% of the old gate).
  const int latency_iters = 2000;
  Fixture shared_f = StartFixture(false);
  const double shared_us = SingleSessionUs(shared_f, latency_iters);
  shared_f.srv->Shutdown();
  Fixture excl_f = StartFixture(true);
  const double excl_us = SingleSessionUs(excl_f, latency_iters);
  excl_f.srv->Shutdown();
  std::printf("\nsingle-session point SELECT: shared=%.2fus "
              "exclusive=%.2fus (delta %+.1f%%)\n",
              shared_us, excl_us, (shared_us - excl_us) / excl_us * 100.0);

  const char* json_path = "BENCH_concurrent_reads.json";
  std::FILE* json = std::fopen(json_path, "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", json_path);
    return 1;
  }
  bench::WriteJsonHeader(json, "concurrent_reads");
  std::fprintf(json,
               "  \"think_ms\": %d,\n"
               "  \"selects_per_txn\": %d,\n  \"txns_per_session\": %d,\n"
               "  \"budget_ratio_at_8\": 3.0,\n",
               kThinkMs, kSelectsPerTxn, txns);
  std::fprintf(json, "  \"browse_curve\": [\n");
  for (size_t i = 0; i < curve.size(); ++i) {
    std::fprintf(json,
                 "    {\"sessions\": %d, \"shared_tps\": %.1f"
                 ", \"exclusive_tps\": %.1f, \"ratio\": %.2f}%s\n",
                 curve[i].sessions, curve[i].shared_tps,
                 curve[i].exclusive_tps, curve[i].ratio,
                 i + 1 < curve.size() ? "," : "");
  }
  std::fprintf(json, "  ],\n  \"headline_ratio_at_8\": %.2f,\n", headline);
  std::fprintf(json, "  \"writer_mix_at_8\": [\n");
  for (size_t i = 0; i < mix.size(); ++i) {
    std::fprintf(json,
                 "    {\"writers\": %d, \"readers\": %d"
                 ", \"reader_tps\": %.1f, \"writer_sps\": %.1f}%s\n",
                 mix[i].writers, 8 - mix[i].writers, mix[i].reader_tps,
                 mix[i].writer_sps, i + 1 < mix.size() ? "," : "");
  }
  std::fprintf(json,
               "  ],\n  \"single_session_us\": {\"shared\": %.3f"
               ", \"exclusive\": %.3f}\n}\n",
               shared_us, excl_us);
  std::fclose(json);
  std::printf("wrote %s\n", json_path);

  if (headline < 3.0) {
    std::fprintf(stderr, "FAILED: 8-session ratio %.2f < 3.0\n", headline);
    return 1;
  }
  return 0;
}
