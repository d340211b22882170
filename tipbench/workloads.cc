#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <deque>
#include <filesystem>
#include <functional>
#include <memory>
#include <optional>
#include <thread>
#include <utility>

#include "browser/timeline.h"
#include "client/connection.h"
#include "client/remote_connection.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "engine/sql/parser.h"
#include "server/server.h"
#include "trace.h"
#include "workload/medical.h"

namespace tipbench {
namespace {

namespace client = tip::client;
namespace engine = tip::engine;
using tip::Chronon;
using tip::Element;
using tip::GroundedElement;
using tip::GroundedPeriod;
using tip::Instant;
using tip::Period;
using tip::Result;
using tip::Rng;
using tip::Span;
using tip::Status;
using tip::StringPrintf;
using tip::TxContext;

// Day numbers count from 1990-01-01, where the generated history starts.
// No generated period starts after day 2545, so any NOW from day 2557
// (1997-01-01) on grounds every open-ended row without inverting it.
constexpr int64_t kSecondsPerDay = 86400;
constexpr int64_t kFirstNowDay = 2557;  // 1997-01-01
constexpr int64_t kNowDay = 3605;       // 1999-11-15, the paper's demo NOW
constexpr int64_t kLastDay = 4017;      // 2000-12-31
constexpr int64_t kWindowDays[] = {1, 7, 30, 180};
constexpr int kDensityBuckets = 80;
/// Set-ups per run: setup_s is their median, and the last one is
/// measured. Set-up is short and disk-bound, so one alone is noisy.
constexpr int kSetups = 15;

constexpr char kWindowSql[] =
    "SELECT patient, drug, valid FROM rx WHERE overlaps(valid, :w)";
constexpr char kQ3Sql[] =
    "SELECT patient, length(group_union(valid)) FROM rx GROUP BY patient";
constexpr char kCountersSql[] =
    "SELECT tip_index_stats('rx', 'rx_valid', 'probes'), "
    "tip_index_stats('rx', 'rx_valid', 'rows_scanned'), "
    "tip_index_stats('rx', 'rx_valid', 'rows_returned'), "
    "tip_index_stats('rx', 'rx_valid', 'overlay_builds'), "
    "tip_index_stats('rx', 'rx_valid', 'absolute_builds'), "
    "tip_wal_stats('bytes_written'), tip_wal_stats('fsyncs'), "
    "tip_plan_stats('hits'), tip_plan_stats('misses'), "
    "tip_server_stats('statements_served'), tip_server_stats('bytes_out'), "
    "tip_server_stats('gate_shared'), tip_server_stats('gate_exclusive'), "
    "tip_server_stats('gate_wait_shared_ms'), "
    "tip_server_stats('gate_wait_exclusive_ms'), "
    "tip_server_stats('gate_busy_shared'), "
    "tip_server_stats('gate_busy_exclusive')";
constexpr const char* kCounterNames[] = {
    "probes",      "rows_scanned",   "rows_returned",
    "overlay_builds", "absolute_builds", "wal_bytes",
    "fsyncs",      "plan_hits",      "plan_misses",
    "statements",  "bytes_out",      "gate_shared",
    "gate_exclusive", "gate_wait_shared_ms", "gate_wait_exclusive_ms",
    "gate_busy_shared", "gate_busy_exclusive"};

using Counters = std::map<std::string, int64_t>;

/// Independent streams from one seed (splitmix64 finalizer).
uint64_t Mix(uint64_t seed, uint64_t stream) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Chronon Day(int64_t day) {
  static const int64_t base = Chronon::Parse("1990-01-01")->seconds();
  return *Chronon::FromSeconds(base + day * kSecondsPerDay);
}

/// The closed period [first, first + days] as an Element.
Element DayRange(int64_t first, int64_t days) {
  return Element::Of(*Period::Make(Instant::Absolute(Day(first)),
                                   Instant::Absolute(Day(first + days))));
}

/// A browsing window: one of the four widths, anywhere in 1990–1999.
std::pair<int64_t, int64_t> RandomWindow(Rng* rng) {
  const int64_t days = kWindowDays[rng->Uniform(0, 3)];
  return {rng->Uniform(0, 3651 - days), days};
}

std::string Q1Sql(int64_t drug, int64_t weeks) {
  return StringPrintf(
      "SELECT patient FROM rx WHERE drug = 'drug%04lld' AND "
      "start(valid) - patientdob < '7 00:00:00'::Span * %lld",
      static_cast<long long>(drug), static_cast<long long>(weeks));
}

std::string Q2Sql(int64_t drug_a, int64_t drug_b) {
  return StringPrintf(
      "SELECT p1.patient, intersect(p1.valid, p2.valid) FROM rx p1, rx p2 "
      "WHERE p1.drug = 'drug%04lld' AND p2.drug = 'drug%04lld' AND "
      "p1.patient = p2.patient AND overlaps(p1.valid, p2.valid)",
      static_cast<long long>(drug_a), static_cast<long long>(drug_b));
}

/// A result's rows as sorted text lines: the order-free form two plans
/// of one query must agree on.
std::vector<std::string> Canonical(const client::ResultSet& result) {
  std::vector<std::string> lines;
  lines.reserve(result.row_count());
  for (size_t r = 0; r < result.row_count(); ++r) {
    std::string line;
    for (size_t c = 0; c < result.column_count(); ++c) {
      line += result.GetText(r, c);
      line += '\t';
    }
    lines.push_back(std::move(line));
  }
  std::sort(lines.begin(), lines.end());
  return lines;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

double Min(const std::vector<double>& values) {
  return values.empty() ? 0 : *std::min_element(values.begin(), values.end());
}

double Mean(const std::vector<double>& values) {
  double sum = 0;
  for (double v : values) sum += v;
  return values.empty() ? 0 : sum / static_cast<double>(values.size());
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Sessions of the remote workloads: half the processors, at most 4.
/// Each remote operation keeps a client and a server thread busy in
/// turn; leaving half the processors free keeps run-to-run spread low on
/// a shared host (on 4 processors: 2-4% against ~10% with 4 sessions).
int RemoteSessions() {
  return static_cast<int>(
      std::clamp(std::thread::hardware_concurrency() / 2, 1u, 4u));
}

/// What one session thread records in the measured window.
struct SessionLog {
  std::map<std::string, std::vector<double>> latency_ms;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t writes = 0;             // acknowledged INSERT/UPDATE statements
  uint64_t index_result_rows = 0;  // rows returned by index-probing ops
  uint64_t checks_run = 0;
  std::vector<std::string> check_failures;
  std::vector<std::string> texts;  // traced runs: statement texts sent
  int64_t last_end_ns = 0;
  Tracer tracer;
};

struct Op {
  const char* kind;
  bool ok;
};

/// The shared skeleton: a durable prescription database with an
/// interval index on `valid`, optionally served over loopback, driven by
/// `sessions` closed-loop session threads.
class Workload {
 public:
  Workload(const Options& options, int64_t rows, int sessions, bool remote)
      : options_(options),
        session_count_(sessions),
        remote_(remote),
        dir_(options.work_dir + "/db") {
    config_.seed = Mix(options.seed, 0);
    config_.rows = rows;
    config_.num_patients = static_cast<int>(rows / 8) + 1;
    config_.num_drugs = 10;
  }
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  int sessions() const { return session_count_; }

  /// One complete set-up: generate, load, index, checkpoint, start the
  /// server, admit and warm up the sessions.
  Status SetUp() {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
    std::filesystem::create_directories(dir_, ec);
    if (ec) return Status::Internal("cannot create " + dir_);
    TIP_ASSIGN_OR_RETURN(conn_, client::Connection::OpenDurable(dir_));
    conn_->SetNow(Day(kNowDay));
    engine::Database& db = conn_->database();
    TIP_ASSIGN_OR_RETURN(rows_, tip::workload::SetUpPrescriptionTable(
                                    &db, conn_->tip_types(), config_, "rx"));
    TIP_RETURN_IF_ERROR(
        conn_->Execute("CREATE INDEX rx_valid ON rx (valid) USING interval")
            .status());
    // The rows were bulk-loaded beside the log; the checkpoint makes
    // them part of the durable state.
    TIP_RETURN_IF_ERROR(conn_->Checkpoint());
    if (remote_) {
      TIP_ASSIGN_OR_RETURN(server_, tip::server::Server::Start(
                                        &db, tip::server::ServerOptions{}));
    }
    return OpenSessions();
  }

  void TearDown() {
    CloseSessions();
    if (server_ != nullptr) server_->Shutdown();
    server_.reset();
    conn_.reset();
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  Result<Counters> ReadCounters() {
    TIP_ASSIGN_OR_RETURN(client::ResultSet result,
                         conn_->Execute(kCountersSql));
    Counters counters;
    for (size_t c = 0; c < std::size(kCounterNames); ++c) {
      counters[kCounterNames[c]] = result.GetInt(0, c);
    }
    return counters;
  }

  /// The measured window: every session runs operations back to back
  /// until `seconds` have passed.
  void Measure(RunData* out) {
    logs_.clear();
    for (int s = 0; s < session_count_; ++s) {
      logs_.push_back(std::make_unique<SessionLog>());
    }
    std::atomic<bool> go{false};
    int64_t deadline_ns = 0;
    std::vector<std::thread> threads;
    for (int s = 0; s < session_count_; ++s) {
      threads.emplace_back([&, s] {
        while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
        SessionLoop(s, deadline_ns);
      });
    }
    const int64_t start_ns = NowNs();
    deadline_ns = start_ns + static_cast<int64_t>(options_.seconds * 1e9);
    go.store(true, std::memory_order_release);
    for (std::thread& t : threads) t.join();

    int64_t end_ns = start_ns;
    for (const auto& log : logs_) {
      end_ns = std::max(end_ns, log->last_end_ns);
      out->attempted += log->attempted;
      out->failed += log->failed;
      out->checks_run += log->checks_run;
      for (const std::string& f : log->check_failures) {
        out->check_failures.push_back(f);
      }
      for (const auto& [kind, samples] : log->latency_ms) {
        std::vector<double>& all = out->latency_ms[kind];
        all.insert(all.end(), samples.begin(), samples.end());
      }
    }
    out->window_s = static_cast<double>(end_ns - start_ns) / 1e9;
  }

  /// The traced run's layer probes, after the window on a quiet
  /// database; `before`/`after` are the counters around the window.
  Status Probe(const Counters& before, const Counters& after, RunData* out) {
    TIP_RETURN_IF_ERROR(ProbeCore());
    TIP_RETURN_IF_ERROR(ProbeParse());
    TIP_RETURN_IF_ERROR(ProbeExec());
    TIP_RETURN_IF_ERROR(ProbeCheckpoint());
    TIP_RETURN_IF_ERROR(ProbeWire());
    if (!BuildsViews()) TIP_RETURN_IF_ERROR(ProbeViews());

    uint64_t writes = 0;
    uint64_t index_result_rows = 0;
    std::vector<const Tracer*> tracers{&probe_tracer_};
    for (const auto& log : logs_) {
      writes += log->writes;
      index_result_rows += log->index_result_rows;
      tracers.push_back(&log->tracer);
    }
    const std::map<std::string, SpanStats> spans = Summarize(tracers);
    auto durations = [&](const char* name) {
      auto it = spans.find(name);
      return it == spans.end() ? std::vector<double>{} : it->second.duration_us;
    };
    auto self_total_us = [&](const char* name) {
      auto it = spans.find(name);
      double sum = 0;
      if (it != spans.end()) {
        for (double v : it->second.self_us) sum += v;
      }
      return sum;
    };
    auto delta = [&](const char* name) {
      return static_cast<double>(after.at(name) - before.at(name));
    };
    const double write_base = std::max<double>(static_cast<double>(writes), 1);

    std::map<std::string, double>& m = out->layer;
    for (const char* op : {"core.union", "core.intersect", "core.ground"}) {
      m[std::string(op) + "_ns_per_period"] =
          Ratio(self_total_us(op) * 1e3, work_[op]);
    }
    m["sql.parse_us"] = Ratio(self_total_us("sql.parse"), work_["sql.parse"]);
    // Differences of two timings take each side's fastest run: the cost
    // without interference, which a noisy host disturbs least.
    m["exec.compile_us"] = Min(durations("exec.execute_uncached")) -
                           Min(durations("exec.execute_prepared"));
    m["exec.plan_cache_hit_ratio"] =
        Ratio(delta("plan_hits"), delta("plan_hits") + delta("plan_misses"));
    m["exec.eval_ns_per_row"] =
        Ratio(self_total_us("exec.eval_scan") * 1e3, work_["exec.eval_scan"]);
    m["index.candidates_per_result"] =
        Ratio(delta("rows_returned"), static_cast<double>(index_result_rows));
    m["index.overlay_builds_per_probe"] =
        Ratio(delta("overlay_builds"), delta("probes"));
    m["index.absolute_builds_per_write"] =
        delta("absolute_builds") / write_base;
    m["index.rows_scanned_per_probe"] =
        Ratio(delta("rows_scanned"), delta("probes"));
    m["storage.wal_bytes_per_write"] = delta("wal_bytes") / write_base;
    m["storage.fsyncs_per_write"] = delta("fsyncs") / write_base;
    m["storage.checkpoint_ms"] = Median(durations("storage.checkpoint")) / 1e3;
    m["server.gate_wait_shared_ms_per_stmt"] =
        Ratio(delta("gate_wait_shared_ms"), delta("gate_shared"));
    m["server.gate_wait_exclusive_ms_per_stmt"] =
        Ratio(delta("gate_wait_exclusive_ms"), delta("gate_exclusive"));
    m["server.busy_rejections"] =
        delta("gate_busy_shared") + delta("gate_busy_exclusive");
    m["wire.overhead_us"] = Min(durations("wire.remote_execute")) -
                            Min(durations("wire.embedded_execute"));
    m["wire.bytes_out_per_op"] =
        Ratio(delta("bytes_out"), delta("statements"));
    m["browser.view_build_us"] = Mean(durations("browser.view_build"));

    out->span_file = options_.work_dir + "/spans.jsonl";
    if (!WriteSpans(out->span_file, tracers)) {
      return Status::Internal("cannot write " + out->span_file);
    }
    return Status::OK();
  }

  /// Checks the workload's own answers (some checks run inside the
  /// window and are already counted).
  virtual void Verify(RunData* out) = 0;

 protected:
  /// Connects, prepares and warms up the sessions (part of set-up).
  virtual Status OpenSessions() = 0;
  virtual void CloseSessions() = 0;
  /// One operation of session `s`; `i` counts the session's operations.
  virtual Op RunOp(int s, uint64_t i, uint64_t op_id, Tracer* tracer,
                   SessionLog* log) = 0;
  /// The statement the compile and wire probes time: SQL plus an
  /// optional Element bound to :w.
  virtual std::pair<std::string, std::optional<Element>> ProbeStatement()
      const = 0;
  /// The NOWs the workload grounds its Elements at.
  virtual std::vector<Chronon> Nows() const { return {Day(kNowDay)}; }
  /// True when the workload's own operations build TimelineViews.
  virtual bool BuildsViews() const { return false; }

  void Sent(SessionLog* log, std::string_view sql) const {
    if (options_.trace && log->texts.size() < 256) log->texts.emplace_back(sql);
  }

  const Options options_;
  tip::workload::MedicalConfig config_;
  const int session_count_;
  const bool remote_;
  const std::string dir_;
  std::unique_ptr<client::Connection> conn_;  // embedded; owns the database
  std::vector<tip::workload::PrescriptionRow> rows_;
  std::unique_ptr<tip::server::Server> server_;

 private:
  void SessionLoop(int s, int64_t deadline_ns) {
    SessionLog* log = logs_[static_cast<size_t>(s)].get();
    Tracer* tracer = options_.trace ? &log->tracer : nullptr;
    for (uint64_t i = 0; NowNs() < deadline_ns; ++i) {
      const uint64_t op_id = (static_cast<uint64_t>(s) << 40) | i;
      const int64_t start_ns = NowNs();
      Op op{"", false};
      {
        ScopedSpan span(tracer, "op", op_id);
        op = RunOp(s, i, op_id, tracer, log);
      }
      const int64_t end_ns = NowNs();
      ++log->attempted;
      if (op.ok) {
        log->latency_ms[op.kind].push_back(
            static_cast<double>(end_ns - start_ns) / 1e6);
      } else {
        ++log->failed;
      }
      log->last_end_ns = end_ns;
    }
  }

  /// Runs `pass` under a span named `name` until 20 ms have been spent;
  /// `pass` returns the periods it processed.
  void TimePeriods(const char* name, const std::function<uint64_t()>& pass) {
    int64_t spent_ns = 0;
    while (spent_ns < 20'000'000) {
      const int64_t start_ns = NowNs();
      uint64_t periods = 0;
      {
        ScopedSpan span(&probe_tracer_, name, 0);
        periods = pass();
      }
      spent_ns += NowNs() - start_ns;
      work_[name] += static_cast<double>(periods);
    }
  }

  Status ProbeCore() {
    std::vector<GroundedElement> grounded;
    const TxContext ctx(Day(kNowDay));
    for (const auto& row : rows_) {
      TIP_ASSIGN_OR_RETURN(GroundedElement g, row.valid.Ground(ctx));
      grounded.push_back(std::move(g));
    }
    size_t sink = 0;
    using Setop = GroundedElement (*)(const GroundedElement&,
                                      const GroundedElement&);
    const std::pair<const char*, Setop> setops[] = {
        {"core.union", &GroundedElement::Union},
        {"core.intersect", &GroundedElement::Intersect}};
    for (const auto& [name, setop] : setops) {
      TimePeriods(name, [&, setop = setop] {
        uint64_t periods = 0;
        for (size_t i = 0; i + 1 < grounded.size(); ++i) {
          sink += setop(grounded[i], grounded[i + 1]).size();
          periods += grounded[i].size() + grounded[i + 1].size();
        }
        return periods;
      });
    }
    std::vector<TxContext> contexts;
    for (const Chronon& now : Nows()) contexts.emplace_back(now);
    bool grounded_all = true;
    TimePeriods("core.ground", [&] {
      uint64_t periods = 0;
      for (const TxContext& c : contexts) {
        for (const auto& row : rows_) {
          Result<GroundedElement> g = row.valid.Ground(c);
          grounded_all = grounded_all && g.ok();
          if (g.ok()) sink += g->size();
          periods += row.valid.size();
        }
      }
      return periods;
    });
    if (!grounded_all || sink == 0) {
      return Status::Internal("core probe: grounding failed");
    }
    return Status::OK();
  }

  Status ProbeParse() {
    for (const auto& log : logs_) {
      for (const std::string& text : log->texts) {
        Result<engine::Statement> parsed = [&] {
          ScopedSpan span(&probe_tracer_, "sql.parse", 0);
          return engine::ParseStatement(text);
        }();
        TIP_RETURN_IF_ERROR(parsed.status());
        work_["sql.parse"] += 1;
      }
    }
    return Status::OK();
  }

  engine::Params ProbeParams(const std::optional<Element>& window) const {
    engine::Params params;
    if (window) {
      params["w"] = tip::datablade::MakeElement(conn_->tip_types(), *window);
    }
    return params;
  }

  /// Compile cost (one-shot Execute with the plan cache off against a
  /// cached ExecutePrepared of the same statement) and evaluation cost
  /// per row (`length(valid)` over the whole table).
  Status ProbeExec() {
    engine::Database& db = conn_->database();
    const auto [sql, window] = ProbeStatement();
    // A window statement is timed on one day at the start of the
    // history: few rows match, so compilation is not lost in the
    // execution time's run-to-run variation.
    const engine::Params params =
        ProbeParams(window ? std::optional<Element>(DayRange(0, 1))
                           : std::nullopt);
    TIP_ASSIGN_OR_RETURN(std::shared_ptr<const engine::PreparedPlan> plan,
                         db.Prepare(sql));
    for (int rep = 0; rep < 31; ++rep) {
      db.set_plan_cache_enabled(false);
      Status uncached;
      {
        ScopedSpan span(&probe_tracer_, "exec.execute_uncached", 0);
        uncached = db.Execute(sql, params).status();
      }
      db.set_plan_cache_enabled(true);
      TIP_RETURN_IF_ERROR(uncached);
      ScopedSpan span(&probe_tracer_, "exec.execute_prepared", 0);
      TIP_RETURN_IF_ERROR(db.ExecutePrepared(*plan, &params).status());
    }
    for (int rep = 0; rep < 7; ++rep) {
      ScopedSpan span(&probe_tracer_, "exec.eval_scan", 0);
      TIP_ASSIGN_OR_RETURN(engine::ResultSet result,
                           db.Execute("SELECT length(valid) FROM rx"));
      work_["exec.eval_scan"] += static_cast<double>(result.rows.size());
    }
    return Status::OK();
  }

  Status ProbeCheckpoint() {
    for (int rep = 0; rep < 3; ++rep) {
      ScopedSpan span(&probe_tracer_, "storage.checkpoint", 0);
      TIP_RETURN_IF_ERROR(conn_->Checkpoint());
    }
    return Status::OK();
  }

  /// Remote execution on a quiet server against embedded execution of
  /// the same prepared statement; starts a server for the embedded
  /// workload.
  Status ProbeWire() {
    engine::Database& db = conn_->database();
    std::unique_ptr<tip::server::Server> own_server;
    tip::server::Server* server = server_.get();
    if (server == nullptr) {
      TIP_ASSIGN_OR_RETURN(own_server, tip::server::Server::Start(
                                           &db, tip::server::ServerOptions{}));
      server = own_server.get();
    }
    const auto [sql, window] = ProbeStatement();
    const engine::Params params = ProbeParams(window);
    {
      TIP_ASSIGN_OR_RETURN(
          std::unique_ptr<client::RemoteConnection> remote,
          client::RemoteConnection::Connect("127.0.0.1", server->port()));
      TIP_RETURN_IF_ERROR(remote->SetNow(Day(kNowDay)));
      client::RemoteStatement stmt = remote->Prepare(sql);
      TIP_RETURN_IF_ERROR(stmt.status());
      if (window) stmt.BindElement("w", *window);
      TIP_ASSIGN_OR_RETURN(std::shared_ptr<const engine::PreparedPlan> plan,
                           db.Prepare(sql));
      for (int rep = 0; rep < 201; ++rep) {
        {
          ScopedSpan span(&probe_tracer_, "wire.remote_execute", 0);
          TIP_RETURN_IF_ERROR(stmt.Execute().status());
        }
        ScopedSpan span(&probe_tracer_, "wire.embedded_execute", 0);
        TIP_RETURN_IF_ERROR(db.ExecutePrepared(*plan, &params).status());
      }
    }
    if (own_server != nullptr) own_server->Shutdown();
    return Status::OK();
  }

  /// For workloads whose operations build no views: TimelineViews over
  /// the workload's own window results.
  Status ProbeViews() {
    Rng rng(Mix(options_.seed, 2));
    for (int rep = 0; rep < 64; ++rep) {
      const auto [first, days] = RandomWindow(&rng);
      client::Statement stmt = conn_->Prepare(kWindowSql);
      TIP_ASSIGN_OR_RETURN(
          client::ResultSet result,
          stmt.BindElement("w", DayRange(first, days)).Execute());
      ScopedSpan span(&probe_tracer_, "browser.view_build", 0);
      TIP_ASSIGN_OR_RETURN(
          tip::browser::TimelineView view,
          tip::browser::TimelineView::Create(result, "valid",
                                             TxContext(Day(kNowDay))));
      view.Density({Day(first), Day(first + days)}, kDensityBuckets);
    }
    return Status::OK();
  }

  std::vector<std::unique_ptr<SessionLog>> logs_;
  Tracer probe_tracer_;
  std::map<std::string, double> work_;  // units of work per probe span name
};

// -- paper_queries ------------------------------------------------------------

/// The paper's Section 2 queries, round robin, on one embedded
/// connection (the C-library path). Literals are inlined from the seed,
/// so most texts miss the plan cache.
class PaperQueries final : public Workload {
 public:
  explicit PaperQueries(const Options& options)
      : Workload(options, /*rows=*/3200, /*sessions=*/1, /*remote=*/false) {}

  void Verify(RunData* out) override {
    // Q2 against the same text with the interval join switched off.
    engine::Database& db = conn_->database();
    db.set_interval_join_enabled(false);
    for (const auto& [sql, got] : q2_samples_) {
      ++out->checks_run;
      Result<client::ResultSet> want = conn_->Execute(sql);
      if (!want.ok() || Canonical(*want) != Canonical(got)) {
        out->check_failures.push_back(
            "Q2 differs from its interval_join-off plan: " + sql);
      }
    }
    db.set_interval_join_enabled(true);

    // Q3 against a GroundedElement::Union fold over the generated rows.
    std::map<std::string, GroundedElement> cover;
    const TxContext ctx(Day(kNowDay));
    for (const auto& row : rows_) {
      Result<GroundedElement> g = row.valid.Ground(ctx);
      if (!g.ok()) {
        out->check_failures.push_back("cannot ground a generated row");
        return;
      }
      GroundedElement& acc = cover[row.patient];
      acc = GroundedElement::Union(acc, *g);
    }
    for (const client::ResultSet& got : q3_samples_) {
      ++out->checks_run;
      bool same = got.row_count() == cover.size();
      for (size_t r = 0; same && r < got.row_count(); ++r) {
        auto it = cover.find(got.GetString(r, 0));
        same = it != cover.end() &&
               got.GetSpan(r, 1) == it->second.TotalDuration();
      }
      if (!same) {
        out->check_failures.push_back("Q3 totals differ from the core fold");
      }
    }
  }

 private:
  Status OpenSessions() override {
    rng_ = Rng(Mix(options_.seed, 1));
    // Q2 walks a seeded order of all 90 drug pairs, so every run of a
    // few seconds weighs each pair alike.
    q2_pairs_.clear();
    for (int64_t a = 0; a < 10; ++a) {
      for (int64_t b = 0; b < 10; ++b) {
        if (a != b) q2_pairs_.emplace_back(a, b);
      }
    }
    for (size_t k = q2_pairs_.size() - 1; k > 0; --k) {
      std::swap(q2_pairs_[k], q2_pairs_[static_cast<size_t>(
                                  rng_.Uniform(0, static_cast<int64_t>(k)))]);
    }
    q2_samples_.clear();
    q3_samples_.clear();
    // Warm-up: a one-day window probe builds the index's absolute
    // segment and NOW overlay (which Q2's join probes use), and Q3 — the
    // one text that repeats — enters the plan cache.
    TIP_RETURN_IF_ERROR(conn_->Prepare(kWindowSql)
                            .BindElement("w", DayRange(3000, 1))
                            .Execute()
                            .status());
    return conn_->Execute(kQ3Sql).status();
  }

  void CloseSessions() override {}

  Op RunOp(int, uint64_t i, uint64_t op_id, Tracer* tracer,
           SessionLog* log) override {
    std::string sql;
    const char* kind = "";
    switch (i % 3) {
      case 0:
        kind = "q1";
        sql = Q1Sql(rng_.Uniform(0, 9), rng_.Uniform(520, 4680));
        break;
      case 1: {
        kind = "q2";
        const auto [a, b] = q2_pairs_[i / 3 % q2_pairs_.size()];
        sql = Q2Sql(a, b);
        break;
      }
      default:
        kind = "q3";
        sql = kQ3Sql;
    }
    Sent(log, sql);
    Result<client::ResultSet> result = [&] {
      ScopedSpan span(tracer, "client.execute", op_id);
      return conn_->Execute(sql);
    }();
    if (!result.ok()) return {kind, false};
    const uint64_t round = i / 3;
    if (i % 3 == 1) {
      log->index_result_rows += result->row_count();
      if (round % 4 == 0) q2_samples_.emplace_back(sql, std::move(*result));
    } else if (i % 3 == 2 && round % 8 == 0) {
      q3_samples_.push_back(std::move(*result));
    }
    return {kind, true};
  }

  std::pair<std::string, std::optional<Element>> ProbeStatement()
      const override {
    return {Q1Sql(3, 2000), std::nullopt};
  }

  Rng rng_{0};
  std::vector<std::pair<int64_t, int64_t>> q2_pairs_;
  std::vector<std::pair<std::string, client::ResultSet>> q2_samples_;
  std::vector<client::ResultSet> q3_samples_;
};

// -- browse_whatif --------------------------------------------------------------

/// The Section 4 Browser: remote sessions slide a window over the time
/// line and move their own NOW slider; every result becomes a
/// TimelineView and its density strip.
class BrowseWhatIf final : public Workload {
 public:
  explicit BrowseWhatIf(const Options& options)
      : Workload(options, /*rows=*/20000, RemoteSessions(), /*remote=*/true) {}

  void Verify(RunData* out) override {
    for (const auto& session : sessions_) {
      for (const Sample& sample : session->samples) {
        ++out->checks_run;
        const TxContext ctx(sample.now);
        const GroundedElement window = GroundedElement::Of(
            *GroundedPeriod::Make(Day(sample.first),
                                  Day(sample.first + sample.days)));
        RowSet want;
        for (const auto& row : rows_) {
          Result<GroundedElement> g = row.valid.Ground(ctx);
          if (g.ok() && g->Overlaps(window)) {
            want.Add(row.patient, row.drug, row.valid);
          }
        }
        if (want != sample.got) {
          out->check_failures.push_back(StringPrintf(
              "window of %lld days at day %lld (NOW %s): %zu rows, "
              "brute force %zu",
              static_cast<long long>(sample.days),
              static_cast<long long>(sample.first),
              sample.now.ToString().c_str(), sample.got.rows, want.rows));
        }
      }
    }
  }

 private:
  /// An order-free fingerprint of a window result's (patient, drug,
  /// valid) rows, so samples cost no memory while the window runs.
  struct RowSet {
    size_t rows = 0;
    uint64_t hash_sum = 0;
    void Add(const std::string& patient, const std::string& drug,
             const Element& valid) {
      ++rows;
      hash_sum += std::hash<std::string>{}(patient + "|" + drug + "|" +
                                           valid.ToString());
    }
    friend bool operator==(const RowSet&, const RowSet&) = default;
  };
  struct Sample {
    Chronon now;
    int64_t first;
    int64_t days;
    RowSet got;
  };
  struct Session {
    std::unique_ptr<client::RemoteConnection> conn;
    std::optional<client::RemoteStatement> window;
    Rng rng{0};
    Chronon now;
    std::vector<Chronon> nows;  // every NOW the slider moved to
    std::vector<Sample> samples;
  };

  Status OpenSessions() override {
    for (int s = 0; s < session_count_; ++s) {
      auto session = std::make_unique<Session>();
      TIP_ASSIGN_OR_RETURN(
          session->conn,
          client::RemoteConnection::Connect("127.0.0.1", server_->port()));
      session->rng = Rng(Mix(options_.seed, 100 + static_cast<uint64_t>(s)));
      session->window.emplace(session->conn->Prepare(kWindowSql));
      TIP_RETURN_IF_ERROR(session->window->status());
      // Warm-up: plan the window query and build this NOW's overlay.
      session->now = Day(kNowDay);
      TIP_RETURN_IF_ERROR(session->conn->SetNow(session->now));
      TIP_RETURN_IF_ERROR(
          session->window->BindElement("w", DayRange(3000, 30))
              .Execute()
              .status());
      sessions_.push_back(std::move(session));
    }
    return Status::OK();
  }

  void CloseSessions() override { sessions_.clear(); }

  Op RunOp(int s, uint64_t i, uint64_t op_id, Tracer* tracer,
           SessionLog* log) override {
    Session& session = *sessions_[static_cast<size_t>(s)];
    if (i % 8 == 0) {
      const Chronon now = Day(session.rng.Uniform(kFirstNowDay, kLastDay));
      Sent(log, "SET NOW '" + now.ToString() + "'");
      Status moved;
      {
        ScopedSpan span(tracer, "client.set_now", op_id);
        moved = session.conn->SetNow(now);
      }
      if (!moved.ok()) return {"window", false};
      session.now = now;
      session.nows.push_back(now);
    }
    const auto [first, days] = RandomWindow(&session.rng);
    Sent(log, kWindowSql);
    Result<client::ResultSet> result = [&] {
      ScopedSpan span(tracer, "client.execute", op_id);
      return session.window->BindElement("w", DayRange(first, days))
          .Execute();
    }();
    if (!result.ok()) return {"window", false};
    log->index_result_rows += result->row_count();
    bool viewed = false;
    {
      ScopedSpan span(tracer, "browser.view_build", op_id);
      Result<tip::browser::TimelineView> view =
          tip::browser::TimelineView::Create(*result, "valid",
                                             TxContext(session.now));
      viewed = view.ok() && view->rows().size() == result->row_count() &&
               view->Density({Day(first), Day(first + days)},
                             kDensityBuckets)
                       .size() == kDensityBuckets;
    }
    if (!viewed) return {"window", false};
    if (i % 64 == 0) {
      Sample sample{session.now, first, days, {}};
      for (size_t r = 0; r < result->row_count(); ++r) {
        sample.got.Add(result->GetString(r, 0), result->GetString(r, 1),
                       result->GetElement(r, 2));
      }
      session.samples.push_back(sample);
    }
    return {"window", true};
  }

  std::pair<std::string, std::optional<Element>> ProbeStatement()
      const override {
    return {kWindowSql, DayRange(2000, 30)};
  }

  std::vector<Chronon> Nows() const override {
    std::vector<Chronon> nows;
    for (const auto& session : sessions_) {
      nows.insert(nows.end(), session->nows.begin(), session->nows.end());
    }
    std::sort(nows.begin(), nows.end());
    nows.erase(std::unique(nows.begin(), nows.end()), nows.end());
    if (nows.size() > 16) nows.resize(16);
    return nows;
  }

  bool BuildsViews() const override { return true; }

  std::vector<std::unique_ptr<Session>> sessions_;
};

// -- rx_mixed_durable -----------------------------------------------------------

/// Reads beside durable writes: patient histories and windows, new
/// open-ended prescriptions and updates closing them, with a checkpoint
/// after every 500th write. WAL in its default group mode: each write
/// reaches the kernel before it is acknowledged, and an fsync follows
/// every 64 records.
class RxMixedDurable final : public Workload {
 public:
  explicit RxMixedDurable(const Options& options)
      : Workload(options, /*rows=*/20000, RemoteSessions(), /*remote=*/true) {}

  void Verify(RunData* out) override {
    // Drain (the server takes a final checkpoint), then strictly
    // re-attach the directory in a fresh database.
    const int64_t expected_rows =
        static_cast<int64_t>(rows_.size() + inserts_acked_.load());
    CloseSessions();
    server_->Shutdown();
    server_.reset();
    conn_.reset();
    ++out->checks_run;
    Result<std::unique_ptr<client::Connection>> reopened =
        client::Connection::OpenDurable(dir_);
    if (!reopened.ok()) {
      out->check_failures.push_back("strict re-attach failed: " +
                                    reopened.status().ToString());
      return;
    }
    client::Connection& db = **reopened;
    Result<client::ResultSet> check = db.Execute("CHECK DATABASE");
    bool healthy = check.ok() && check->row_count() > 0;
    for (size_t r = 0; healthy && r < check->row_count(); ++r) {
      healthy = check->GetString(r, 1) == "ok";
    }
    if (!healthy) out->check_failures.push_back("CHECK DATABASE not ok");
    Result<client::ResultSet> count = db.Execute("SELECT count(*) FROM rx");
    if (!count.ok() || count->GetInt(0, 0) != expected_rows) {
      out->check_failures.push_back(StringPrintf(
          "row count after re-attach is not %lld",
          static_cast<long long>(expected_rows)));
    }
  }

 private:
  static constexpr uint64_t kWritesPerCheckpoint = 500;

  enum Kind { kReadPatient, kReadWindow, kInsert, kClose };
  struct KindInfo {
    const char* name;  // the latency series the operation lands in
    const char* sql;
  };
  static constexpr KindInfo kKinds[] = {
      {"read_patient", "SELECT drug, valid FROM rx WHERE patient = :p"},
      {"read_window", kWindowSql},
      {"insert",
       "INSERT INTO rx VALUES (:doctor, :patient, :dob, :drug, :dosage, "
       ":freq, :valid)"},
      {"update",
       "UPDATE rx SET valid = intersect(valid, :upto) WHERE doctor = :tag"}};

  struct Session {
    std::unique_ptr<client::RemoteConnection> conn;
    std::vector<client::RemoteStatement> stmts;  // indexed by Kind
    Rng rng{0};
    uint64_t inserted = 0;
    std::deque<std::pair<std::string, int64_t>> open;  // tag, start day
  };

  Status OpenSessions() override {
    writes_ = 0;
    inserts_acked_ = 0;
    for (int s = 0; s < session_count_; ++s) {
      auto session = std::make_unique<Session>();
      TIP_ASSIGN_OR_RETURN(
          session->conn,
          client::RemoteConnection::Connect("127.0.0.1", server_->port()));
      session->rng = Rng(Mix(options_.seed, 100 + static_cast<uint64_t>(s)));
      TIP_RETURN_IF_ERROR(session->conn->SetNow(Day(kNowDay)));
      for (const KindInfo& kind : kKinds) {
        session->stmts.push_back(session->conn->Prepare(kind.sql));
        TIP_RETURN_IF_ERROR(session->stmts.back().status());
      }
      // Warm-up: plan both reads; the window probe builds the index.
      TIP_RETURN_IF_ERROR(session->stmts[kReadPatient]
                              .BindString("p", "patient0000")
                              .Execute()
                              .status());
      TIP_RETURN_IF_ERROR(session->stmts[kReadWindow]
                              .BindElement("w", DayRange(3000, 30))
                              .Execute()
                              .status());
      sessions_.push_back(std::move(session));
    }
    return Status::OK();
  }

  void CloseSessions() override { sessions_.clear(); }

  Op RunOp(int s, uint64_t, uint64_t op_id, Tracer* tracer,
           SessionLog* log) override {
    Session& session = *sessions_[static_cast<size_t>(s)];
    Rng& rng = session.rng;
    const int64_t pick = rng.Uniform(0, 99);
    const Kind kind = pick < 50   ? kReadPatient
                      : pick < 70 ? kReadWindow
                      : pick < 90 || session.open.empty() ? kInsert
                                                          : kClose;
    client::RemoteStatement& stmt = session.stmts[kind];
    std::pair<std::string, int64_t> opened;  // an inserted row's tag, start
    switch (kind) {
      case kReadPatient:
        stmt.BindString("p", Patient(rng.Uniform(0, config_.num_patients - 1)));
        break;
      case kReadWindow: {
        const auto [first, days] = RandomWindow(&rng);
        stmt.BindElement("w", DayRange(first, days));
        break;
      }
      case kInsert:
        opened = {StringPrintf("w%d_%07llu", s,
                               static_cast<unsigned long long>(
                                   ++session.inserted)),
                  rng.Uniform(kFirstNowDay, kNowDay - 15)};
        stmt.BindString("doctor", opened.first)
            .BindString("patient",
                        Patient(rng.Uniform(0, config_.num_patients - 1)))
            .BindChronon("dob", Day(-rng.Uniform(0, 80 * 365)))
            .BindString("drug", StringPrintf("drug%04lld",
                                             static_cast<long long>(
                                                 rng.Uniform(0, 9))))
            .BindInt("dosage", rng.Uniform(1, 4))
            .BindSpan("freq", Span::FromSeconds(rng.Uniform(4, 24) * 3600))
            .BindElement("valid",
                         Element::Of(Period(Instant::Absolute(Day(opened.second)),
                                            Instant::Now())));
        break;
      case kClose: {
        const auto [tag, start] = session.open.front();
        session.open.pop_front();
        stmt.BindString("tag", tag).BindElement(
            "upto", DayRange(0, rng.Uniform(start + 1, kNowDay - 1)));
        break;
      }
    }
    const char* name = kKinds[kind].name;
    Sent(log, kKinds[kind].sql);
    Result<client::ResultSet> result = [&] {
      ScopedSpan span(tracer, "client.execute", op_id);
      return stmt.Execute();
    }();
    if (!result.ok()) return {name, false};
    if (kind == kReadWindow) log->index_result_rows += result->row_count();
    if (kind == kReadPatient || kind == kReadWindow) return {name, true};

    // A write: exactly one row must change.
    ++log->checks_run;
    if (result->affected_rows() != 1) {
      log->check_failures.push_back(StringPrintf(
          "%s changed %lld rows", name,
          static_cast<long long>(result->affected_rows())));
    }
    ++log->writes;
    if (kind == kInsert) {
      ++inserts_acked_;
      session.open.push_back(std::move(opened));
    }
    if (++writes_ % kWritesPerCheckpoint == 0) {
      ScopedSpan span(tracer, "storage.checkpoint", op_id);
      if (!session.conn->Checkpoint().ok()) return {name, false};
    }
    return {name, true};
  }

  static std::string Patient(int64_t n) {
    return StringPrintf("patient%04lld", static_cast<long long>(n));
  }

  std::pair<std::string, std::optional<Element>> ProbeStatement()
      const override {
    return {kWindowSql, DayRange(2000, 30)};
  }

  std::vector<std::unique_ptr<Session>> sessions_;
  std::atomic<uint64_t> writes_{0};  // acknowledged, all sessions
  std::atomic<uint64_t> inserts_acked_{0};
};

std::unique_ptr<Workload> MakeWorkload(const Options& options) {
  if (options.workload == "paper_queries") {
    return std::make_unique<PaperQueries>(options);
  }
  if (options.workload == "browse_whatif") {
    return std::make_unique<BrowseWhatIf>(options);
  }
  if (options.workload == "rx_mixed_durable") {
    return std::make_unique<RxMixedDurable>(options);
  }
  return nullptr;
}

}  // namespace

Status RunWorkload(const Options& options, RunData* out) {
  std::unique_ptr<Workload> workload = MakeWorkload(options);
  if (workload == nullptr) {
    return Status::InvalidArgument("unknown workload '" + options.workload +
                                   "'");
  }
  out->sessions = workload->sessions();
  for (int k = 0; k < kSetups; ++k) {
    if (k > 0) workload->TearDown();
    const int64_t start_ns = NowNs();
    TIP_RETURN_IF_ERROR(workload->SetUp());
    out->setup_s.push_back(static_cast<double>(NowNs() - start_ns) / 1e9);
  }
  TIP_ASSIGN_OR_RETURN(Counters before, workload->ReadCounters());
  workload->Measure(out);
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  out->peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
  TIP_ASSIGN_OR_RETURN(Counters after, workload->ReadCounters());
  if (options.trace) TIP_RETURN_IF_ERROR(workload->Probe(before, after, out));
  workload->Verify(out);
  workload->TearDown();
  return Status::OK();
}

}  // namespace tipbench
