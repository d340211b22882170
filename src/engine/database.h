#ifndef TIP_ENGINE_DATABASE_H_
#define TIP_ENGINE_DATABASE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/exec_guard.h"
#include "common/status.h"
#include "core/chronon.h"
#include "core/tx_context.h"
#include "engine/catalog/aggregate_registry.h"
#include "engine/catalog/cast_registry.h"
#include "engine/catalog/catalog.h"
#include "engine/catalog/routine_registry.h"
#include "engine/exec/parallel_exec.h"
#include "engine/exec/prepared_plan.h"
#include "engine/exec/result_set.h"
#include "engine/session_context.h"
#include "engine/storage/wal.h"
#include "engine/types/type.h"

namespace tip::engine {

/// How AttachDurableDir treats corruption it finds on disk:
///   kStrict   any corruption refuses the whole open (the default).
///   kSalvage  tables whose snapshot section or replay records are
///             corrupt are quarantined — served as explicit Corruption
///             errors until dropped — and everything else is recovered.
enum class RecoveryMode { kStrict, kSalvage };

/// Parses "strict|salvage" (lower-case); InvalidArgument else.
Result<RecoveryMode> ParseRecoveryMode(std::string_view word);

/// One corrupt object a salvage-mode open could not recover: what it
/// was, where the damage sits (file, LSN for WAL records, byte offset
/// for snapshot sections) and why it was rejected.
struct CorruptionManifestEntry {
  std::string object;  // table name, or "wal"/"snapshot" for structure
  std::string file;
  uint64_t lsn = 0;     // 0 when the damage is not a WAL record
  uint64_t offset = 0;  // byte offset; 0 when unknown
  std::string cause;
};

/// What Database::AttachDurableDir found on disk and did about it.
struct RecoveryReport {
  bool created = false;          // fresh directory: no snapshot, no WAL
  bool snapshot_loaded = false;  // a checkpoint snapshot was restored
  uint64_t checkpoint_lsn = 1;   // WAL records below this were skipped
  uint64_t wal_records_replayed = 0;
  bool torn_tail = false;        // the WAL ended mid-append and was cut
  uint64_t torn_bytes_truncated = 0;
  uint64_t txns_replayed = 0;    // committed transaction brackets applied
  /// Records inside uncommitted or aborted brackets, discarded instead
  /// of applied (the bracket records themselves not counted).
  uint64_t txn_records_discarded = 0;
  // -- Salvage-mode outcomes (all zero on a strict open) ---------------
  bool salvage = false;               // the open ran in salvage mode
  uint64_t tables_quarantined = 0;
  uint64_t records_skipped = 0;       // WAL records for quarantined tables
  std::vector<CorruptionManifestEntry> manifest;
};

/// Durability counters, surfaced in SQL as tip_wal_stats().
struct DurabilityStats {
  WalStatsSnapshot wal;  // append-path counters from the live WAL
  uint64_t wal_next_lsn = 0;  // the LSN the next append gets (0: no WAL)
  uint64_t checkpoints = 0;
  uint64_t recoveries_run = 0;
  uint64_t records_replayed = 0;
  uint64_t torn_tail_truncations = 0;
  uint64_t txns_committed = 0;
  uint64_t txns_rolled_back = 0;  // explicit ROLLBACK and error aborts
  uint64_t txn_records_discarded = 0;  // by recovery, uncommitted/aborted
};

/// Integrity counters, surfaced in SQL as tip_health().
struct IntegrityStats {
  uint64_t scrubs_run = 0;         // CHECK TABLE/DATABASE statements
  uint64_t objects_checked = 0;    // tables + WAL scans across all scrubs
  uint64_t corruptions_found = 0;  // non-ok findings across all scrubs
  uint64_t tables_quarantined = 0; // currently quarantined
  uint64_t scrub_ticks = 0;        // background scrub steps (SET scrub on)
};

/// Counters for the multi-session server front-end (src/server), owned
/// by the Database so tip_server_stats() works identically whether the
/// statement arrives embedded or over the wire. The server (tipd) bumps
/// them; any session may read them concurrently, hence atomics.
struct ServerStatsCounters {
  std::atomic<uint64_t> sessions_active{0};
  std::atomic<uint64_t> sessions_peak{0};
  std::atomic<uint64_t> sessions_total{0};    // ever admitted
  std::atomic<uint64_t> sessions_rejected{0}; // admission refusals
  std::atomic<uint64_t> statements_served{0};
  std::atomic<uint64_t> bytes_in{0};
  std::atomic<uint64_t> bytes_out{0};
  std::atomic<uint64_t> drains{0};            // graceful shutdowns
  std::atomic<uint64_t> session_aborts{0};    // fail-stop session deaths
  std::atomic<uint64_t> cancels_received{0};  // remote tip_cancel frames
  std::atomic<uint64_t> idle_timeouts{0};     // sessions reaped idle
  std::atomic<uint64_t> wire_faults{0};       // injected/real wire errors
  // -- Shared/exclusive gate counters (PR 10) --------------------------
  std::atomic<uint64_t> gate_shared{0};       // shared acquisitions
  std::atomic<uint64_t> gate_exclusive{0};    // exclusive acquisitions
  std::atomic<uint64_t> gate_upgrades{0};     // shared→exclusive upgrades
  /// Time spent waiting for the gate, in microseconds so short waits
  /// are not truncated away; tip_server_stats() reports milliseconds.
  std::atomic<uint64_t> gate_wait_shared_us{0};
  std::atomic<uint64_t> gate_wait_exclusive_us{0};
  std::atomic<uint64_t> gate_busy_shared{0};     // "server busy" (shared)
  std::atomic<uint64_t> gate_busy_exclusive{0};  // "server busy" (excl.)
};

/// Host parameters for a statement (`:name` placeholders).
using Params = std::map<std::string, Datum, std::less<>>;

struct Statement;

/// How a statement interacts with shared state, from the server gate's
/// point of view: readers may run concurrently with each other, writers
/// need the database to themselves.
enum class StatementClass { kReader, kWriter };

/// An embedded extensible relational database instance — the stand-in
/// for the Informix server TIP extends. A fresh Database knows only the
/// classic scalar types, operators and aggregates; installing the TIP
/// DataBlade (`tip::datablade::Install`) adds the five temporal types
/// and their routine/cast/aggregate catalog entries, after which SQL
/// statements can use them as if they were built in.
///
/// Thread-safety: concurrent Execute calls running read-only statements
/// (SELECT / EXPLAIN, per Classify) are safe against each other and
/// against SET NOW from another thread — each statement captures a
/// single TxContext up front from its SessionContext, so a query sees
/// one consistent NOW even if another session's override differs or
/// flips mid-run. Statements that write (INSERT / UPDATE / DELETE /
/// DDL) and changes to the non-session-scoped options must be
/// serialized externally against ALL other statements on the same
/// Database — that is the server gate's job (DESIGN.md §13). Sessions:
/// every entry point takes an optional SessionContext*; passing null
/// uses the built-in global session, which keeps the embedded
/// single-threaded API exactly as before. Many sessions may hold open
/// read-only transactions at once; at most one transaction may write
/// (the single writer slot is claimed at the first write statement,
/// which the caller must have serialized exclusively).
class Database {
 public:
  Database();

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  // Extension points (what the DataBlade API exposes).
  TypeRegistry& types() { return types_; }
  const TypeRegistry& types() const { return types_; }
  RoutineRegistry& routines() { return routines_; }
  CastRegistry& casts() { return casts_; }
  AggregateRegistry& aggregates() { return aggregates_; }
  Catalog& catalog() { return catalog_; }
  const Catalog& catalog() const { return catalog_; }

  /// Registers the access-method support function that maps values of
  /// `type` to their bounding interval and NOW-dependence (enables
  /// CREATE INDEX ... USING interval and the interval join on that
  /// type).
  Status RegisterIntervalKeyFn(TypeId type, IntervalKeyFn fn);

  /// Executes one SQL statement.
  Result<ResultSet> Execute(std::string_view sql);
  /// Executes with host parameters bound to `:name` placeholders.
  Result<ResultSet> Execute(std::string_view sql, const Params& params);
  /// Master overload: executes on behalf of `session` (null = the
  /// global session). The server passes its per-connection context
  /// here so concurrent readers ground NOW and arm guards from their
  /// own session, not shared fields.
  Result<ResultSet> Execute(std::string_view sql, const Params* params,
                            SessionContext* session);

  /// Classifies a parsed statement for the server's shared/exclusive
  /// gate. SELECT/EXPLAIN are readers unless they call a serial_only
  /// routine (tip_checkpoint, tip_sync_wal, tip_verify, any CREATE
  /// FUNCTION routine); BEGIN/COMMIT/ROLLBACK and session-scoped SETs
  /// are readers; all DML, DDL, CHECK and global SETs are writers. Safe
  /// to call without the gate.
  StatementClass Classify(const Statement& stmt) const;

  // -- Prepared statements ---------------------------------------------------

  /// Parses `sql` once and returns a shared prepared handle: parse
  /// errors surface here (eagerly), and for SELECTs the planned
  /// operator tree is built lazily on first execution and reused by
  /// every later one. With the plan cache enabled, SELECT handles are
  /// shared with (and retrieved from) the cache, keyed on the text
  /// alone, so repeated Execute(sql) calls from any session and
  /// explicit Prepare users converge on the same handle.
  Result<std::shared_ptr<const PreparedPlan>> Prepare(std::string_view sql);

  /// Executes a prepared handle under fresh parameter bindings. SELECTs
  /// reuse the cached operator tree when the catalog version, session
  /// settings and parameter types still match the plan (re-grounding
  /// NOW through a fresh TxContext each time); otherwise they re-plan
  /// transparently — a dropped table fails cleanly rather than touching
  /// a dangling pointer. Other statement kinds skip the parser and
  /// re-plan from the stored AST per execution.
  Result<ResultSet> ExecutePrepared(const PreparedPlan& plan,
                                    const Params* params = nullptr,
                                    SessionContext* session = nullptr);
  /// The same, handing the result to `sink` as the plan produces it
  /// (the overload above collects it into a ResultSet): the columns,
  /// then each output row, then the affected count and message. A
  /// statement that is not a SELECT builds its small result whole and
  /// then hands it over. On failure the sink may hold part of the
  /// result, which the caller discards.
  Status ExecutePrepared(const PreparedPlan& plan, const Params* params,
                         SessionContext* session, ResultSink* sink);

  /// SET plan_cache on|off: when off, Prepare neither consults nor
  /// fills the text cache, so each Execute(sql) plans a handle of its
  /// own, and no hit or miss is counted; explicit prepared handles
  /// keep their variants — caching is their contract.
  void set_plan_cache_enabled(bool on) { plan_cache_enabled_ = on; }
  bool plan_cache_enabled() const { return plan_cache_enabled_; }
  /// SET plan_cache_size n: capacity of the text-keyed LRU cache.
  void set_plan_cache_size(size_t n) {
    plan_cache_.SetCapacity(n, &plan_cache_stats_);
  }
  const PlanCacheStats& plan_cache_stats() const { return plan_cache_stats_; }
  size_t plan_cache_entries() const { return plan_cache_.entries(); }
  size_t plan_cache_capacity() const { return plan_cache_.capacity(); }

  /// Monotonic version of everything cached plans resolve against:
  /// tables, indexes, routines, casts, aggregates, interval key
  /// functions. Bumped by DDL, function/cast/aggregate registration,
  /// ATTACH and wal_mode re-baselining; plan variants carry the version
  /// they were planned under and are invalidated on mismatch.
  uint64_t catalog_version() const {
    return catalog_version_.load(std::memory_order_acquire);
  }
  /// Public for extension code that mutates catalog state behind the
  /// registries' backs; harmless to call spuriously (plans re-plan).
  void BumpCatalogVersion() {
    catalog_version_.fetch_add(1, std::memory_order_acq_rel);
  }

  /// Executes a ';'-separated script, stopping at the first error;
  /// returns the result of the last non-empty statement. Statements end
  /// at `;` tokens (SplitStatements), so a `;` inside a string literal
  /// or a `--` comment does not split.
  Result<ResultSet> ExecuteScript(std::string_view script);

  // -- Session state --------------------------------------------------------

  /// The transaction context the next statement on `session` (null =
  /// the global session) will evaluate under: the session's open
  /// transaction's pinned NOW if one is open, else its NOW override if
  /// set (SET NOW '...'), else the system clock.
  TxContext CurrentTx(const SessionContext* session = nullptr) const;

  /// Overrides NOW for subsequent statements on `session` (the
  /// Browser's what-if mechanism); nullopt restores the system clock.
  /// Safe to call while other threads run read-only statements.
  void SetNowOverride(std::optional<Chronon> now,
                      SessionContext* session = nullptr);
  std::optional<Chronon> now_override(
      const SessionContext* session = nullptr) const {
    std::lock_guard<std::mutex> lock(session_mu_);
    return Sess(session)->now;
  }

  void set_hash_join_enabled(bool on) { enable_hash_join_ = on; }
  bool hash_join_enabled() const { return enable_hash_join_; }
  void set_interval_join_enabled(bool on) { enable_interval_join_ = on; }
  bool interval_join_enabled() const { return enable_interval_join_; }

  /// The cap on the workers of eligible scans/aggregations/joins
  /// (SET PARALLEL_WORKERS n); the default is the core count, and 1
  /// gives the serial plans.
  void set_parallel_workers(size_t n) { global_session_.parallel_workers = n; }
  size_t parallel_workers() const {
    return global_session_.parallel_workers.load();
  }

  // -- Transactions ----------------------------------------------------------

  /// BEGIN [WORK]: opens a multi-statement transaction. The transaction
  /// pins one TxContext at BEGIN time — every statement inside it
  /// evaluates under that NOW, even if SetNowOverride flips the session
  /// override meanwhile (the override re-applies at COMMIT/ROLLBACK;
  /// SQL `SET NOW` inside a transaction is refused outright). DML takes
  /// an undo image of each table on first touch, and the first logged
  /// write opens a TXN_BEGIN bracket in the WAL. DDL, SET wal_mode and
  /// checkpoints are refused while any transaction is open.
  ///
  /// Any number of sessions may hold open transactions concurrently as
  /// long as at most one of them writes: the undo/WAL machinery (the
  /// single writer slot) is claimed lazily at the transaction's first
  /// write statement, which the server runs under the exclusive gate.
  Status BeginTransaction(SessionContext* session = nullptr);

  /// COMMIT: appends TXN_COMMIT under the session's wal_mode (the
  /// transaction's records reach disk per that mode at the commit
  /// point) and discards the undo log. If the commit record cannot be
  /// written the transaction is rolled back and the error returned.
  /// Read-only transactions (writer slot never claimed) just drop
  /// their pin.
  Status CommitTransaction(SessionContext* session = nullptr);

  /// ROLLBACK: restores every touched table from its undo image (heap
  /// contents and interval indexes return to the pre-BEGIN state) and
  /// rewinds the WAL to the pre-bracket mark, un-assigning the
  /// transaction's LSNs.
  Status RollbackTransaction(SessionContext* session = nullptr);

  /// True between BEGIN and COMMIT/ROLLBACK on `session`. Thread-safe:
  /// reads the session's pin under the session mutex.
  bool InTransaction(const SessionContext* session = nullptr) const {
    std::lock_guard<std::mutex> lock(session_mu_);
    return Sess(session)->txn_pin.has_value();
  }

  // -- Statement lifecycle ---------------------------------------------------

  /// Wall-clock budget for each subsequent statement
  /// (SET STATEMENT_TIMEOUT_MS n). 0 = unlimited (the default).
  void set_statement_timeout_ms(int64_t ms) {
    global_session_.statement_timeout_ms = ms;
  }
  int64_t statement_timeout_ms() const {
    return global_session_.statement_timeout_ms.load();
  }

  /// Approximate memory budget for each subsequent statement's buffering
  /// (SET MEMORY_LIMIT_KB n). 0 = unlimited (the default).
  void set_memory_limit_kb(size_t kb) {
    global_session_.memory_limit_kb = kb;
  }
  size_t memory_limit_kb() const {
    return global_session_.memory_limit_kb.load();
  }

  /// Requests cancellation of every statement currently executing on
  /// this Database. Thread-safe (the point of it: it is called from a
  /// different thread than the one stuck inside Execute). Statements
  /// abort at their next cooperative check with Status::Cancelled;
  /// statements that start after this call are unaffected.
  void CancelActiveStatements();

  /// Like CancelActiveStatements, but only statements executing on
  /// behalf of `session` — the server's remote-cancel targets one
  /// connection, not the whole fleet.
  void CancelSessionStatements(const SessionContext* session);

  /// Session-lifetime lifecycle event counters (timeouts, cancels, oom,
  /// parallel fallbacks), surfaced in SQL as tip_guard_stats().
  const GuardEvents& guard_events() const { return guard_events_; }

  // -- Durability ------------------------------------------------------------

  /// Attaches `dir` as this database's durable home and runs crash
  /// recovery: reads the checkpoint metadata, restores its snapshot and
  /// CREATE FUNCTION statements, replays the write-ahead log past the
  /// checkpoint LSN up to the first record it cannot replay, cuts the
  /// log there (a torn last frame and an unclosed transaction bracket
  /// are crash artifacts, cut without error), and warms the interval
  /// indexes once at the end. Must be called on a database with no
  /// tables yet (install extensions first, then attach). Afterwards
  /// every DML/DDL statement is logged before it is acknowledged,
  /// according to wal_mode().
  ///
  /// `mode` picks the corruption policy: kStrict (default) refuses the
  /// open on any damage and changes no file; kSalvage quarantines the
  /// tables whose snapshot section or replay records are corrupt, keeps
  /// the replayed prefix of a damaged log, records each rejection in
  /// the report's corruption manifest, and recovers everything else.
  /// Damage to the checkpoint metadata itself stays fatal in both modes
  /// (it is tiny and atomically written — damage there is not
  /// survivable bit rot but a broken deployment). Every salvage-mode
  /// attach bumps the catalog version, so cached plans never execute
  /// against a quarantined or replaced table.
  Status AttachDurableDir(const std::string& dir,
                          RecoveryReport* report = nullptr,
                          RecoveryMode mode = RecoveryMode::kStrict);
  bool durable() const { return wal_ != nullptr; }
  const std::string& durable_dir() const { return durable_dir_; }

  /// Takes a checkpoint: writes snapshot.<lsn>.tip, atomically
  /// publishes the CHECKPOINT metadata (snapshot name + LSN + live
  /// CREATE FUNCTION statements), then truncates the WAL by rotating it
  /// to a fresh file starting at <lsn>. A crash anywhere in between
  /// recovers from whichever checkpoint was last published. Fault
  /// points: "checkpoint.begin", "checkpoint.commit", plus the
  /// "snapshot.*", "checkpoint.meta.*" and "wal.rotate*" write steps.
  /// Checkpoints serialize on an internal mutex, so concurrent callers
  /// (tip_checkpoint() evaluated per-row or from parallel workers) run
  /// one at a time instead of racing on the CHECKPOINT metadata and the
  /// stale-snapshot sweep.
  Status Checkpoint();

  /// SET WAL_MODE off|async|group|sync (applies to the next statement).
  /// On a durable database, leaving a buffered mode first syncs the
  /// pending group-commit tail, and any transition into or out of `off`
  /// forces a Checkpoint(): records appended after an unlogged gap
  /// would encode ordinals against a state the log never saw, so the
  /// log must be re-baselined at the boundary. If that checkpoint
  /// fails, the transition is refused and the mode is unchanged.
  Status set_wal_mode(WalMode mode);
  WalMode wal_mode() const { return wal_mode_; }

  /// SET WAL_GROUP_SIZE n: records per fsync in group mode.
  void set_wal_group_size(uint64_t n);
  uint64_t wal_group_size() const { return wal_group_size_; }

  /// Forces the group-commit tail to disk. OK when not durable.
  Status SyncWal();

  /// Counters for tip_wal_stats(); `wal` is live only when durable.
  DurabilityStats durability_stats() const;

  // -- Integrity -------------------------------------------------------------

  /// SET SCRUB on|off: background scrub scheduling. While on, every
  /// successful Checkpoint() also walks ONE table's online CHECK
  /// (round-robin over the catalog, one table per checkpoint interval),
  /// feeding the tip_health() counters and — on a corrupt finding — the
  /// corruption manifest, so rot surfaces without waiting for an
  /// on-demand CHECK DATABASE. Default off.
  void set_scrub_enabled(bool on) { scrub_enabled_ = on; }
  bool scrub_enabled() const { return scrub_enabled_; }

  /// One background-scrub step: CHECKs the next table in round-robin
  /// order (no-op when the catalog is empty or every table is
  /// quarantined). Returns the name of the table scrubbed, "" when
  /// there was nothing to scrub. Exposed so the server's housekeeping
  /// (and tests) can drive scrubbing without a checkpoint; Checkpoint()
  /// calls it automatically while SET scrub is on. Must be serialized
  /// with writers, like any statement.
  Result<std::string> ScrubTick();

  /// Counters for tip_health().
  IntegrityStats integrity_stats() const;

  /// Counters for tip_server_stats(). The mutable overload is the
  /// server front-end's hook; everything else should treat them as
  /// read-only.
  ServerStatsCounters& server_stats() { return server_stats_; }
  const ServerStatsCounters& server_stats() const { return server_stats_; }

  /// The corruption manifest from the last salvage-mode attach (empty
  /// after a strict or clean open).
  std::vector<CorruptionManifestEntry> corruption_manifest() const;

  /// Bumps the scrub counters; called by the CHECK executor.
  void RecordScrub(uint64_t objects_checked, uint64_t corruptions_found);

 private:
  /// A statement other than a SELECT, under its guard: runs
  /// ExecuteCommand and hands the ResultSet it built to the sink.
  Status ExecuteStatement(const Statement& stmt, const Params* params,
                          std::string_view sql, SessionContext* session,
                          ResultSink* sink);
  /// Every statement kind but SELECT (DDL, DML, SET, transaction
  /// control, CHECK, EXPLAIN), each building its small result whole.
  Result<ResultSet> ExecuteCommand(const Statement& stmt,
                                   std::string_view sql, SessionContext* s,
                                   const PlannerContext& pctx,
                                   EvalContext& eval);
  /// The one SELECT path: find or build a plan variant, then run the
  /// cached tree under a fresh EvalContext.
  Status ExecutePreparedSelect(const PreparedPlan& plan, const Params* params,
                               SessionContext* session, ResultSink* sink);
  /// Plans one variant of a prepared SELECT under the current catalog.
  Result<std::shared_ptr<PreparedPlan::Variant>> PlanPreparedVariant(
      const PreparedPlan& plan, const Params* params, uint64_t version,
      std::string settings_fingerprint, std::string param_signature,
      SessionContext* session);
  /// The session-settings half of the plan-cache key: everything the
  /// planner reads besides the catalog (join toggles, parallel knobs).
  std::string SettingsFingerprint(const SessionContext* session) const;
  PlannerContext MakePlannerContext(const Params* params,
                                    SessionContext* session);
  /// The transaction error contract: a statement failing with a
  /// lifecycle or I/O status (IsTxnFatal) aborts the session's open
  /// transaction; validation errors leave it open.
  Status ApplyTxnErrorContract(Status status, SessionContext* session);

  /// Maps null to the built-in global session (the embedded client and
  /// the C API never construct a SessionContext of their own).
  SessionContext* Sess(SessionContext* s) {
    return s != nullptr ? s : &global_session_;
  }
  const SessionContext* Sess(const SessionContext* s) const {
    return s != nullptr ? s : &global_session_;
  }

  /// True when the statement being executed must be appended to the
  /// WAL: a log is attached, logging is on, and we are not replaying
  /// (recovery re-executes statements through the same code paths).
  bool ShouldLogWal() const {
    return wal_ != nullptr && !replaying_ && wal_mode_ != WalMode::kOff;
  }
  Status AppendWal(WalRecordKind kind, std::string_view body);
  /// Logs an already-applied DDL statement; on a WAL failure runs
  /// `undo` so the in-memory state never gets ahead of the durable log
  /// (a logged-but-failed or applied-but-unlogged statement would make
  /// replay diverge from the acknowledged history).
  Status LogAppliedDdl(std::string_view sql,
                       const std::function<void()>& undo);

  /// Arms the per-statement lifecycle guard on `eval` (deadline, cancel
  /// visibility, memory budget) and registers it in active_guards_ until
  /// unwind. Every statement runs under one.
  class GuardArm {
   public:
    GuardArm(Database* db, EvalContext* eval, SessionContext* session);
    ~GuardArm();
    GuardArm(const GuardArm&) = delete;
    GuardArm& operator=(const GuardArm&) = delete;

   private:
    Database* db_;
    ExecGuard guard_;
  };

  /// Undo/WAL state of the writing transaction — the single writer
  /// slot. Owned by whichever session first writes inside its
  /// transaction (ClaimWriterTxn); read-only transactions never
  /// materialize one. Touched only by the writing statement's thread,
  /// which the server serializes under the exclusive gate.
  struct TxnState {
    TxContext tx;            // pinned at BEGIN; every statement's NOW
    bool bracketed = false;  // TXN_BEGIN has been appended to the WAL
    WalMark mark;            // the log tail just before the bracket
    /// Undo images: each touched table's live rows at first touch.
    std::map<std::string, std::vector<Row>, std::less<>> undo;
  };
  /// Materializes the writer slot for `session`'s open transaction (a
  /// no-op when this session already owns it, or when no transaction
  /// is open). Called at the top of every write statement; refuses
  /// when a different session's transaction already owns the slot —
  /// callers are expected to have serialized writers so this never
  /// fires in a correctly-gated server.
  Status ClaimWriterTxn(SessionContext* session);
  /// Lazily opens the WAL bracket before the transaction's first
  /// logged write (read-only transactions never touch the log).
  Status EnsureTxnWalBracket();
  /// Saves `table`'s rows into the undo log at first touch.
  void CaptureTxnUndo(Table* table);
  /// InvalidArgument("<what> is not allowed inside a transaction") when
  /// any session's transaction is open, OK otherwise. Accurate for the
  /// statements that use it (DDL, wal_mode, checkpoint): they run under
  /// the exclusive gate, so the open-txn count cannot change mid-check.
  Status RefuseInTransaction(std::string_view what) const;
  /// True for statuses that must take the open transaction down with
  /// them (cancel/timeout/memory per the guard contract, and I/O
  /// failures whose progress is unknowable).
  static bool IsTxnFatal(StatusCode code);

  TypeRegistry types_;
  RoutineRegistry routines_;
  CastRegistry casts_;
  AggregateRegistry aggregates_;
  Catalog catalog_;
  std::map<TypeId, IntervalKeyFn> interval_key_fns_;

  /// Guards every SessionContext's mutex-class fields (NOW override,
  /// txn pin) and active_guards_: the session state other threads may
  /// legitimately touch while queries run (the NOW-flip scenario the
  /// segmented index is built for, cross-thread cancellation, and
  /// checkpoints probing for open transactions). One mutex for all
  /// sessions — these fields change once per statement, not per row.
  mutable std::mutex session_mu_;
  /// The built-in session that null-session entry points act on: the
  /// embedded client, the C API and most tests. Mutable so const
  /// accessors (CurrentTx) can lock-read it like any other session.
  mutable SessionContext global_session_;
  /// Guards of statements currently executing, tagged with
  /// the session they run for, so CancelActiveStatements (all) and
  /// CancelSessionStatements (one session) can reach them from another
  /// thread. Entries are stack-owned by their Execute call and
  /// deregistered on unwind.
  std::map<ExecGuard*, const SessionContext*> active_guards_;
  /// Count of sessions currently between BEGIN and COMMIT/ROLLBACK —
  /// the multi-session replacement for "is txn_ set" in the global
  /// refusal checks (DDL / wal_mode / checkpoint / ATTACH).
  std::atomic<int> open_txns_{0};
  GuardEvents guard_events_;
  std::atomic<bool> enable_hash_join_{true};
  std::atomic<bool> enable_interval_join_{true};
  /// Per-table counters from parallel runs, shown by EXPLAIN.
  ParallelStatsRegistry parallel_stats_;
  /// See catalog_version(); acq_rel so a bump from the (externally
  /// serialized) DDL statement is visible to concurrent readers before
  /// they trust a cached variant.
  std::atomic<uint64_t> catalog_version_{0};
  /// Atomic like the other session settings: read by concurrent
  /// statements while SET flips it.
  std::atomic<bool> plan_cache_enabled_{true};
  PlanCache plan_cache_;
  PlanCacheStats plan_cache_stats_;
  /// The routines CREATE FUNCTION made, one per overload, in creation
  /// order. DROP FUNCTION removes only these, and every checkpoint's
  /// metadata carries their text, because snapshots store only tables.
  struct SqlFunction {
    std::string name;  // lower-case
    std::vector<TypeId> params;
    std::string ddl;
  };
  std::vector<SqlFunction> sql_functions_;

  // -- Durability state ------------------------------------------------------
  /// Serializes Checkpoint() against itself; everything else about
  /// checkpointing still assumes writers are serialized externally.
  mutable std::mutex checkpoint_mu_;
  std::string durable_dir_;
  std::unique_ptr<Wal> wal_;
  /// Atomic for the same reason as the session settings above:
  /// tip_wal_stats() formats the mode from reader threads.
  std::atomic<WalMode> wal_mode_{WalMode::kGroup};
  std::atomic<uint64_t> wal_group_size_{Wal::kDefaultGroupRecords};
  /// True while AttachDurableDir restores state: suppresses re-logging
  /// of the statements being replayed.
  bool replaying_ = false;
  /// Atomics, not plain counters: tip_wal_stats() reads them from
  /// concurrent read-only sessions while tip_checkpoint() or a
  /// commit bumps them.
  struct DurabilityCounters {
    std::atomic<uint64_t> checkpoints{0};
    std::atomic<uint64_t> recoveries_run{0};
    std::atomic<uint64_t> records_replayed{0};
    std::atomic<uint64_t> torn_tail_truncations{0};
    std::atomic<uint64_t> txns_committed{0};
    std::atomic<uint64_t> txns_rolled_back{0};
    std::atomic<uint64_t> txn_records_discarded{0};
  };
  DurabilityCounters durability_;
  /// Scrub counters (atomics for the same stats-poll reason as above).
  struct IntegrityCounters {
    std::atomic<uint64_t> scrubs_run{0};
    std::atomic<uint64_t> objects_checked{0};
    std::atomic<uint64_t> corruptions_found{0};
    std::atomic<uint64_t> scrub_ticks{0};
  };
  IntegrityCounters integrity_;
  /// Background scrub scheduling (SET scrub on|off) and its round-robin
  /// position: the last table name scrubbed, "" before the first tick.
  std::atomic<bool> scrub_enabled_{false};
  std::string scrub_cursor_;
  /// Server front-end counters; bumped by tip::server, read anywhere.
  ServerStatsCounters server_stats_;
  /// Guards corruption_manifest_ (written once at attach, read by
  /// tip_health() from any session).
  mutable std::mutex integrity_mu_;
  std::vector<CorruptionManifestEntry> corruption_manifest_;
  /// The writer slot (see TxnState). txn_session_ names the session
  /// whose transaction owns it; atomic so AppendWal and ClaimWriterTxn
  /// can compare identities without the session mutex.
  std::unique_ptr<TxnState> txn_;
  std::atomic<const SessionContext*> txn_session_{nullptr};
};

/// Registers the engine's builtin routines (arithmetic, string ops,
/// `greatest`/`least`, ...), casts and SQL aggregates into `db`. Called
/// by the Database constructor; exposed for tests.
Status RegisterBuiltins(Database* db);

}  // namespace tip::engine

#endif  // TIP_ENGINE_DATABASE_H_
