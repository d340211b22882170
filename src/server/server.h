#ifndef TIP_SERVER_SERVER_H_
#define TIP_SERVER_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "core/chronon.h"
#include "engine/database.h"
#include "server/wire.h"

/// The TIP network front-end: `Server` multiplexes many remote sessions
/// onto one embedded `engine::Database` — the reproduction's answer to
/// the paper's TIP-inside-a-multi-user-Informix-server deployment.
///
/// Concurrency model (DESIGN.md §13). The server owns a fair
/// *shared/exclusive execution gate*: each statement is classified by
/// `engine::Database::Classify` — readers (SELECT/EXPLAIN, transaction
/// control, session-scoped SET) acquire the gate shared and run
/// concurrently; writers (DML, DDL, CHECK, global SET, a call of a
/// serial_only routine) acquire it exclusively. Fairness is writer-preference: a
/// waiting writer blocks new shared admissions, so a read-heavy fleet
/// cannot starve its writers. A transaction holds the gate from BEGIN
/// to COMMIT/ROLLBACK — *shared* while it only reads (so browsing
/// transactions overlap), upgrading to exclusive at its first write;
/// when two shared transactions race to upgrade, the second is refused
/// with an explicit "upgrade would deadlock" error instead of
/// deadlocking, and stays usable read-only. Waits are bounded: any
/// acquisition (either mode) gives up after `lock_wait_ms` with an
/// explicit ResourceExhausted ("server busy"). Per-session state (NOW
/// override, statement timeout, memory budget, parallel knobs) lives
/// in an `engine::SessionContext` carried through every engine call,
/// which is what lets two sessions with different `SET NOW` values
/// read different groundings concurrently. `ServerOptions::
/// exclusive_gate` forces every statement exclusive — the PR 9
/// behavior, kept as the benchmark baseline.
///
/// Each connection reads its frames through one `wire::FrameReader`:
/// the accept thread pulls the Hello through it without waiting, and
/// the admitted session takes it over with any bytes sent behind the
/// Hello. A read that ends NotFound is a clean disconnect, one that
/// ends DeadlineExceeded the idle timeout, anything else a wire fault.
///
/// Robustness properties (enforced, and tested by tests/server/):
///  - Admission control: at most `max_sessions` concurrent sessions;
///    excess connections queue up to `admission_wait_ms` and are then
///    rejected with an explicit ResourceExhausted error frame — a
///    refused client always learns it was refused.
///  - Fail-stop sessions: any wire failure (torn frame, CRC mismatch,
///    mid-result disconnect, write timeout to a stalled client, or an
///    injected `server.accept/read/write/frame_crc` fault) kills only
///    that session; its open transaction auto-rolls back and its slot
///    frees while every other session keeps serving.
///  - Backpressure: results are encoded into bounded kResultRows chunks
///    (`max_rows_frame_bytes`) as the plan produces them, under the
///    gate, and sent after it with poll-bounded writes
///    (`write_timeout_ms`); the engine-side memory budget
///    (`memory_limit_kb`) bounds the encoded bytes. A client that stops
///    reading is fail-stopped, not buffered without bound.
///  - Graceful drain: Shutdown() stops accepting, rejects the queue,
///    lets in-flight statements finish up to `drain_timeout_ms` (then
///    cancels them), rolls back abandoned transactions, takes a final
///    checkpoint on durable databases, and joins every thread.
namespace tip::server {

struct ServerOptions {
  std::string host = "127.0.0.1";
  /// 0 = pick an ephemeral port; Server::port() reports the choice.
  int port = 0;
  /// Concurrent admitted sessions (the bounded session pool).
  int max_sessions = 32;
  /// Connections allowed to wait for a slot beyond max_sessions;
  /// further connects are rejected immediately.
  int admission_queue_limit = 64;
  /// How long a queued connection may wait for a slot before the
  /// explicit ResourceExhausted rejection.
  int admission_wait_ms = 1000;
  /// Handshake deadline: a connection that does not complete Hello in
  /// time is dropped (slowloris defense).
  int hello_timeout_ms = 2000;
  /// 0 = no idle timeout; otherwise a session that sends nothing for
  /// this long is reaped (its transaction rolls back).
  int idle_timeout_ms = 0;
  /// Max wait for the execution gate before "server busy".
  int lock_wait_ms = 10000;
  /// Per-poll deadline for writes to (and mid-frame reads from) a
  /// client; a peer stalled longer is fail-stopped.
  int write_timeout_ms = 10000;
  /// Drain: grace period for in-flight statements at Shutdown.
  int drain_timeout_ms = 5000;
  /// Initial per-session ExecGuard defaults (0 = unlimited), applied
  /// at admission; sessions adjust their own via SET.
  int64_t default_statement_timeout_ms = 0;
  size_t default_memory_limit_kb = 0;
  /// Target payload size of one kResultRows chunk.
  size_t max_rows_frame_bytes = 256 * 1024;
  /// Force every statement to take the gate exclusively — the PR 9
  /// serialized behavior. Kept as the measurable baseline for
  /// bench_concurrent_reads (and an escape hatch).
  bool exclusive_gate = false;
};

class Server {
 public:
  /// Starts listening and serving `db` (not owned; must outlive the
  /// server and have the TIP DataBlade installed). The database's
  /// server_stats() counters are live from here on.
  static Result<std::unique_ptr<Server>> Start(engine::Database* db,
                                               ServerOptions options);

  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// The bound port (useful with options.port == 0).
  int port() const { return port_; }

  /// Graceful drain; idempotent, safe from signal-driven shutdown
  /// paths' *main thread* (not async-signal-safe itself — signal
  /// handlers should write a self-pipe and let the main thread call
  /// this, as tipd does).
  void Shutdown();

 private:
  /// How a session currently holds the execution gate. Touched only by
  /// the session thread (and FinishSession, which runs on it).
  enum class GateMode { kNone, kShared, kExclusive };

  struct Session {
    explicit Session(wire::FrameReader frames)
        : fd(frames.fd()), reader(std::move(frames)) {}

    uint64_t id = 0;
    uint64_t cancel_key = 0;
    int fd = -1;
    /// The connection's one frame reader, moved in from the handshake
    /// with any bytes the client sent behind its Hello.
    wire::FrameReader reader;
    std::thread thread;
    /// The engine-side session state (NOW override, resource budgets,
    /// parallel knobs, transaction pin), threaded through every
    /// Execute/Prepare call instead of being swapped into global
    /// Database fields — that swap is impossible once readers overlap.
    engine::SessionContext engine_session;
    /// kNone between statements; kShared/kExclusive while a
    /// transaction holds the gate across statements.
    GateMode gate_mode = GateMode::kNone;
    /// Abnormal-exit marker for the session_aborts counter.
    bool aborted = false;
    /// True while this session's thread is inside db->Execute.
    std::atomic<bool> executing{false};
    /// Set when the session thread has fully cleaned up (slot freed,
    /// fd closed); the accept thread reaps the std::thread.
    std::atomic<bool> done{false};
  };

  /// A connection between accept() and admission: waiting for its
  /// Hello frame, then possibly queued for a session slot.
  struct Pending {
    wire::FrameReader reader;
    int64_t deadline_ms = 0;  // hello or admission deadline
  };

  Server(engine::Database* db, ServerOptions options);

  void AcceptLoop();
  void SessionLoop(Session* session);

  /// One statement (or prepare) on a session: classify, gate, execute
  /// under the session's engine context into wire frames, send them
  /// after the gate. Returns false when the session must fail-stop.
  bool HandleExec(Session* session, const wire::Frame& frame);
  bool HandlePrepare(Session* session, const wire::Frame& frame);
  /// Seals and sends a successful statement's header, row chunks and
  /// done frame.
  bool SendResult(Session* session, wire::ResultFrames* frames,
                  bool in_txn);
  bool SendError(Session* session, const Status& status, bool in_txn);

  /// Session-side frame I/O with the `server.read` / `server.write` /
  /// `server.frame_crc` fault sites and the stats byte counters.
  Status WriteChecked(Session* session, wire::FrameType type,
                      std::string_view payload);
  /// Seals `*frame` (begun by wire::BeginFrame, its payload appended)
  /// as a frame of `type` and writes it, like WriteChecked.
  Status SendChecked(Session* session, wire::FrameType type,
                     std::string* frame);
  /// The session's next frame (wire::FrameReader::Next, whose statuses
  /// it keeps), counting every other failure as a wire fault.
  Result<wire::Frame> ReadChecked(Session* session, int first_timeout_ms);

  /// Gate acquire/release (see class comment). Every acquire returns
  /// ResourceExhausted ("server busy") after `wait_ms`; Upgrade can
  /// also return InvalidArgument ("upgrade would deadlock") when a
  /// second shared transaction is already upgrading. On success the
  /// session's gate_mode is updated; the stats counters are bumped
  /// either way.
  Status AcquireShared(Session* session, int wait_ms);
  Status AcquireExclusive(Session* session, int wait_ms);
  Status UpgradeToExclusive(Session* session, int wait_ms);
  void ReleaseGate(Session* session);

  /// Remote cancel: if `session_id`+`cancel_key` name a live session,
  /// cancel its active statements.
  void CancelSession(uint64_t session_id, uint64_t cancel_key);

  /// Starts a session on a connection whose Hello was accepted and for
  /// which a slot is free. Bytes its reader holds behind the Hello are
  /// the session's first input.
  void Admit(wire::FrameReader reader);
  void RejectConnection(int fd, const Status& reason);
  /// Session-thread cleanup: rollback if gate owner, close, free slot.
  void FinishSession(Session* session);

  void WakeAcceptThread();
  void ReapDoneSessions();

  engine::Database* const db_;
  const ServerOptions options_;

  int listen_fd_ = -1;
  int port_ = 0;
  int wake_pipe_[2] = {-1, -1};

  std::thread accept_thread_;
  std::atomic<bool> draining_{false};
  std::atomic<bool> stopped_{false};
  std::mutex shutdown_mu_;  // serializes Shutdown callers

  // Shared/exclusive execution gate. Writer preference: readers admit
  // only while no writer holds or waits; an upgrader additionally
  // claims the single upgrade slot (`upgrader_`) so a symmetric
  // upgrade race resolves to an explicit refusal, not a deadlock.
  std::mutex gate_mu_;
  std::condition_variable gate_cv_;
  int readers_ = 0;            // sessions holding shared
  uint64_t writer_ = 0;        // session id holding exclusive; 0 = none
  int writers_waiting_ = 0;    // writers (and upgraders) in the queue
  uint64_t upgrader_ = 0;      // session id mid-upgrade; 0 = none

  // Live sessions. Guarded by sessions_mu_ for structural changes; the
  // Session objects themselves are stable (unique_ptr) so session
  // threads and the cancel path may read them without the lock.
  std::mutex sessions_mu_;
  std::vector<std::unique_ptr<Session>> sessions_;
  uint64_t next_session_id_ = 1;
  uint64_t cancel_key_seed_ = 0;
  std::atomic<int> active_{0};

  // Accept-side state (owned by the accept thread).
  std::deque<Pending> handshaking_;
  std::deque<Pending> admission_queue_;
};

}  // namespace tip::server

#endif  // TIP_SERVER_SERVER_H_
