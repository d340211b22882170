#include "server/server.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <optional>
#include <random>

#include "common/fault_injection.h"

namespace tip::server {

namespace {

int64_t NowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Short deadline for frames the accept thread writes (rejections,
/// handshake errors): these are tiny and a peer that cannot take them
/// promptly is not worth stalling admission for.
constexpr int kAcceptWriteTimeoutMs = 1000;

}  // namespace

Server::Server(engine::Database* db, ServerOptions options)
    : db_(db), options_(std::move(options)) {}

Result<std::unique_ptr<Server>> Server::Start(engine::Database* db,
                                              ServerOptions options) {
  auto server = std::unique_ptr<Server>(new Server(db, std::move(options)));
  TIP_ASSIGN_OR_RETURN(
      server->listen_fd_,
      wire::ListenTcp(server->options_.host, server->options_.port,
                      &server->port_));
  if (pipe(server->wake_pipe_) != 0) {
    return Status::Internal("pipe: " + std::string(std::strerror(errno)));
  }
  // Non-blocking on both ends: session threads must never block waking
  // the accept thread, and the accept thread drains opportunistically.
  for (const int fd : server->wake_pipe_) {
    const int flags = fcntl(fd, F_GETFL, 0);
    fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  }
  std::random_device rd;
  server->cancel_key_seed_ =
      (static_cast<uint64_t>(rd()) << 32) ^ static_cast<uint64_t>(rd());
  server->accept_thread_ = std::thread(&Server::AcceptLoop, server.get());
  return server;
}

Server::~Server() { Shutdown(); }

void Server::WakeAcceptThread() {
  const char byte = 1;
  // Best-effort: a full pipe already guarantees a pending wakeup.
  (void)!write(wake_pipe_[1], &byte, 1);
}

// ---------------------------------------------------------------------------
// Accept thread: listener + handshakes + admission queue.
// ---------------------------------------------------------------------------

void Server::AcceptLoop() {
  for (;;) {
    if (draining_.load(std::memory_order_acquire)) break;

    std::vector<struct pollfd> fds;
    fds.push_back({wake_pipe_[0], POLLIN, 0});
    fds.push_back({listen_fd_, POLLIN, 0});
    for (const Pending& p : handshaking_) {
      fds.push_back({p.reader.fd(), POLLIN, 0});
    }

    // Poll until the nearest handshake/admission deadline.
    int64_t next_deadline = -1;
    for (const Pending& p : handshaking_) {
      if (next_deadline < 0 || p.deadline_ms < next_deadline) {
        next_deadline = p.deadline_ms;
      }
    }
    for (const Pending& p : admission_queue_) {
      if (next_deadline < 0 || p.deadline_ms < next_deadline) {
        next_deadline = p.deadline_ms;
      }
    }
    int wait = -1;
    if (next_deadline >= 0) {
      wait = static_cast<int>(std::max<int64_t>(0, next_deadline - NowMs()));
    }
    const int rc = poll(fds.data(), fds.size(), wait);
    if (rc < 0 && errno != EINTR) break;  // unrecoverable; Shutdown joins

    if (draining_.load(std::memory_order_acquire)) break;

    // Drain wakeups.
    if (fds[0].revents & POLLIN) {
      char buf[64];
      while (read(wake_pipe_[0], buf, sizeof(buf)) > 0) {
      }
    }

    // Progress handshakes that have bytes (fds[2+j] maps to the j-th
    // tracked connection; new accepts are added only after this loop).
    // Pulls never wait: a slow client costs nothing but its own
    // deadline.
    std::deque<Pending> waiting;
    for (size_t j = 0; j < handshaking_.size(); ++j) {
      Pending p = std::move(handshaking_[j]);
      Result<std::optional<wire::Frame>> first = std::optional<wire::Frame>();
      if (fds[2 + j].revents & (POLLIN | POLLHUP | POLLERR)) {
        const Status pulled = p.reader.Pull();
        first = pulled.ok() ? p.reader.Take() : pulled;
      }
      if (first.ok() && !first->has_value() && NowMs() < p.deadline_ms) {
        waiting.push_back(std::move(p));
        continue;
      }
      if (!first.ok() || !first->has_value()) {
        close(p.reader.fd());
        continue;
      }
      // First frame in hand: Hello starts admission, Cancel is serviced
      // inline (it deliberately consumes no session slot, so a
      // saturated server can still be cancelled into liveness).
      const wire::Frame frame = **first;
      if (frame.type == wire::FrameType::kCancel) {
        Result<wire::CancelRequest> cancel = wire::ParseCancel(frame.payload);
        if (cancel.ok()) CancelSession(cancel->session_id, cancel->cancel_key);
        close(p.reader.fd());
        continue;
      }
      if (frame.type != wire::FrameType::kHello) {
        close(p.reader.fd());
        continue;
      }
      Result<uint32_t> version = wire::ParseHello(frame.payload);
      if (!version.ok() || *version != wire::kProtocolVersion) {
        RejectConnection(
            p.reader.fd(),
            Status::InvalidArgument(
                "protocol version mismatch: server speaks " +
                std::to_string(wire::kProtocolVersion)));
        continue;
      }
      if (active_.load(std::memory_order_relaxed) < options_.max_sessions) {
        Admit(std::move(p.reader));
      } else if (admission_queue_.size() <
                 static_cast<size_t>(options_.admission_queue_limit)) {
        p.deadline_ms = NowMs() + options_.admission_wait_ms;
        admission_queue_.push_back(std::move(p));
      } else {
        RejectConnection(p.reader.fd(),
                         Status::ResourceExhausted(
                             "server at capacity (max_sessions=" +
                             std::to_string(options_.max_sessions) +
                             ", queue full)"));
      }
    }
    handshaking_ = std::move(waiting);

    // New connections -> handshake tracking (first polled next round).
    if (fds[1].revents & POLLIN) {
      for (;;) {
        const int fd = accept(listen_fd_, nullptr, nullptr);
        if (fd < 0) break;  // EAGAIN or transient — poll again
        const Status accepted = fault::MaybeFail("server.accept");
        if (!accepted.ok()) {
          // An accept-path fault costs exactly this connection; the
          // listener keeps serving.
          db_->server_stats().wire_faults.fetch_add(
              1, std::memory_order_relaxed);
          close(fd);
          continue;
        }
        const int flags = fcntl(fd, F_GETFL, 0);
        fcntl(fd, F_SETFL, flags | O_NONBLOCK);
        // Request/response with small frames: without TCP_NODELAY,
        // Nagle + delayed ACK costs ~40ms per statement round trip.
        const int one = 1;
        setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        handshaking_.push_back(
            {wire::FrameReader(fd), NowMs() + options_.hello_timeout_ms});
      }
    }

    // Admit from the queue while slots are free; expire the rest. The
    // deadline path is the "never silently dropped" guarantee: a
    // refused client always gets an explicit error frame.
    while (!admission_queue_.empty() &&
           active_.load(std::memory_order_relaxed) < options_.max_sessions) {
      Admit(std::move(admission_queue_.front().reader));
      admission_queue_.pop_front();
    }
    for (auto it = admission_queue_.begin(); it != admission_queue_.end();) {
      if (NowMs() >= it->deadline_ms) {
        RejectConnection(
            it->reader.fd(),
            Status::ResourceExhausted(
                "server at capacity: no session slot within " +
                std::to_string(options_.admission_wait_ms) + "ms"));
        it = admission_queue_.erase(it);
      } else {
        ++it;
      }
    }

    ReapDoneSessions();
  }

  // Draining: refuse everything still at the door, close the listener.
  for (const Pending& p : handshaking_) close(p.reader.fd());
  handshaking_.clear();
  for (const Pending& p : admission_queue_) {
    RejectConnection(p.reader.fd(),
                     Status::ResourceExhausted("server shutting down"));
  }
  admission_queue_.clear();
  close(listen_fd_);
  listen_fd_ = -1;
}

void Server::RejectConnection(int fd, const Status& reason) {
  db_->server_stats().sessions_rejected.fetch_add(1,
                                                  std::memory_order_relaxed);
  (void)wire::WriteFrame(fd, wire::FrameType::kError,
                         wire::BuildError(reason, false),
                         kAcceptWriteTimeoutMs,
                         &db_->server_stats().bytes_out);
  close(fd);
}

void Server::Admit(wire::FrameReader reader) {
  engine::ServerStatsCounters& stats = db_->server_stats();
  // The handshake's reads are not counted; what came behind the Hello
  // is session input.
  stats.bytes_in.fetch_add(reader.buffered(), std::memory_order_relaxed);
  auto session = std::make_unique<Session>(std::move(reader));
  session->engine_session.statement_timeout_ms.store(
      options_.default_statement_timeout_ms, std::memory_order_relaxed);
  session->engine_session.memory_limit_kb.store(
      options_.default_memory_limit_kb, std::memory_order_relaxed);
  // splitmix64 over a random seed: unguessable enough for a loopback
  // cancel key without burning a random_device read per session.
  cancel_key_seed_ += 0x9E3779B97F4A7C15ull;
  uint64_t key = cancel_key_seed_;
  key = (key ^ (key >> 30)) * 0xBF58476D1CE4E5B9ull;
  key = (key ^ (key >> 27)) * 0x94D049BB133111EBull;
  session->cancel_key = key ^ (key >> 31);

  const int now_active = active_.fetch_add(1, std::memory_order_relaxed) + 1;
  stats.sessions_active.store(static_cast<uint64_t>(now_active),
                              std::memory_order_relaxed);
  uint64_t peak = stats.sessions_peak.load(std::memory_order_relaxed);
  while (static_cast<uint64_t>(now_active) > peak &&
         !stats.sessions_peak.compare_exchange_weak(
             peak, static_cast<uint64_t>(now_active),
             std::memory_order_relaxed)) {
  }
  stats.sessions_total.fetch_add(1, std::memory_order_relaxed);

  std::lock_guard<std::mutex> lock(sessions_mu_);
  session->id = next_session_id_++;
  Session* raw = session.get();
  raw->thread = std::thread(&Server::SessionLoop, this, raw);
  sessions_.push_back(std::move(session));
}

void Server::ReapDoneSessions() {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  for (auto it = sessions_.begin(); it != sessions_.end();) {
    if ((*it)->done.load(std::memory_order_acquire)) {
      if ((*it)->thread.joinable()) (*it)->thread.join();
      it = sessions_.erase(it);
    } else {
      ++it;
    }
  }
}

// ---------------------------------------------------------------------------
// Shared/exclusive execution gate.
// ---------------------------------------------------------------------------

namespace {

uint64_t ElapsedUs(std::chrono::steady_clock::time_point start) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

Status GateBusy(const char* mode, int wait_ms) {
  return Status::ResourceExhausted(
      std::string("server busy: ") + mode + " statement slot not free "
      "within " + std::to_string(wait_ms) + "ms (another session holds "
      "a conflicting lock or long statement)");
}

}  // namespace

Status Server::AcquireShared(Session* session, int wait_ms) {
  engine::ServerStatsCounters& stats = db_->server_stats();
  const auto start = std::chrono::steady_clock::now();
  std::unique_lock<std::mutex> lock(gate_mu_);
  // Writer preference: a waiting writer blocks new shared admissions,
  // so a read-heavy fleet cannot starve its writers.
  const bool got = gate_cv_.wait_for(
      lock, std::chrono::milliseconds(wait_ms),
      [this] { return writer_ == 0 && writers_waiting_ == 0; });
  if (!got) {
    stats.gate_busy_shared.fetch_add(1, std::memory_order_relaxed);
    return GateBusy("shared", wait_ms);
  }
  ++readers_;
  lock.unlock();
  stats.gate_shared.fetch_add(1, std::memory_order_relaxed);
  stats.gate_wait_shared_us.fetch_add(ElapsedUs(start),
                                      std::memory_order_relaxed);
  session->gate_mode = GateMode::kShared;
  return Status::OK();
}

Status Server::AcquireExclusive(Session* session, int wait_ms) {
  engine::ServerStatsCounters& stats = db_->server_stats();
  const auto start = std::chrono::steady_clock::now();
  std::unique_lock<std::mutex> lock(gate_mu_);
  ++writers_waiting_;
  const bool got = gate_cv_.wait_for(
      lock, std::chrono::milliseconds(wait_ms),
      [this] { return writer_ == 0 && readers_ == 0; });
  --writers_waiting_;
  if (!got) {
    lock.unlock();
    // Our queued claim was holding new readers out; let them back in.
    gate_cv_.notify_all();
    stats.gate_busy_exclusive.fetch_add(1, std::memory_order_relaxed);
    return GateBusy("exclusive", wait_ms);
  }
  writer_ = session->id;
  lock.unlock();
  stats.gate_exclusive.fetch_add(1, std::memory_order_relaxed);
  stats.gate_wait_exclusive_us.fetch_add(ElapsedUs(start),
                                         std::memory_order_relaxed);
  session->gate_mode = GateMode::kExclusive;
  return Status::OK();
}

Status Server::UpgradeToExclusive(Session* session, int wait_ms) {
  engine::ServerStatsCounters& stats = db_->server_stats();
  const auto start = std::chrono::steady_clock::now();
  std::unique_lock<std::mutex> lock(gate_mu_);
  if (upgrader_ != 0) {
    // Two shared transactions racing to upgrade would each wait for the
    // other's shared hold, which only their COMMIT/ROLLBACK releases —
    // a deadlock. Refuse the second immediately; its transaction stays
    // open and usable read-only.
    return Status::InvalidArgument(
        "upgrade would deadlock: another read transaction is already "
        "upgrading to write; COMMIT or ROLLBACK and retry");
  }
  upgrader_ = session->id;
  ++writers_waiting_;
  const bool got = gate_cv_.wait_for(
      lock, std::chrono::milliseconds(wait_ms),
      [this] { return writer_ == 0 && readers_ == 1; });
  --writers_waiting_;
  upgrader_ = 0;
  if (!got) {
    lock.unlock();
    gate_cv_.notify_all();
    stats.gate_busy_exclusive.fetch_add(1, std::memory_order_relaxed);
    return GateBusy("upgrade", wait_ms);
  }
  // The last shared hold standing is our own: trade it for exclusive.
  readers_ = 0;
  writer_ = session->id;
  lock.unlock();
  stats.gate_upgrades.fetch_add(1, std::memory_order_relaxed);
  stats.gate_exclusive.fetch_add(1, std::memory_order_relaxed);
  stats.gate_wait_exclusive_us.fetch_add(ElapsedUs(start),
                                         std::memory_order_relaxed);
  session->gate_mode = GateMode::kExclusive;
  return Status::OK();
}

void Server::ReleaseGate(Session* session) {
  if (session->gate_mode == GateMode::kNone) return;
  {
    std::lock_guard<std::mutex> lock(gate_mu_);
    if (session->gate_mode == GateMode::kShared) {
      --readers_;
    } else if (writer_ == session->id) {
      writer_ = 0;
    }
  }
  session->gate_mode = GateMode::kNone;
  gate_cv_.notify_all();
}

void Server::CancelSession(uint64_t session_id, uint64_t cancel_key) {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  for (const auto& session : sessions_) {
    if (session->id == session_id &&
        !session->done.load(std::memory_order_acquire)) {
      if (session->cancel_key != cancel_key) return;
      db_->server_stats().cancels_received.fetch_add(
          1, std::memory_order_relaxed);
      // Per-session cancellation: only guards registered under the
      // target's SessionContext trip, so readers running concurrently
      // on other sessions are untouched. sessions_mu_ pins the Session
      // (and with it the SessionContext) alive across the call.
      db_->CancelSessionStatements(&session->engine_session);
      return;
    }
  }
}

// ---------------------------------------------------------------------------
// Session threads.
// ---------------------------------------------------------------------------

Status Server::WriteChecked(Session* session, wire::FrameType type,
                            std::string_view payload) {
  std::string frame;
  frame.reserve(wire::kFrameHeaderSize + payload.size());
  wire::BeginFrame(&frame);
  frame.append(payload);
  return SendChecked(session, type, &frame);
}

Status Server::SendChecked(Session* session, wire::FrameType type,
                           std::string* frame) {
  Status injected = fault::MaybeFail("server.write");
  Status written =
      injected.ok() ? wire::SealFrame(type, frame) : std::move(injected);
  if (written.ok()) {
    written = wire::SendFrame(session->fd, *frame, options_.write_timeout_ms,
                              &db_->server_stats().bytes_out);
  }
  if (!written.ok()) {
    db_->server_stats().wire_faults.fetch_add(1, std::memory_order_relaxed);
  }
  return written;
}

Result<wire::Frame> Server::ReadChecked(Session* session,
                                        int first_timeout_ms) {
  Status injected = fault::MaybeFail("server.read");
  if (!injected.ok()) {
    db_->server_stats().wire_faults.fetch_add(1, std::memory_order_relaxed);
    return injected;
  }
  Result<wire::Frame> frame = session->reader.Next(
      first_timeout_ms, options_.write_timeout_ms,
      &db_->server_stats().bytes_in);
  if (frame.ok()) {
    // A CRC-site fault models a torn frame that passed transport but
    // fails validation — indistinguishable from real bit rot.
    injected = fault::MaybeFail("server.frame_crc");
    if (!injected.ok()) {
      db_->server_stats().wire_faults.fetch_add(1, std::memory_order_relaxed);
      return Status::Corruption("frame crc mismatch (injected)");
    }
    return frame;
  }
  // A close between frames and the idle timeout are not wire faults.
  if (frame.status().code() != StatusCode::kNotFound &&
      frame.status().code() != StatusCode::kDeadlineExceeded) {
    db_->server_stats().wire_faults.fetch_add(1, std::memory_order_relaxed);
  }
  return frame;
}

void Server::SessionLoop(Session* session) {
  wire::HelloOk hello;
  hello.protocol_version = wire::kProtocolVersion;
  hello.session_id = session->id;
  hello.cancel_key = session->cancel_key;
  if (WriteChecked(session, wire::FrameType::kHelloOk,
                   wire::BuildHelloOk(hello))
          .ok()) {
    const int idle =
        options_.idle_timeout_ms > 0 ? options_.idle_timeout_ms : -1;
    for (;;) {
      Result<wire::Frame> frame = ReadChecked(session, idle);
      if (!frame.ok()) {
        if (frame.status().code() == StatusCode::kDeadlineExceeded) {
          db_->server_stats().idle_timeouts.fetch_add(
              1, std::memory_order_relaxed);
          session->aborted = true;
          // Best-effort goodbye so a live-but-quiet client learns why.
          (void)WriteChecked(
              session, wire::FrameType::kError,
              wire::BuildError(
                  Status::DeadlineExceeded("session idle timeout"),
                  db_->InTransaction(&session->engine_session)));
        } else if (frame.status().code() != StatusCode::kNotFound) {
          session->aborted = true;  // torn frame / injected fault / error
        }
        break;
      }
      bool keep = true;
      switch (frame->type) {
        case wire::FrameType::kPing:
          keep = WriteChecked(session, wire::FrameType::kPong, "").ok();
          break;
        case wire::FrameType::kGoodbye:
          keep = false;
          break;
        case wire::FrameType::kExec:
          keep = HandleExec(session, *frame);
          break;
        case wire::FrameType::kPrepare:
          keep = HandlePrepare(session, *frame);
          break;
        default:
          // Unknown frame type after a valid CRC: protocol confusion;
          // fail-stop rather than guess.
          session->aborted = true;
          (void)WriteChecked(
              session, wire::FrameType::kError,
              wire::BuildError(
                  Status::InvalidArgument("unexpected frame type"), false));
          keep = false;
          break;
      }
      if (!keep) break;
    }
  } else {
    session->aborted = true;
  }
  FinishSession(session);
}

bool Server::HandleExec(Session* session, const wire::Frame& frame) {
  Result<wire::ExecRequest> request =
      wire::ParseExec(frame.payload, db_->types());
  if (!request.ok()) {
    // A request that fails to decode is a torn frame, not a SQL error:
    // the stream can no longer be trusted, so fail-stop.
    db_->server_stats().wire_faults.fetch_add(1, std::memory_order_relaxed);
    session->aborted = true;
    return false;
  }
  engine::SessionContext* engine_session = &session->engine_session;
  // Parse (or fetch the cached plan) before taking the gate: the gate
  // decision needs the statement's class, and parsing serializes on
  // nothing — it must not cost other sessions their overlap.
  Result<std::shared_ptr<const engine::PreparedPlan>> plan =
      db_->Prepare(request->sql);
  if (!plan.ok()) {
    db_->server_stats().statements_served.fetch_add(
        1, std::memory_order_relaxed);
    return SendError(session, plan.status(),
                     db_->InTransaction(engine_session));
  }
  const bool writer =
      options_.exclusive_gate ||
      db_->Classify((*plan)->stmt()) == engine::StatementClass::kWriter;
  if (session->gate_mode == GateMode::kNone) {
    Status gate = writer ? AcquireExclusive(session, options_.lock_wait_ms)
                         : AcquireShared(session, options_.lock_wait_ms);
    if (!gate.ok()) return SendError(session, gate, false);
  } else if (writer && session->gate_mode == GateMode::kShared) {
    // First write inside a so-far-read-only transaction: upgrade in
    // place. On refusal (timeout, or the symmetric-upgrade deadlock)
    // the statement fails but the transaction survives, still readable.
    Status gate = UpgradeToExclusive(session, options_.lock_wait_ms);
    if (!gate.ok()) return SendError(session, gate, true);
  }
  // The rows are encoded into their frames as the plan produces them;
  // a failed statement's frames are dropped unsent.
  wire::ResultFrames frames(db_->types(), options_.max_rows_frame_bytes);
  session->executing.store(true, std::memory_order_release);
  const Status status = db_->ExecutePrepared(**plan, &request->params,
                                             engine_session, &frames);
  session->executing.store(false, std::memory_order_release);
  db_->server_stats().statements_served.fetch_add(1,
                                                  std::memory_order_relaxed);
  const bool in_txn = db_->InTransaction(engine_session);
  // A transaction holds the gate across its statements (shared until
  // its first write); between transactions it drops per statement.
  if (!in_txn) ReleaseGate(session);
  // Send after releasing the gate: the frames hold encoded values, so a
  // slow client stalls only its own connection, never the engine.
  if (!status.ok()) return SendError(session, status, in_txn);
  return SendResult(session, &frames, in_txn);
}

bool Server::HandlePrepare(Session* session, const wire::Frame& frame) {
  Result<std::string> sql = wire::ParsePrepare(frame.payload);
  if (!sql.ok()) {
    db_->server_stats().wire_faults.fetch_add(1, std::memory_order_relaxed);
    session->aborted = true;
    return false;
  }
  // Prepare is gate-free: parsing and plan-cache maintenance are
  // internally synchronized and touch no table data.
  Result<std::shared_ptr<const engine::PreparedPlan>> plan =
      db_->Prepare(*sql);
  if (!plan.ok()) {
    return SendError(session, plan.status(),
                     db_->InTransaction(&session->engine_session));
  }
  return WriteChecked(session, wire::FrameType::kPrepareOk, "").ok();
}

bool Server::SendError(Session* session, const Status& status, bool in_txn) {
  return WriteChecked(session, wire::FrameType::kError,
                      wire::BuildError(status, in_txn))
      .ok();
}

bool Server::SendResult(Session* session, wire::ResultFrames* frames,
                        bool in_txn) {
  bool sent = WriteChecked(session, wire::FrameType::kResultHeader,
                           frames->Header(in_txn))
                  .ok();
  // Each chunk's payload stays near max_rows_frame_bytes and every
  // write is deadline-bounded.
  for (std::string& chunk : frames->chunks()) {
    if (!sent) break;
    sent = SendChecked(session, wire::FrameType::kResultRows, &chunk).ok();
  }
  if (sent) {
    sent = WriteChecked(session, wire::FrameType::kResultDone, "").ok();
  }
  if (!sent) session->aborted = true;
  return sent;
}

void Server::FinishSession(Session* session) {
  if (db_->InTransaction(&session->engine_session)) {
    // The session died mid-transaction. Its thread is the transaction's
    // owner thread, so the rollback is the ordinary engine path.
    (void)db_->RollbackTransaction(&session->engine_session);
    session->aborted = true;
  }
  if (session->gate_mode != GateMode::kNone) {
    ReleaseGate(session);
    session->aborted = true;
  }
  {
    // Under sessions_mu_ so the drain path never races shutdown(2) on
    // a just-closed (possibly reused) descriptor.
    std::lock_guard<std::mutex> lock(sessions_mu_);
    close(session->fd);
    session->fd = -1;
  }
  engine::ServerStatsCounters& stats = db_->server_stats();
  if (session->aborted) {
    stats.session_aborts.fetch_add(1, std::memory_order_relaxed);
  }
  const int now_active = active_.fetch_sub(1, std::memory_order_relaxed) - 1;
  stats.sessions_active.store(static_cast<uint64_t>(now_active),
                              std::memory_order_relaxed);
  session->done.store(true, std::memory_order_release);
  WakeAcceptThread();
}

// ---------------------------------------------------------------------------
// Graceful drain.
// ---------------------------------------------------------------------------

void Server::Shutdown() {
  std::lock_guard<std::mutex> shutdown_lock(shutdown_mu_);
  if (stopped_.load(std::memory_order_acquire)) return;

  draining_.store(true, std::memory_order_release);
  WakeAcceptThread();
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {  // accept thread never ran (failed Start)
    close(listen_fd_);
    listen_fd_ = -1;
  }

  // Phase 1: close the *read* side of every session. Idle sessions wake
  // from poll with EOF and exit (rolling back open transactions);
  // sessions mid-statement keep executing and can still deliver their
  // results — drain finishes in-flight work, it does not discard it.
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    for (const auto& session : sessions_) {
      if (!session->done.load(std::memory_order_acquire)) {
        shutdown(session->fd, SHUT_RD);
      }
    }
  }

  // Phase 2: wait out the grace period.
  const int64_t deadline = NowMs() + options_.drain_timeout_ms;
  auto all_done = [this] {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    for (const auto& session : sessions_) {
      if (!session->done.load(std::memory_order_acquire)) return false;
    }
    return true;
  };
  while (!all_done() && NowMs() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }

  // Phase 3: deadline-abort stragglers — cancel whatever statement is
  // running and break their sockets until every thread exits. The
  // ExecGuard makes cancellation prompt, so this terminates.
  while (!all_done()) {
    db_->CancelActiveStatements();
    {
      std::lock_guard<std::mutex> lock(sessions_mu_);
      for (const auto& session : sessions_) {
        if (!session->done.load(std::memory_order_acquire)) {
          shutdown(session->fd, SHUT_RDWR);
        }
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    for (const auto& session : sessions_) {
      if (session->thread.joinable()) session->thread.join();
    }
    sessions_.clear();
  }

  if (wake_pipe_[0] >= 0) close(wake_pipe_[0]);
  if (wake_pipe_[1] >= 0) close(wake_pipe_[1]);
  wake_pipe_[0] = wake_pipe_[1] = -1;

  // Final checkpoint: a drained durable directory should re-attach
  // strictly (no replay surprises). Failure is logged via the status
  // only — the drain itself must complete.
  if (db_->durable()) (void)db_->Checkpoint();
  db_->server_stats().drains.fetch_add(1, std::memory_order_relaxed);
  stopped_.store(true, std::memory_order_release);
}

}  // namespace tip::server
