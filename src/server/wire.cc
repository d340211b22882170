#include "server/wire.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

#include "common/crc32.h"
#include "engine/storage/recovery.h"
#include "engine/storage/wire_format.h"

namespace tip::server::wire {

namespace {

namespace ewire = tip::engine::wire;

using SteadyClock = std::chrono::steady_clock;

int64_t NowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             SteadyClock::now().time_since_epoch())
      .count();
}

Status SetNonBlocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0 || fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Status::Internal("fcntl(O_NONBLOCK): " +
                            std::string(std::strerror(errno)));
  }
  return Status::OK();
}

/// Waits for `events` on fd. Returns OK when ready, DeadlineExceeded on
/// timeout, Internal on poll failure. timeout_ms < 0 waits forever.
Status PollFor(int fd, short events, int timeout_ms) {
  const int64_t deadline = timeout_ms < 0 ? -1 : NowMs() + timeout_ms;
  for (;;) {
    int wait = -1;
    if (deadline >= 0) {
      const int64_t left = deadline - NowMs();
      if (left <= 0) return Status::DeadlineExceeded("wire timeout");
      wait = static_cast<int>(left);
    }
    struct pollfd pfd;
    pfd.fd = fd;
    pfd.events = events;
    pfd.revents = 0;
    const int rc = poll(&pfd, 1, wait);
    if (rc > 0) return Status::OK();  // readable/writable or HUP/ERR —
                                      // let recv/send report the latter
    if (rc == 0) return Status::DeadlineExceeded("wire timeout");
    if (errno == EINTR) continue;
    return Status::Internal("poll: " + std::string(std::strerror(errno)));
  }
}

// Sanity caps for count fields: a torn count must become a clean
// Corruption, never a giant allocation.
constexpr uint64_t kMaxColumns = 1u << 16;
constexpr uint64_t kMaxParams = 1u << 16;
constexpr uint64_t kMaxRowsPerChunk = 1u << 24;

// Where a kResultRows frame's row images start: after the frame header
// and the u32 row count.
constexpr size_t kChunkRowsBegin = kFrameHeaderSize + sizeof(uint32_t);

// The least free space a FrameReader offers each recv: enough for a
// statement and the frames pipelined behind it. The buffer doubles past
// this as bigger frames arrive.
constexpr size_t kMinReadRoom = 16 * 1024;

}  // namespace

Result<int> DialTcp(const std::string& host, int port, int timeout_ms) {
  struct addrinfo hints;
  std::memset(&hints, 0, sizeof(hints));
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_flags = AI_NUMERICSERV;
  struct addrinfo* res = nullptr;
  const std::string service = std::to_string(port);
  const int rc = getaddrinfo(host.c_str(), service.c_str(), &hints, &res);
  if (rc != 0) {
    return Status::InvalidArgument("resolve '" + host +
                                   "': " + gai_strerror(rc));
  }
  Status last = Status::Internal("no addresses for '" + host + "'");
  for (struct addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
    const int fd = socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) {
      last = Status::Internal("socket: " + std::string(std::strerror(errno)));
      continue;
    }
    Status nb = SetNonBlocking(fd);
    if (!nb.ok()) {
      close(fd);
      last = nb;
      continue;
    }
    // The protocol is strictly request/response with small frames:
    // Nagle + delayed ACK would add ~40ms per round trip. Best-effort
    // (non-TCP transports just ignore it).
    const int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    if (connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) {
      freeaddrinfo(res);
      return fd;
    }
    if (errno == EINPROGRESS) {
      Status ready = PollFor(fd, POLLOUT, timeout_ms);
      if (ready.ok()) {
        int err = 0;
        socklen_t len = sizeof(err);
        if (getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) == 0 &&
            err == 0) {
          freeaddrinfo(res);
          return fd;
        }
        last = Status::Internal("connect: " +
                                std::string(std::strerror(err)));
      } else {
        last = ready;
      }
    } else {
      last = Status::Internal("connect: " +
                              std::string(std::strerror(errno)));
    }
    close(fd);
  }
  freeaddrinfo(res);
  return last;
}

Result<int> ListenTcp(const std::string& host, int port, int* bound_port) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::Internal("socket: " + std::string(std::strerror(errno)));
  }
  const int one = 1;
  setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    close(fd);
    return Status::InvalidArgument("listen host must be a numeric IPv4 "
                                   "address, got '" + host + "'");
  }
  if (bind(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) < 0) {
    const Status out =
        Status::Internal("bind " + host + ":" + std::to_string(port) + ": " +
                         std::strerror(errno));
    close(fd);
    return out;
  }
  if (listen(fd, SOMAXCONN) < 0) {
    const Status out =
        Status::Internal("listen: " + std::string(std::strerror(errno)));
    close(fd);
    return out;
  }
  if (bound_port != nullptr) {
    socklen_t len = sizeof(addr);
    if (getsockname(fd, reinterpret_cast<struct sockaddr*>(&addr), &len) <
        0) {
      const Status out = Status::Internal(
          "getsockname: " + std::string(std::strerror(errno)));
      close(fd);
      return out;
    }
    *bound_port = ntohs(addr.sin_port);
  }
  Status nb = SetNonBlocking(fd);
  if (!nb.ok()) {
    close(fd);
    return nb;
  }
  return fd;
}

Status WriteFrame(int fd, FrameType type, std::string_view payload,
                  int timeout_ms, std::atomic<uint64_t>* bytes_counter) {
  std::string frame;
  frame.reserve(kFrameHeaderSize + payload.size());
  BeginFrame(&frame);
  frame.append(payload);
  TIP_RETURN_IF_ERROR(SealFrame(type, &frame));
  return SendFrame(fd, frame, timeout_ms, bytes_counter);
}

void BeginFrame(std::string* frame) {
  frame->assign(kFrameHeaderSize, '\0');
}

Status SealFrame(FrameType type, std::string* frame) {
  const std::string_view payload =
      std::string_view(*frame).substr(kFrameHeaderSize);
  if (payload.size() > kMaxFramePayload) {
    return Status::Internal("frame payload too large: " +
                            std::to_string(payload.size()));
  }
  std::string header;
  ewire::PutU32(static_cast<uint32_t>(payload.size()), &header);
  ewire::PutU8(static_cast<uint8_t>(type), &header);
  ewire::PutU32(Crc32(payload), &header);
  frame->replace(0, kFrameHeaderSize, header);
  return Status::OK();
}

Status SendFrame(int fd, std::string_view bytes, int timeout_ms,
                 std::atomic<uint64_t>* bytes_counter) {
  size_t sent = 0;
  while (sent < bytes.size()) {
    TIP_RETURN_IF_ERROR(PollFor(fd, POLLOUT, timeout_ms));
    const ssize_t rc = send(fd, bytes.data() + sent, bytes.size() - sent,
                            MSG_NOSIGNAL);
    if (rc > 0) {
      sent += static_cast<size_t>(rc);
      if (bytes_counter) {
        bytes_counter->fetch_add(static_cast<uint64_t>(rc),
                                 std::memory_order_relaxed);
      }
      continue;
    }
    if (rc < 0 &&
        (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK)) {
      continue;
    }
    return Status::Corruption("send: " + std::string(std::strerror(errno)));
  }
  return Status::OK();
}

Status FrameReader::Pull(std::atomic<uint64_t>* bytes_counter) {
  // Views handed out earlier end here: drop the bytes taken so far,
  // then make sure there is room for the recv.
  if (begin_ > 0) {
    std::memmove(buffer_.data(), buffer_.data() + begin_, end_ - begin_);
    end_ -= begin_;
    begin_ = 0;
  }
  if (buffer_.size() - end_ < kMinReadRoom) {
    buffer_.resize(std::max(2 * buffer_.size(), end_ + kMinReadRoom));
  }
  ssize_t rc;
  do {
    rc = recv(fd_, buffer_.data() + end_, buffer_.size() - end_, 0);
  } while (rc < 0 && errno == EINTR);
  if (rc < 0) {
    if (errno == EAGAIN || errno == EWOULDBLOCK) return Status::OK();
    return Status::Corruption("recv: " + std::string(std::strerror(errno)));
  }
  if (rc == 0) closed_ = true;
  end_ += static_cast<size_t>(rc);
  if (bytes_counter) {
    bytes_counter->fetch_add(static_cast<uint64_t>(rc),
                             std::memory_order_relaxed);
  }
  return Status::OK();
}

Result<std::optional<Frame>> FrameReader::Take() {
  const std::string_view rest(buffer_.data() + begin_, end_ - begin_);
  if (rest.size() >= kFrameHeaderSize) {
    ewire::Reader header(rest.substr(0, kFrameHeaderSize));
    TIP_ASSIGN_OR_RETURN(uint32_t len, header.U32());
    TIP_ASSIGN_OR_RETURN(uint8_t type, header.U8());
    TIP_ASSIGN_OR_RETURN(uint32_t crc, header.U32());
    if (len > kMaxFramePayload) {
      return Status::Corruption("frame length " + std::to_string(len) +
                                " exceeds cap");
    }
    if (rest.size() - kFrameHeaderSize >= len) {
      const std::string_view payload = rest.substr(kFrameHeaderSize, len);
      if (Crc32(payload) != crc) {
        return Status::Corruption("frame crc mismatch");
      }
      begin_ += kFrameHeaderSize + len;
      return std::optional<Frame>(
          Frame{static_cast<FrameType>(type), payload});
    }
  }
  if (!closed_) return std::optional<Frame>();
  if (rest.empty()) return Status::NotFound("connection closed");
  return Status::Corruption("connection closed mid-frame");
}

Result<Frame> FrameReader::Next(int first_byte_timeout_ms,
                                int body_timeout_ms,
                                std::atomic<uint64_t>* bytes_counter) {
  for (;;) {
    TIP_ASSIGN_OR_RETURN(std::optional<Frame> frame, Take());
    if (frame.has_value()) return *frame;
    const bool begun = buffered() > 0;
    const Status ready = PollFor(
        fd_, POLLIN, begun ? body_timeout_ms : first_byte_timeout_ms);
    if (ready.code() == StatusCode::kDeadlineExceeded) {
      if (begun) return Status::Corruption("peer stalled mid-frame");
      return Status::DeadlineExceeded("no frame within deadline");
    }
    TIP_RETURN_IF_ERROR(ready);
    TIP_RETURN_IF_ERROR(Pull(bytes_counter));
  }
}

std::string BuildHello() {
  std::string out;
  ewire::PutU32(kProtocolVersion, &out);
  return out;
}

Result<uint32_t> ParseHello(std::string_view payload) {
  ewire::Reader reader(payload);
  TIP_ASSIGN_OR_RETURN(uint32_t version, reader.U32());
  return version;
}

std::string BuildHelloOk(const HelloOk& hello) {
  std::string out;
  ewire::PutU32(hello.protocol_version, &out);
  ewire::PutU64(hello.session_id, &out);
  ewire::PutU64(hello.cancel_key, &out);
  return out;
}

Result<HelloOk> ParseHelloOk(std::string_view payload) {
  ewire::Reader reader(payload);
  HelloOk out;
  TIP_ASSIGN_OR_RETURN(out.protocol_version, reader.U32());
  TIP_ASSIGN_OR_RETURN(out.session_id, reader.U64());
  TIP_ASSIGN_OR_RETURN(out.cancel_key, reader.U64());
  return out;
}

std::string BuildExec(std::string_view sql, const engine::Params& params,
                      const engine::TypeRegistry& types) {
  std::string out;
  ewire::PutString(sql, &out);
  ewire::PutU32(static_cast<uint32_t>(params.size()), &out);
  for (const auto& [name, value] : params) {
    ewire::PutString(name, &out);
    ewire::PutString(types.Get(value.type_id()).name, &out);
    engine::EncodeRowField(value, types, &out);
  }
  return out;
}

Result<ExecRequest> ParseExec(std::string_view payload,
                              const engine::TypeRegistry& types) {
  ewire::Reader reader(payload);
  ExecRequest out;
  TIP_ASSIGN_OR_RETURN(std::string_view sql, reader.String());
  out.sql = std::string(sql);
  TIP_ASSIGN_OR_RETURN(uint32_t nparams, reader.U32());
  if (nparams > kMaxParams) {
    return Status::Corruption("exec param count exceeds cap");
  }
  for (uint32_t i = 0; i < nparams; ++i) {
    TIP_ASSIGN_OR_RETURN(std::string_view name, reader.String());
    TIP_ASSIGN_OR_RETURN(std::string_view type_name, reader.String());
    TIP_ASSIGN_OR_RETURN(engine::TypeId type, types.FindByName(type_name));
    TIP_ASSIGN_OR_RETURN(engine::Datum value,
                         engine::DecodeRowField(&reader, type, types));
    out.params.emplace(std::string(name), std::move(value));
  }
  if (!reader.AtEnd()) return Status::Corruption("trailing exec bytes");
  return out;
}

std::string BuildPrepare(std::string_view sql) {
  std::string out;
  ewire::PutString(sql, &out);
  return out;
}

Result<std::string> ParsePrepare(std::string_view payload) {
  ewire::Reader reader(payload);
  TIP_ASSIGN_OR_RETURN(std::string_view sql, reader.String());
  return std::string(sql);
}

std::string BuildCancel(const CancelRequest& req) {
  std::string out;
  ewire::PutU64(req.session_id, &out);
  ewire::PutU64(req.cancel_key, &out);
  return out;
}

Result<CancelRequest> ParseCancel(std::string_view payload) {
  ewire::Reader reader(payload);
  CancelRequest out;
  TIP_ASSIGN_OR_RETURN(out.session_id, reader.U64());
  TIP_ASSIGN_OR_RETURN(out.cancel_key, reader.U64());
  return out;
}

Result<ResultHeader> ParseResultHeader(std::string_view payload) {
  ewire::Reader reader(payload);
  ResultHeader out;
  TIP_ASSIGN_OR_RETURN(uint64_t affected, reader.U64());
  out.affected_rows = static_cast<int64_t>(affected);
  TIP_ASSIGN_OR_RETURN(std::string_view message, reader.String());
  out.message = std::string(message);
  TIP_ASSIGN_OR_RETURN(uint8_t in_txn, reader.U8());
  out.in_txn = in_txn != 0;
  TIP_ASSIGN_OR_RETURN(uint32_t ncols, reader.U32());
  if (ncols > kMaxColumns) {
    return Status::Corruption("column count exceeds cap");
  }
  out.column_names.reserve(ncols);
  out.column_types.reserve(ncols);
  for (uint32_t i = 0; i < ncols; ++i) {
    TIP_ASSIGN_OR_RETURN(std::string_view name, reader.String());
    TIP_ASSIGN_OR_RETURN(std::string_view type_name, reader.String());
    out.column_names.emplace_back(name);
    out.column_types.emplace_back(type_name);
  }
  if (!reader.AtEnd()) return Status::Corruption("trailing header bytes");
  return out;
}

ResultFrames::ResultFrames(const engine::TypeRegistry& types,
                           size_t max_rows_frame_bytes)
    : types_(types), max_rows_frame_bytes_(max_rows_frame_bytes) {}

void ResultFrames::Columns(std::vector<engine::ResultColumn> columns) {
  columns_ = std::move(columns);
}

size_t ResultFrames::Add(engine::Row* row) {
  if (open_rows_ == 0) {
    chunks_.emplace_back();
    BeginFrame(&chunks_.back());
    ewire::PutU32(0, &chunks_.back());  // the row count, set by CloseChunk
  }
  std::string& frame = chunks_.back();
  const size_t before = frame.size();
  engine::EncodeRowImage(*row, types_, &frame);
  ++open_rows_;
  const size_t encoded = frame.size() - before;
  if (frame.size() - kChunkRowsBegin >= max_rows_frame_bytes_) {
    CloseChunk();
  }
  return encoded;
}

void ResultFrames::Finish(int64_t affected_rows, std::string message) {
  if (open_rows_ > 0) CloseChunk();
  affected_rows_ = affected_rows;
  message_ = std::move(message);
}

void ResultFrames::CloseChunk() {
  std::string count;
  ewire::PutU32(open_rows_, &count);
  chunks_.back().replace(kFrameHeaderSize, count.size(), count);
  open_rows_ = 0;
}

std::string ResultFrames::Header(bool in_txn) const {
  std::string out;
  ewire::PutU64(static_cast<uint64_t>(affected_rows_), &out);
  ewire::PutString(message_, &out);
  ewire::PutU8(in_txn ? 1 : 0, &out);
  ewire::PutU32(static_cast<uint32_t>(columns_.size()), &out);
  for (const engine::ResultColumn& col : columns_) {
    ewire::PutString(col.name, &out);
    ewire::PutString(types_.Get(col.type).name, &out);
  }
  return out;
}

Status ParseRowsChunk(std::string_view payload,
                      const std::vector<engine::TypeId>& columns,
                      const engine::TypeRegistry& types,
                      std::vector<engine::Row>* rows) {
  ewire::Reader reader(payload);
  TIP_ASSIGN_OR_RETURN(uint32_t nrows, reader.U32());
  if (nrows > kMaxRowsPerChunk) {
    return Status::Corruption("row count exceeds cap");
  }
  if (rows->capacity() - rows->size() < nrows) {
    rows->reserve(std::max(rows->size() + nrows, 2 * rows->capacity()));
  }
  for (uint32_t i = 0; i < nrows; ++i) {
    engine::Row& row = rows->emplace_back();
    row.reserve(columns.size());
    for (const engine::TypeId type : columns) {
      TIP_ASSIGN_OR_RETURN(engine::Datum value,
                           engine::DecodeRowField(&reader, type, types));
      row.push_back(std::move(value));
    }
  }
  if (!reader.AtEnd()) return Status::Corruption("trailing row bytes");
  return Status::OK();
}

std::string BuildError(const Status& status, bool in_txn) {
  std::string out;
  ewire::PutU32(static_cast<uint32_t>(status.code()), &out);
  ewire::PutString(status.message(), &out);
  ewire::PutU8(in_txn ? 1 : 0, &out);
  return out;
}

Result<WireError> ParseError(std::string_view payload) {
  ewire::Reader reader(payload);
  TIP_ASSIGN_OR_RETURN(uint32_t code, reader.U32());
  TIP_ASSIGN_OR_RETURN(std::string_view message, reader.String());
  TIP_ASSIGN_OR_RETURN(uint8_t in_txn, reader.U8());
  WireError out;
  if (code < 1 || code > static_cast<uint32_t>(StatusCode::kCorruption)) {
    code = static_cast<uint32_t>(StatusCode::kInternal);
  }
  out.status = Status(static_cast<StatusCode>(code), std::string(message));
  out.in_txn = in_txn != 0;
  return out;
}

Result<std::vector<engine::TypeId>> ResolveColumnTypes(
    const ResultHeader& header, const engine::TypeRegistry& types) {
  std::vector<engine::TypeId> out;
  out.reserve(header.column_types.size());
  for (const std::string& name : header.column_types) {
    Result<engine::TypeId> id = types.FindByName(name);
    if (!id.ok()) {
      return Status::TypeError("result column type '" + name +
                               "' unknown to this client");
    }
    out.push_back(*id);
  }
  return out;
}

}  // namespace tip::server::wire
