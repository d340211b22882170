#ifndef TIP_SERVER_WIRE_H_
#define TIP_SERVER_WIRE_H_

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"
#include "engine/database.h"
#include "engine/exec/result_set.h"
#include "engine/types/type.h"

/// The TIP remote wire protocol: length-prefixed, CRC-framed messages
/// over TCP, shared by `tipd` (src/server/server.cc) and the client's
/// remote transport (client::Connection, src/client/connection.cc).
///
/// Frame layout (all integers little-endian, like the storage formats):
///
///   u32 payload_len | u8 frame_type | u32 crc32(payload) | payload
///
/// The CRC covers the payload only; the length and type are implicitly
/// validated by the CRC failing when they are torn. A frame whose CRC
/// does not match, whose length exceeds kMaxFramePayload, or whose type
/// is unknown is a protocol error — the session is fail-stop from that
/// point (Corruption), never resynchronized.
///
/// Values cross the wire in their binary send/receive format, addressed
/// by *type name* (not TypeId): ids are minted per-process, names are
/// stable because both ends install the same DataBlade. Rows use the
/// WAL's row-image grammar (varint prefix 0 = NULL, n+1 = n payload
/// bytes per column) so the encoding is exercised by every durability
/// test too.
namespace tip::server::wire {

/// Protocol revision. Bumped on any incompatible frame change; the
/// server refuses a Hello carrying anything else.
inline constexpr uint32_t kProtocolVersion = 1;

/// Hard cap on one frame's payload. Bigger results are chunked into
/// multiple kResultRows frames by the server; a length field above this
/// is treated as a torn frame.
inline constexpr uint32_t kMaxFramePayload = 64u << 20;

/// Fixed header size: u32 len + u8 type + u32 crc.
inline constexpr size_t kFrameHeaderSize = 9;

enum class FrameType : uint8_t {
  // client -> server
  kHello = 1,    // u32 protocol_version
  kExec = 2,     // string sql | u32 nparams | nparams * (name|type|datum)
  kPrepare = 3,  // string sql (validate only; plan cache does the rest)
  kCancel = 4,   // u64 session_id | u64 cancel_key (on a fresh conn)
  kPing = 5,     // empty
  kGoodbye = 6,  // empty; polite close
  // server -> client
  kHelloOk = 16,       // u32 proto | u64 session_id | u64 cancel_key
  kResultHeader = 17,  // u64 affected | string msg | u8 in_txn | columns
  kResultRows = 18,    // u32 nrows | nrows row images
  kResultDone = 19,    // empty; result complete
  kError = 20,         // u32 status_code | string message | u8 in_txn
  kPong = 21,          // empty
  kPrepareOk = 22,     // empty; statement parsed
};

/// A frame handed out by a FrameReader. The payload views the reader's
/// buffer and stays valid until the reader next reads from its socket.
struct Frame {
  FrameType type;
  std::string_view payload;
};

// ---------------------------------------------------------------------------
// Socket plumbing. All fds produced here are non-blocking; every recv
// and send is gated by poll() with a deadline so a stalled peer can
// never wedge a server thread. timeout_ms < 0 blocks indefinitely.
// ---------------------------------------------------------------------------

/// Connects to host:port (numeric or resolvable name). The timeout
/// bounds the TCP connect itself.
Result<int> DialTcp(const std::string& host, int port, int timeout_ms);

/// Binds and listens on host:port. port 0 picks an ephemeral port;
/// *bound_port reports the actual one.
Result<int> ListenTcp(const std::string& host, int port, int* bound_port);

/// Writes one frame (header + payload). `bytes_counter`, when non-null,
/// accumulates bytes actually written (tip_server_stats bytes_out).
Status WriteFrame(int fd, FrameType type, std::string_view payload,
                  int timeout_ms,
                  std::atomic<uint64_t>* bytes_counter = nullptr);

/// Starts a frame in `*frame`, cleared: a header to be filled in by
/// SealFrame, after which the caller appends the payload in place. A
/// frame built this way holds the only copy of its payload.
void BeginFrame(std::string* frame);

/// Fills in the header of a frame begun by BeginFrame: the length and
/// CRC of the payload appended after it, and `type`. Internal error
/// when the payload exceeds kMaxFramePayload.
Status SealFrame(FrameType type, std::string* frame);

/// Writes a frame sealed by SealFrame; `bytes_counter` as WriteFrame.
Status SendFrame(int fd, std::string_view frame, int timeout_ms,
                 std::atomic<uint64_t>* bytes_counter = nullptr);

/// The one reader of inbound frames, one per connection (it does not
/// own the socket). Each recv appends to one buffer and whole frames
/// are parsed out of it, so bytes behind a frame wait for the next
/// Take, and the socket is read only when no whole frame is buffered.
/// Each frame's length cap and CRC are checked here and nowhere else.
/// After an error the stream is fail-stop. Every status means one
/// thing:
///  - NotFound: the peer closed before a frame began.
///  - DeadlineExceeded: no frame began within the first-byte deadline.
///  - Corruption: a torn frame (the peer closed, or stalled past the
///    body deadline, part-way), a length over kMaxFramePayload or a
///    CRC mismatch; also a failed recv. A failed poll is Internal.
class FrameReader {
 public:
  explicit FrameReader(int fd) : fd_(fd) {}

  int fd() const { return fd_; }

  /// Bytes received and not yet taken as frames.
  size_t buffered() const { return end_ - begin_; }

  /// Appends what one recv returns to the buffer, without waiting (the
  /// socket is non-blocking). `bytes_counter`, when non-null,
  /// accumulates the bytes received (tip_server_stats bytes_in).
  Status Pull(std::atomic<uint64_t>* bytes_counter = nullptr);

  /// The next whole frame in the buffer, or nullopt when none is
  /// buffered yet. A frame that is buffered is returned before the
  /// close behind it, as a cancel client that sends one frame and
  /// hangs up needs.
  Result<std::optional<Frame>> Take();

  /// Waits for the next frame, pulling only while no whole frame is
  /// buffered. `first_byte_timeout_ms` bounds each wait while no byte
  /// of the frame has arrived and `body_timeout_ms` each wait after
  /// that (a peer that began a frame must finish it); < 0 waits
  /// forever.
  Result<Frame> Next(int first_byte_timeout_ms, int body_timeout_ms,
                     std::atomic<uint64_t>* bytes_counter = nullptr);

 private:
  int fd_;
  /// [begin_, end_) is received and not yet taken; [end_, size) is room
  /// for the next recv.
  std::vector<char> buffer_;
  size_t begin_ = 0;
  size_t end_ = 0;
  bool closed_ = false;  // a recv returned end of stream
};

// ---------------------------------------------------------------------------
// Payload grammar. Builders return the payload bytes; parsers are
// bounds-checked and fail with Corruption on truncation.
// ---------------------------------------------------------------------------

std::string BuildHello();
Result<uint32_t> ParseHello(std::string_view payload);

struct HelloOk {
  uint32_t protocol_version = 0;
  uint64_t session_id = 0;
  uint64_t cancel_key = 0;
};
std::string BuildHelloOk(const HelloOk& hello);
Result<HelloOk> ParseHelloOk(std::string_view payload);

/// Exec carries the SQL plus bound parameters, each as
/// (name | type name | row-image field).
std::string BuildExec(std::string_view sql, const engine::Params& params,
                      const engine::TypeRegistry& types);
struct ExecRequest {
  std::string sql;
  engine::Params params;
};
Result<ExecRequest> ParseExec(std::string_view payload,
                              const engine::TypeRegistry& types);

std::string BuildPrepare(std::string_view sql);
Result<std::string> ParsePrepare(std::string_view payload);

struct CancelRequest {
  uint64_t session_id = 0;
  uint64_t cancel_key = 0;
};
std::string BuildCancel(const CancelRequest& req);
Result<CancelRequest> ParseCancel(std::string_view payload);

/// ResultHeader describes everything about a result except the rows:
/// affected count, DDL/SET message, whether the session is now inside a
/// transaction, and the column schema (names + type names). The server
/// builds it with ResultFrames::Header.
struct ResultHeader {
  int64_t affected_rows = 0;
  std::string message;
  bool in_txn = false;
  std::vector<std::string> column_names;
  std::vector<std::string> column_types;
};
Result<ResultHeader> ParseResultHeader(std::string_view payload);

/// A statement's result as the server sends it, encoded while the
/// engine runs the statement (tipd's engine::ResultSink). Each row is
/// encoded straight into the current kResultRows frame, whose payload
/// is u32 nrows | nrows row images; a chunk closes once its row bytes
/// reach `max_rows_frame_bytes`. The frames are begun (BeginFrame) but
/// not sealed: the server seals and sends them after the statement has
/// left the execution gate.
class ResultFrames final : public engine::ResultSink {
 public:
  ResultFrames(const engine::TypeRegistry& types,
               size_t max_rows_frame_bytes);

  void Columns(std::vector<engine::ResultColumn> columns) override;
  /// Returns the row's encoded size.
  size_t Add(engine::Row* row) override;
  void Finish(int64_t affected_rows, std::string message) override;

  /// The kResultHeader payload.
  std::string Header(bool in_txn) const;
  /// The kResultRows frames, in order, each ready for SealFrame.
  std::vector<std::string>& chunks() { return chunks_; }

 private:
  /// Writes the open chunk's row count into its payload.
  void CloseChunk();

  const engine::TypeRegistry& types_;
  const size_t max_rows_frame_bytes_;
  std::vector<engine::ResultColumn> columns_;
  int64_t affected_rows_ = 0;
  std::string message_;
  std::vector<std::string> chunks_;
  uint32_t open_rows_ = 0;  // rows in chunks_.back(); 0 = no open chunk
};

/// Decodes a kResultRows payload against the column types resolved
/// from the header (one TypeId per column, client-side registry),
/// appending its rows to `*rows`. On failure `*rows` may hold part of
/// the chunk.
Status ParseRowsChunk(std::string_view payload,
                      const std::vector<engine::TypeId>& columns,
                      const engine::TypeRegistry& types,
                      std::vector<engine::Row>* rows);

std::string BuildError(const Status& status, bool in_txn);
struct WireError {
  Status status;   // reconstructed with the original code + message
  bool in_txn = false;
};
Result<WireError> ParseError(std::string_view payload);

/// Resolves the header's type names against a local registry.
Result<std::vector<engine::TypeId>> ResolveColumnTypes(
    const ResultHeader& header, const engine::TypeRegistry& types);

}  // namespace tip::server::wire

#endif  // TIP_SERVER_WIRE_H_
