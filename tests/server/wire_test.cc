// wire::FrameReader over a socketpair: whole frames come out of one
// buffer however the bytes arrive, the socket is read only when no
// whole frame is buffered, and each failure has its one status —
// NotFound for a close before a frame began, DeadlineExceeded for no
// frame within the first-byte deadline, Corruption for a torn,
// stalled, oversize or CRC-failing frame.

#include <fcntl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <thread>

#include "engine/storage/wire_format.h"
#include "server/wire.h"

namespace tip::server::wire {
namespace {

// One sealed frame's bytes.
std::string Sealed(FrameType type, std::string_view payload) {
  std::string frame;
  BeginFrame(&frame);
  frame.append(payload);
  EXPECT_TRUE(SealFrame(type, &frame).ok());
  return frame;
}

class FrameReaderTest : public ::testing::Test {
 protected:
  void SetUp() override { Open(); }
  void TearDown() override { Close(); }

  // A fresh socketpair: read_fd_ for the reader, write_fd_ for the peer.
  void Open() {
    int fds[2];
    ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    read_fd_ = fds[0];
    write_fd_ = fds[1];
    // The reader expects a non-blocking socket, as tipd and the client
    // make theirs.
    ASSERT_EQ(fcntl(read_fd_, F_SETFL, fcntl(read_fd_, F_GETFL) | O_NONBLOCK),
              0);
  }
  void Close() {
    close(read_fd_);
    CloseWriter();
  }

  void Write(std::string_view bytes) {
    ASSERT_EQ(write(write_fd_, bytes.data(), bytes.size()),
              static_cast<ssize_t>(bytes.size()));
  }
  void CloseWriter() {
    if (write_fd_ >= 0) close(write_fd_);
    write_fd_ = -1;
  }

  int read_fd_ = -1;
  int write_fd_ = -1;
};

TEST_F(FrameReaderTest, FrameSplitAtEveryByteBoundary) {
  const std::string payload = "SELECT 1 -- split anywhere";
  const std::string frame = Sealed(FrameType::kExec, payload);
  FrameReader reader(read_fd_);
  for (size_t split = 1; split < frame.size(); ++split) {
    SCOPED_TRACE("split at byte " + std::to_string(split));
    Write(std::string_view(frame).substr(0, split));
    ASSERT_TRUE(reader.Pull().ok());
    Result<std::optional<Frame>> early = reader.Take();
    ASSERT_TRUE(early.ok()) << early.status().ToString();
    EXPECT_FALSE(early->has_value()) << "a frame before all its bytes";
    Write(std::string_view(frame).substr(split));
    Result<Frame> whole = reader.Next(1000, 1000);
    ASSERT_TRUE(whole.ok()) << whole.status().ToString();
    EXPECT_EQ(whole->type, FrameType::kExec);
    EXPECT_EQ(whole->payload, payload);
    EXPECT_EQ(reader.buffered(), 0u);
  }
}

TEST_F(FrameReaderTest, SeveralFramesInOneWriteAreReadOnce) {
  const std::string bytes = Sealed(FrameType::kHello, "a") +
                            Sealed(FrameType::kExec, "bb") +
                            Sealed(FrameType::kPing, "");
  Write(bytes);
  FrameReader reader(read_fd_);
  std::atomic<uint64_t> received{0};
  Result<Frame> first = reader.Next(1000, 1000, &received);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->type, FrameType::kHello);
  EXPECT_EQ(first->payload, "a");
  // One recv took all three; the other two come from the buffer.
  EXPECT_EQ(received.load(), bytes.size());
  EXPECT_EQ(reader.buffered(), bytes.size() - kFrameHeaderSize - 1);
  Result<Frame> second = reader.Next(1000, 1000, &received);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->type, FrameType::kExec);
  EXPECT_EQ(second->payload, "bb");
  Result<Frame> third = reader.Next(1000, 1000, &received);
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(third->type, FrameType::kPing);
  EXPECT_TRUE(third->payload.empty());
  EXPECT_EQ(received.load(), bytes.size());
}

TEST_F(FrameReaderTest, FrameLargerThanTheBufferGrowsIt) {
  std::string payload(300 * 1024, '\0');
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<char>(i * 131);
  }
  const std::string frame = Sealed(FrameType::kResultRows, payload);
  std::thread writer([&] {
    // Several writes, so the reader sees the frame arrive in pieces.
    for (size_t at = 0; at < frame.size(); at += 50000) {
      Write(std::string_view(frame).substr(at, 50000));
    }
  });
  FrameReader reader(read_fd_);
  Result<Frame> read = reader.Next(5000, 5000);
  writer.join();
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read->type, FrameType::kResultRows);
  EXPECT_TRUE(read->payload == payload);
}

TEST_F(FrameReaderTest, FrameBeforeTheCloseIsReturnedFirst) {
  // A cancel client writes its one frame and hangs up.
  Write(Sealed(FrameType::kCancel, "0123456789abcdef"));
  CloseWriter();
  FrameReader reader(read_fd_);
  Result<Frame> cancel = reader.Next(1000, 1000);
  ASSERT_TRUE(cancel.ok()) << cancel.status().ToString();
  EXPECT_EQ(cancel->type, FrameType::kCancel);
  EXPECT_EQ(cancel->payload, "0123456789abcdef");
  Result<Frame> after = reader.Next(1000, 1000);
  ASSERT_FALSE(after.ok());
  EXPECT_EQ(after.status().code(), StatusCode::kNotFound)
      << after.status().ToString();
}

TEST_F(FrameReaderTest, CloseBeforeAFrameIsNotFound) {
  CloseWriter();
  FrameReader reader(read_fd_);
  Result<Frame> read = reader.Next(1000, 1000);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kNotFound);
}

TEST_F(FrameReaderTest, CloseMidFrameIsCorruption) {
  const std::string frame = Sealed(FrameType::kExec, "SELECT 1");
  // Inside the header and inside the payload.
  for (const size_t cut : {size_t{4}, frame.size() - 3}) {
    SCOPED_TRACE("closed after " + std::to_string(cut) + " bytes");
    Close();
    Open();
    Write(std::string_view(frame).substr(0, cut));
    CloseWriter();
    FrameReader reader(read_fd_);
    Result<Frame> read = reader.Next(1000, 1000);
    ASSERT_FALSE(read.ok());
    EXPECT_EQ(read.status().code(), StatusCode::kCorruption)
        << read.status().ToString();
  }
}

TEST_F(FrameReaderTest, StallMidFrameIsCorruptionNotIdleness) {
  const std::string frame = Sealed(FrameType::kExec, "SELECT 1");
  Write(std::string_view(frame).substr(0, frame.size() - 1));
  FrameReader reader(read_fd_);
  Result<Frame> read = reader.Next(1000, 50);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kCorruption)
      << read.status().ToString();
}

TEST_F(FrameReaderTest, NoFrameWithinTheFirstByteDeadlineIsDeadlineExceeded) {
  FrameReader reader(read_fd_);
  Result<Frame> read = reader.Next(30, 1000);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kDeadlineExceeded)
      << read.status().ToString();
  // Idleness is not a failure: a frame sent afterwards still arrives.
  Write(Sealed(FrameType::kPing, ""));
  Result<Frame> ping = reader.Next(1000, 1000);
  ASSERT_TRUE(ping.ok()) << ping.status().ToString();
  EXPECT_EQ(ping->type, FrameType::kPing);
}

TEST_F(FrameReaderTest, OversizeLengthIsCorruptionBeforeThePayload) {
  std::string header;
  engine::wire::PutU32(kMaxFramePayload + 1, &header);
  engine::wire::PutU8(static_cast<uint8_t>(FrameType::kExec), &header);
  engine::wire::PutU32(0, &header);
  Write(header);
  FrameReader reader(read_fd_);
  Result<Frame> read = reader.Next(1000, 1000);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kCorruption)
      << read.status().ToString();
}

TEST_F(FrameReaderTest, CrcMismatchIsCorruption) {
  std::string frame = Sealed(FrameType::kExec, "SELECT 1");
  frame[5] ^= 0x01;  // the CRC field
  Write(frame);
  FrameReader reader(read_fd_);
  Result<Frame> read = reader.Next(1000, 1000);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kCorruption)
      << read.status().ToString();
}

}  // namespace
}  // namespace tip::server::wire
