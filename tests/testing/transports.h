#ifndef TIP_TESTS_TESTING_TRANSPORTS_H_
#define TIP_TESTS_TESTING_TRANSPORTS_H_

// Runs one test case on both client transports. A fixture picks its
// transport through a virtual `transport()`; OverTipd<Fixture> is the
// same fixture over tipd. TIP_TRANSPORT_TEST defines a case once and
// registers it under both fixtures, so the embedded suite keeps its
// names and the tipd suite mirrors them.

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>

#include "client/connection.h"
#include "common/status.h"
#include "datablade/datablade.h"
#include "engine/database.h"
#include "server/server.h"

namespace tip::transports {

enum class Transport { kEmbedded, kTipd };

/// A TIP-enabled database and, over tipd, an in-process server that
/// serves it on loopback.
class TransportHarness {
 public:
  TransportHarness() = default;
  TransportHarness(const TransportHarness&) = delete;
  TransportHarness& operator=(const TransportHarness&) = delete;
  ~TransportHarness() {
    if (server_ != nullptr) server_->Shutdown();
  }

  /// Opens the database, durable in `dir` when it is non-empty, and for
  /// kTipd starts the server.
  Status Start(Transport transport, const std::string& dir = "") {
    transport_ = transport;
    db_ = std::make_unique<engine::Database>();
    TIP_RETURN_IF_ERROR(datablade::Install(db_.get()));
    if (!dir.empty()) TIP_RETURN_IF_ERROR(db_->AttachDurableDir(dir));
    if (transport == Transport::kTipd) {
      TIP_ASSIGN_OR_RETURN(server_, server::Server::Start(
                                        db_.get(), server::ServerOptions()));
    }
    return Status::OK();
  }

  /// A new client connection to the database over the transport.
  Result<std::unique_ptr<client::Connection>> Connect() {
    if (transport_ == Transport::kEmbedded) {
      return client::Connection::Attach(db_.get());
    }
    return client::Connection::Connect("127.0.0.1", server_->port());
  }

  engine::Database& db() { return *db_; }
  int port() const { return server_->port(); }

 private:
  Transport transport_ = Transport::kEmbedded;
  std::unique_ptr<engine::Database> db_;
  std::unique_ptr<server::Server> server_;
};

/// `Fixture` over tipd: the fixture must read its transport from a
/// virtual `transport()` that answers kEmbedded.
template <typename Fixture>
class OverTipd : public Fixture {
 protected:
  Transport transport() const override { return Transport::kTipd; }
};

/// A scratch directory named after the running test (so the two
/// transports' copies of a case never share one), removed before and
/// after use.
class ScratchDir {
 public:
  ScratchDir() {
    const ::testing::TestInfo* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    path_ = ::testing::TempDir() + "/tip_" + info->test_suite_name() + "." +
            info->name();
    std::filesystem::remove_all(path_, ignored_);
  }
  ~ScratchDir() { std::filesystem::remove_all(path_, ignored_); }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
  std::error_code ignored_;
};

}  // namespace tip::transports

/// Defines case `Name` once and registers it as `Embedded.Name` and as
/// `Tipd.Name`. `Embedded` declares `void Name();`, and `Tipd` is
/// OverTipd<Embedded>.
#define TIP_TRANSPORT_TEST(Embedded, Tipd, Name) \
  TEST_F(Embedded, Name) { Name(); }             \
  TEST_F(Tipd, Name) { Name(); }                 \
  void Embedded::Name()

#endif  // TIP_TESTS_TESTING_TRANSPORTS_H_
