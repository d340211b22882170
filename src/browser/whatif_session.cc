#include "browser/whatif_session.h"

#include <utility>

namespace tip::browser {

WhatIfSession::WhatIfSession(client::Connection* conn, std::string sql,
                             std::string temporal_column)
    : conn_(conn),
      sql_(std::move(sql)),
      temporal_column_(std::move(temporal_column)) {}

WhatIfSession::~WhatIfSession() { (void)CancelInFlight(); }

bool WhatIfSession::CancelInFlight() {
  bool abandoned = false;
  if (worker_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      abandoned = in_flight_;
    }
    if (abandoned) {
      // The previous evaluation is still running: interrupt it via the
      // thread-safe cancel path rather than waiting it out. If it
      // finishes on its own before the cancel lands, the join below is
      // immediate and its (stale) result is simply discarded.
      (void)conn_->Cancel();
      ++cancelled_;
    }
    worker_.join();
  }
  std::lock_guard<std::mutex> lock(mu_);
  latest_.reset();
  in_flight_ = false;
  return abandoned;
}

void WhatIfSession::Begin(std::optional<Chronon> now) {
  (void)CancelInFlight();
  // The worker is joined, so the connection is ours again: adjust NOW
  // before the new evaluation starts. If the session refuses the move,
  // that is this evaluation's outcome, and Wait reports it.
  Status moved = now.has_value() ? conn_->SetNow(*now) : conn_->ClearNow();
  if (!moved.ok()) {
    std::lock_guard<std::mutex> lock(mu_);
    latest_.emplace(std::move(moved));
    return;
  }
  if (!stmt_.has_value()) stmt_.emplace(conn_->Prepare(sql_));
  ++started_;
  in_flight_ = true;
  worker_ = std::thread([this] {
    Result<TimelineView> view = Evaluate();
    std::lock_guard<std::mutex> lock(mu_);
    latest_.emplace(std::move(view));
    in_flight_ = false;
  });
}

Result<TimelineView> WhatIfSession::Evaluate() {
  // Each what-if evaluation runs as one transaction: the NOW set by
  // Begin is pinned, so the query and the TimelineView it feeds see the
  // same grounding even if another controller flips the session
  // override mid-evaluation.
  TIP_RETURN_IF_ERROR(conn_->Begin());
  Result<TimelineView> view = [&]() -> Result<TimelineView> {
    // The prepared handle reuses one plan across window moves; the
    // transaction's pinned NOW re-grounds it without replanning.
    TIP_ASSIGN_OR_RETURN(client::ResultSet result, stmt_->Execute());
    // Read the pinned NOW before COMMIT releases it.
    TIP_ASSIGN_OR_RETURN(client::ResultSet pinned,
                         conn_->Execute("SELECT transaction_time()"));
    return TimelineView::Create(result, temporal_column_,
                                TxContext(pinned.GetChronon(0, 0)));
  }();
  if (!view.ok()) {
    // Fatal failures (a cancel from CancelInFlight, a timeout) already
    // aborted the transaction; close it ourselves only if a plain
    // validation error left it open.
    if (conn_->in_transaction()) (void)conn_->Rollback();
    return view;
  }
  TIP_RETURN_IF_ERROR(conn_->Commit());
  return view;
}

Result<TimelineView> WhatIfSession::Wait() {
  if (worker_.joinable()) worker_.join();
  std::lock_guard<std::mutex> lock(mu_);
  if (!latest_.has_value()) {
    return Status::InvalidArgument("WhatIfSession::Wait without Begin");
  }
  Result<TimelineView> out = std::move(*latest_);
  latest_.reset();
  return out;
}

}  // namespace tip::browser
