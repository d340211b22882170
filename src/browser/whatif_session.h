#ifndef TIP_BROWSER_WHATIF_SESSION_H_
#define TIP_BROWSER_WHATIF_SESSION_H_

#include <cstddef>
#include <mutex>
#include <optional>
#include <string>
#include <thread>

#include "browser/timeline.h"
#include "client/connection.h"
#include "common/status.h"
#include "core/chronon.h"

namespace tip::browser {

/// The Browser's interactive what-if loop. The user drags the NOW
/// slider (or moves the browsing window) faster than the browse query
/// evaluates, so every move first CANCELS the in-flight evaluation —
/// through the connection's thread-safe cancel entry point — and only
/// then starts a fresh one under the new NOW. Stale evaluations are
/// discarded; the view the user finally waits for always reflects the
/// latest slider position.
///
/// Evaluations run on a background thread; Begin/Wait themselves must
/// be called from one thread (the UI loop). The session works on either
/// client transport: an embedded engine or a session on `tipd`.
class WhatIfSession {
 public:
  /// `sql` is the browse query, `temporal_column` the attribute that
  /// defines when each tuple is valid (as in TimelineView::Create).
  /// `conn` must outlive the session and, between Begin and Wait, must
  /// not be used from other threads.
  WhatIfSession(client::Connection* conn, std::string sql,
                std::string temporal_column);

  /// Cancels and joins any in-flight evaluation.
  ~WhatIfSession();

  WhatIfSession(const WhatIfSession&) = delete;
  WhatIfSession& operator=(const WhatIfSession&) = delete;

  /// Starts evaluating the browse query with NOW overridden to `now`
  /// (nullopt restores the wall clock). A previous evaluation still
  /// running is cancelled and its result discarded — cancel on window
  /// move. Returns immediately; if the connection refuses the NOW
  /// move, Wait returns that error.
  void Begin(std::optional<Chronon> now);

  /// Blocks until the most recent Begin completes and returns its view.
  /// Fails with Status::InvalidArgument when nothing was begun, and
  /// with whatever the evaluation failed with otherwise.
  Result<TimelineView> Wait();

  /// How many evaluations were started, and how many of those were
  /// abandoned because the window moved before they finished.
  size_t evaluations_started() const { return started_; }
  size_t evaluations_cancelled() const { return cancelled_; }

 private:
  /// Cancels the running evaluation (if any) and joins the worker.
  /// Returns true when an evaluation was actually abandoned.
  bool CancelInFlight();
  /// One evaluation, on the worker thread: the browse query and the
  /// view over its rows, inside one transaction.
  Result<TimelineView> Evaluate();

  client::Connection* conn_;
  std::string sql_;
  std::string temporal_column_;
  /// The browse query, prepared once on the first Begin. Every window
  /// move re-executes this handle: the plan is reused and only NOW is
  /// re-grounded, so the slider never pays parse/plan again. A parse
  /// error is carried by the handle and surfaces through Wait.
  std::optional<client::Statement> stmt_;

  std::thread worker_;
  std::mutex mu_;  // guards latest_
  std::optional<Result<TimelineView>> latest_;
  bool in_flight_ = false;
  size_t started_ = 0;
  size_t cancelled_ = 0;
};

}  // namespace tip::browser

#endif  // TIP_BROWSER_WHATIF_SESSION_H_
