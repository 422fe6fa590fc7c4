#ifndef AGORA_COMMON_DEADLINE_H_
#define AGORA_COMMON_DEADLINE_H_

// Cooperative per-query interruption: a deadline plus a cancellation
// flag, checked at chunk boundaries (the Open()/Next() wrappers and every
// chunk of a morsel pipeline), never per row. The engine never preempts
// a query — operators observe the control object between batches and
// unwind with a DeadlineExceeded Status, leaving the Database fully
// usable for the next statement. The HTTP front end (src/server/) is the main producer
// of controls; embedded callers may pass one to Database::Execute too.

#include <atomic>
#include <chrono>
#include <string>

#include "common/status.h"

namespace agora {

/// Shared interruption state for one query. The issuing side arms a
/// deadline and/or flips `RequestCancel()`; the executing side polls
/// `Check()` at chunk granularity. Thread-safe: the flag is atomic and
/// the deadline is immutable after arming.
class QueryControl {
 public:
  QueryControl() = default;

  /// Arms an absolute wall deadline. Call before execution starts; the
  /// executing side treats the deadline as immutable.
  void set_deadline(std::chrono::steady_clock::time_point deadline) {
    deadline_ = deadline;
    has_deadline_ = true;
  }

  /// Arms a deadline `timeout` from now (no deadline when `timeout` <= 0).
  void set_timeout(std::chrono::milliseconds timeout) {
    if (timeout.count() > 0) {
      set_deadline(std::chrono::steady_clock::now() + timeout);
    }
  }

  bool has_deadline() const { return has_deadline_; }
  std::chrono::steady_clock::time_point deadline() const { return deadline_; }

  /// Asks the running query to stop at its next chunk boundary.
  void RequestCancel() { cancel_.store(true, std::memory_order_relaxed); }

  bool cancel_requested() const {
    return cancel_.load(std::memory_order_relaxed);
  }

  /// True once the deadline passed (false when none is armed).
  bool deadline_passed() const {
    return has_deadline_ && std::chrono::steady_clock::now() >= deadline_;
  }

  /// OK while the query may keep running; DeadlineExceeded naming `who`
  /// (the checking call site) once cancelled or past the deadline. One
  /// relaxed atomic load plus, when a deadline is armed, one clock read.
  Status Check(const char* who) const {
    if (cancel_requested()) {
      return Status::DeadlineExceeded(std::string("query cancelled (") +
                                      who + ")");
    }
    if (deadline_passed()) {
      return Status::DeadlineExceeded(std::string("query deadline exceeded (") +
                                      who + ")");
    }
    return Status::OK();
  }

 private:
  std::atomic<bool> cancel_{false};
  bool has_deadline_ = false;
  std::chrono::steady_clock::time_point deadline_{};
};

}  // namespace agora

#endif  // AGORA_COMMON_DEADLINE_H_
