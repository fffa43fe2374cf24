// Cooperative cancellation for long-running solves. A CancellationSource
// owns a stop flag; the CancellationTokens it hands out are cheap value
// types that solver loops poll between units of work (branch-and-bound
// nodes, layer solves, re-synthesis iterations). Tokens may additionally
// carry a deadline, so per-job time budgets and explicit cancellation share
// one check. A default-constructed token is inert and never reports
// cancellation, which keeps single-shot callers zero-cost.
#pragma once

#include <atomic>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <string>

namespace cohls {

/// Thrown by CancellationToken::check when a computation was cancelled (by
/// request or because its deadline passed). Callers that launched the work
/// (the batch engine, CLI front ends) catch it to report a clean "cancelled"
/// or "timed out" outcome instead of a partial result.
class CancelledError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Polling handle observed inside solver loops. Copyable and cheap; a
/// default-constructed token never cancels.
class CancellationToken {
 public:
  CancellationToken() = default;

  /// True when a stop was requested or the deadline has passed.
  [[nodiscard]] bool cancelled() const {
    if (flag_ && flag_->load(std::memory_order_relaxed)) {
      return true;
    }
    return has_deadline_ && std::chrono::steady_clock::now() >= deadline_;
  }

  /// True when this token can ever report cancellation (i.e. it is not the
  /// inert default token). Lets hot loops skip the clock read entirely.
  [[nodiscard]] bool can_cancel() const { return flag_ != nullptr || has_deadline_; }

  /// Throws CancelledError("<what> cancelled") when cancelled.
  void check(const std::string& what) const;

  /// A copy of this token whose deadline is additionally capped at
  /// `seconds_from_now` (<= 0 returns the token unchanged). The stop flag is
  /// shared; an existing earlier deadline wins. This is how watchdogs wrap a
  /// budgeted computation without a second flag: the wrapped work observes
  /// the earlier of the caller's deadline and the watchdog's.
  [[nodiscard]] CancellationToken with_earlier_deadline(double seconds_from_now) const {
    if (seconds_from_now <= 0.0) {
      return *this;
    }
    CancellationToken t = *this;
    const auto candidate =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(seconds_from_now));
    if (!t.has_deadline_ || candidate < t.deadline_) {
      t.deadline_ = candidate;
      t.has_deadline_ = true;
    }
    return t;
  }

 private:
  friend class CancellationSource;

  std::shared_ptr<const std::atomic<bool>> flag_;
  std::chrono::steady_clock::time_point deadline_{};
  bool has_deadline_ = false;
};

/// Owner side: creates tokens and requests the stop.
class CancellationSource {
 public:
  CancellationSource() : flag_(std::make_shared<std::atomic<bool>>(false)) {}

  void request_stop() { flag_->store(true, std::memory_order_relaxed); }
  [[nodiscard]] bool stop_requested() const {
    return flag_->load(std::memory_order_relaxed);
  }

  /// A token observing only explicit stop requests.
  [[nodiscard]] CancellationToken token() const {
    CancellationToken t;
    t.flag_ = flag_;
    return t;
  }

  /// A token that additionally cancels `seconds_from_now` after this call
  /// (<= 0 means no deadline).
  [[nodiscard]] CancellationToken token_with_deadline(double seconds_from_now) const {
    CancellationToken t = token();
    if (seconds_from_now > 0.0) {
      t.deadline_ = std::chrono::steady_clock::now() +
                    std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                        std::chrono::duration<double>(seconds_from_now));
      t.has_deadline_ = true;
    }
    return t;
  }

 private:
  std::shared_ptr<std::atomic<bool>> flag_;
};

}  // namespace cohls
