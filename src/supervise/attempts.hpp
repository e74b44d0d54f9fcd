/// \file attempts.hpp
/// \brief The attempt ledger: the one policy deciding what a cell's attempt
///        outcome means.  The dispatcher (dispatcher.hpp) keeps one
///        AttemptLedger per unit for every executor and acts on its
///        verdicts.  Rules: docs/ROBUSTNESS.md, "Attempt ledger".
#pragma once

#include <chrono>
#include <set>
#include <string>

#include "supervise/supervisor.hpp"

namespace feast::supervise {

struct AttemptPolicy {
  int max_attempts = 3;   ///< Charged attempts before quarantine.
  BackoffPolicy backoff;  ///< Retry delay after a charged failure.
  int poison_deaths = 2;  ///< Distinct dead workers before `net` quarantine.
};

/// What an attempt outcome means for its cell: Retry (charged, under
/// budget, at `due`), Requeue (uncharged worker loss, now) or Quarantine
/// (budget spent, or cross-worker poison).
struct AttemptVerdict {
  enum class Action : std::uint8_t { Retry, Requeue, Quarantine };

  Action action = Action::Retry;
  int attempts = 0;       ///< Charged attempts after this outcome.
  double delay_ms = 0.0;  ///< Retry: the backoff delay before `due`.
  std::chrono::steady_clock::time_point due;
  ErrorKind kind = ErrorKind::None;
  std::string error;  ///< The failure detail (Requeue: why the worker died).

  bool quarantined() const noexcept { return action == Action::Quarantine; }
};

/// One cell's record: the charged attempt count and the distinct names of
/// the workers that died holding it.  Only the ledger counts
/// `supervise.retry` and `supervise.quarantine`.
class AttemptLedger {
 public:
  using Clock = std::chrono::steady_clock;

  AttemptLedger() = default;
  AttemptLedger(const AttemptPolicy& policy, std::size_t cell)
      : policy_(policy), cell_(cell) {}

  /// Charges the next attempt; returns the action \p inject (`ACTION[@N]`,
  /// "" = none) poisons it with.
  std::string start(const std::string& inject);
  /// Retry at now + backoff, or Quarantine once the budget is spent.
  AttemptVerdict fail(ErrorKind kind, std::string error,
                      Clock::time_point now = Clock::now());
  /// Worker \p worker died holding the cell: an uncharged Requeue, or a
  /// `net` Quarantine once `poison_deaths` distinct names have died.
  AttemptVerdict lost(const std::string& worker, const std::string& why);
  /// Uncharges the running attempt: the drain path.
  void release();

  int attempts() const noexcept { return attempts_; }

 private:
  AttemptPolicy policy_;
  std::size_t cell_ = 0;
  int attempts_ = 0;
  std::set<std::string> dead_workers_;
};

/// A campaign row's two terminal writes, shared by every executor.
void record_success(CellOutcome& cell, const ShardResult& shard, int attempts);
void record_quarantine(CellOutcome& cell, int attempts, ErrorKind kind,
                       std::string error);

}  // namespace feast::supervise
