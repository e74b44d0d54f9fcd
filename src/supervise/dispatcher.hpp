/// \file dispatcher.hpp
/// \brief The one dispatcher behind both out-of-process executors:
///        `run_supervised_campaign` and the `feastc serve` daemon drive it.
///        It alone owns the fair queue, one AttemptLedger per unit, the
///        optional local WorkerPool and the remote lease table, and reports
///        what happened as Events its callers turn into rows, replies and
///        log lines.  Single-owner.  docs/ROBUSTNESS.md, "Dispatcher".
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "supervise/attempts.hpp"
#include "supervise/worker_pool.hpp"

namespace feast::supervise {

struct DispatcherOptions {
  AttemptPolicy policy;
  WorkerPoolOptions pool;  ///< slots = 0: no local pool (remote only).
  /// Remote lease deadline; 0: the pool watchdog's cell timeout plus its
  /// escalation grace and 5 s of network slack, or 60 s with no watchdog.
  double lease_timeout_s = 0.0;
};

class Dispatcher {
 public:
  using Clock = std::chrono::steady_clock;

  /// One unit of work: the target of its `exec-cell` attempts.
  struct Unit {
    std::string key;     ///< The caller's name for it, echoed in Events.
    std::string client;  ///< Fair-queue owner.
    std::string spec_path;
    std::size_t cell = 0;
    std::string inject;  ///< Poison `ACTION[@N]` ("" = none).
    std::string faults;  ///< Fault plan armed in the worker ("" = none).
  };

  /// Done, Quarantined and Released retire the unit; Retry and Requeued
  /// (an uncharged worker loss) queue it again.
  struct Event {
    enum class Kind : std::uint8_t { Done, Retry, Requeued, Quarantined, Released };
    Kind kind = Kind::Done;
    std::string key;
    std::size_t cell = 0;
    int attempts = 0;  ///< Charged attempts.
    ErrorKind error_kind = ErrorKind::None;
    std::string error;
    double delay_ms = 0.0;  ///< Retry: the backoff before it is due.
    ShardResult shard;      ///< Done.
    std::string worker;     ///< Lost with this remote worker (id).
  };

  /// One unit out on a remote worker.
  struct Lease {
    std::string token;
    Unit unit;
    std::string inject;        ///< The poison action of this attempt.
    std::string worker, name;  ///< Poison counts distinct names.
    Clock::time_point deadline;
  };

  explicit Dispatcher(DispatcherOptions options);

  /// Queues \p unit with a fresh attempt budget.
  void add(Unit unit);
  /// Harvests the pool, spawns due units into free slots, expires leases
  /// (the worker is lost()) and kills the stragglers past a drain's grace.
  std::vector<Event> step(Clock::time_point now = Clock::now());

  /// Charges the next due unit's attempt and leases it to \p worker.
  std::optional<Lease> lease(const std::string& worker, const std::string& name,
                             Clock::time_point now = Clock::now());
  /// The live lease \p token if \p worker holds it, else nullptr.
  const Lease* leased(const std::string& token, const std::string& worker) const;
  /// Settles lease \p token at most once (std::nullopt: not live).
  std::optional<Event> settle(const std::string& token, WorkerOutcome outcome,
                              Clock::time_point now = Clock::now());
  /// Every unit \p worker held is requeued uncharged, or quarantined as
  /// `net` poison once `poison_deaths` distinct names died holding it.
  std::vector<Event> lost(const std::string& worker, const std::string& why);

  /// Returns the queue and the remote leases (uncharged) as Released, and
  /// releases every later failure; running attempts get \p grace_s.
  std::vector<Event> drain(double grace_s);
  /// Kills the running local attempts and forgets their units.
  void kill_all(double grace_s);
  /// WorkerPool::exit_fds of the local pool: step() harvests a woken one.
  void exit_fds(std::vector<pollfd>& out) const {
    if (pool_) pool_->exit_fds(out);
  }

  std::size_t queued() const noexcept { return queued_; }
  std::size_t clients() const noexcept { return clients_.size(); }
  std::size_t running() const noexcept { return running_.size(); }
  std::size_t leases() const noexcept { return leases_.size(); }
  std::size_t leases(const std::string& worker) const;
  std::uint64_t spawned() const noexcept { return spawned_; }  ///< Local attempts.
  double lease_timeout_s() const noexcept { return options_.lease_timeout_s; }
  bool idle() const noexcept { return queued_ + running() + leases() == 0; }

 private:
  /// A unit and its attempt record.  It lives in exactly one place: a
  /// client's FIFO, the running map or the lease table.
  struct Live {
    Unit unit;
    AttemptLedger ledger;
  };
  struct Queued {
    Live live;
    Clock::time_point due;
  };

  void enqueue(Live live, Clock::time_point due);
  std::optional<Live> pop_due(Clock::time_point now);
  Event finish(Live live, WorkerOutcome outcome, Clock::time_point now);
  Event apply(Live live, AttemptVerdict verdict);

  DispatcherOptions options_;
  std::optional<WorkerPool> pool_;
  /// Per-client FIFOs, served round robin from `next_client_`.
  std::vector<std::pair<std::string, std::deque<Queued>>> clients_;
  std::size_t next_client_ = 0;
  std::size_t queued_ = 0;
  std::unordered_map<std::uint64_t, Live> running_;  ///< By pool ticket.
  std::map<std::string, std::pair<Lease, AttemptLedger>> leases_;  ///< By token.
  std::uint64_t next_lease_ = 1;
  std::uint64_t spawned_ = 0;
  std::optional<Clock::time_point> drain_deadline_;  ///< Set: draining.
};

}  // namespace feast::supervise
