/// \file test_dispatcher.cpp
/// \brief The dispatcher's queue and lease table without a process: a
///        remote-only (`pool.slots = 0`) Dispatcher driven through add,
///        lease, settle, lost, step and drain.  Pins the round-robin fair
///        order, due times that never block due work, the uncharged
///        requeue → `net` poison path of missed lease deadlines,
///        at-most-once settles, and the drain contract.  One test runs a
///        real `exec-cell` worker to pin that its exit wakes a poll() on
///        the dispatcher's exit fds.
#include <gtest/gtest.h>

#include <poll.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "supervise/dispatcher.hpp"

namespace feast::supervise {
namespace {

using namespace std::chrono_literals;
using Kind = Dispatcher::Event::Kind;

DispatcherOptions remote_only(double base_backoff_ms = 0.0) {
  DispatcherOptions options;
  options.policy.max_attempts = 3;
  options.policy.backoff = {base_backoff_ms, 10'000.0, 7};
  options.policy.poison_deaths = 2;
  options.pool.slots = 0;
  options.lease_timeout_s = 1.0;
  return options;
}

Dispatcher::Unit unit(const std::string& key, const std::string& client,
                      std::size_t cell = 0) {
  return {key, client, "spec.feast", cell, "", ""};
}

WorkerOutcome failure(ErrorKind kind) {
  WorkerOutcome outcome;
  outcome.kind = kind;
  outcome.error = "boom";
  return outcome;
}

WorkerOutcome success(std::size_t cell) {
  WorkerOutcome outcome;
  outcome.shard.cell_index = cell;
  return outcome;
}

/// Leases every due unit to one worker and returns their keys in order.
std::vector<std::string> lease_all(Dispatcher& dispatcher,
                                   Dispatcher::Clock::time_point now) {
  std::vector<std::string> keys;
  while (const std::optional<Dispatcher::Lease> lease =
             dispatcher.lease("w1", "alpha", now)) {
    keys.push_back(lease->unit.key);
  }
  return keys;
}

TEST(Dispatcher, DrainsTwoClientsRoundRobin) {
  Dispatcher dispatcher(remote_only());
  for (const char* key : {"a1", "a2", "a3"}) dispatcher.add(unit(key, "bulk"));
  for (const char* key : {"b1", "b2"}) dispatcher.add(unit(key, "interactive"));
  EXPECT_EQ(dispatcher.queued(), 5u);
  EXPECT_EQ(dispatcher.clients(), 2u);

  const std::vector<std::string> order =
      lease_all(dispatcher, Dispatcher::Clock::now());
  EXPECT_EQ(order, (std::vector<std::string>{"a1", "b1", "a2", "b2", "a3"}));
  EXPECT_EQ(dispatcher.queued(), 0u);
  EXPECT_EQ(dispatcher.clients(), 0u);  // Drained clients leave the rotation.
  EXPECT_EQ(dispatcher.leases(), 5u);
  EXPECT_EQ(dispatcher.leases("w1"), 5u);
  EXPECT_EQ(dispatcher.leases("w2"), 0u);
}

TEST(Dispatcher, RetryNotYetDueDoesNotBlockDueEntryBehindIt) {
  Dispatcher dispatcher(remote_only(/*base_backoff_ms=*/1'000.0));
  const auto t0 = Dispatcher::Clock::now();
  dispatcher.add(unit("first", "c"));
  const std::optional<Dispatcher::Lease> lease = dispatcher.lease("w1", "alpha", t0);
  ASSERT_TRUE(lease.has_value());

  const std::optional<Dispatcher::Event> retry =
      dispatcher.settle(lease->token, failure(ErrorKind::Crash), t0);
  ASSERT_TRUE(retry.has_value());
  EXPECT_EQ(retry->kind, Kind::Retry);
  EXPECT_EQ(retry->attempts, 1);
  EXPECT_EQ(retry->error_kind, ErrorKind::Crash);
  EXPECT_GE(retry->delay_ms, 750.0);  // base · jitter in [0.75, 1.25).

  // "second" queues behind the parked retry and still goes first.
  dispatcher.add(unit("second", "c"));
  EXPECT_EQ(lease_all(dispatcher, t0), std::vector<std::string>{"second"});
  EXPECT_EQ(dispatcher.queued(), 1u);
  EXPECT_EQ(lease_all(dispatcher, t0 + 2s), std::vector<std::string>{"first"});
}

TEST(Dispatcher, MissedLeaseDeadlineRequeuesUnchargedThenQuarantinesAsNet) {
  Dispatcher dispatcher(remote_only());
  auto now = Dispatcher::Clock::now();
  dispatcher.add(unit("cell", "c", 4));

  // The same name dying twice is one death: poison counts distinct names.
  const std::pair<const char*, const char*> holders[] = {
      {"w1", "alpha"}, {"w2", "alpha"}, {"w3", "beta"}};
  for (const auto& [worker, name] : holders) {
    SCOPED_TRACE(worker);
    const std::optional<Dispatcher::Lease> lease = dispatcher.lease(worker, name, now);
    ASSERT_TRUE(lease.has_value());
    EXPECT_EQ(lease->unit.cell, 4u);
    EXPECT_TRUE(dispatcher.step(now).empty());  // Deadline not reached yet.
    now += 2s;
    const std::vector<Dispatcher::Event> events = dispatcher.step(now);
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].key, "cell");
    EXPECT_EQ(events[0].worker, worker);
    EXPECT_EQ(events[0].attempts, 0);  // The lost attempt is uncharged.
    EXPECT_EQ(dispatcher.leases(), 0u);
    if (std::string(name) == "alpha") {
      EXPECT_EQ(events[0].kind, Kind::Requeued);
      EXPECT_EQ(events[0].error, "lease deadline missed");
      EXPECT_EQ(dispatcher.queued(), 1u);
    } else {
      EXPECT_EQ(events[0].kind, Kind::Quarantined);
      EXPECT_EQ(events[0].error_kind, ErrorKind::Net);
      EXPECT_NE(events[0].error.find("cross-worker poison"), std::string::npos);
      EXPECT_EQ(dispatcher.queued(), 0u);
    }
  }
  EXPECT_TRUE(dispatcher.idle());
}

TEST(Dispatcher, LostWorkerRequeuesEveryLeaseItHeld) {
  Dispatcher dispatcher(remote_only());
  dispatcher.add(unit("x", "c"));
  dispatcher.add(unit("y", "c"));
  const auto now = Dispatcher::Clock::now();
  ASSERT_TRUE(dispatcher.lease("w1", "alpha", now).has_value());
  ASSERT_TRUE(dispatcher.lease("w2", "beta", now).has_value());

  const std::vector<Dispatcher::Event> events = dispatcher.lost("w1", "replaced");
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, Kind::Requeued);
  EXPECT_EQ(events[0].key, "x");
  EXPECT_EQ(events[0].error, "replaced");
  EXPECT_EQ(dispatcher.leases(), 1u);
  EXPECT_TRUE(dispatcher.lost("w1", "again").empty());
}

TEST(Dispatcher, SettleIsAtMostOnce) {
  Dispatcher dispatcher(remote_only());
  dispatcher.add(unit("cell", "c", 2));
  EXPECT_FALSE(dispatcher.settle("L999", success(2)).has_value());

  const std::optional<Dispatcher::Lease> lease = dispatcher.lease("w1", "alpha");
  ASSERT_TRUE(lease.has_value());
  ASSERT_NE(dispatcher.leased(lease->token, "w1"), nullptr);
  EXPECT_EQ(dispatcher.leased(lease->token, "w2"), nullptr);  // Not its holder.

  const std::optional<Dispatcher::Event> done = dispatcher.settle(lease->token, success(2));
  ASSERT_TRUE(done.has_value());
  EXPECT_EQ(done->kind, Kind::Done);
  EXPECT_EQ(done->cell, 2u);
  EXPECT_EQ(done->attempts, 1);
  EXPECT_EQ(dispatcher.leased(lease->token, "w1"), nullptr);
  EXPECT_FALSE(dispatcher.settle(lease->token, success(2)).has_value());
  EXPECT_FALSE(dispatcher.settle(lease->token, failure(ErrorKind::Crash)).has_value());
  EXPECT_TRUE(dispatcher.idle());
}

TEST(Dispatcher, DrainReturnsTheQueueReleasesLeasesAndStopsRetrying) {
  Dispatcher dispatcher(remote_only());
  dispatcher.add(unit("leased", "c"));
  dispatcher.add(unit("queued", "c"));
  const std::optional<Dispatcher::Lease> lease = dispatcher.lease("w1", "alpha");
  ASSERT_TRUE(lease.has_value());
  EXPECT_EQ(lease->unit.key, "leased");

  std::vector<Dispatcher::Event> events = dispatcher.drain(/*grace_s=*/10.0);
  ASSERT_EQ(events.size(), 2u);
  for (const Dispatcher::Event& event : events) {
    EXPECT_EQ(event.kind, Kind::Released) << event.key;
    EXPECT_EQ(event.attempts, 0) << event.key;  // Released uncharged.
  }
  EXPECT_EQ(events[0].key, "queued");
  EXPECT_EQ(events[1].key, "leased");
  EXPECT_TRUE(dispatcher.idle());
  EXPECT_FALSE(dispatcher.settle(lease->token, success(0)).has_value());

  // Work that fails from now on is released, not retried.
  dispatcher.add(unit("late", "c"));
  const std::optional<Dispatcher::Lease> late = dispatcher.lease("w1", "alpha");
  ASSERT_TRUE(late.has_value());
  const std::optional<Dispatcher::Event> released =
      dispatcher.settle(late->token, failure(ErrorKind::Crash));
  ASSERT_TRUE(released.has_value());
  EXPECT_EQ(released->kind, Kind::Released);
  EXPECT_EQ(released->attempts, 0);
  EXPECT_TRUE(dispatcher.idle());
}

TEST(Dispatcher, WorkerExitWakesAPollOnItsExitFds) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() /
                       ("feast-dispatcher-wake-" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  const fs::path spec = dir / "spec.feast";
  std::ofstream(spec) << "name = wake\nsamples = 2\nseed = 7\n"
                      << "strategies = pure\nsizes = 2\n";

  DispatcherOptions options;
  options.policy.max_attempts = 1;
  options.pool.slots = 1;
  options.pool.feastc_path = FEAST_FEASTC_PATH;
  options.pool.no_cache = true;
  options.pool.work_dir = (dir / "work").string();
  Dispatcher dispatcher(options);
  dispatcher.add({"cell", "c", spec.string(), 0, "", ""});
  EXPECT_TRUE(dispatcher.step().empty());
  ASSERT_EQ(dispatcher.running(), 1u);

  std::vector<pollfd> fds;
  dispatcher.exit_fds(fds);
  if (fds.empty()) {
    dispatcher.kill_all(/*grace_s=*/1.0);
    fs::remove_all(dir);
    GTEST_SKIP() << "pidfd_open is unavailable here";
  }
  ASSERT_EQ(fds.size(), 1u);
  // The event, not a latency: a generous timeout cannot flake.
  EXPECT_EQ(::poll(fds.data(), fds.size(), 10'000), 1) << "timed out";
  EXPECT_NE(fds[0].revents & POLLIN, 0);

  const std::vector<Dispatcher::Event> events = dispatcher.step();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, Kind::Done) << events[0].error;
  EXPECT_TRUE(dispatcher.idle());
  fds.clear();
  dispatcher.exit_fds(fds);
  EXPECT_TRUE(fds.empty());
  fs::remove_all(dir);
}

}  // namespace
}  // namespace feast::supervise
