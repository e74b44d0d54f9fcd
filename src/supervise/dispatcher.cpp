#include "supervise/dispatcher.hpp"

#include <algorithm>
#include <exception>
#include <iterator>

namespace feast::supervise {

namespace {

Dispatcher::Clock::duration seconds(double s) {
  return std::chrono::duration_cast<Dispatcher::Clock::duration>(
      std::chrono::duration<double>(s));
}

Dispatcher::Event event_of(Dispatcher::Event::Kind kind, const Dispatcher::Unit& unit,
                           const AttemptLedger& ledger) {
  Dispatcher::Event event;
  event.kind = kind;
  event.key = unit.key;
  event.cell = unit.cell;
  event.attempts = ledger.attempts();
  return event;
}

}  // namespace

Dispatcher::Dispatcher(DispatcherOptions options) : options_(std::move(options)) {
  if (options_.pool.slots > 0) pool_.emplace(options_.pool);
  if (options_.lease_timeout_s <= 0.0) {
    // A remote runs the same exec-cell under the same watchdog.
    const WorkerPoolOptions& pool = options_.pool;
    options_.lease_timeout_s =
        pool.cell_timeout_s > 0.0 ? pool.cell_timeout_s + pool.term_grace_s + 5.0 : 60.0;
  }
}

void Dispatcher::add(Unit unit) {
  const AttemptLedger ledger(options_.policy, unit.cell);
  enqueue({std::move(unit), ledger}, Clock::time_point{});
}

void Dispatcher::enqueue(Live live, Clock::time_point due) {
  auto client = std::find_if(clients_.begin(), clients_.end(), [&](const auto& c) {
    return c.first == live.unit.client;
  });
  if (client == clients_.end()) {
    client = clients_.emplace(clients_.end(), live.unit.client, std::deque<Queued>());
  }
  client->second.push_back({std::move(live), due});
  ++queued_;
}

std::optional<Dispatcher::Live> Dispatcher::pop_due(Clock::time_point now) {
  for (std::size_t n = clients_.size(); n > 0; --n) {
    if (next_client_ >= clients_.size()) next_client_ = 0;
    std::deque<Queued>& fifo = clients_[next_client_].second;
    const auto due = std::find_if(fifo.begin(), fifo.end(),
                                  [&](const Queued& q) { return q.due <= now; });
    if (due == fifo.end()) {
      ++next_client_;
      continue;
    }
    Live live = std::move(due->live);
    fifo.erase(due);
    --queued_;
    // A drained client leaves the rotation (the cursor then already points
    // at the next one).
    if (fifo.empty()) {
      clients_.erase(clients_.begin() + static_cast<std::ptrdiff_t>(next_client_));
    } else {
      ++next_client_;
    }
    return live;
  }
  return std::nullopt;
}

std::vector<Dispatcher::Event> Dispatcher::step(Clock::time_point now) {
  std::vector<Event> events;
  if (pool_) {
    for (WorkerOutcome& outcome : pool_->poll()) {
      auto node = running_.extract(outcome.ticket);
      if (node) events.push_back(finish(std::move(node.mapped()), std::move(outcome), now));
    }
    while (pool_->free_slots() > 0) {
      std::optional<Live> live = pop_due(now);
      if (!live) break;
      try {
        const std::uint64_t ticket =
            pool_->submit(live->unit.spec_path, live->unit.cell,
                          live->ledger.start(live->unit.inject), live->unit.faults);
        running_.emplace(ticket, std::move(*live));
        ++spawned_;
      } catch (const std::exception& e) {
        WorkerOutcome failed;
        failed.kind = ErrorKind::Io;
        failed.error = e.what();
        events.push_back(finish(std::move(*live), std::move(failed), now));
      }
    }
    // Past the drain grace: kill the stragglers and leave their units
    // unfinished — their attempts are never charged.
    if (drain_deadline_ && now >= *drain_deadline_) kill_all(/*grace_s=*/1.0);
  }
  // A worker past a lease deadline is dead, partitioned or hopelessly slow
  // — indistinguishable from here, so all three count as lost.
  std::vector<std::string> expired;
  for (const auto& [token, held] : leases_) {
    if (now >= held.first.deadline) expired.push_back(held.first.worker);
  }
  for (const std::string& worker : expired) {
    std::vector<Event> requeued = lost(worker, "lease deadline missed");
    std::move(requeued.begin(), requeued.end(), std::back_inserter(events));
  }
  return events;
}

std::optional<Dispatcher::Lease> Dispatcher::lease(const std::string& worker,
                                                   const std::string& name,
                                                   Clock::time_point now) {
  std::optional<Live> live = pop_due(now);
  if (!live) return std::nullopt;
  std::string token = "L" + std::to_string(next_lease_++);
  std::string inject = live->ledger.start(live->unit.inject);
  Lease lease{token, std::move(live->unit), std::move(inject), worker, name,
              now + seconds(options_.lease_timeout_s)};
  return leases_.emplace(std::move(token), std::pair(std::move(lease), live->ledger))
      .first->second.first;
}

const Dispatcher::Lease* Dispatcher::leased(const std::string& token,
                                            const std::string& worker) const {
  const auto it = leases_.find(token);
  if (it == leases_.end() || it->second.first.worker != worker) return nullptr;
  return &it->second.first;
}

std::optional<Dispatcher::Event> Dispatcher::settle(const std::string& token,
                                                    WorkerOutcome outcome,
                                                    Clock::time_point now) {
  auto node = leases_.extract(token);
  if (!node) return std::nullopt;
  auto& [lease, ledger] = node.mapped();
  return finish({std::move(lease.unit), ledger}, std::move(outcome), now);
}

std::vector<Dispatcher::Event> Dispatcher::lost(const std::string& worker,
                                                const std::string& why) {
  std::vector<Event> events;
  for (auto it = leases_.begin(); it != leases_.end();) {
    auto& [lease, ledger] = it->second;
    if (lease.worker != worker) {
      ++it;
      continue;
    }
    AttemptVerdict verdict = ledger.lost(lease.name, why);
    events.push_back(apply({std::move(lease.unit), ledger}, std::move(verdict)));
    events.back().worker = worker;
    it = leases_.erase(it);
  }
  return events;
}

std::vector<Dispatcher::Event> Dispatcher::drain(double grace_s) {
  drain_deadline_ = Clock::now() + seconds(grace_s);
  std::vector<Event> events;
  for (const auto& [client, fifo] : clients_) {
    for (const Queued& queued : fifo) {
      events.push_back(event_of(Event::Kind::Released, queued.live.unit, queued.live.ledger));
    }
  }
  clients_.clear();
  queued_ = 0;
  for (auto& [token, held] : leases_) {
    held.second.release();
    events.push_back(event_of(Event::Kind::Released, held.first.unit, held.second));
  }
  leases_.clear();
  return events;
}

void Dispatcher::kill_all(double grace_s) {
  if (pool_) pool_->kill_all(grace_s);
  running_.clear();
}

std::size_t Dispatcher::leases(const std::string& worker) const {
  return static_cast<std::size_t>(std::count_if(
      leases_.begin(), leases_.end(),
      [&](const auto& held) { return held.second.first.worker == worker; }));
}

Dispatcher::Event Dispatcher::finish(Live live, WorkerOutcome outcome,
                                     Clock::time_point now) {
  if (outcome.ok()) {
    Event event = event_of(Event::Kind::Done, live.unit, live.ledger);
    event.shard = std::move(outcome.shard);
    return event;
  }
  if (drain_deadline_) {
    live.ledger.release();
    return event_of(Event::Kind::Released, live.unit, live.ledger);
  }
  AttemptVerdict verdict = live.ledger.fail(outcome.kind, std::move(outcome.error), now);
  return apply(std::move(live), std::move(verdict));
}

Dispatcher::Event Dispatcher::apply(Live live, AttemptVerdict verdict) {
  using Action = AttemptVerdict::Action;
  Event event = event_of(verdict.action == Action::Retry     ? Event::Kind::Retry
                         : verdict.action == Action::Requeue ? Event::Kind::Requeued
                                                             : Event::Kind::Quarantined,
                         live.unit, live.ledger);
  event.error_kind = verdict.kind;
  event.error = std::move(verdict.error);
  event.delay_ms = verdict.delay_ms;
  if (!verdict.quarantined()) enqueue(std::move(live), verdict.due);
  return event;
}

}  // namespace feast::supervise
