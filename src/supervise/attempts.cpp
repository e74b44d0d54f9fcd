#include "supervise/attempts.hpp"

#include <cstdlib>
#include <utility>

#include "obs/obs.hpp"

namespace feast::supervise {

std::string AttemptLedger::start(const std::string& inject) {
  ++attempts_;
  const std::size_t at = inject.find('@');
  if (at == std::string::npos) return inject;
  // `@N` (validate_inject: an integer >= 1) poisons attempt N alone.
  return std::strtol(inject.c_str() + at + 1, nullptr, 10) == attempts_
             ? inject.substr(0, at)
             : std::string();
}

AttemptVerdict AttemptLedger::fail(ErrorKind kind, std::string error,
                                   Clock::time_point now) {
  AttemptVerdict verdict{AttemptVerdict::Action::Quarantine, attempts_, 0.0,
                         now, kind, std::move(error)};
  if (attempts_ >= policy_.max_attempts) {
    obs::count(obs::Counter::SuperviseQuarantine);
    return verdict;
  }
  verdict.action = AttemptVerdict::Action::Retry;
  verdict.delay_ms = backoff_delay_ms(policy_.backoff, cell_, attempts_);
  verdict.due += std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double, std::milli>(verdict.delay_ms));
  obs::count(obs::Counter::SuperviseRetry);
  return verdict;
}

AttemptVerdict AttemptLedger::lost(const std::string& worker,
                                   const std::string& why) {
  release();
  dead_workers_.insert(worker);
  const int deaths = static_cast<int>(dead_workers_.size());
  if (deaths < policy_.poison_deaths) {
    return {AttemptVerdict::Action::Requeue, attempts_, 0.0, Clock::now(),
            ErrorKind::None, why};
  }
  obs::count(obs::Counter::SuperviseQuarantine);
  return {AttemptVerdict::Action::Quarantine, attempts_, 0.0, Clock::now(),
          ErrorKind::Net,
          "cross-worker poison: " + std::to_string(deaths) +
              " distinct workers lost while running this cell (last '" +
              worker + "': " + why + ")"};
}

void AttemptLedger::release() {
  if (attempts_ > 0) --attempts_;
}

void record_success(CellOutcome& cell, const ShardResult& shard, int attempts) {
  cell.state = shard.from_cache ? CellState::Cached : CellState::Computed;
  cell.stats = shard.stats;
  cell.wall_ms = shard.wall_ms;
  cell.attempts = attempts;
  cell.error.clear();
  cell.error_kind.clear();
}

void record_quarantine(CellOutcome& cell, int attempts, ErrorKind kind,
                       std::string error) {
  cell.state = CellState::Quarantined;
  cell.attempts = attempts;
  cell.error = std::move(error);
  cell.error_kind = to_string(kind);
}

}  // namespace feast::supervise
