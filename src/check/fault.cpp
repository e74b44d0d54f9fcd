#include "check/fault.hpp"

#include <cstdlib>
#include <stdexcept>

#include "util/flags.hpp"
#include "util/strings.hpp"

namespace feast::check {

namespace {

std::atomic<FaultPlan*> g_active{nullptr};

struct SiteName {
  FaultSite site;
  const char* name;
};
constexpr SiteName kSiteNames[] = {
    {FaultSite::PoolTask, "pool-task"},
    {FaultSite::CacheLookup, "cache-lookup"},
    {FaultSite::CacheStore, "cache-store"},
    {FaultSite::ManifestWrite, "manifest-write"},
    {FaultSite::SuperviseSpawn, "supervise-spawn"},
    {FaultSite::SuperviseHeartbeat, "supervise-heartbeat"},
    {FaultSite::ServeClientDisconnect, "serve-client-disconnect"},
    {FaultSite::ServeSlowLoris, "serve-slow-loris"},
    {FaultSite::ExactSolve, "exact-solve"},
    {FaultSite::NetConnect, "net-connect"},
    {FaultSite::NetSend, "net-send"},
    {FaultSite::NetRecv, "net-recv"},
    {FaultSite::WorkerResultDup, "worker-result-dup"},
    {FaultSite::WorkerReconnect, "worker-reconnect"},
};
static_assert(std::size(kSiteNames) == kFaultSiteCount);

struct ActionName {
  FaultAction action;
  const char* name;
};
constexpr ActionName kActionNames[] = {
    {FaultAction::Throw, "throw"},
    {FaultAction::Die, "die"},
    {FaultAction::Truncate, "truncate"},
    {FaultAction::BadMagic, "bad-magic"},
    {FaultAction::ShortRead, "short-read"},
    {FaultAction::FailWrite, "fail-write"},
    {FaultAction::PartialWrite, "partial-write"},
    {FaultAction::Stall, "stall"},
};

FaultSite parse_site(const std::string& token) {
  for (const SiteName& s : kSiteNames) {
    if (token == s.name) return s.site;
  }
  throw std::invalid_argument("unknown fault site: '" + token + "'");
}

FaultAction parse_action(const std::string& token) {
  for (const ActionName& a : kActionNames) {
    if (token == a.name) return a.action;
  }
  throw std::invalid_argument("unknown fault action: '" + token + "'");
}

}  // namespace

const char* to_string(FaultSite site) noexcept {
  for (const SiteName& s : kSiteNames) {
    if (site == s.site) return s.name;
  }
  return "?";
}

const char* to_string(FaultAction action) noexcept {
  for (const ActionName& a : kActionNames) {
    if (action == a.action) return a.name;
  }
  return "?";
}

FaultPlan::FaultPlan(const std::string& spec) {
  for (const std::string& rule : split(spec, ',')) {
    const std::string trimmed = trim(rule);
    if (trimmed.empty()) continue;
    const std::vector<std::string> parts = split(trimmed, ':');
    if (parts.size() != 3) {
      throw std::invalid_argument("fault rule must be site:nth:action, got '" +
                                  trimmed + "'");
    }
    const FaultSite site = parse_site(trim(parts[0]));
    const FaultAction action = parse_action(trim(parts[2]));
    const std::uint64_t nth = parse_u64("fault rule occurrence", trim(parts[1]));
    if (nth == 0) {
      throw std::invalid_argument("fault rule occurrence is 1-based, got 0 in '" +
                                  trimmed + "'");
    }
    arm(site, nth, action);
  }
}

void FaultPlan::arm(FaultSite site, std::uint64_t nth, FaultAction action) {
  rules_.push_back(Rule{site, nth, action});
}

std::optional<FaultAction> FaultPlan::fire(FaultSite site) noexcept {
  const auto index = static_cast<std::size_t>(site);
  const std::uint64_t occurrence =
      counts_[index].fetch_add(1, std::memory_order_relaxed) + 1;
  for (const Rule& rule : rules_) {
    if (rule.site == site && rule.nth == occurrence) return rule.action;
  }
  return std::nullopt;
}

std::uint64_t FaultPlan::occurrences(FaultSite site) const noexcept {
  return counts_[static_cast<std::size_t>(site)].load(std::memory_order_relaxed);
}

std::string FaultPlan::to_spec() const {
  std::string spec;
  for (const Rule& rule : rules_) {
    if (!spec.empty()) spec += ',';
    spec += to_string(rule.site);
    spec += ':';
    spec += std::to_string(rule.nth);
    spec += ':';
    spec += to_string(rule.action);
  }
  return spec;
}

FaultPlan* active() noexcept {
  return g_active.load(std::memory_order_acquire);
}

ScopedFaultPlan::ScopedFaultPlan(FaultPlan* plan) noexcept
    : previous_(nullptr), installed_(plan != nullptr) {
  if (installed_) previous_ = g_active.exchange(plan, std::memory_order_acq_rel);
}

ScopedFaultPlan::~ScopedFaultPlan() {
  if (installed_) g_active.store(previous_, std::memory_order_release);
}

std::optional<FaultAction> fire(FaultSite site) noexcept {
  FaultPlan* const plan = g_active.load(std::memory_order_acquire);
  if (plan == nullptr) return std::nullopt;
  return plan->fire(site);
}

void execute(FaultAction action, const char* where) {
  if (action == FaultAction::Die) std::_Exit(kFaultExitCode);
  throw std::runtime_error(std::string("injected fault (") + to_string(action) +
                           ") at " + where);
}

}  // namespace feast::check
