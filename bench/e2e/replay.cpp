/// \file replay.cpp
/// \brief sched-replay: the policy-sweep pattern through BatchScheduler::run.
///
/// 128 graphs are generated and distributed once (PURE+CCNE) in set-up;
/// the timed loop replays them under {shared-bus, point-to-point} × P ∈
/// {2,4,8,16,32} × all 12 scheduler policy combinations on one thread, 24
/// passes, validating every schedule and taking its lateness in the sink.  No
/// distribution happens here, so a distributor change must not move it,
/// while any scheduler or validation change must.
#include <cstring>
#include <string>
#include <vector>

#include "common.hpp"
#include "experiment/figures.hpp"
#include "sched/batch.hpp"
#include "sched/lateness.hpp"
#include "sched/list_scheduler.hpp"
#include "sched/schedule_validate.hpp"
#include "util/rng.hpp"

namespace e2e {

namespace {

using namespace feast;

struct Config {
  Machine machine;
  SchedulerOptions options;
};

/// Contention model, then processor count, then the 12 policy combinations
/// innermost — one batch replayed under every policy, as a sweep does.
std::vector<Config> configs(const Options& options) {
  const std::vector<int> procs =
      options.smoke ? std::vector<int>{2, 8} : std::vector<int>{2, 4, 8, 16, 32};
  std::vector<Config> out;
  for (const CommContention contention :
       {CommContention::SharedBus, CommContention::PointToPointLinks}) {
    for (const int p : procs) {
      for (const ReleasePolicy release :
           {ReleasePolicy::TimeDriven, ReleasePolicy::Eager}) {
        for (const SelectionPolicy selection :
             {SelectionPolicy::Edf, SelectionPolicy::Fifo,
              SelectionPolicy::StaticLaxity}) {
          for (const ProcessorPolicy processor :
               {ProcessorPolicy::GapSearch, ProcessorPolicy::QueueAtEnd}) {
            Config c;
            c.machine.n_procs = p;
            c.machine.contention = contention;
            c.options = {release, selection, processor};
            out.push_back(c);
          }
        }
      }
    }
  }
  return out;
}

/// The replayed batch: graphs and their PURE+CCNE assignments.
struct Batch {
  std::vector<TaskGraph> graphs;
  std::vector<DeadlineAssignment> assignments;
  std::vector<const TaskGraph*> graph_ptrs;
  std::vector<const DeadlineAssignment*> assignment_ptrs;
};

Batch make_batch(const Options& options) {
  const std::size_t n = options.smoke ? 8 : 128;
  const RandomGraphConfig workload = paper_workload(ExecSpreadScenario::MDET);
  const Strategy strategy = strategy_pure(EstimatorKind::CCNE);
  Batch batch;
  batch.graphs.reserve(n);
  batch.assignments.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    Pcg32 rng(seed_for(options.seed, {0, i}), /*stream=*/i);
    batch.graphs.push_back(generate_random_graph(workload, rng));
    batch.assignments.push_back(strategy.make(2)->distribute(batch.graphs.back()));
  }
  for (std::size_t i = 0; i < n; ++i) {
    batch.graph_ptrs.push_back(&batch.graphs[i]);
    batch.assignment_ptrs.push_back(&batch.assignments[i]);
  }
  return batch;
}

/// The lateness of one sampled schedule, kept for the reference check.
struct Probe {
  std::size_t config = 0;
  std::size_t graph = 0;
  LatenessStats lateness;
  Time end_to_end = 0.0;
};

bool same_bits(Time a, Time b) { return std::memcmp(&a, &b, sizeof a) == 0; }

/// Every 64th schedule's lateness must equal the reference core's, bit
/// for bit.
void check_probes(const Batch& batch, const std::vector<Config>& cfgs,
                  const std::vector<Probe>& probes, Outcome& out) {
  for (const Probe& p : probes) {
    const Config& c = cfgs[p.config];
    const TaskGraph& graph = batch.graphs[p.graph];
    const DeadlineAssignment& assignment = batch.assignments[p.graph];
    const Schedule ref = list_schedule_ref(graph, assignment, c.machine, c.options);
    const LatenessStats l = computation_lateness(graph, assignment, ref);
    if (!same_bits(l.max_lateness, p.lateness.max_lateness) ||
        !same_bits(l.mean_lateness, p.lateness.mean_lateness) ||
        l.missed != p.lateness.missed || l.count != p.lateness.count ||
        !same_bits(end_to_end_lateness(graph, ref), p.end_to_end)) {
      out.fail("sched-replay: lateness differs from list_schedule_ref (config " +
               std::to_string(p.config) + ", graph " + std::to_string(p.graph) + ")");
    }
  }
}

/// One BatchScheduler::run with validation and lateness in the sink.
/// Optional spans: "schedule" covers the gap between sink calls, which is
/// where run() places the next graph.
void replay(BatchScheduler& scheduler, const Batch& batch, const Config& c,
            std::size_t config_index, std::uint64_t& counter, std::vector<Probe>* probes,
            Outcome& out, Tracer* tracer) {
  Scope batch_span(tracer, "batch", config_index + 1, to_string(c.machine.contention));
  std::uint64_t mark = tracer != nullptr ? tracer->now_ns() : 0;
  scheduler.run(
      batch.graph_ptrs.data(), batch.assignment_ptrs.data(), batch.graphs.size(),
      c.machine, c.options, [&](std::size_t i, const Schedule& schedule) {
        if (tracer != nullptr) {
          Tracer::Span s;
          s.name = "schedule";
          s.start_ns = mark;
          s.end_ns = tracer->now_ns();
          s.serial = tracer->next_serial();
          s.parent = batch_span.serial();
          s.id = config_index + 1;
          tracer->record(s);
        }
        const TaskGraph& graph = *batch.graph_ptrs[i];
        const DeadlineAssignment& assignment = *batch.assignment_ptrs[i];
        ++out.attempted;
        {
          Scope s(tracer, "validate_schedule", config_index + 1);
          const ScheduleReport report =
              validate_schedule(graph, assignment, c.machine, schedule, c.options);
          if (!report.ok()) {
            out.fail("sched-replay: invalid schedule: " + report.to_string());
          }
        }
        Probe p;
        {
          Scope s(tracer, "lateness", config_index + 1);
          p.lateness = computation_lateness(graph, assignment, schedule);
          p.end_to_end = end_to_end_lateness(graph, schedule);
        }
        if (probes != nullptr && counter % 64 == 0) {
          p.config = config_index;
          p.graph = i;
          probes->push_back(p);
        }
        ++counter;
        if (tracer != nullptr) mark = tracer->now_ns();
      });
}

Outcome untraced(const Options& options) {
  Outcome out;
  std::vector<double> setups;
  Batch batch;
  for (int i = 0; i < options.setup_runs(); ++i) {
    const double speed = machine_speed();
    const auto t0 = Clock::now();
    batch = make_batch(options);
    setups.push_back(seconds_since(t0) * speed);
  }
  const std::vector<Config> cfgs = configs(options);

  BatchScheduler scheduler;
  std::vector<Probe> probes;
  std::vector<double> latency_ms;
  Slices passes;  // One slice per pass over the configs.
  std::uint64_t schedules = 0;
  for (int pass = 0; pass < options.size(24, 2); ++pass) {
    const double speed = machine_speed();
    const double cpu_before = cpu_self_s();
    const auto pass_started = Clock::now();
    const std::uint64_t first = schedules;
    for (std::size_t ci = 0; ci < cfgs.size(); ++ci) {
      const auto t0 = Clock::now();
      replay(scheduler, batch, cfgs[ci], ci, schedules, pass == 0 ? &probes : nullptr,
             out, nullptr);
      latency_ms.push_back(seconds_since(t0) * 1e3 * speed);
    }
    passes.add(static_cast<double>(schedules - first), seconds_since(pass_started),
               cpu_self_s() - cpu_before, speed);
  }
  check_probes(batch, cfgs, probes, out);

  passes.report(out);
  out.set("latency_p50_ms", quantile_of(latency_ms, 0.50));
  out.set("latency_tail_ms", quantile_of(latency_ms, 0.95));
  out.set("peak_rss_mb", peak_rss_mb());
  out.set("setup_s", quantile_of(setups, 0.5));
  out.notes.push_back("work = schedules, over " + std::to_string(passes.count) +
                      " passes; latency = per BatchScheduler::run call, tail = p95 of " +
                      std::to_string(latency_ms.size()) + " calls; " +
                      std::to_string(probes.size()) +
                      " schedules checked against the reference core");
  return out;
}

Outcome traced(const Options& options) {
  Outcome out;
  const Batch batch = make_batch(options);
  const std::vector<Config> cfgs = configs(options);
  BatchScheduler scheduler;
  Tracer tracer;
  std::vector<Probe> probes;
  std::uint64_t traced_count = 0;
  std::uint64_t untraced_count = 0;

  // Each config replays untraced and traced back to back, in alternating
  // order (the first run of a config also fills the scheduler's caches).
  double batch_ms[2] = {0.0, 0.0};  // Untraced, by contention model.
  double untraced_s = 0.0;
  double traced_s = 0.0;
  for (std::size_t ci = 0; ci < cfgs.size(); ++ci) {
    for (const bool traced : {ci % 2 == 1, ci % 2 == 0}) {
      const auto started = Clock::now();
      if (traced) {
        replay(scheduler, batch, cfgs[ci], ci, traced_count, &probes, out, &tracer);
        traced_s += seconds_since(started);
      } else {
        replay(scheduler, batch, cfgs[ci], ci, untraced_count, nullptr, out, nullptr);
        const double s = seconds_since(started);
        const bool bus = cfgs[ci].machine.contention == CommContention::SharedBus;
        untraced_s += s;
        batch_ms[bus ? 0 : 1] += s * 1e3;
      }
    }
  }
  check_probes(batch, cfgs, probes, out);
  set_trace_overhead(out, untraced_s, traced_s);

  const auto stats = tracer.summarize();
  const auto total = [&](const char* name) {
    const auto it = stats.find(name);
    return it == stats.end() ? 0.0 : it->second.total_ms;
  };
  const double traced_batch_ms = total("batch");
  out.set("sched.schedule_ms", total("schedule"));
  out.set("sched.schedule_us_p50", quantile_of(stats.at("schedule").durations_us, 0.5));
  out.set("sched.validate_ms", total("validate_schedule"));
  out.set("sched.validate_share", total("validate_schedule") / traced_batch_ms);
  out.set("sched.lateness_ms", total("lateness"));
  out.set("sched.batch_ms", batch_ms[0] + batch_ms[1]);
  out.set("sched.batch_ms.shared-bus", batch_ms[0]);
  out.set("sched.batch_ms.point-to-point", batch_ms[1]);
  out.layers_json = layers_json(stats, traced_batch_ms);
  out.notes.push_back("one pass: " + std::to_string(cfgs.size()) +
                      " BatchScheduler::run calls x " +
                      std::to_string(batch.graphs.size()) + " graphs; " +
                      std::to_string(probes.size()) + " schedules checked");
  maybe_write_trace(options, tracer);
  return out;
}

}  // namespace

Outcome run_sched_replay(const Options& options) {
  return options.trace ? traced(options) : untraced(options);
}

}  // namespace e2e
