/// \file serve.cpp
/// \brief serve-mixed: the served request path against real processes.
///
/// `feastc serve --workers 2` plus one `feastc worker --connect` run as
/// subprocesses; four closed-loop client threads (each waits for its reply
/// before sending again, like `feastc submit`) drive /v1/cell.  Phase A,
/// 2,000 requests, alternates fresh cells, which cross accept → queue →
/// lease → spawn → exec → shard → settle, with repeats of already-settled
/// cells, which stop at dedup.  Phase B, 8,000 requests, repeats only, so
/// the read path is measured on its own.
#include <signal.h>
#include <sys/types.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "campaign/campaign.hpp"
#include "common.hpp"
#include "serve/client.hpp"
#include "supervise/subprocess.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace e2e {

namespace {

using namespace feast;
namespace fs = std::filesystem;
using supervise::Subprocess;

constexpr int kClients = 4;
const std::vector<std::string> kStrategies = {"pure", "pure:ccaa", "norm:ccaa", "thres",
                                              "adapt"};

/// Requests per client in phase A (half of them fresh) and phase B.
std::uint64_t phase_a_per_client(const Options& options) {
  return options.size(500u, 4u);
}
std::uint64_t phase_b_per_client(const Options& options) {
  return options.size(2000u, 8u);
}

/// Spec \p k of seed stream \p stream: 5 strategies × 4 sizes, 4 samples.
CampaignSpec fresh_spec(const Options& options, std::uint64_t stream, std::uint64_t k) {
  CampaignSpec spec;
  spec.name = "e2e-serve-" + std::to_string(k);
  spec.batch.samples = options.smoke ? 2 : 4;
  spec.batch.seed = seed_for(options.seed, {stream, k});
  spec.strategies = kStrategies;
  spec.sizes = {2, 4, 8, 16};
  return spec;
}

CampaignSpec parse_spec(const std::string& text) {
  std::istringstream in(text);
  return CampaignSpec::parse(in);
}

std::string request_body(const std::string& spec_text, std::size_t cell) {
  return "{\"spec\": \"" + json_escape(spec_text) + "\", \"cell\": " +
         std::to_string(cell) + "}";
}

serve::HttpReply post_cell(std::uint16_t port, const std::string& body,
                           const std::string& client) {
  return serve::http_request("127.0.0.1", port, "POST", "/v1/cell", body, client, 120.0);
}

/// A daemon and one remote worker as real subprocesses.  Stopping sends
/// SIGTERM (the daemon drains) and waits; the Subprocess destructor
/// SIGKILLs anything still alive.
class Fabric {
 public:
  Fabric(const Options& options, const fs::path& dir) : dir_(dir) {
    fs::create_directories(dir);
    supervise::SubprocessOptions log;
    log.stdout_path = (dir / "daemon.log").string();
    log.stderr_path = "+stdout";
    daemon_ = Subprocess::spawn({options.feastc, "serve", "--port", "0", "--workers", "2",
                                 "--work-dir", (dir / "work").string(), "--cache-dir",
                                 cache_dir(), "--quiet"},
                                log);
    port_ = wait_for_port(dir / "daemon.log");
    log.stdout_path = (dir / "worker.log").string();
    worker_ = Subprocess::spawn(
        {options.feastc, "worker", "--connect", "127.0.0.1:" + std::to_string(port_),
         "--name", "e2e-remote", "--work-dir", (dir / "worker").string(), "--cache-dir",
         cache_dir(), "--quiet"},
        log);
    const auto started = Clock::now();
    while (status().find("server")->find("remote_workers")->number < 1.0) {
      if (seconds_since(started) > 30.0) {
        throw std::runtime_error("the remote worker never registered");
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;
  ~Fabric() { stop(); }

  std::uint16_t port() const noexcept { return port_; }
  std::string cache_dir() const { return (dir_ / "cache").string(); }

  /// CPU seconds of the daemon and the worker, with the cells they reaped.
  double cpu_s() const {
    return cpu_of_pid_s(daemon_.pid()) + cpu_of_pid_s(worker_.pid());
  }

  JsonValue status() const {
    const serve::HttpReply reply =
        serve::http_request("127.0.0.1", port_, "GET", "/v1/status", "", "", 30.0);
    if (!reply.ok() || reply.status != 200) {
      throw std::runtime_error("/v1/status failed: " + reply.error);
    }
    return parse_json(reply.body);
  }

  void stop() {
    for (Subprocess* p : {&worker_, &daemon_}) {
      if (p->spawned() && !p->poll()) {
        p->send_signal(SIGTERM);
        if (!p->wait_for(20.0)) p->kill_and_reap(1.0);
      }
    }
  }

 private:
  std::uint16_t wait_for_port(const fs::path& log) {
    const std::string marker = "listening on ";
    const auto started = Clock::now();
    for (;;) {
      std::ifstream in(log);
      const std::string text((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
      const std::size_t at = text.find(marker);
      if (at != std::string::npos && text.find('\n', at) != std::string::npos) {
        return static_cast<std::uint16_t>(std::stoi(text.substr(at + marker.size())));
      }
      if (daemon_.poll() || seconds_since(started) > 30.0) {
        throw std::runtime_error("feastc serve did not start: " + text);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }

  fs::path dir_;
  Subprocess daemon_;
  Subprocess worker_;
  std::uint16_t port_ = 0;
};

/// A settled cell: the request that produced it and its reply body.
struct Settled {
  std::string request;
  std::string reply;
};

/// A fresh reply kept for the correctness check.
struct FreshReply {
  std::size_t spec = 0;
  std::size_t cell = 0;
  std::string body;
};

/// The load generator: the fresh-cell order, the pool of settled cells that
/// repeats draw from, and the client threads.
class Load {
 public:
  struct Phase {
    double wall_s = 0.0;
    std::uint64_t requests = 0;
    std::uint64_t failed = 0;
    std::vector<double> fresh_ms;  ///< Round trip from send.
    std::vector<double> exec_ms;   ///< The reply's wall_ms, aligned with fresh_ms.
    std::vector<double> repeat_ms;
    std::vector<std::string> problems;
  };

  /// Draws the fresh cells phase A sends: spec by spec, shuffled within
  /// each spec.
  Load(const Options& options, std::uint16_t port) : options_(options), port_(port) {
    const std::uint64_t fresh = kClients * phase_a_per_client(options) / 2;
    for (std::size_t k = 0; order_.size() < fresh; ++k) {
      const CampaignSpec spec = fresh_spec(options, 2, k);
      spec_texts_.push_back(spec.canonical_text());
      std::vector<std::size_t> cells(spec.cell_count());
      for (std::size_t i = 0; i < cells.size(); ++i) cells[i] = i;
      Pcg32 rng(seed_for(options.seed, {3, k}));
      rng.shuffle(cells);
      for (const std::size_t i : cells) order_.push_back({k, i});
    }
  }

  /// Settles \p count warm-up cells, so phase A starts with repeats to draw.
  void warm_up(std::size_t count) {
    const CampaignSpec spec = fresh_spec(options_, 4, 0);
    const std::string text = spec.canonical_text();
    for (std::size_t i = 0; i < count; ++i) {
      const std::string request = request_body(text, i % spec.cell_count());
      const serve::HttpReply reply = post_cell(port_, request, "e2e-setup");
      if (!reply.ok() || reply.status != 200) {
        throw std::runtime_error("warm-up cell failed: " + reply.error + reply.body);
      }
      settled_.push_back(std::make_shared<const Settled>(Settled{request, reply.body}));
    }
  }

  /// Each client sends \p per_client requests.  In a \p mixed phase a
  /// client's requests alternate fresh and repeat, fresh first; otherwise
  /// every request repeats a settled cell.  With a tracer, each request is
  /// a span "request/fresh" or "request/repeat" with its own id.
  Phase run(bool mixed, std::uint64_t per_client, Tracer* tracer = nullptr) {
    Phase phase;
    const std::uint64_t index = phases_++;
    const auto started = Clock::now();
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        Pcg32 rng(seed_for(options_.seed, {5, index, static_cast<std::uint64_t>(c)}));
        Phase local;
        try {
          client("e2e-client-" + std::to_string(c), rng, mixed, per_client, local,
                 tracer);
        } catch (const std::exception& e) {
          ++local.failed;
          local.problems.push_back(std::string("client stopped: ") + e.what());
        }
        merge(local, phase);
      });
    }
    for (std::thread& t : clients) t.join();
    phase.wall_s = seconds_since(started);
    return phase;
  }

  const std::vector<FreshReply>& checked() const noexcept { return checked_; }
  const std::string& spec_text(std::size_t k) const { return spec_texts_.at(k); }
  const Settled& settled(std::size_t i) const { return *settled_.at(i); }

 private:
  void client(const std::string& name, Pcg32& rng, bool mixed, std::uint64_t per_client,
              Phase& local, Tracer* tracer) {
    for (std::uint64_t sent = 0; sent < per_client; ++sent) {
      ++local.requests;
      const std::uint64_t id = requests_.fetch_add(1) + 1;
      if (mixed && sent % 2 == 0) {
        const std::uint64_t index = next_fresh_.fetch_add(1);
        if (index >= order_.size()) throw std::logic_error("out of fresh cells");
        const auto [k, cell] = order_[index];
        const std::string request = request_body(spec_texts_[k], cell);
        const auto t0 = Clock::now();
        const serve::HttpReply reply = [&] {
          Scope span(tracer, "request", id, "fresh");
          return post_cell(port_, request, name);
        }();
        const double rtt_ms = seconds_since(t0) * 1e3;
        if (!reply.ok() || reply.status != 200) {
          ++local.failed;
          local.problems.push_back("fresh cell failed: " + reply.error + reply.body);
          continue;
        }
        local.fresh_ms.push_back(rtt_ms);
        local.exec_ms.push_back(parse_json(reply.body).find("wall_ms")->number);
        std::lock_guard<std::mutex> lock(mutex_);
        settled_.push_back(std::make_shared<const Settled>(Settled{request, reply.body}));
        if (index % 16 == 0) checked_.push_back({k, cell, reply.body});
      } else {
        std::shared_ptr<const Settled> repeat;
        {
          std::lock_guard<std::mutex> lock(mutex_);
          repeat = settled_[rng.uniform_index(settled_.size())];
        }
        const auto t0 = Clock::now();
        const serve::HttpReply reply = [&] {
          Scope span(tracer, "request", id, "repeat");
          return post_cell(port_, repeat->request, name);
        }();
        local.repeat_ms.push_back(seconds_since(t0) * 1e3);
        if (!reply.ok() || reply.status != 200 || reply.body != repeat->reply) {
          ++local.failed;
          local.problems.push_back("repeat differs from its first reply: " + reply.error);
        }
      }
    }
  }

  void merge(const Phase& local, Phase& phase) {
    std::lock_guard<std::mutex> lock(mutex_);
    phase.requests += local.requests;
    phase.failed += local.failed;
    for (std::vector<double> Phase::*v :
         {&Phase::fresh_ms, &Phase::exec_ms, &Phase::repeat_ms}) {
      (phase.*v).insert((phase.*v).end(), (local.*v).begin(), (local.*v).end());
    }
    phase.problems.insert(phase.problems.end(), local.problems.begin(),
                          local.problems.end());
  }

  const Options& options_;
  std::uint16_t port_;
  std::vector<std::string> spec_texts_;
  std::vector<std::pair<std::size_t, std::size_t>> order_;  ///< (spec, cell).
  std::atomic<std::uint64_t> next_fresh_{0};
  std::atomic<std::uint64_t> requests_{0};
  std::uint64_t phases_ = 0;
  std::mutex mutex_;  ///< Guards settled_, checked_ and Phase merges.
  std::vector<std::shared_ptr<const Settled>> settled_;
  std::vector<FreshReply> checked_;
};

void absorb(const Load::Phase& phase, Outcome& out) {
  out.attempted += phase.requests;
  out.failed += phase.failed;
  out.problems.insert(out.problems.end(), phase.problems.begin(), phase.problems.end());
}

/// The stats of a /v1/cell reply, in CellStats form.
CellStats reply_stats(const std::string& body) {
  const JsonValue root = parse_json(body);
  const auto summary = [&](const char* name) {
    const std::vector<JsonValue>& a = root.find(name)->array;
    StatSummary s;
    s.count = static_cast<std::size_t>(a.at(0).number);
    s.mean = a.at(1).number;
    s.stddev = a.at(2).number;
    s.min = a.at(3).number;
    s.max = a.at(4).number;
    s.ci95_half_width = a.at(5).number;
    return s;
  };
  CellStats stats;
  stats.max_lateness = summary("max_lateness");
  stats.end_to_end = summary("end_to_end");
  stats.makespan = summary("makespan");
  stats.min_laxity = summary("min_laxity");
  stats.infeasible_runs = static_cast<std::size_t>(root.find("infeasible_runs")->number);
  return stats;
}

CellInput cell_input(const CampaignSpec& spec, std::size_t index) {
  const std::size_t strategy = index / spec.sizes.size();
  CellInput cell;
  cell.workload = spec.workload;
  cell.strategy = parse_strategy_spec(spec.strategies[strategy]);
  cell.tag = strategy_tag(spec.strategies[strategy]);
  cell.n_procs = spec.sizes[index % spec.sizes.size()];
  cell.batch = spec.batch;
  cell.context = spec.context;
  return cell;
}

/// Every 16th fresh reply must equal an in-process execute_campaign_cell of
/// the same cell.  Returns the checked cells, for a traced replay.
std::vector<CellInput> check_fresh(const Load& load, Outcome& out) {
  std::vector<CellInput> inputs;
  for (const FreshReply& r : load.checked()) {
    const CampaignSpec spec = parse_spec(load.spec_text(r.spec));
    inputs.push_back(cell_input(spec, r.cell));
    ++out.attempted;
    const ExecutedCell expected = execute_campaign_cell(
        spec, inputs.back().strategy, inputs.back().n_procs, /*cache=*/nullptr);
    if (!same_bits(reply_stats(r.body), expected.stats)) {
      out.fail("serve-mixed: reply differs from in-process execute_campaign_cell (spec " +
               std::to_string(r.spec) + ", cell " + std::to_string(r.cell) + ")");
    }
  }
  return inputs;
}

/// Set-up: start the daemon and the worker, wait for the registration,
/// and settle a few warm-up cells.
std::unique_ptr<Fabric> setup_once(const Options& options, int rep,
                                   std::unique_ptr<Load>& load) {
  auto fabric = std::make_unique<Fabric>(
      options, fs::path(options.work_dir) / ("fabric-" + std::to_string(rep)));
  load = std::make_unique<Load>(options, fabric->port());
  load->warm_up(options.smoke ? 2 : 8);
  return fabric;
}

Outcome untraced(const Options& options) {
  Outcome out;
  std::vector<double> setups;
  std::unique_ptr<Fabric> fabric;
  std::unique_ptr<Load> load;
  for (int i = 0; i < options.setup_runs(); ++i) {
    if (fabric) fabric->stop();
    const double speed = machine_speed();
    const auto t0 = Clock::now();
    fabric = setup_once(options, i, load);
    setups.push_back(seconds_since(t0) * speed);
  }

  // Phase A in slices of 20 requests per client (the clients rejoin between
  // slices), so each is scaled by the machine speed measured just before
  // it.  Phase B feeds only per-layer metrics, measured by the traced run;
  // here it is checked.
  Slices slices;
  std::vector<double> fresh_ms;
  const std::uint64_t per_slice = options.size(20u, 2u);
  const std::uint64_t slice_count = phase_a_per_client(options) / per_slice;
  for (std::uint64_t i = 0; i < slice_count; ++i) {
    const double speed = machine_speed();
    const double cpu_before = cpu_self_s() + fabric->cpu_s();
    const Load::Phase a = load->run(true, per_slice);
    slices.add(static_cast<double>(a.fresh_ms.size()), a.wall_s,
               cpu_self_s() + fabric->cpu_s() - cpu_before, speed);
    for (const double ms : a.fresh_ms) fresh_ms.push_back(ms * speed);
    absorb(a, out);
  }
  absorb(load->run(false, phase_b_per_client(options)), out);
  fabric->stop();
  check_fresh(*load, out);

  slices.report(out);
  out.set("latency_p50_ms", quantile_of(fresh_ms, 0.50));
  out.set("latency_tail_ms", quantile_of(fresh_ms, 0.90));
  // The system's memory, not the load generator's: the daemons, the remote
  // workers and the cell workers they ran, all reaped by now.
  out.set("peak_rss_mb", children_peak_rss_mb());
  out.set("setup_s", quantile_of(setups, 0.5));
  out.notes.push_back("work = fresh cells, over " + std::to_string(slice_count) +
                      " slices of phase A; latency = per fresh /v1/cell request from "
                      "send, tail = p90 of " +
                      std::to_string(fresh_ms.size()) + " requests");
  return out;
}

Outcome traced(const Options& options) {
  Outcome out;
  std::unique_ptr<Load> load;
  const std::unique_ptr<Fabric> fabric = setup_once(options, 0, load);

  Tracer requests;
  const JsonValue before = fabric->status();
  const Load::Phase a = load->run(true, phase_a_per_client(options), &requests);
  const Load::Phase b = load->run(false, phase_b_per_client(options), &requests);
  const JsonValue after = fabric->status();
  absorb(a, out);
  absorb(b, out);

  // A bare worker on a settled, so cached, warm-up cell: the same floor the
  // campaign workload measures.
  const fs::path spec_path = fs::path(options.work_dir) / "bare.spec";
  std::vector<double> bare_ms;
  for (std::size_t i = 0; i < (options.smoke ? 3u : 20u); ++i) {
    const JsonValue request = parse_json(load->settled(i % 2).request);
    std::ofstream(spec_path, std::ios::binary | std::ios::trunc)
        << request.find("spec")->string;
    const auto t0 = Clock::now();
    const supervise::ExitStatus status = supervise::run_command(
        {options.feastc, "campaign", "exec-cell", spec_path.string(), "--cell",
         std::to_string(static_cast<long long>(request.find("cell")->number)), "--out",
         (fs::path(options.work_dir) / "bare.result").string(), "--threads", "1",
         "--cache-dir", fabric->cache_dir()},
        {}, 60.0);
    bare_ms.push_back(seconds_since(t0) * 1e3);
    ++out.attempted;
    if (!status.success()) out.fail("bare exec-cell: " + status.describe());
  }
  fabric->stop();

  Tracer tracer;
  replay_cells(check_fresh(*load, out), tracer, out);

  const auto delta = [&](const char* key) {
    return after.find("server")->find(key)->number -
           before.find("server")->find(key)->number;
  };
  const auto remote_completed = [](const JsonValue& status) {
    double completed = 0.0;
    for (const JsonValue& w : status.find("workers")->array) {
      if (w.find("kind")->string == "remote") completed += w.find("completed")->number;
    }
    return completed;
  };
  std::vector<double> outside_ms;
  for (std::size_t i = 0; i < a.fresh_ms.size(); ++i) {
    outside_ms.push_back(a.fresh_ms[i] - a.exec_ms[i]);
  }
  out.set("serve.exec_ms_p50", quantile_of(a.exec_ms, 0.5));
  out.set("serve.outside_exec_ms_p50", quantile_of(outside_ms, 0.5));
  out.set("serve.dedup_ratio", delta("dedup_hits") / delta("requests"));
  out.set("serve.remote_share",
          (remote_completed(after) - remote_completed(before)) / delta("completed"));
  for (const char* key : {"dispatched", "dedup_hits", "cache_hits", "requeued",
                          "workers_lost", "shed", "failed"}) {
    out.set(std::string("serve.") + key, delta(key));
  }
  out.set("serve.cached_work_per_s", static_cast<double>(b.requests) / b.wall_s);
  out.set("serve.cached_latency_p50_ms", quantile_of(b.repeat_ms, 0.5));
  out.set("supervise.exec_cell_ms_p50", quantile_of(bare_ms, 0.5));
  out.notes.push_back("phase A " + std::to_string(a.requests) + " requests (" +
                      std::to_string(a.fresh_ms.size()) + " fresh), phase B " +
                      std::to_string(b.requests) + " repeats; " +
                      std::to_string(load->checked().size()) + " fresh replies checked");
  maybe_write_trace(options, tracer);
  maybe_write_trace(options, requests, "requests");
  return out;
}

}  // namespace

Outcome run_serve_mixed(const Options& options) {
  return options.trace ? traced(options) : untraced(options);
}

}  // namespace e2e
