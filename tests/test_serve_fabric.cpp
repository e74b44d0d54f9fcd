/// \file test_serve_fabric.cpp
/// \brief The distributed worker fabric end to end: a real remote worker
///        (run_remote_worker on a thread) completing campaigns fingerprint-
///        identically, lease-deadline expiry requeueing cells uncharged,
///        cross-worker poison quarantine under the `net` taxonomy,
///        duplicate-result idempotence, and socket-level fuzz of the
///        registration + lease handshake (malformed JSON, every-prefix
///        shard truncation, oversized headers) that must 4xx, never crash;
///        and executor parity: one degraded run through the supervisor,
///        serve's local pool and a remote worker lands on identical rows.
///
/// Like test_serve.cpp, every test binds an ephemeral loopback port and
/// talks to the reactor through real sockets — no mocked transport.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <optional>
#include <sstream>
#include <thread>
#include <vector>

#include "campaign/campaign.hpp"
#include "serve/client.hpp"
#include "serve/remote_worker.hpp"
#include "serve/server.hpp"
#include "supervise/supervisor.hpp"
#include "util/json.hpp"
#include "util/net.hpp"

namespace feast {
namespace {

namespace fs = std::filesystem;
using namespace std::chrono_literals;

/// Fresh per-test scratch directory under the system temp dir.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& tag)
      : path_(fs::temp_directory_path() /
              (tag + "-" + std::to_string(::getpid()))) {
    std::error_code ec;
    fs::remove_all(path_, ec);
    fs::create_directories(path_);
  }
  ~ScratchDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  const fs::path& path() const noexcept { return path_; }

 private:
  fs::path path_;
};

std::string test_spec_text() {
  return "name = fabric-test\n"
         "samples = 3\n"
         "seed = 99\n"
         "strategies = pure, ud\n"
         "sizes = 2, 4\n";
}

CampaignSpec parse_spec(const std::string& text) {
  std::istringstream in(text);
  return CampaignSpec::parse(in);
}

std::string fingerprint_of(const Manifest& manifest) {
  return hash_hex(fnv1a64(manifest_fingerprint(manifest)));
}

bool wait_until(const std::function<bool()>& pred, double timeout_s = 20.0) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_s);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(5ms);
  }
  return pred();
}

/// A server on an ephemeral loopback port, reactor on a background thread.
class TestServer {
 public:
  explicit TestServer(serve::ServeOptions options)
      : server_(std::move(options)) {
    server_.start();
    thread_ = std::thread([this] { rc_ = server_.run(); });
  }

  ~TestServer() {
    if (thread_.joinable()) {
      server_.request_stop();
      thread_.join();
    }
  }

  serve::Server& server() noexcept { return server_; }
  std::uint16_t port() const noexcept { return server_.port(); }

  int stop() {
    server_.request_stop();
    thread_.join();
    return rc_;
  }

 private:
  serve::Server server_;
  std::thread thread_;
  int rc_ = -1;
};

/// A remote-only daemon: no local pool, every cell waits for a peer.
serve::ServeOptions fabric_options(const ScratchDir& dir) {
  serve::ServeOptions options;
  options.work_dir = (dir.path() / "serve-work").string();
  options.cache_dir = (dir.path() / "serve-cache").string();
  options.feastc_path = FEAST_FEASTC_PATH;
  options.workers = 0;
  options.drain_grace_s = 20.0;
  return options;
}

serve::HttpReply post(std::uint16_t port, const std::string& target,
                      const std::string& body, const std::string& client = "") {
  return serve::http_request("127.0.0.1", port, "POST", target, body, client,
                             120.0);
}

/// A real `feastc worker` loop on a test-owned thread.
class TestWorker {
 public:
  TestWorker(const ScratchDir& dir, std::uint16_t port, const std::string& name) {
    serve::RemoteWorkerOptions options;
    options.port = port;
    options.name = name;
    options.work_dir = (dir.path() / (name + "-work")).string();
    options.no_cache = true;
    options.feastc_path = FEAST_FEASTC_PATH;
    options.poll_ms = 10;
    options.backoff.base_ms = 20.0;
    options.backoff.cap_ms = 200.0;
    thread_ = std::thread(
        [this, options] { rc_ = run_remote_worker(options, &stop_, &stats_); });
  }

  ~TestWorker() { stop(); }

  int stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
    return rc_;
  }

  const serve::RemoteWorkerStats& stats() const noexcept { return stats_; }

 private:
  std::atomic<bool> stop_{false};
  serve::RemoteWorkerStats stats_;
  std::thread thread_;
  int rc_ = -1;
};

/// Registers a scripted fake worker over the real client and returns its id.
std::string register_fake(std::uint16_t port, const std::string& name) {
  const serve::HttpReply reply = post(
      port, "/v1/worker/register", "{\"name\": \"" + name + "\"}");
  EXPECT_TRUE(reply.ok()) << reply.error;
  EXPECT_EQ(reply.status, 200) << reply.body;
  const JsonValue root = parse_json(reply.body);
  EXPECT_NE(root.find("worker"), nullptr) << reply.body;
  return root.find("worker")->string;
}

/// Leases one cell for a fake worker; returns the lease token ("" if idle).
std::string lease_cell(std::uint16_t port, const std::string& worker_id,
                       long long* cell = nullptr) {
  const serve::HttpReply reply = post(port, "/v1/worker/lease",
                                      "{\"worker\": \"" + worker_id + "\"}");
  EXPECT_TRUE(reply.ok()) << reply.error;
  EXPECT_EQ(reply.status, 200) << reply.body;
  const JsonValue root = parse_json(reply.body);
  if (root.find("lease") == nullptr) return "";
  if (cell != nullptr && root.find("cell") != nullptr) {
    *cell = static_cast<long long>(root.find("cell")->number);
  }
  return root.find("lease")->string;
}

supervise::ShardResult sample_shard(int cell_index) {
  supervise::ShardResult result;
  result.cell_index = cell_index;
  result.from_cache = false;
  result.wall_ms = 12.5;
  result.stats.max_lateness = {3, -1.25, 0.5, -2.0, -0.75, 0.57};
  result.stats.end_to_end = {3, 10.0, 1.0, 9.0, 11.0, 1.13};
  result.stats.makespan = {3, 100.5, 2.5, 98.0, 103.0, 2.83};
  result.stats.min_laxity = {3, 7.75, 0.25, 7.5, 8.0, 0.28};
  result.stats.infeasible_runs = 0;
  return result;
}

std::string result_body(const std::string& worker_id, const std::string& lease,
                        const std::string& shard_frame) {
  return "{\"worker\": \"" + worker_id + "\", \"lease\": \"" + lease +
         "\", \"ok\": true, \"shard\": \"" + json_escape(shard_frame) + "\"}";
}

// ------------------------------------------------------------ happy fabric

TEST(ServeFabric, RemoteWorkerRunsACampaignFingerprintIdenticalToInProcess) {
  ScratchDir dir("feast-fabric-differential");
  const std::string spec_text = test_spec_text();

  // Ground truth: the same spec through run_campaign in this process.
  CampaignOptions options;
  options.manifest_path = (dir.path() / "base.manifest.json").string();
  const CampaignResult base = run_campaign(parse_spec(spec_text), options);
  ASSERT_TRUE(base.ok());
  const std::string expected =
      fingerprint_of(read_manifest_file(options.manifest_path));

  // The same spec through the daemon with NO local pool: every cell crosses
  // the wire twice (lease out, shard frame back) through a real worker loop.
  TestServer server(fabric_options(dir));
  TestWorker worker(dir, server.port(), "fabric-w0");
  const serve::HttpReply reply = post(
      server.port(), "/v1/campaign",
      "{\"spec\": \"" + json_escape(spec_text) + "\"}");
  ASSERT_TRUE(reply.ok()) << reply.error;
  ASSERT_EQ(reply.status, 200) << reply.body;
  const JsonValue root = parse_json(reply.body);
  ASSERT_NE(root.find("fingerprint"), nullptr);
  EXPECT_EQ(root.find("fingerprint")->string, expected);
  EXPECT_DOUBLE_EQ(root.find("totals")->find("computed")->number, 4.0);
  EXPECT_DOUBLE_EQ(root.find("totals")->find("failed")->number, 0.0);

  // /v1/status names the worker with its lease + taxonomy bookkeeping.
  const serve::HttpReply status =
      serve::http_request("127.0.0.1", server.port(), "GET", "/v1/status");
  ASSERT_EQ(status.status, 200);
  const JsonValue status_root = parse_json(status.body);
  const JsonValue* workers = status_root.find("workers");
  ASSERT_NE(workers, nullptr) << status.body;
  ASSERT_EQ(workers->array.size(), 1u);
  const JsonValue& entry = workers->array[0];
  EXPECT_EQ(entry.find("name")->string, "fabric-w0");
  EXPECT_EQ(entry.find("kind")->string, "remote");
  EXPECT_DOUBLE_EQ(entry.find("completed")->number, 4.0);
  EXPECT_DOUBLE_EQ(entry.find("errors")->find("net")->number, 0.0);
  EXPECT_DOUBLE_EQ(
      status_root.find("server")->find("remote_workers")->number, 1.0);

  worker.stop();
  EXPECT_EQ(worker.stats().cells_ok, 4u);
  EXPECT_EQ(server.stop(), 0);
}

// ------------------------------------------------------- failure detection

TEST(ServeFabric, LeaseDeadlineExpiryRequeuesTheCellUncharged) {
  ScratchDir dir("feast-fabric-lease-expiry");
  serve::ServeOptions options = fabric_options(dir);
  options.lease_timeout_s = 0.6;
  options.heartbeat_timeout_s = 60.0;  // Only the lease deadline may fire.
  TestServer server(options);

  // A scripted worker leases the cell and then goes silent.
  const std::string ghost = register_fake(server.port(), "ghost");
  serve::HttpReply cell_reply;
  std::thread submitter([&] {
    cell_reply = post(server.port(), "/v1/cell",
                      "{\"spec\": \"" + json_escape(test_spec_text()) +
                          "\", \"cell\": 0}");
  });
  ASSERT_TRUE(wait_until(
      [&] { return !lease_cell(server.port(), ghost).empty(); }, 10.0));

  // The sweep must declare the worker lost and requeue the cell uncharged.
  ASSERT_TRUE(wait_until([&] {
    const serve::ServeStatsSnapshot stats = server.server().stats();
    return stats.workers_lost >= 1 && stats.requeued >= 1;
  }, 10.0));

  // A healthy worker picks the cell up; "attempts": 1 proves the lost
  // lease was not charged against the retry budget.
  TestWorker worker(dir, server.port(), "healthy");
  submitter.join();
  ASSERT_TRUE(cell_reply.ok()) << cell_reply.error;
  ASSERT_EQ(cell_reply.status, 200) << cell_reply.body;
  const JsonValue root = parse_json(cell_reply.body);
  EXPECT_DOUBLE_EQ(root.find("attempts")->number, 1.0);
  EXPECT_EQ(root.find("state")->string, "computed");
  EXPECT_EQ(server.stop(), 0);
}

TEST(ServeFabric, CrossWorkerPoisonQuarantinesUnderTheNetTaxonomy) {
  ScratchDir dir("feast-fabric-poison");
  serve::ServeOptions options = fabric_options(dir);
  options.lease_timeout_s = 0.4;
  options.heartbeat_timeout_s = 60.0;
  options.poison_worker_deaths = 2;
  options.max_attempts = 10;  // Poison must trip first: deaths are uncharged.
  TestServer server(options);

  serve::HttpReply cell_reply;
  std::thread submitter([&] {
    cell_reply = post(server.port(), "/v1/cell",
                      "{\"spec\": \"" + json_escape(test_spec_text()) +
                          "\", \"cell\": 0}");
  });

  // Two distinct workers lease the cell and die holding it.
  for (const char* name : {"victim-a", "victim-b"}) {
    const std::string id = register_fake(server.port(), name);
    ASSERT_TRUE(wait_until(
        [&] { return !lease_cell(server.port(), id).empty(); }, 10.0))
        << name;
    ASSERT_TRUE(wait_until([&] {
      return server.server().stats().workers_lost >=
             (std::string(name) == "victim-a" ? 1u : 2u);
    }, 10.0)) << name;
  }

  submitter.join();
  ASSERT_TRUE(cell_reply.ok()) << cell_reply.error;
  EXPECT_EQ(cell_reply.status, 500) << cell_reply.body;
  const JsonValue root = parse_json(cell_reply.body);
  const JsonValue* kind = root.find("error_kind");
  ASSERT_NE(kind, nullptr) << cell_reply.body;
  EXPECT_EQ(kind->string, "net");
  const JsonValue* error = root.find("error");
  ASSERT_NE(error, nullptr) << cell_reply.body;
  EXPECT_NE(error->string.find("cross-worker poison"), std::string::npos)
      << cell_reply.body;
  EXPECT_EQ(server.stop(), 0);
}

// ----------------------------------------------------- delivery idempotence

TEST(ServeFabric, DuplicateResultDeliveryIsSettledExactlyOnce) {
  ScratchDir dir("feast-fabric-dup");
  TestServer server(fabric_options(dir));

  const std::string courier = register_fake(server.port(), "courier");
  serve::HttpReply cell_reply;
  std::thread submitter([&] {
    cell_reply = post(server.port(), "/v1/cell",
                      "{\"spec\": \"" + json_escape(test_spec_text()) +
                          "\", \"cell\": 0}");
  });
  long long cell = -1;
  std::string lease;
  ASSERT_TRUE(wait_until([&] {
    lease = lease_cell(server.port(), courier, &cell);
    return !lease.empty();
  }, 10.0));
  ASSERT_EQ(cell, 0);

  const std::string frame = supervise::render_shard_result(
      sample_shard(static_cast<int>(cell)), "fabric-dup");
  const std::string body = result_body(courier, lease, frame);

  const serve::HttpReply first =
      post(server.port(), "/v1/worker/result", body);
  ASSERT_EQ(first.status, 200) << first.body;
  // The retransmit finds the lease settled: 410, not a double settle.
  const serve::HttpReply second =
      post(server.port(), "/v1/worker/result", body);
  EXPECT_EQ(second.status, 410) << second.body;

  submitter.join();
  ASSERT_EQ(cell_reply.status, 200) << cell_reply.body;
  EXPECT_DOUBLE_EQ(
      parse_json(cell_reply.body).find("attempts")->number, 1.0);
  EXPECT_EQ(server.stop(), 0);
}

// -------------------------------------------------------------------- fuzz

TEST(ServeFabric, HandshakeRejectsMalformedRequestsWithoutCrashing) {
  ScratchDir dir("feast-fabric-fuzz");
  TestServer server(fabric_options(dir));
  const std::uint16_t port = server.port();

  const std::string long_name(65, 'n');
  struct Case {
    const char* target;
    std::string body;
    int expect;
  };
  const Case cases[] = {
      {"/v1/worker/register", "", 400},
      {"/v1/worker/register", "not json at all", 400},
      {"/v1/worker/register", "{\"name\": \"trunc", 400},
      {"/v1/worker/register", "{}", 400},
      {"/v1/worker/register", "{\"name\": 3}", 400},
      {"/v1/worker/register", "{\"name\": \"\"}", 400},
      {"/v1/worker/register", "{\"name\": \"" + long_name + "\"}", 400},
      {"/v1/worker/register", "{\"name\": \"x\", \"slots\": 0}", 400},
      {"/v1/worker/register", "{\"name\": \"x\", \"slots\": 65}", 400},
      {"/v1/worker/register", "{\"name\": \"x\", \"slots\": 1.5}", 400},
      {"/v1/worker/register", "{\"name\": \"x\", \"slots\": \"two\"}", 400},
      {"/v1/worker/lease", "{}", 400},
      {"/v1/worker/lease", "{\"worker\": 7}", 400},
      {"/v1/worker/lease", "{\"worker\": \"w999\"}", 404},
      {"/v1/worker/result", "{}", 400},
      {"/v1/worker/result", "{\"worker\": \"w1\", \"lease\": \"L1\"}", 400},
      {"/v1/worker/result",
       "{\"worker\": \"w999\", \"lease\": \"L1\", \"ok\": true}", 404},
  };
  for (const Case& c : cases) {
    const serve::HttpReply reply = post(port, c.target, c.body);
    ASSERT_TRUE(reply.ok()) << c.target << " " << c.body << ": " << reply.error;
    EXPECT_EQ(reply.status, c.expect) << c.target << " " << c.body;
  }

  // A registered worker delivering against a bogus lease, and an ok result
  // with a missing / non-string shard.
  const std::string id = register_fake(port, "fuzzer");
  EXPECT_EQ(post(port, "/v1/worker/result",
                 "{\"worker\": \"" + id +
                     "\", \"lease\": \"L404\", \"ok\": true}")
                .status,
            410);
  EXPECT_EQ(post(port, "/v1/worker/result",
                 "{\"worker\": \"" + id +
                     "\", \"lease\": \"L404\", \"ok\": false}")
                .status,
            410);

  // Oversized registration headers die at the HTTP layer with 431.
  net::Socket raw = net::tcp_connect("127.0.0.1", port, 5.0, nullptr);
  ASSERT_TRUE(raw.valid());
  std::string huge = "POST /v1/worker/register HTTP/1.1\r\nX-Pad: ";
  huge.append(64 * 1024, 'a');  // Far beyond HttpLimits.max_header_bytes.
  huge += "\r\n\r\n";
  ASSERT_TRUE(net::write_all(raw.fd(), huge, 5.0, nullptr));
  std::string response;
  net::read_until_eof(raw.fd(), response, 10.0, nullptr);
  EXPECT_NE(response.find("431"), std::string::npos) << response;
  raw.close();

  // The daemon survived all of it.
  const serve::HttpReply health =
      serve::http_request("127.0.0.1", port, "GET", "/healthz");
  EXPECT_EQ(health.status, 200);
  EXPECT_EQ(server.stop(), 0);
}

TEST(ServeFabric, EveryShardPrefixTruncationIsRejectedAsNet) {
  ScratchDir dir("feast-fabric-truncation");
  serve::ServeOptions options = fabric_options(dir);
  options.max_attempts = 1000;  // Each torn frame charges one attempt.
  TestServer server(options);

  const std::string courier = register_fake(server.port(), "torn-courier");
  serve::HttpReply cell_reply;
  std::thread submitter([&] {
    cell_reply = post(server.port(), "/v1/cell",
                      "{\"spec\": \"" + json_escape(test_spec_text()) +
                          "\", \"cell\": 0}");
  });

  const std::string frame =
      supervise::render_shard_result(sample_shard(0), "fabric-torn");
  std::size_t torn = 0;
  for (std::size_t cut = 0; cut < frame.size(); cut += 17) {
    std::string lease;
    ASSERT_TRUE(wait_until([&] {
      lease = lease_cell(server.port(), courier);
      return !lease.empty();
    }, 10.0)) << "at cut " << cut;
    const serve::HttpReply reply =
        post(server.port(), "/v1/worker/result",
             result_body(courier, lease, frame.substr(0, cut)));
    ASSERT_TRUE(reply.ok()) << reply.error;
    EXPECT_EQ(reply.status, 400) << "cut " << cut << ": " << reply.body;
    EXPECT_NE(reply.body.find("net"), std::string::npos) << reply.body;
    ++torn;
  }

  // The intact frame finally lands and the cell settles exactly once.
  std::string lease;
  ASSERT_TRUE(wait_until([&] {
    lease = lease_cell(server.port(), courier);
    return !lease.empty();
  }, 10.0));
  EXPECT_EQ(post(server.port(), "/v1/worker/result",
                 result_body(courier, lease, frame))
                .status,
            200);
  submitter.join();
  ASSERT_EQ(cell_reply.status, 200) << cell_reply.body;
  EXPECT_DOUBLE_EQ(parse_json(cell_reply.body).find("attempts")->number,
                   static_cast<double>(torn + 1));
  EXPECT_EQ(server.stop(), 0);
}

// ------------------------------------------------------- executor parity

/// Per-cell verdicts of a manifest: state, attempts and error kind.
std::vector<std::string> cell_verdicts(const Manifest& manifest) {
  std::vector<std::string> rows;
  for (const CellOutcome& cell : manifest.cells) {
    rows.push_back(std::string(to_string(cell.state)) + " x" +
                   std::to_string(cell.attempts) + " [" + cell.error_kind + "]");
  }
  return rows;
}

TEST(ExecutorParity, DegradedRunIsIdenticalAcrossSupervisorServeLocalAndRemote) {
  ScratchDir dir("feast-executor-parity");
  const std::string spec_text = test_spec_text();
  const CampaignSpec spec = parse_spec(spec_text);
  const std::string inject = "1:crash@1,2:crash";  // Recovers; quarantines.

  // The supervised campaign runner.
  CampaignOptions options;
  options.manifest_path = (dir.path() / "supervised.manifest.json").string();
  supervise::SupervisorOptions sup;
  sup.max_attempts = 2;
  sup.backoff.base_ms = 5.0;
  sup.backoff.cap_ms = 20.0;
  sup.feastc_path = FEAST_FEASTC_PATH;
  sup.no_cache = true;
  sup.work_dir = (dir.path() / "supervised-work").string();
  sup.inject = supervise::parse_inject_spec(inject);
  supervise::run_supervised_campaign(spec, options, sup);
  const Manifest supervised = read_manifest_file(options.manifest_path);
  const std::vector<std::string> expected = cell_verdicts(supervised);
  ASSERT_EQ(expected.size(), 4u);
  EXPECT_EQ(expected[1], "computed x2 []");
  EXPECT_EQ(expected[2], "quarantined x2 [crash]");

  // The daemon, once with local workers and once remote-only with one
  // real worker loop: same spec, same inject, same budget.
  const std::string spec_hash = hash_hex(fnv1a64(spec.canonical_text()));
  for (const int local_workers : {2, 0}) {
    SCOPED_TRACE("serve workers=" + std::to_string(local_workers));
    serve::ServeOptions serve_options = fabric_options(dir);
    serve_options.work_dir =
        (dir.path() / ("serve-work-" + std::to_string(local_workers))).string();
    serve_options.workers = local_workers;
    serve_options.max_attempts = 2;
    serve_options.no_cache = true;
    TestServer server(serve_options);
    std::optional<TestWorker> remote;
    if (local_workers == 0) remote.emplace(dir, server.port(), "parity-w0");
    const serve::HttpReply reply =
        post(server.port(), "/v1/campaign",
             "{\"spec\": \"" + json_escape(spec_text) + "\", \"inject\": \"" +
                 inject + "\"}");
    ASSERT_TRUE(reply.ok()) << reply.error;
    ASSERT_EQ(reply.status, 200) << reply.body;
    const Manifest served = read_manifest_file(
        (fs::path(serve_options.work_dir) / (spec_hash + ".manifest.json"))
            .string());
    EXPECT_EQ(cell_verdicts(served), expected);
    EXPECT_EQ(fingerprint_of(served), fingerprint_of(supervised));
    remote.reset();
    EXPECT_EQ(server.stop(), 0);
  }
}

}  // namespace
}  // namespace feast
