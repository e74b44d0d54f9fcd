/// \file test_serve.cpp
/// \brief The serve daemon end to end: HTTP parsing over fragmented byte
///        streams, shard round-trips through real sockets, dedup/admission/
///        fairness bookkeeping, worker-crash quarantine, injected client
///        disconnects and slow-loris rejection, and the drain → resume →
///        fingerprint-identity contract against an in-process campaign run.
///
/// Server tests bind an ephemeral loopback port, run the reactor on a
/// background thread and talk to it through the real client
/// (serve::http_request) or raw sockets — no mocked transport anywhere.
#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "campaign/campaign.hpp"
#include "check/fault.hpp"
#include "obs/obs.hpp"
#include "serve/client.hpp"
#include "serve/http.hpp"
#include "serve/server.hpp"
#include "supervise/supervisor.hpp"
#include "util/fsio.hpp"
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

/// The standard test campaign: 2 strategies × 2 sizes = 4 deterministic
/// cells, 3 samples each.
std::string test_spec_text() {
  return "name = serve-test\n"
         "samples = 3\n"
         "seed = 99\n"
         "strategies = pure, ud\n"
         "sizes = 2, 4\n";
}

CampaignSpec parse_spec(const std::string& text) {
  std::istringstream in(text);
  return CampaignSpec::parse(in);
}

/// 16-hex fingerprint hash of a manifest (what /v1/status reports).
std::string fingerprint_of(const Manifest& manifest) {
  return hash_hex(fnv1a64(manifest_fingerprint(manifest)));
}

bool wait_until(const std::function<bool()>& pred, double timeout_s = 20.0) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::duration<double>(timeout_s);
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

  int drain() {
    server_.request_drain();
    thread_.join();
    return rc_;
  }

 private:
  serve::Server server_;
  std::thread thread_;
  int rc_ = -1;
};

serve::ServeOptions base_options(const ScratchDir& dir) {
  serve::ServeOptions options;
  options.work_dir = (dir.path() / "serve-work").string();
  options.cache_dir = (dir.path() / "serve-cache").string();
  options.feastc_path = FEAST_FEASTC_PATH;
  options.workers = 2;
  options.drain_grace_s = 20.0;
  return options;
}

std::string cell_request_body(const std::string& spec, std::size_t cell,
                              const std::string& inject = "") {
  std::string body =
      "{\"spec\": \"" + json_escape(spec) + "\", \"cell\": " + std::to_string(cell);
  if (!inject.empty()) body += ", \"inject\": \"" + inject + "\"";
  body += "}";
  return body;
}

std::string campaign_request_body(const std::string& spec) {
  return "{\"spec\": \"" + json_escape(spec) + "\"}";
}

serve::HttpReply post(std::uint16_t port, const std::string& target,
                      const std::string& body, const std::string& client = "") {
  return serve::http_request("127.0.0.1", port, "POST", target, body, client,
                             120.0);
}

// ---------------------------------------------------------------- HTTP layer

TEST(HttpParser, AssemblesARequestFromSingleByteFragments) {
  const std::string raw =
      "POST /v1/cell?x=1 HTTP/1.1\r\n"
      "Host: localhost\r\n"
      "X-Feast-Client: Bench-7\r\n"
      "Content-Length: 11\r\n"
      "\r\n"
      "hello world";
  serve::HttpRequestParser parser;
  for (std::size_t i = 0; i + 1 < raw.size(); ++i) {
    ASSERT_EQ(parser.feed(raw.data() + i, 1),
              serve::HttpRequestParser::Status::NeedMore)
        << "completed early at byte " << i;
  }
  ASSERT_EQ(parser.feed(raw.data() + raw.size() - 1, 1),
            serve::HttpRequestParser::Status::Done);
  const serve::HttpRequest& request = parser.request();
  EXPECT_EQ(request.method, "POST");
  EXPECT_EQ(request.target, "/v1/cell?x=1");
  EXPECT_EQ(request.path(), "/v1/cell");
  EXPECT_EQ(request.version, "HTTP/1.1");
  EXPECT_EQ(request.header("x-feast-client"), "Bench-7");  // Lowercased name.
  EXPECT_EQ(request.body, "hello world");
}

TEST(HttpParser, KeepsPipelinedBytesAcrossReset) {
  serve::HttpRequestParser parser;
  const std::string two =
      "GET /healthz HTTP/1.1\r\n\r\nGET /v1/status HTTP/1.1\r\n\r\n";
  ASSERT_EQ(parser.feed(two), serve::HttpRequestParser::Status::Done);
  EXPECT_EQ(parser.request().path(), "/healthz");
  parser.reset();
  // The second request was already buffered; an empty feed completes it.
  ASSERT_EQ(parser.feed("", 0), serve::HttpRequestParser::Status::Done);
  EXPECT_EQ(parser.request().path(), "/v1/status");
}

TEST(HttpParser, BuffersBytesArrivingInDoneStateForTheNextRequest) {
  serve::HttpRequestParser parser;
  ASSERT_EQ(parser.feed("GET /healthz HTTP/1.1\r\n\r\n"),
            serve::HttpRequestParser::Status::Done);
  // Bytes fed while the parsed request is still unconsumed must be retained
  // (they are the pipelined next request), not silently dropped.
  ASSERT_EQ(parser.feed("GET /v1/status HTTP/1.1\r\n\r\n"),
            serve::HttpRequestParser::Status::Done);
  EXPECT_EQ(parser.request().path(), "/healthz");
  parser.reset();
  // drive() re-parses the retained bytes without any new feed.
  ASSERT_EQ(parser.drive(), serve::HttpRequestParser::Status::Done);
  EXPECT_EQ(parser.request().path(), "/v1/status");
  parser.reset();
  EXPECT_EQ(parser.drive(), serve::HttpRequestParser::Status::NeedMore);
  EXPECT_EQ(parser.buffered(), 0u);
}

TEST(HttpParser, RejectsOversizedMalformedAndUnsupportedRequests) {
  serve::HttpLimits limits;
  limits.max_header_bytes = 128;
  limits.max_body_bytes = 64;

  {  // An unterminated header dribble is capped before \r\n\r\n ever arrives.
    serve::HttpRequestParser parser(limits);
    const std::string dribble(200, 'a');
    EXPECT_EQ(parser.feed(dribble), serve::HttpRequestParser::Status::Error);
    EXPECT_EQ(parser.error_status(), 431);
  }
  {  // Declared body beyond the cap is rejected from the header alone.
    serve::HttpRequestParser parser(limits);
    EXPECT_EQ(parser.feed("POST /x HTTP/1.1\r\nContent-Length: 100000\r\n\r\n"),
              serve::HttpRequestParser::Status::Error);
    EXPECT_EQ(parser.error_status(), 413);
  }
  {  // Garbage request line.
    serve::HttpRequestParser parser(limits);
    EXPECT_EQ(parser.feed("NOT-HTTP\r\n\r\n"),
              serve::HttpRequestParser::Status::Error);
    EXPECT_EQ(parser.error_status(), 400);
  }
  {  // Chunked encoding is refused, not half-implemented.
    serve::HttpRequestParser parser(limits);
    EXPECT_EQ(
        parser.feed("POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"),
        serve::HttpRequestParser::Status::Error);
    EXPECT_EQ(parser.error_status(), 501);
  }
}

TEST(HttpClient, ParsesHostPortPairs) {
  std::string host;
  std::uint16_t port = 0;
  EXPECT_TRUE(serve::parse_host_port("127.0.0.1:7433", host, port));
  EXPECT_EQ(host, "127.0.0.1");
  EXPECT_EQ(port, 7433);
  EXPECT_TRUE(serve::parse_host_port(":80", host, port));
  EXPECT_EQ(host, "");
  EXPECT_FALSE(serve::parse_host_port("nope", host, port));
  EXPECT_FALSE(serve::parse_host_port("h:0", host, port));
  EXPECT_FALSE(serve::parse_host_port("h:99999", host, port));
  EXPECT_FALSE(serve::parse_host_port("h:", host, port));
}

// ------------------------------------------- shard results over real sockets

supervise::ShardResult sample_shard() {
  supervise::ShardResult result;
  result.cell_index = 3;
  result.from_cache = false;
  result.wall_ms = 12.5;
  result.stats.max_lateness = {3, -1.25, 0.5, -2.0, -0.75, 0.57};
  result.stats.end_to_end = {3, 10.0, 1.0, 9.0, 11.0, 1.13};
  result.stats.makespan = {3, 100.5, 2.5, 98.0, 103.0, 2.83};
  result.stats.min_laxity = {3, 7.75, 0.25, 7.5, 8.0, 0.28};
  result.stats.infeasible_runs = 1;
  return result;
}

TEST(ShardSocket, RoundTripsThroughFragmentedSocketDelivery) {
  const supervise::ShardResult sent = sample_shard();
  const std::string payload = supervise::render_shard_result(sent, "test-key");

  net::Socket a;
  net::Socket b;
  std::string error;
  ASSERT_TRUE(net::unix_socketpair(a, b, &error)) << error;

  // Writer thread dribbles the payload in 7-byte fragments, so the reader
  // sees the same arbitrary packetization a TCP transport would produce.
  std::thread writer([&] {
    for (std::size_t off = 0; off < payload.size(); off += 7) {
      const std::string piece = payload.substr(off, 7);
      ASSERT_TRUE(net::write_all(a.fd(), piece, 5.0, nullptr));
      std::this_thread::sleep_for(1ms);
    }
    a.close();  // EOF marks end of shard.
  });
  std::string received;
  ASSERT_TRUE(net::read_until_eof(b.fd(), received, 20.0, &error)) << error;
  writer.join();
  ASSERT_EQ(received, payload);

  supervise::ShardError why = supervise::ShardError::Corrupt;
  const auto parsed = supervise::parse_shard_result(received, &why);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(why, supervise::ShardError::None);
  EXPECT_EQ(parsed->cell_index, sent.cell_index);
  EXPECT_EQ(parsed->from_cache, sent.from_cache);
  EXPECT_DOUBLE_EQ(parsed->wall_ms, sent.wall_ms);
  EXPECT_DOUBLE_EQ(parsed->stats.max_lateness.mean, sent.stats.max_lateness.mean);
  EXPECT_DOUBLE_EQ(parsed->stats.makespan.ci95_half_width,
                   sent.stats.makespan.ci95_half_width);
  EXPECT_EQ(parsed->stats.infeasible_runs, sent.stats.infeasible_runs);
}

TEST(ShardSocket, EveryTruncatedDeliveryReadsAsTruncatedNeverCorrupt) {
  const std::string payload =
      supervise::render_shard_result(sample_shard(), "test-key");
  // A connection dropped at *any* byte boundary must classify as Truncated
  // (delivery's fault), never Corrupt (the bytes' fault) — and never parse.
  for (std::size_t cut = 0; cut < payload.size(); cut += 3) {
    supervise::ShardError why = supervise::ShardError::None;
    const auto parsed = supervise::parse_shard_result(payload.substr(0, cut), &why);
    EXPECT_FALSE(parsed.has_value()) << "prefix of " << cut << " bytes parsed";
    EXPECT_EQ(why, supervise::ShardError::Truncated) << "at cut " << cut;
  }
}

TEST(ShardSocket, FlippedBytesReadAsCorruptAndBumpTheObsCounter) {
  const std::string payload =
      supervise::render_shard_result(sample_shard(), "test-key");

  obs::Sink sink;
  std::uint64_t corrupt_seen = 0;
  {
    obs::ScopedSink scoped(sink);
    std::string flipped = payload;
    flipped[payload.size() / 2] ^= 0x20;  // One bit in the record body.
    supervise::ShardError why = supervise::ShardError::None;
    EXPECT_FALSE(supervise::parse_shard_result(flipped, &why).has_value());
    EXPECT_EQ(why, supervise::ShardError::Corrupt);

    // Truncation bumps its own counter, distinctly.
    EXPECT_FALSE(
        supervise::parse_shard_result(payload.substr(0, 10), &why).has_value());
    EXPECT_EQ(why, supervise::ShardError::Truncated);
    corrupt_seen = 1;
  }
  const obs::Report report = sink.report();
  EXPECT_EQ(report.counter_value(obs::Counter::ShardCorrupt), corrupt_seen);
  EXPECT_EQ(report.counter_value(obs::Counter::ShardTruncated), 1u);
}

// --------------------------------------------------- fsio failure-path cover

TEST(Fsio, ReportsShortWritesInsteadOfPublishingPartialFiles) {
  ScratchDir dir("feast-serve-fsio");
  const fs::path missing_parent = dir.path() / "no-such-dir" / "file.txt";

  std::string error;
  EXPECT_FALSE(write_file_synced(missing_parent, "contents", &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(fs::exists(missing_parent));

  error.clear();
  EXPECT_FALSE(atomic_write_file(missing_parent, "contents", &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(fs::exists(missing_parent));

  // A directory squatting on the target: the write must fail and must not
  // destroy the directory.
  const fs::path squatted = dir.path() / "squatted";
  fs::create_directories(squatted);
  error.clear();
  EXPECT_FALSE(atomic_write_file(squatted, "contents", &error));
  EXPECT_FALSE(error.empty());
  EXPECT_TRUE(fs::is_directory(squatted));

  // No temporary litter left behind by any failed attempt.
  std::size_t entries = 0;
  for (const auto& entry : fs::directory_iterator(dir.path())) {
    (void)entry;
    ++entries;
  }
  EXPECT_EQ(entries, 1u);  // Just "squatted".
}

TEST(Fsio, PartialReadsOfCellRecordsClassifyAsTruncated) {
  CellStats stats = sample_shard().stats;
  std::ostringstream record_out;
  write_cell_record(record_out, "partial-read-key", stats);
  const std::string record = record_out.str();

  // Reading any prefix — a short read of the record file — is Truncated.
  for (std::size_t cut = 0; cut < record.size(); cut += 5) {
    CellStats out;
    RecordError why = RecordError::None;
    EXPECT_FALSE(read_cell_record(record.substr(0, cut), out, &why).has_value());
    EXPECT_EQ(why, RecordError::Truncated) << "at cut " << cut;
  }
  CellStats out;
  RecordError why = RecordError::Corrupt;
  EXPECT_TRUE(read_cell_record(record, out, &why).has_value());
  EXPECT_EQ(why, RecordError::None);
}

// ------------------------------------------------------------ the daemon

TEST(ServeDaemon, HealthzAndStatusAnswer) {
  ScratchDir dir("feast-serve-health");
  TestServer server(base_options(dir));

  const serve::HttpReply health =
      serve::http_request("127.0.0.1", server.port(), "GET", "/healthz");
  ASSERT_TRUE(health.ok()) << health.error;
  EXPECT_EQ(health.status, 200);
  EXPECT_EQ(health.body, "ok\n");

  const serve::HttpReply status =
      serve::http_request("127.0.0.1", server.port(), "GET", "/v1/status");
  ASSERT_TRUE(status.ok()) << status.error;
  ASSERT_EQ(status.status, 200);
  const JsonValue root = parse_json(status.body);
  ASSERT_NE(root.find("server"), nullptr);
  EXPECT_NE(root.find("server")->find("queue_depth"), nullptr);
  ASSERT_NE(root.find("campaigns"), nullptr);
  EXPECT_EQ(root.find("campaigns")->type, JsonValue::Type::Array);

  const serve::HttpReply missing =
      serve::http_request("127.0.0.1", server.port(), "GET", "/nope");
  ASSERT_TRUE(missing.ok()) << missing.error;
  EXPECT_EQ(missing.status, 404);

  EXPECT_EQ(server.stop(), 0);
}

TEST(ServeDaemon, PipelinedRequestsAreEachAnswered) {
  ScratchDir dir("feast-serve-pipeline");
  TestServer server(base_options(dir));

  // Two requests in a single write: the daemon must answer both, including
  // the one that was fully buffered behind the first reply.
  net::Socket sock = net::tcp_connect("127.0.0.1", server.port(), 5.0, nullptr);
  ASSERT_TRUE(sock.valid());
  const std::string two =
      "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
      "GET /healthz HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n";
  ASSERT_TRUE(net::write_all(sock.fd(), two, 5.0, nullptr));
  std::string response;
  ASSERT_TRUE(net::read_until_eof(sock.fd(), response, 20.0, nullptr));

  std::size_t replies = 0;
  for (std::size_t at = response.find("HTTP/1.1 200");
       at != std::string::npos; at = response.find("HTTP/1.1 200", at + 1)) {
    ++replies;
  }
  EXPECT_EQ(replies, 2u) << response;
  EXPECT_EQ(server.server().stats().replies, 2u);
  EXPECT_EQ(server.stop(), 0);
}

TEST(ServeDaemon, SocketCampaignIsFingerprintIdenticalToInProcessRun) {
  ScratchDir dir("feast-serve-differential");
  const std::string spec_text = test_spec_text();

  // The ground truth: the same spec through run_campaign in this process,
  // no cache, manifest checkpointed locally.
  CampaignOptions options;
  options.manifest_path = (dir.path() / "base.manifest.json").string();
  const CampaignResult base = run_campaign(parse_spec(spec_text), options);
  ASSERT_TRUE(base.ok());
  const std::string expected =
      fingerprint_of(read_manifest_file(options.manifest_path));

  // The same spec through the daemon: TCP + JSON + worker subprocesses +
  // shard files + cache.  The fingerprint — every cell's stats at full
  // precision — must come back byte-identical.
  TestServer server(base_options(dir));
  const serve::HttpReply reply =
      post(server.port(), "/v1/campaign", campaign_request_body(spec_text));
  ASSERT_TRUE(reply.ok()) << reply.error;
  ASSERT_EQ(reply.status, 200) << reply.body;
  const JsonValue root = parse_json(reply.body);
  ASSERT_NE(root.find("fingerprint"), nullptr);
  EXPECT_EQ(root.find("fingerprint")->string, expected);
  ASSERT_NE(root.find("totals"), nullptr);
  EXPECT_DOUBLE_EQ(root.find("totals")->find("computed")->number, 4.0);

  // And the daemon's own checkpoint manifest agrees with what it served.
  const JsonValue spec_hash = *root.find("spec_hash");
  const fs::path manifest_path =
      fs::path(base_options(dir).work_dir) / (spec_hash.string + ".manifest.json");
  ASSERT_TRUE(fs::exists(manifest_path));
  EXPECT_EQ(fingerprint_of(read_manifest_file(manifest_path.string())), expected);

  EXPECT_EQ(server.stop(), 0);
}

TEST(ServeDaemon, ConcurrentIdenticalCellsShareOneWorkerDispatch) {
  ScratchDir dir("feast-serve-dedup");
  serve::ServeOptions options = base_options(dir);
  options.workers = 1;
  TestServer server(options);
  const std::string spec_text = test_spec_text();

  serve::HttpReply first;
  serve::HttpReply second;
  std::thread client_a([&] {
    first = post(server.port(), "/v1/cell", cell_request_body(spec_text, 0), "a");
  });
  std::thread client_b([&] {
    second = post(server.port(), "/v1/cell", cell_request_body(spec_text, 0), "b");
  });
  client_a.join();
  client_b.join();

  ASSERT_TRUE(first.ok()) << first.error;
  ASSERT_TRUE(second.ok()) << second.error;
  EXPECT_EQ(first.status, 200) << first.body;
  EXPECT_EQ(second.status, 200) << second.body;
  // Same stats either way, whether the second rode the in-flight job or the
  // memoized result.
  EXPECT_EQ(parse_json(first.body).find("max_lateness")->array[1].number,
            parse_json(second.body).find("max_lateness")->array[1].number);

  const serve::ServeStatsSnapshot stats = server.server().stats();
  EXPECT_EQ(stats.dispatched, 1u) << "identical cells must share one worker";
  EXPECT_GE(stats.dedup_hits, 1u);
  EXPECT_EQ(server.stop(), 0);
}

TEST(ServeDaemon, ShedsWith429WhenTheQueueIsFull) {
  ScratchDir dir("feast-serve-shed");
  serve::ServeOptions options = base_options(dir);
  options.workers = 1;
  options.max_queue = 1;
  TestServer server(options);
  const std::string spec_text = test_spec_text();

  // Fill the one worker slot and the one queue slot with hanging cells,
  // via raw sockets that never wait for replies.
  net::Socket filler_a =
      net::tcp_connect("127.0.0.1", server.port(), 5.0, nullptr);
  net::Socket filler_b =
      net::tcp_connect("127.0.0.1", server.port(), 5.0, nullptr);
  ASSERT_TRUE(filler_a.valid());
  ASSERT_TRUE(filler_b.valid());
  const auto send_cell = [&](net::Socket& sock, std::size_t cell) {
    const std::string body = cell_request_body(spec_text, cell, "hang");
    const std::string request = "POST /v1/cell HTTP/1.1\r\nHost: x\r\n"
                                "Content-Length: " + std::to_string(body.size()) +
                                "\r\n\r\n" + body;
    ASSERT_TRUE(net::write_all(sock.fd(), request, 5.0, nullptr));
  };
  send_cell(filler_a, 0);
  ASSERT_TRUE(wait_until([&] { return server.server().stats().running == 1; }));
  send_cell(filler_b, 1);
  ASSERT_TRUE(
      wait_until([&] { return server.server().stats().queue_depth == 1; }));

  // The queue is at --max-queue: the next distinct cell must be shed.
  const serve::HttpReply shed =
      post(server.port(), "/v1/cell", cell_request_body(spec_text, 2));
  ASSERT_TRUE(shed.ok()) << shed.error;
  EXPECT_EQ(shed.status, 429);
  EXPECT_GE(server.server().stats().shed, 1u);

  // But a *deduplicated* resubmission of a queued cell is always admitted.
  net::Socket dup = net::tcp_connect("127.0.0.1", server.port(), 5.0, nullptr);
  ASSERT_TRUE(dup.valid());
  send_cell(dup, 1);
  ASSERT_TRUE(
      wait_until([&] { return server.server().stats().dedup_hits >= 1; }));
  EXPECT_EQ(server.server().stats().queue_depth, 1u);

  EXPECT_EQ(server.stop(), 0);  // stop() kills the hung worker via the pool.
}

TEST(ServeDaemon, SurvivesMalformedOversizedAndBombJsonBodies) {
  ScratchDir dir("feast-serve-badjson");
  serve::ServeOptions options = base_options(dir);
  options.http.max_body_bytes = 4096;
  TestServer server(options);

  const serve::HttpReply garbage = post(server.port(), "/v1/cell", "{nope");
  ASSERT_TRUE(garbage.ok()) << garbage.error;
  EXPECT_EQ(garbage.status, 400);

  // A nesting bomb is a clean 400, not a stack overflow.
  const serve::HttpReply bomb =
      post(server.port(), "/v1/cell", std::string(600, '['));
  ASSERT_TRUE(bomb.ok()) << bomb.error;
  EXPECT_EQ(bomb.status, 400);

  // An oversized body is rejected at the transport layer with 413.
  const serve::HttpReply oversized =
      post(server.port(), "/v1/cell", std::string(8192, ' '));
  ASSERT_TRUE(oversized.ok()) << oversized.error;
  EXPECT_EQ(oversized.status, 413);

  // Wrong shapes inside valid JSON.
  EXPECT_EQ(post(server.port(), "/v1/cell", "[1, 2]").status, 400);
  EXPECT_EQ(post(server.port(), "/v1/cell", "{\"spec\": 7}").status, 400);
  EXPECT_EQ(post(server.port(), "/v1/cell",
                 cell_request_body(test_spec_text(), 99))
                .status,
            400);  // Cell out of range.

  // Cell numbers that would make the double→size_t cast UB or truncate.
  const std::string spec_field =
      "{\"spec\": \"" + json_escape(test_spec_text()) + "\", \"cell\": ";
  EXPECT_EQ(post(server.port(), "/v1/cell", spec_field + "1e300}").status, 400);
  EXPECT_EQ(post(server.port(), "/v1/cell", spec_field + "0.5}").status, 400);
  EXPECT_EQ(post(server.port(), "/v1/cell", spec_field + "-1}").status, 400);

  // After all of that the daemon still serves.
  const serve::HttpReply health =
      serve::http_request("127.0.0.1", server.port(), "GET", "/healthz");
  ASSERT_TRUE(health.ok()) << health.error;
  EXPECT_EQ(health.status, 200);
  EXPECT_GE(server.server().stats().parse_errors, 3u);
  EXPECT_EQ(server.stop(), 0);
}

TEST(ServeDaemon, WorkerCrashesRetryThenQuarantineWithoutKillingTheDaemon) {
  ScratchDir dir("feast-serve-crash");
  serve::ServeOptions options = base_options(dir);
  options.workers = 1;
  options.max_attempts = 2;
  TestServer server(options);
  const std::string spec_text = test_spec_text();

  // Every attempt crashes: the retry budget burns out and the caller gets a
  // structured 500 carrying the taxonomy, not a hung connection.
  const serve::HttpReply failed =
      post(server.port(), "/v1/cell", cell_request_body(spec_text, 0, "crash"));
  ASSERT_TRUE(failed.ok()) << failed.error;
  ASSERT_EQ(failed.status, 500) << failed.body;
  const JsonValue root = parse_json(failed.body);
  ASSERT_NE(root.find("error_kind"), nullptr);
  EXPECT_EQ(root.find("error_kind")->string, "crash");
  EXPECT_EQ(server.server().stats().failed, 1u);

  // Crash once, then succeed: the retry makes the cell whole.
  const serve::HttpReply recovered = post(
      server.port(), "/v1/cell", cell_request_body(spec_text, 1, "crash@1"));
  ASSERT_TRUE(recovered.ok()) << recovered.error;
  ASSERT_EQ(recovered.status, 200) << recovered.body;
  EXPECT_DOUBLE_EQ(parse_json(recovered.body).find("attempts")->number, 2.0);

  // No leaked workers, and the daemon is still healthy.
  EXPECT_TRUE(wait_until([&] { return server.server().stats().running == 0; }));
  const serve::HttpReply health =
      serve::http_request("127.0.0.1", server.port(), "GET", "/healthz");
  ASSERT_TRUE(health.ok()) << health.error;
  EXPECT_EQ(health.status, 200);
  EXPECT_EQ(server.stop(), 0);
}

TEST(ServeDaemon, RejectsInjectSuffixesThatNameNoAttempt) {
  ScratchDir dir("feast-serve-badinject");
  TestServer server(base_options(dir));
  const std::string spec_text = test_spec_text();

  // Attempts are numbered from 1, so each of these could never fire: the
  // daemon answers 400 instead of silently running the cell unpoisoned.
  for (const std::string bad : {"crash@x", "crash@0", "crash@-1"}) {
    const serve::HttpReply cell =
        post(server.port(), "/v1/cell", cell_request_body(spec_text, 0, bad));
    ASSERT_TRUE(cell.ok()) << cell.error;
    EXPECT_EQ(cell.status, 400) << bad << ": " << cell.body;
    const serve::HttpReply campaign =
        post(server.port(), "/v1/campaign",
             "{\"spec\": \"" + json_escape(spec_text) + "\", \"inject\": \"0:" +
                 bad + "\"}");
    ASSERT_TRUE(campaign.ok()) << campaign.error;
    EXPECT_EQ(campaign.status, 400) << bad << ": " << campaign.body;
  }
  EXPECT_EQ(server.server().stats().dispatched, 0u);
  EXPECT_EQ(server.stop(), 0);
}

TEST(ServeDaemon, FailedCellsAreRetriedOnResubmissionNotMemoizedForever) {
  ScratchDir dir("feast-serve-refail");
  serve::ServeOptions options = base_options(dir);
  options.workers = 1;
  options.max_attempts = 1;
  TestServer server(options);
  const std::string spec_text = test_spec_text();

  // First submission burns its one attempt and fails.
  const serve::HttpReply first =
      post(server.port(), "/v1/cell", cell_request_body(spec_text, 0, "crash"));
  ASSERT_TRUE(first.ok()) << first.error;
  EXPECT_EQ(first.status, 500) << first.body;
  EXPECT_EQ(server.server().stats().failed, 1u);

  // A resubmission must evict the memoized failure and retry with a fresh
  // budget — a second worker dispatch, not an instant replay of the 500.
  const serve::HttpReply second =
      post(server.port(), "/v1/cell", cell_request_body(spec_text, 0, "crash"));
  ASSERT_TRUE(second.ok()) << second.error;
  EXPECT_EQ(second.status, 500) << second.body;
  EXPECT_EQ(server.server().stats().dispatched, 2u)
      << "resubmitted failed cell must hit a worker again";
  EXPECT_EQ(server.server().stats().failed, 2u);

  // Drained queues leave no per-client residue behind.
  const serve::HttpReply status =
      serve::http_request("127.0.0.1", server.port(), "GET", "/v1/status");
  ASSERT_TRUE(status.ok()) << status.error;
  const JsonValue root = parse_json(status.body);
  ASSERT_NE(root.find("server")->find("clients"), nullptr);
  EXPECT_DOUBLE_EQ(root.find("server")->find("clients")->number, 0.0);
  EXPECT_EQ(server.stop(), 0);
}

TEST(ServeDaemon, InjectedClientDisconnectIsAbsorbed) {
  ScratchDir dir("feast-serve-disconnect");
  TestServer server(base_options(dir));

  check::FaultPlan plan("serve-client-disconnect:1:throw");
  check::ScopedFaultPlan scoped(&plan);

  // The armed occurrence tears the connection down right before its reply:
  // the client sees a dead socket, the daemon carries on.
  const serve::HttpReply dropped =
      serve::http_request("127.0.0.1", server.port(), "GET", "/healthz");
  EXPECT_FALSE(dropped.ok());

  const serve::HttpReply next =
      serve::http_request("127.0.0.1", server.port(), "GET", "/healthz");
  ASSERT_TRUE(next.ok()) << next.error;
  EXPECT_EQ(next.status, 200);
  EXPECT_GE(server.server().stats().disconnects, 1u);
  EXPECT_EQ(server.stop(), 0);
}

TEST(ServeDaemon, SlowLorisConnectionsAreRejectedWith408) {
  ScratchDir dir("feast-serve-loris");
  TestServer server(base_options(dir));

  check::FaultPlan plan("serve-slow-loris:1:throw");
  check::ScopedFaultPlan scoped(&plan);

  net::Socket loris = net::tcp_connect("127.0.0.1", server.port(), 5.0, nullptr);
  ASSERT_TRUE(loris.valid());
  ASSERT_TRUE(net::write_all(loris.fd(), "GET /he", 5.0, nullptr));
  std::string response;
  ASSERT_TRUE(net::read_until_eof(loris.fd(), response, 20.0, nullptr));
  EXPECT_NE(response.find("408"), std::string::npos) << response;

  // An honest client right after is served normally.
  const serve::HttpReply health =
      serve::http_request("127.0.0.1", server.port(), "GET", "/healthz");
  ASSERT_TRUE(health.ok()) << health.error;
  EXPECT_EQ(health.status, 200);
  EXPECT_EQ(server.stop(), 0);
}

TEST(ServeDaemon, DrainExits130AndResumeReproducesTheFingerprint) {
  ScratchDir dir("feast-serve-drain");
  const std::string spec_text = test_spec_text();

  // Uninterrupted ground truth.
  CampaignOptions base_opts;
  base_opts.manifest_path = (dir.path() / "base.manifest.json").string();
  const CampaignResult base = run_campaign(parse_spec(spec_text), base_opts);
  ASSERT_TRUE(base.ok());
  const std::string expected =
      fingerprint_of(read_manifest_file(base_opts.manifest_path));

  const serve::ServeOptions options = base_options(dir);
  const std::string spec_hash =
      hash_hex(fnv1a64(parse_spec(spec_text).canonical_text()));
  const fs::path manifest_path =
      fs::path(options.work_dir) / (spec_hash + ".manifest.json");

  {  // First daemon: submit, then drain mid-campaign.
    TestServer server(options);
    net::Socket waiter =
        net::tcp_connect("127.0.0.1", server.port(), 5.0, nullptr);
    ASSERT_TRUE(waiter.valid());
    const std::string body = campaign_request_body(spec_text);
    const std::string request = "POST /v1/campaign HTTP/1.1\r\nHost: x\r\n"
                                "Content-Length: " + std::to_string(body.size()) +
                                "\r\n\r\n" + body;
    ASSERT_TRUE(net::write_all(waiter.fd(), request, 5.0, nullptr));
    // Let at least one cell finish so the checkpoint is mid-stream, then
    // pull the plug exactly like SIGTERM would.
    ASSERT_TRUE(
        wait_until([&] { return server.server().stats().completed >= 1; }));
    EXPECT_EQ(server.drain(), 130);
    ASSERT_TRUE(fs::exists(manifest_path));
  }

  {  // Second daemon on the same work dir: the resubmission restores the
     // checkpointed cells and completes the rest; the fingerprint must be
     // identical to the uninterrupted in-process run.
    TestServer server(options);
    const serve::HttpReply reply =
        post(server.port(), "/v1/campaign", campaign_request_body(spec_text));
    ASSERT_TRUE(reply.ok()) << reply.error;
    ASSERT_EQ(reply.status, 200) << reply.body;
    const JsonValue root = parse_json(reply.body);
    EXPECT_EQ(root.find("fingerprint")->string, expected);
    EXPECT_DOUBLE_EQ(root.find("totals")->find("pending")->number, 0.0);
    EXPECT_EQ(server.stop(), 0);
  }
}

TEST(ServeDaemon, FailureDuringDrainLeavesTheCellPending) {
  ScratchDir dir("feast-serve-drain-failure");
  const std::string spec_text = test_spec_text();
  serve::ServeOptions options = base_options(dir);
  options.workers = 1;
  options.cell_timeout_s = 1.0;
  options.drain_grace_s = 5.0;
  const std::string spec_hash =
      hash_hex(fnv1a64(parse_spec(spec_text).canonical_text()));
  const fs::path manifest_path =
      fs::path(options.work_dir) / (spec_hash + ".manifest.json");

  // Cell 0 hangs in the only worker slot; a /v1/cell request for the same
  // poisoned cell attaches to that job.  The drain starts while it runs,
  // and its 1 s watchdog fires inside the 5 s grace window: that failure
  // must turn the cell away like never-dispatched work (503, row Pending,
  // nothing failed), not quarantine it.
  TestServer server(options);
  serve::HttpReply campaign_reply;
  serve::HttpReply cell_reply;
  std::thread campaign_client([&] {
    campaign_reply = post(server.port(), "/v1/campaign",
                          "{\"spec\": \"" + json_escape(spec_text) +
                              "\", \"inject\": \"0:hang\"}");
  });
  ASSERT_TRUE(wait_until([&] { return server.server().stats().running >= 1; }));
  std::thread cell_client([&] {
    cell_reply =
        post(server.port(), "/v1/cell", cell_request_body(spec_text, 0, "hang"));
  });
  ASSERT_TRUE(
      wait_until([&] { return server.server().stats().dedup_hits >= 1; }));
  EXPECT_EQ(server.drain(), 130);
  campaign_client.join();
  cell_client.join();

  ASSERT_TRUE(cell_reply.ok()) << cell_reply.error;
  EXPECT_EQ(cell_reply.status, 503) << cell_reply.body;
  EXPECT_NE(cell_reply.body.find("draining: resubmit after restart"),
            std::string::npos)
      << cell_reply.body;
  ASSERT_TRUE(campaign_reply.ok()) << campaign_reply.error;
  EXPECT_EQ(campaign_reply.status, 503) << campaign_reply.body;
  EXPECT_EQ(server.server().stats().failed, 0u);

  const Manifest drained = read_manifest_file(manifest_path.string());
  ASSERT_EQ(drained.cells.size(), 4u);
  EXPECT_EQ(drained.cells[0].state, CellState::Pending);
  EXPECT_EQ(drained.cells[0].error_kind, "");
  EXPECT_EQ(drained.quarantined, 0u);
}

// ----------------------------------------------- campaign status --json CLI

TEST(CampaignStatusJson, CliEmitsTheSharedSchemaWithTheFingerprint) {
  ScratchDir dir("feast-serve-statusjson");
  CampaignOptions options;
  options.manifest_path = (dir.path() / "m.json").string();
  const CampaignResult result =
      run_campaign(parse_spec(test_spec_text()), options);
  ASSERT_TRUE(result.ok());
  const Manifest manifest = read_manifest_file(options.manifest_path);

  std::ostringstream out;
  write_manifest_status_json(out, manifest);
  const JsonValue root = parse_json(out.str());
  EXPECT_EQ(root.find("name")->string, "serve-test");
  EXPECT_EQ(root.find("spec_hash")->string, manifest.spec_hash_hex);
  EXPECT_EQ(root.find("fingerprint")->string, fingerprint_of(manifest));
  EXPECT_DOUBLE_EQ(root.find("totals")->find("cells")->number, 4.0);
  EXPECT_DOUBLE_EQ(root.find("totals")->find("pending")->number, 0.0);
  ASSERT_EQ(root.find("cells")->type, JsonValue::Type::Array);
  ASSERT_EQ(root.find("cells")->array.size(), 4u);
  const JsonValue& cell = root.find("cells")->array[0];
  EXPECT_NE(cell.find("strategy"), nullptr);
  EXPECT_NE(cell.find("max_lateness"), nullptr);
  EXPECT_EQ(cell.find("state")->string, "computed");
}

}  // namespace
}  // namespace feast
