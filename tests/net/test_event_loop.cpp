// End-to-end tests of the concurrent gangd transport: the poll event
// loop, the dispatcher's admission control and in-flight coalescing,
// and the robustness contract (disconnecting clients, oversized lines,
// pipelined and split writes) — all through real loopback sockets
// against serve_tcp, exactly the daemon's production path.
#include "net/event_loop.hpp"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "json/json.hpp"
#include "obs/obs.hpp"
#include "serve/canonical.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"
#include "workload/paper_configs.hpp"

namespace {

using gs::json::Json;
using gs::serve::EvalService;
using gs::serve::ServiceOptions;
using gs::serve::TcpOptions;
using gs::workload::paper_system;
using gs::workload::PaperKnobs;

// ------------------------------------------------------------- fixtures

/// Minimal blocking NDJSON client over loopback.
class Client {
 public:
  ~Client() { close(); }

  void connect(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd_, 0) << std::strerror(errno);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    int rc;
    do {
      rc = ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
    } while (rc < 0 && errno == EINTR);
    ASSERT_EQ(rc, 0) << std::strerror(errno);
  }

  void send_raw(const std::string& data) {
    std::size_t off = 0;
    while (off < data.size()) {
      const ssize_t n = ::send(fd_, data.data() + off, data.size() - off,
                               MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      ASSERT_GT(n, 0) << std::strerror(errno);
      off += static_cast<std::size_t>(n);
    }
  }

  void send_line(const std::string& line) { send_raw(line + "\n"); }

  /// One response line; empty string on EOF.
  std::string recv_line() {
    for (;;) {
      if (const std::size_t nl = buf_.find('\n'); nl != std::string::npos) {
        std::string line = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        return line;
      }
      char chunk[8192];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return "";
      buf_.append(chunk, static_cast<std::size_t>(n));
    }
  }

  Json request(const std::string& line) {
    send_line(line);
    const std::string resp = recv_line();
    EXPECT_FALSE(resp.empty()) << "connection closed instead of answering";
    return resp.empty() ? Json() : Json::parse(resp);
  }

  /// True when a response byte is buffered or waiting on the socket.
  bool has_data() {
    if (!buf_.empty()) return true;
    char b;
    return ::recv(fd_, &b, 1, MSG_PEEK | MSG_DONTWAIT) > 0;
  }

  void close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

 private:
  int fd_ = -1;
  std::string buf_;
};

/// serve_tcp on a background thread, port learned via on_listen.
class TestServer {
 public:
  explicit TestServer(ServiceOptions sopts, TcpOptions topts = {})
      : service_(sopts) {
    std::promise<int> bound;
    auto port = bound.get_future();
    topts.on_listen = [&bound](int p) { bound.set_value(p); };
    thread_ = std::thread([this, topts] {
      gs::serve::serve_tcp(service_, topts);
    });
    port_ = port.get();
  }

  ~TestServer() { stop(); }

  /// Idempotent shutdown: one control request, then join.
  void stop() {
    if (!thread_.joinable()) return;
    Client ctl;
    ctl.connect(port_);
    ctl.request("{\"op\":\"shutdown\"}");
    thread_.join();
  }

  int port() const { return port_; }
  EvalService& service() { return service_; }

 private:
  EvalService service_;
  std::thread thread_;
  int port_ = -1;
};

std::string solve_line(double arrival_rate, const std::string& id) {
  PaperKnobs knobs;
  knobs.arrival_rate = arrival_rate;
  Json req = Json::object();
  req.set("op", "solve");
  req.set("id", id);
  req.set("system", gs::serve::params_to_json(paper_system(knobs)));
  return req.dump();
}

std::string sweep_line(int points, const std::string& id,
                       double spacing = 0.2) {
  Json req = Json::object();
  req.set("op", "sweep");
  req.set("id", id);
  req.set("system", gs::serve::params_to_json(paper_system()));
  Json vary = Json::object();
  vary.set("param", "quantum_mean");
  Json values = Json::array();
  for (int i = 0; i < points; ++i) values.push_back(0.6 + spacing * i);
  vary.set("values", std::move(values));
  req.set("vary", std::move(vary));
  return req.dump();
}

// A sweep that holds the only executor far longer than the few requests
// a test sends behind it take: 96 quantum means in [0.6, 5.35], about
// 0.4 s in a Release build on one thread of a shared 4-core x86-64 host,
// and longer under sanitizers. Tests wait until it holds its queue slot
// (wait_for_inflight) instead of sleeping a guessed head start.
std::string blocker_line() {
  return sweep_line(/*points=*/96, "blocker", /*spacing=*/0.05);
}

// Block until the server's dispatcher has `n` requests holding a queue
// slot — the counter the stats op reports as net.inflight, read directly
// because a stats request would itself queue behind a blocked executor.
// Returns false after 30 s.
bool wait_for_inflight(TestServer& server, std::int64_t n) {
  const gs::serve::NetStats* net = server.service().net_stats();
  if (net == nullptr) return false;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (net->inflight.load() < n) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

// ----------------------------------------------------------- the tests

TEST(EventLoopDaemon, Serves16ConcurrentClients) {
  // All 16 connections are open before any request is sent, so the
  // connection table genuinely holds 16 peers at once; every client then
  // pushes two requests (a distinct solve and a repeat that should be
  // answered from cache or coalesced) and checks its own ids back.
  TestServer server(ServiceOptions{1, 256, true, false});
  constexpr int kClients = 16;
  std::vector<Client> clients(kClients);
  for (int c = 0; c < kClients; ++c) clients[c].connect(server.port());

  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      // Four distinct scenarios across 16 clients: plenty of identical
      // concurrent requests to coalesce, plenty of distinct ones to
      // overlap on the executors.
      const double rate = 0.30 + 0.02 * (c % 4);
      for (int rep = 0; rep < 2; ++rep) {
        std::string id = "c";
        id += std::to_string(c);
        id += 'r';
        id += std::to_string(rep);
        clients[c].send_line(solve_line(rate, id));
        const std::string resp = clients[c].recv_line();
        if (resp.empty()) {
          ++failures;
          return;
        }
        const Json r = Json::parse(resp);
        if (r.find("error") != nullptr ||
            r.at("id").as_string() != id)
          ++failures;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);

  // Transport accounting: every one of the 32 lines was delivered, and
  // each was either handled by the service or coalesced onto a twin —
  // nothing lost, nothing double-counted.
  Client ctl;
  ctl.connect(server.port());
  const Json stats = ctl.request("{\"op\":\"stats\"}");
  EXPECT_EQ(stats.at("net").at("requests").as_int(),
            2 * kClients + 1 /*this stats request*/);
  EXPECT_EQ(stats.at("ops").at("solve").as_int() +
                stats.at("net").at("coalesced").as_int(),
            2 * kClients);
  server.stop();
}

TEST(EventLoopDaemon, IdenticalConcurrentSolvesCoalesceToOneExecution) {
  // One executor, blocked by a slow sweep: every solve admitted behind
  // it piles into the admission table, so K identical requests must
  // become one leader plus K-1 riders — a single solver execution whose
  // response every client receives byte-for-byte (same id on purpose).
  TcpOptions topts;
  topts.dispatch.workers = 1;
  TestServer server(ServiceOptions{1, 256, true, false}, topts);

  Client blocker;
  blocker.connect(server.port());
  blocker.send_line(blocker_line());
  // The sweep is admitted: every solve below queues behind it.
  ASSERT_TRUE(wait_for_inflight(server, 1));

  constexpr int kIdentical = 6;
  std::vector<Client> clients(kIdentical);
  const std::string req = solve_line(0.37, "dup");
  for (auto& c : clients) {
    c.connect(server.port());
    c.send_line(req);
  }

  std::vector<std::string> responses;
  for (auto& c : clients) responses.push_back(c.recv_line());
  EXPECT_FALSE(blocker.recv_line().empty());

  for (const auto& r : responses) {
    ASSERT_FALSE(r.empty());
    EXPECT_EQ(r, responses.front()) << "riders must fan out one result";
  }
  const Json first = Json::parse(responses.front());
  EXPECT_EQ(first.at("id").as_string(), "dup");
  EXPECT_EQ(first.find("error"), nullptr) << responses.front();
  EXPECT_FALSE(first.at("cached").as_bool())
      << "coalesced riders must share the in-flight solve, not re-enter "
         "the cache path";

  // The service saw exactly one of the K solves; the transport counted
  // the other K-1 as coalesced riders.
  Client ctl;
  ctl.connect(server.port());
  const Json stats = ctl.request("{\"op\":\"stats\"}");
  EXPECT_EQ(stats.at("ops").at("solve").as_int(), 1);
  EXPECT_EQ(stats.at("net").at("coalesced").as_int(), kIdentical - 1);
  EXPECT_EQ(stats.at("net").at("requests").as_int(),
            1 /*sweep*/ + kIdentical + 1 /*stats*/);
  server.stop();
  EXPECT_EQ(server.service().stats().solve_requests, 1u);
}

TEST(EventLoopDaemon, OverloadShedsWithStructuredErrors) {
  // queue_limit=1 and one executor: a slow sweep occupies the only
  // admission slot, so distinct solves behind it are refused
  // immediately with {"error":{"type":"overloaded"}} — and the
  // connection stays usable for a retry once the queue drains.
  TcpOptions topts;
  topts.dispatch.workers = 1;
  topts.dispatch.queue_limit = 1;
  topts.dispatch.coalesce = false;
  TestServer server(ServiceOptions{1, 256, true, false}, topts);

  Client blocker;
  blocker.connect(server.port());
  blocker.send_line(blocker_line());
  ASSERT_TRUE(wait_for_inflight(server, 1));

  constexpr int kOffered = 4;
  std::vector<Client> clients(kOffered);
  std::vector<std::string> shed_ids;
  for (int c = 0; c < kOffered; ++c) {
    clients[c].connect(server.port());
    const std::string id = "offered" + std::to_string(c);
    // Distinct scenarios — nothing to coalesce with, every one must
    // face admission control.
    const Json r = clients[c].request(solve_line(0.30 + 0.01 * c, id));
    const Json* err = r.find("error");
    ASSERT_NE(err, nullptr) << "request admitted past a full queue";
    EXPECT_EQ(err->at("type").as_string(), "overloaded");
    EXPECT_EQ(r.at("id").as_string(), id);
    shed_ids.push_back(id);
  }
  EXPECT_EQ(shed_ids.size(), kOffered);

  // The blocker finishes, the queue drains, and a shed client's retry
  // succeeds on the same connection. The executor releases the
  // admission slot before it queues the blocker's response, so the retry
  // may follow that response at once.
  EXPECT_FALSE(blocker.recv_line().empty());
  const Json retry = clients[0].request(solve_line(0.30, "retry"));
  EXPECT_EQ(retry.find("error"), nullptr);
  EXPECT_EQ(retry.at("id").as_string(), "retry");

  // Shed requests never reached the service: it saw the sweep, the
  // retry, and nothing else so far.
  server.stop();
  EXPECT_EQ(server.service().stats().solve_requests, 1u);
  EXPECT_EQ(server.service().stats().errors, 0u);
}

TEST(EventLoopDaemon, ControlOpsBypassAdmissionControl) {
  // With the only admission slot held by a slow sweep, stats and
  // shutdown must still get through — shedding the control plane would
  // leave an overloaded daemon uninspectable and unstoppable (the
  // shutdown would bounce as "overloaded" and the loop would run
  // forever).
  TcpOptions topts;
  topts.dispatch.workers = 1;
  topts.dispatch.queue_limit = 1;
  topts.dispatch.coalesce = false;
  TestServer server(ServiceOptions{1, 256, true, false}, topts);

  Client blocker;
  blocker.connect(server.port());
  blocker.send_line(blocker_line());
  ASSERT_TRUE(wait_for_inflight(server, 1));

  // A solve behind the blocker is shed...
  Client shed;
  shed.connect(server.port());
  const Json refused = shed.request(solve_line(0.30, "shed"));
  ASSERT_NE(refused.find("error"), nullptr);
  EXPECT_EQ(refused.at("error").at("type").as_string(), "overloaded");

  // ...but stats on the same full queue is admitted and answered (it
  // runs once the worker frees up; the answer proves it wasn't shed).
  Client ctl;
  ctl.connect(server.port());
  const Json stats = ctl.request("{\"op\":\"stats\",\"id\":\"ctl\"}");
  EXPECT_EQ(stats.find("error"), nullptr);
  EXPECT_EQ(stats.at("id").as_string(), "ctl");

  EXPECT_FALSE(blocker.recv_line().empty());
  // stop() sends shutdown with no settling delay — before the fix this
  // was the race that could shed the shutdown and hang the join.
  server.stop();
}

TEST(EventLoopDaemon, ClientDisconnectingMidRequestIsHarmless) {
  // A client fires a solve and vanishes before the answer; the daemon
  // must drop the response and keep serving everyone else.
  TestServer server(ServiceOptions{1, 256, true, false});
  {
    Client rude;
    rude.connect(server.port());
    rude.send_line(solve_line(0.33, "gone"));
  }  // closed immediately, response still in flight

  Client polite;
  polite.connect(server.port());
  const Json r = polite.request(solve_line(0.35, "here"));
  EXPECT_EQ(r.find("error"), nullptr);
  EXPECT_EQ(r.at("id").as_string(), "here");
  server.stop();
}

TEST(EventLoopDaemon, PipelinedAndSplitWritesFrameCorrectly) {
  // Two complete requests in a single write, then one request split
  // into three separate writes: four ordered responses, right ids.
  TestServer server(ServiceOptions{1, 256, true, false});
  Client client;
  client.connect(server.port());

  const std::string a = solve_line(0.31, "a");
  const std::string b = solve_line(0.32, "b");
  client.send_raw(a + "\n" + b + "\r\n");

  const std::string c = solve_line(0.33, "c");
  client.send_raw(c.substr(0, 10));
  // Only makes the split likely to arrive as two reads; the framing the
  // test checks is right for any timing.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  client.send_raw(c.substr(10));
  client.send_raw("\n");

  for (const char* id : {"a", "b", "c"}) {
    const std::string resp = client.recv_line();
    ASSERT_FALSE(resp.empty());
    EXPECT_EQ(Json::parse(resp).at("id").as_string(), id)
        << "responses must come back in request order";
  }
  server.stop();
}

TEST(EventLoopDaemon, OversizedLineGetsOneErrorThenClose) {
  // The limit must sit above a normal paper-system solve request
  // (~1.5 KiB serialized) and below the bloated line, or the follow-up
  // request would itself be refused.
  TcpOptions topts;
  topts.max_line = 4096;
  ASSERT_LT(solve_line(0.36, "fine").size(), topts.max_line);
  TestServer server(ServiceOptions{1, 256, true, false}, topts);

  Client bloated;
  bloated.connect(server.port());
  bloated.send_line(std::string(8192, 'x'));
  const std::string resp = bloated.recv_line();
  ASSERT_FALSE(resp.empty());
  EXPECT_EQ(Json::parse(resp).at("error").at("type").as_string(),
            "line_too_long");
  EXPECT_EQ(bloated.recv_line(), "") << "connection must close after the "
                                        "oversized-line error";

  // The daemon itself is unharmed.
  Client fine;
  fine.connect(server.port());
  const Json r = fine.request(solve_line(0.36, "fine"));
  EXPECT_EQ(r.find("error"), nullptr);
  server.stop();
}

TEST(EventLoopDaemon, MalformedJsonAnsweredSynchronously) {
  TestServer server(ServiceOptions{1, 256, true, false});
  Client client;
  client.connect(server.port());
  const Json r = client.request("{definitely not json");
  const Json* err = r.find("error");
  ASSERT_NE(err, nullptr);
  EXPECT_EQ(err->at("type").as_string(), "parse_error");
  // Same connection still works.
  const Json ok = client.request(solve_line(0.34, "after-garbage"));
  EXPECT_EQ(ok.find("error"), nullptr);
  server.stop();
}

TEST(EventLoopDaemon, ShutdownDrainsInFlightWork) {
  // Requests racing a shutdown must still be answered (the loop exits
  // only once the dispatcher is idle and every response is flushed).
  TcpOptions topts;
  topts.dispatch.workers = 2;
  TestServer server(ServiceOptions{1, 256, true, false}, topts);

  Client busy;
  busy.connect(server.port());
  busy.send_line(sweep_line(/*points=*/4, "slow"));
  ASSERT_TRUE(wait_for_inflight(server, 1));

  server.stop();  // shutdown while the sweep is mid-flight

  const std::string resp = busy.recv_line();
  ASSERT_FALSE(resp.empty()) << "in-flight work must be answered before "
                                "the daemon exits";
  EXPECT_EQ(Json::parse(resp).at("id").as_string(), "slow");
}

// ------------------------------------------- cache hits on the loop

TEST(EventLoopDaemon, HitIsAnsweredWhileTheOnlyWorkerIsBusy) {
  // A cached scenario is answered on the loop thread: with the single
  // executor held by a slow sweep, a hit on another connection comes
  // back before the sweep does.
  TcpOptions topts;
  topts.dispatch.workers = 1;
  TestServer server(ServiceOptions{1, 256, true, false}, topts);

  Client client;
  client.connect(server.port());
  ASSERT_FALSE(client.request(solve_line(0.30, "fill")).at("cached").as_bool());

  Client blocker;
  blocker.connect(server.port());
  blocker.send_line(blocker_line());
  ASSERT_TRUE(wait_for_inflight(server, 1));

  const Json hit = client.request(solve_line(0.30, "hit"));
  EXPECT_EQ(hit.at("id").as_string(), "hit");
  EXPECT_TRUE(hit.at("cached").as_bool());
  EXPECT_FALSE(blocker.has_data()) << "the sweep finished before the hit";

  EXPECT_FALSE(blocker.recv_line().empty());
  const Json stats = client.request("{\"op\":\"stats\"}");
  EXPECT_EQ(stats.at("net").at("hits_inline").as_int(), 1);
  EXPECT_EQ(stats.at("ops").at("solve").as_int(), 2);
  EXPECT_EQ(stats.at("cache").at("hits").as_int(), 1);
  server.stop();
}

TEST(EventLoopDaemon, PipelinedSweepThenHitComeBackInOrder) {
  // The loop hands a connection its next line only after the previous
  // one was answered, so a hit pipelined behind a sweep waits for it.
  TestServer server(ServiceOptions{1, 256, true, false});
  Client client;
  client.connect(server.port());
  ASSERT_EQ(client.request(solve_line(0.31, "fill")).find("error"), nullptr);

  client.send_raw(sweep_line(/*points=*/4, "sweep") + "\n" +
                  solve_line(0.31, "hit") + "\n");
  const Json first = Json::parse(client.recv_line());
  const Json second = Json::parse(client.recv_line());
  EXPECT_EQ(first.at("id").as_string(), "sweep");
  EXPECT_EQ(second.at("id").as_string(), "hit");
  EXPECT_TRUE(second.at("cached").as_bool());
  server.stop();
}

TEST(EventLoopDaemon, TcpHitIsByteIdenticalToTwinService) {
  // The same session over TCP and through handle_line on a twin service:
  // every response, hit counters included, byte for byte.
  const ServiceOptions sopts{1, 256, true, /*deterministic=*/true};
  TestServer server(sopts);
  EvalService twin(sopts);
  Client client;
  client.connect(server.port());
  for (const auto& line :
       {solve_line(0.32, "miss"), solve_line(0.32, "hit1"),
        solve_line(0.33, "other"), solve_line(0.32, "hit2")}) {
    client.send_line(line);
    EXPECT_EQ(client.recv_line(), twin.handle_line(line));
  }
  server.stop();
  EXPECT_EQ(server.service().stats().cache_hits, 2u);
}

TEST(EventLoopDaemon, FullQueueStillAnswersHitsButShedsMisses) {
  // queue_limit=1 held by a slow sweep: a hit needs no slot and is
  // answered; a distinct miss behind it is still shed.
  TcpOptions topts;
  topts.dispatch.workers = 1;
  topts.dispatch.queue_limit = 1;
  topts.dispatch.coalesce = false;
  TestServer server(ServiceOptions{1, 256, true, false}, topts);

  Client client;
  client.connect(server.port());
  ASSERT_EQ(client.request(solve_line(0.30, "fill")).find("error"), nullptr);

  Client blocker;
  blocker.connect(server.port());
  blocker.send_line(blocker_line());
  ASSERT_TRUE(wait_for_inflight(server, 1));

  const Json hit = client.request(solve_line(0.30, "hit"));
  EXPECT_EQ(hit.find("error"), nullptr) << hit.dump();
  EXPECT_TRUE(hit.at("cached").as_bool());

  const Json miss = client.request(solve_line(0.31, "miss"));
  ASSERT_NE(miss.find("error"), nullptr) << miss.dump();
  EXPECT_EQ(miss.at("error").at("type").as_string(), "overloaded");

  EXPECT_FALSE(blocker.recv_line().empty());
  server.stop();
  EXPECT_EQ(server.service().stats().cache_hits, 1u);
}

TEST(EventLoopDaemon, LoopProbeDoesNotCountCacheMisses) {
  // Every solve is probed on the loop thread before it is admitted; only
  // the solve that follows a failed probe counts the miss.
  gs::obs::configure({/*metrics=*/true, /*trace=*/false});
  gs::obs::reset();
  const auto counter = [](const char* name) {
    return gs::obs::snapshot().counter_value(name);
  };
  {
    TestServer server(ServiceOptions{1, 256, true, false});
    Client client;
    client.connect(server.port());
    client.request(solve_line(0.30, "a"));
    EXPECT_EQ(counter("serve.cache.miss"), 1u);
    client.request(solve_line(0.30, "a-again"));
    EXPECT_EQ(counter("serve.cache.miss"), 1u);
    EXPECT_EQ(counter("serve.cache.hit"), 1u);
    EXPECT_EQ(counter("serve.net.hits_inline"), 1u);
    client.request(solve_line(0.31, "b"));
    EXPECT_EQ(counter("serve.cache.miss"), 2u);
    server.stop();
    EXPECT_EQ(server.service().stats().cache_misses, 2u);
    EXPECT_EQ(server.service().stats().cache_hits, 1u);
  }
  gs::obs::configure({});
}

}  // namespace
