// gangd_open: open-loop traffic at a fixed rate into an in-process gangd
// (serve::serve_tcp on loopback: 2 executor workers, coalescing on, a
// 128-entry result cache) over 4 connections, all driven by one
// poll-driven generator thread. The seeded mix takes bench/gangd_load's
// op split, solve : solve_batch : sweep = 8 : 1 : 1, and its request
// shapes:
//   * Zipf-drawn `solve` requests over a 384-scenario pool, larger than
//     the cache, so hits, warm and cold misses, inserts and evictions all
//     occur;
//   * `solve_batch` requests of two Zipf-drawn scenarios;
//   * repeated `sweep` requests over quantum 0.5, 1, 1.5, 2 (sweeps never
//     consult the cache, so a repeat costs as much as the first).
// The rate is a fixed fraction of the saturation rate measured with
// --rate (see kRate). Each request is timed from its scheduled send. The
// first seconds warm the cache and are not measured. Afterwards every
// response is checked against EvalService::handle_line on the same
// request line.
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <future>
#include <iostream>
#include <memory>
#include <thread>

#include "common.hpp"
#include "gang/solver.hpp"
#include "json/json.hpp"
#include "serve/canonical.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "workload/paper_configs.hpp"

namespace perfbench {

namespace {

using gs::json::Json;

constexpr std::size_t kConns = 4;
constexpr int kWorkers = 2;
constexpr std::size_t kCacheCapacity = 128;
constexpr std::size_t kPool = 384;
constexpr double kZipfS = 1.2;
// Offered load, requests/s: about a quarter of the saturation rate. The
// saturation rate, rate / serve.worker_util, read 47, 62, 64 and 60
// requests/s with --rate 10, 20, 30 and 40 on a 4-core x86-64 host (the
// lowest rate spends more of its run warming the cache).
constexpr double kRate = 16.0;
constexpr double kWarmupS = 4.0;       // scheduled, answered, not measured
constexpr double kSweepShare = 0.1;
constexpr double kBatchShare = 0.1;
constexpr std::size_t kBatchItems = 2;
constexpr double kSweepQuanta[] = {0.5, 1.0, 1.5, 2.0};
// One sweep body, repeated, on a system from the low end of
// bench/gangd_load's lambda range [0.25, 0.4]: at quantum 2 the fixed
// point stops converging for lambda 0.34-0.39. It is fixed, not seeded,
// so the sweep cost, which sets latency_ms_p99, does not move with the
// seed.
constexpr std::size_t kSweepBodies = 1;
constexpr double kSweepLambda[kSweepBodies] = {0.28};
constexpr double kFailedMs = 1e9;      // latency of a failed/shed request

enum Kind { kSolve = 0, kBatch = 1, kSweep = 2 };
// Client-side latency classes (Layers::op_p50 order).
enum OpClass { kHit = 0, kMiss = 1, kBatchOp = 2, kSweepOp = 3 };

gs::gang::SystemParams paper(double lambda, double quantum) {
  gs::workload::PaperKnobs knobs;
  knobs.arrival_rate = lambda;
  knobs.quantum_mean = quantum;
  return gs::workload::paper_system(knobs);
}

/// Seeded request plan: distinct request bodies (no id) and, per request,
/// which body it sends at which scheduled time.
struct Plan {
  std::vector<gs::gang::SystemParams> pool;
  std::vector<std::string> bodies;
  std::vector<Kind> body_kind;
  std::vector<std::size_t> body_points;  ///< scenario results per body
  /// Sweep bodies' points, for the scalar convergence check.
  std::vector<std::vector<gs::gang::SystemParams>> sweep_points;
  std::vector<std::size_t> request_body;
  std::vector<std::string> lines;
  double rate = kRate;  ///< requests per second
  double duration_s = 0;

  double scheduled_s(std::size_t k) const {
    return static_cast<double>(k) / rate;
  }
};

Plan make_plan(std::uint64_t seed, double measured_s, double rate) {
  Plan plan;
  plan.rate = rate;
  gs::util::Rng rng(seed ^ 0xbb67ae8584caa73bull);
  for (std::size_t i = 0; i < kPool; ++i)
    plan.pool.push_back(
        paper(0.25 + 0.2 * rng.uniform(), 0.3 + 1.1 * rng.uniform()));
  // Zipf over a seeded popularity order.
  std::vector<std::size_t> rank(kPool);
  for (std::size_t i = 0; i < kPool; ++i) rank[i] = i;
  for (std::size_t i = kPool; i > 1; --i)
    std::swap(rank[i - 1], rank[rng.uniform_int(i)]);
  std::vector<double> weight(kPool);
  for (std::size_t i = 0; i < kPool; ++i)
    weight[i] = 1.0 / std::pow(static_cast<double>(i + 1), kZipfS);
  const auto zipf = [&] { return rank[rng.discrete(weight)]; };

  std::vector<long> solve_body(kPool, -1);
  const auto add_body = [&plan](Json body, Kind kind, std::size_t points) {
    plan.bodies.push_back(body.dump());
    plan.body_kind.push_back(kind);
    plan.body_points.push_back(points);
    return plan.bodies.size() - 1;
  };
  for (std::size_t s = 0; s < kSweepBodies; ++s) {
    const double lambda = kSweepLambda[s];
    Json values = Json::array();
    std::vector<gs::gang::SystemParams> pts;
    for (const double q : kSweepQuanta) {
      values.push_back(q);
      pts.push_back(paper(lambda, q));
    }
    Json vary = Json::object();
    vary.set("param", "quantum_mean");
    vary.set("values", std::move(values));
    Json body = Json::object();
    body.set("op", "sweep");
    body.set("system", gs::serve::params_to_json(paper(lambda, 1.0)));
    body.set("vary", std::move(vary));
    add_body(std::move(body), kSweep, 4);
    plan.sweep_points.push_back(std::move(pts));
  }

  plan.duration_s = kWarmupS + measured_s;
  const std::size_t n =
      static_cast<std::size_t>(std::ceil(plan.duration_s * rate));
  for (std::size_t k = 0; k < n; ++k) {
    const double u = rng.uniform();
    std::size_t body;
    if (u < kSweepShare) {
      body = rng.uniform_int(kSweepBodies);
    } else if (u < kSweepShare + kBatchShare) {
      Json items = Json::array();
      for (std::size_t j = 0; j < kBatchItems; ++j) {
        Json item = Json::object();
        item.set("system", gs::serve::params_to_json(plan.pool[zipf()]));
        items.push_back(std::move(item));
      }
      Json b = Json::object();
      b.set("op", "solve_batch");
      b.set("items", std::move(items));
      body = add_body(std::move(b), kBatch, kBatchItems);
    } else {
      const std::size_t s = zipf();
      if (solve_body[s] < 0) {
        Json b = Json::object();
        b.set("op", "solve");
        b.set("system", gs::serve::params_to_json(plan.pool[s]));
        solve_body[s] = static_cast<long>(add_body(std::move(b), kSolve, 1));
      }
      body = static_cast<std::size_t>(solve_body[s]);
    }
    plan.request_body.push_back(body);
    Json req = Json::parse(plan.bodies[body]);
    req.set("id", static_cast<std::int64_t>(k));
    plan.lines.push_back(req.dump());
  }
  return plan;
}

// --------------------------------------------------------------- daemon

int connect_loopback(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw gs::Error(std::string("socket: ") + std::strerror(errno));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  int rc;
  do {
    rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr);
  } while (rc < 0 && errno == EINTR);
  if (rc < 0) {
    const int err = errno;
    ::close(fd);
    throw gs::Error(std::string("connect: ") + std::strerror(err));
  }
  return fd;
}

/// Blocking one-shot exchange: send `line`, return the first response
/// line.
std::string exchange(int port, const std::string& line) {
  const int fd = connect_loopback(port);
  std::string out = line + "\n", buf;
  std::size_t off = 0;
  while (off < out.size()) {
    const ssize_t n =
        ::send(fd, out.data() + off, out.size() - off, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) break;
    off += static_cast<std::size_t>(n);
  }
  char chunk[4096];
  while (buf.find('\n') == std::string::npos) {
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    buf.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return buf.substr(0, buf.find('\n'));
}

/// An in-process gangd on an ephemeral loopback port; the destructor
/// sends `shutdown` and joins the serving thread.
class Daemon {
 public:
  Daemon()
      : service_(gs::serve::ServiceOptions{1, kCacheCapacity, true, false}) {
    std::future<int> port = bound_.get_future();
    gs::serve::TcpOptions topts;
    topts.dispatch.workers = kWorkers;
    topts.on_listen = [this](int p) { bound_.set_value(p); };
    thread_ = std::thread([this, topts] {
      try {
        gs::serve::serve_tcp(service_, topts);
      } catch (...) {
        try {
          bound_.set_exception(std::current_exception());
        } catch (const std::future_error&) {
          // Already listening; the failure surfaces as a dropped client.
        }
      }
    });
    try {
      port_ = port.get();
    } catch (...) {
      thread_.join();
      throw;
    }
  }
  ~Daemon() {
    try {
      exchange(port_, "{\"op\":\"shutdown\"}");
    } catch (const gs::Error& e) {
      std::cerr << "gangd_open: shutdown failed: " << e.what() << "\n";
    }
    thread_.join();
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  int port() const { return port_; }

 private:
  gs::serve::EvalService service_;
  std::promise<int> bound_;
  int port_ = 0;
  std::thread thread_;
};

// ------------------------------------------------------------ generator

struct Traffic {
  std::vector<std::string> response;
  std::vector<double> latency_ms;  ///< from the scheduled send
  double late_ms_max = 0;
  std::size_t unanswered = 0;
};

/// Send every planned line at its scheduled time over kConns non-blocking
/// connections (request k on connection k % kConns) from this one thread,
/// and collect the responses, which each connection returns in order.
Traffic drive(const Plan& plan, int port, Result& r) {
  struct Conn {
    int fd = -1;
    std::string in, out;
    std::vector<std::size_t> pending;  // sent, unanswered, in send order
    std::size_t head = 0;

    Conn() = default;
    ~Conn() {
      if (fd >= 0) ::close(fd);
    }
    Conn(const Conn&) = delete;
    Conn& operator=(const Conn&) = delete;
  };
  std::vector<Conn> conns(kConns);
  for (Conn& c : conns) {
    c.fd = connect_loopback(port);
    ::fcntl(c.fd, F_SETFL, ::fcntl(c.fd, F_GETFL) | O_NONBLOCK);
  }
  const std::size_t n = plan.lines.size();
  Traffic t;
  t.response.assign(n, "");
  t.latency_ms.assign(n, kFailedMs);
  const auto start = Clock::now() + std::chrono::milliseconds(20);
  const auto due = [&](std::size_t k) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(plan.scheduled_s(k)));
  };
  const auto deadline = due(n) + std::chrono::seconds(60);
  std::size_t next = 0, answered = 0;
  bool broken = false;
  while (answered < n && !broken) {
    const auto now = Clock::now();
    if (now > deadline) {
      r.problem("gangd_open: responses still missing 60 s after the last "
                "send");
      break;
    }
    for (; next < n && due(next) <= now; ++next) {
      Conn& c = conns[next % kConns];
      c.out += plan.lines[next];
      c.out += '\n';
      c.pending.push_back(next);
      t.late_ms_max = std::max(t.late_ms_max, ms_between(due(next), now));
    }
    pollfd fds[kConns];
    for (std::size_t i = 0; i < kConns; ++i) {
      Conn& c = conns[i];
      while (!c.out.empty()) {
        const ssize_t w = ::send(c.fd, c.out.data(), c.out.size(),
                                 MSG_NOSIGNAL | MSG_DONTWAIT);
        if (w < 0) {
          if (errno == EINTR) continue;
          if (errno != EAGAIN && errno != EWOULDBLOCK) broken = true;
          break;
        }
        c.out.erase(0, static_cast<std::size_t>(w));
      }
      fds[i] = {c.fd, static_cast<short>(POLLIN | (c.out.empty() ? 0 : POLLOUT)),
                0};
    }
    const auto wake = next < n ? due(next) : now + std::chrono::milliseconds(50);
    const auto wait = std::max(Clock::duration::zero(), wake - Clock::now());
    const auto ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(wait).count();
    timespec ts{static_cast<time_t>(ns / 1000000000),
                static_cast<long>(ns % 1000000000)};
    if (::ppoll(fds, kConns, &ts, nullptr) < 0 && errno != EINTR) {
      broken = true;
      break;
    }
    for (std::size_t i = 0; i < kConns; ++i) {
      if (!(fds[i].revents & (POLLIN | POLLHUP | POLLERR))) continue;
      Conn& c = conns[i];
      char chunk[65536];
      for (;;) {
        const ssize_t got = ::recv(c.fd, chunk, sizeof chunk, MSG_DONTWAIT);
        if (got < 0 && errno == EINTR) continue;
        if (got < 0) {
          if (errno != EAGAIN && errno != EWOULDBLOCK) broken = true;
          break;
        }
        if (got == 0) {
          broken = true;
          break;
        }
        c.in.append(chunk, static_cast<std::size_t>(got));
      }
      const auto arrived = Clock::now();
      std::size_t pos = 0, nl;
      while ((nl = c.in.find('\n', pos)) != std::string::npos) {
        if (c.head >= c.pending.size()) {
          r.problem("gangd_open: unsolicited response line");
          broken = true;
          break;
        }
        const std::size_t k = c.pending[c.head++];
        t.response[k] = c.in.substr(pos, nl - pos);
        t.latency_ms[k] = ms_between(due(k), arrived);
        ++answered;
        pos = nl + 1;
      }
      c.in.erase(0, pos);
    }
  }
  if (broken) r.problem("gangd_open: a connection failed mid-run");
  t.unanswered = n - answered;
  return t;
}

// ---------------------------------------------------------- verification

/// A reference answer per distinct body: solve and solve_batch bodies
/// through `cold`, a service without warm starts (its answers are the
/// scalar cold solves), sweeps through `live_like`, configured like the
/// daemon (sweeps never touch the cache or the warm index). Four threads.
std::vector<Json> reference_answers(const Plan& plan,
                                    const std::vector<bool>& used,
                                    gs::serve::EvalService& cold,
                                    gs::serve::EvalService& live_like) {
  std::vector<Json> ref(plan.bodies.size());
  std::atomic<std::size_t> next{0};
  const auto work = [&] {
    for (std::size_t i; (i = next.fetch_add(1)) < plan.bodies.size();) {
      if (!used[i]) continue;
      gs::serve::EvalService& svc =
          plan.body_kind[i] == kSweep ? live_like : cold;
      ref[i] = Json::parse(svc.handle_line(plan.bodies[i]));
    }
  };
  std::vector<std::thread> threads;
  for (int i = 0; i < 4; ++i) threads.emplace_back(work);
  for (std::thread& th : threads) th.join();
  return ref;
}

bool close_rel(double a, double b) {
  return std::fabs(a - b) <= 1e-4 * std::max(std::fabs(a), std::fabs(b));
}

/// One solved scenario in a response against its reference. A cold
/// answer must match bit for bit; a warm-started one converges to the
/// same fixed point from another start, so it must agree within 1e-4 on
/// every N_p. Returns false on a mismatch.
bool same_solve(const Json& live, const Json& ref) {
  if (live.find("error") || ref.find("error"))
    return live.find("error") && ref.find("error");
  if (!live.at("warm_started").as_bool())
    return live.at("result") == ref.at("result") &&
           live.at("iterations") == ref.at("iterations") &&
           live.at("converged") == ref.at("converged");
  const auto& a = live.at("result").at("per_class").as_array();
  const auto& b = ref.at("result").at("per_class").as_array();
  if (a.size() != b.size()) return false;
  for (std::size_t p = 0; p < a.size(); ++p)
    if (!close_rel(a[p].at("mean_jobs").as_double(),
                   b[p].at("mean_jobs").as_double()))
      return false;
  return true;
}

/// Per-request verdict and the client-side facts the metrics need.
struct Reply {
  bool ok = false;        ///< answered, no error, matches the reference
  bool shed = false;
  bool unconverged = false;
  OpClass op = kMiss;
  bool warm = false;      ///< solve miss answered from a warm start
  double service_ms = -1;  ///< the response's own "ms", when it has one
  std::uint64_t iterations = 0;  ///< fixed-point iterations it executed
  std::size_t executed = 0;      ///< scenario solves it executed
  std::size_t batched = 0;       ///< of those, on the lock-step path
  std::size_t points = 0;        ///< scenario results delivered
};

Reply check(const Plan& plan, std::size_t body, const std::string& line,
            std::size_t k, const Json& ref,
            const std::vector<bool>& sweep_unconverged, Result& r) {
  Reply out;
  const Kind kind = plan.body_kind[body];
  out.op = kind == kSweep ? kSweepOp : kind == kBatch ? kBatchOp : kMiss;
  if (line.empty()) return out;
  Json live;
  try {
    live = Json::parse(line);
  } catch (const gs::Error&) {
    r.problem("gangd_open: unparseable response to request " +
              std::to_string(k));
    return out;
  }
  const Json* id = live.find("id");
  if (id == nullptr || !id->is_number() ||
      id->as_int() != static_cast<std::int64_t>(k)) {
    r.problem("gangd_open: response out of order at request " +
              std::to_string(k));
    return out;
  }
  if (const Json* err = live.find("error")) {
    const Json* type = err->find("type");
    out.shed = type != nullptr && type->as_string() == "overloaded";
    return out;
  }
  if (const Json* ms = live.find("ms")) out.service_ms = ms->as_double();
  bool match = true;
  if (kind == kSolve) {
    const bool cached = live.at("cached").as_bool();
    out.op = cached ? kHit : kMiss;
    out.warm = !cached && live.at("warm_started").as_bool();
    out.unconverged = !live.at("converged").as_bool();
    if (!cached) {
      out.executed = 1;
      out.iterations = static_cast<std::uint64_t>(live.at("iterations").as_int());
    }
    match = same_solve(live, ref);
  } else if (kind == kBatch) {
    const auto& a = live.at("results").as_array();
    const auto& b = ref.at("results").as_array();
    match = a.size() == b.size();
    for (std::size_t i = 0; match && i < a.size(); ++i) {
      match = same_solve(a[i], b[i]);
      if (const Json* c = a[i].find("converged"); c && !c->as_bool())
        out.unconverged = true;
      if (!a[i].at("cached").as_bool()) {
        ++out.executed;
        out.iterations +=
            static_cast<std::uint64_t>(a[i].at("iterations").as_int());
        if (const Json* bt = a[i].find("batched"); bt && bt->as_bool())
          ++out.batched;
      }
    }
  } else {
    match = live.at("points") == ref.at("points");
    out.unconverged = sweep_unconverged[body];
    // A row that failed, or stopped at the iteration cap, did not
    // converge as far as the response can tell.
    const int cap = gs::gang::GangSolveOptions{}.max_iterations;
    for (const Json& row : live.at("points").as_array()) {
      ++out.executed;
      if (row.find("error")) out.unconverged = true;
      if (const Json* it = row.find("iterations")) {
        out.iterations += static_cast<std::uint64_t>(it->as_int());
        if (it->as_int() >= cap) out.unconverged = true;
      }
    }
  }
  if (!match) {
    r.problem("gangd_open: response to request " + std::to_string(k) +
              " differs from EvalService::handle_line on the same line");
    return out;
  }
  out.points = plan.body_points[body];
  out.ok = !out.unconverged;
  return out;
}

struct Pass {
  Traffic traffic;
  std::vector<Reply> replies;
  Trace trace;
};

Pass run_pass(const Plan& plan, std::unique_ptr<Daemon>& daemon, bool traced,
              Result& r) {
  Pass pass;
  if (traced) obs_enable(true);
  pass.traffic = drive(plan, daemon->port(), r);
  if (traced) {
    pass.trace = Trace::capture();
    obs_enable(false);
  }
  daemon.reset();
  return pass;
}

std::unique_ptr<Daemon> warm_daemon() {
  auto d = std::make_unique<Daemon>();
  Json warm = Json::object();
  warm.set("op", "solve");
  warm.set("system", gs::serve::params_to_json(paper(0.25, 0.5)));
  exchange(d->port(), warm.dump());
  return d;
}

}  // namespace

Result run_gangd_open(const Args& args) {
  Result r;
  Plan plan;
  std::unique_ptr<Daemon> daemon;
  const double measured_s = args.trace ? args.seconds / 2 : args.seconds;
  const double setup_s = median_setup_s(
      5,
      [&] {
        plan = make_plan(args.seed, measured_s,
                         args.rate > 0 ? args.rate : kRate);
        daemon = warm_daemon();
      },
      [&] { daemon.reset(); });

  std::vector<Pass> passes;
  passes.push_back(run_pass(plan, daemon, false, r));
  const double rss_mb = peak_rss_mb();
  if (args.trace) {
    daemon = warm_daemon();
    passes.push_back(run_pass(plan, daemon, true, r));
  }

  // Verification: references for every body any request used, and each
  // sweep's points re-solved by the scalar solver for their convergence.
  std::vector<bool> used(plan.bodies.size(), false);
  for (const std::size_t b : plan.request_body) used[b] = true;
  gs::serve::EvalService cold(
      gs::serve::ServiceOptions{1, 1 << 16, false, true});
  gs::serve::EvalService live_like(
      gs::serve::ServiceOptions{1, kCacheCapacity, true, true});
  const std::vector<Json> ref = reference_answers(plan, used, cold, live_like);
  std::vector<bool> sweep_unconverged(plan.bodies.size(), false);
  for (std::size_t s = 0; s < kSweepBodies; ++s)
    for (const auto& sys : plan.sweep_points[s])
      if (!gs::gang::GangSolver(sys).solve().converged)
        sweep_unconverged[s] = true;
  for (Pass& p : passes)
    for (std::size_t k = 0; k < plan.lines.size(); ++k)
      p.replies.push_back(check(plan, plan.request_body[k],
                                p.traffic.response[k], k,
                                ref[plan.request_body[k]], sweep_unconverged,
                                r));

  // Measured requests: those scheduled after the warm-up.
  const std::size_t first =
      static_cast<std::size_t>(std::ceil(kWarmupS * plan.rate));
  const auto measured = [&](const Pass& p, auto&& fn) {
    for (std::size_t k = first; k < plan.lines.size(); ++k)
      fn(p.replies[k], p.traffic.latency_ms[k]);
  };
  const Pass& base = passes.front();
  std::vector<double> latency, miss_ms;
  double points = 0;
  std::size_t shed = 0, unconverged = 0;
  measured(base, [&](const Reply& y, double ms) {
    ++r.attempted;
    if (!y.ok) ++r.failed;
    if (y.shed) ++shed;
    if (y.unconverged) ++unconverged;
    latency.push_back(y.ok ? ms : kFailedMs);
    points += static_cast<double>(y.points);
    if (y.ok && y.op == kMiss && y.service_ms >= 0)
      miss_ms.push_back(y.service_ms);
  });
  std::cerr << "gangd_open: " << r.attempted << " measured requests, "
            << r.failed << " failed (" << shed << " shed, " << unconverged
            << " unconverged), " << base.traffic.unanswered
            << " unanswered, generator late by at most "
            << base.traffic.late_ms_max << " ms\n";

  if (!args.trace) {
    EndToEnd e;
    e.setup_s = setup_s;
    e.points_per_s = points / measured_s;
    e.solve_ms_p50 = median(miss_ms);
    e.latency_ms_p50 = median(latency);
    e.latency_ms_p99 = percentile(latency, 0.99);
    e.peak_rss_mb = rss_mb;
    emit_end_to_end(r, e);
    return r;
  }

  const Pass& tp = passes.back();
  Layers l;
  std::vector<double> by_op[4], wait_ms, sweep_ms, traced_miss_ms;
  double hits = 0, solves = 0, misses = 0, warm = 0, traced_shed = 0;
  measured(tp, [&](const Reply& y, double ms) {
    if (y.shed) ++traced_shed;
    if (!y.ok) return;
    by_op[y.op].push_back(ms);
    if (y.op == kHit || y.op == kMiss) ++solves;
    if (y.op == kHit) ++hits;
    if (y.op == kMiss) {
      ++misses;
      if (y.warm) ++warm;
      traced_miss_ms.push_back(y.service_ms);
    }
    if (y.op == kSweepOp) sweep_ms.push_back(y.service_ms);
    if (y.service_ms >= 0) wait_ms.push_back(ms - y.service_ms);
  });
  double executed = 0, batched = 0;
  std::uint64_t iterations = 0;
  std::vector<bool> scenario_seen(plan.bodies.size(), false);
  double distinct_unconverged = 0;
  for (std::size_t k = 0; k < plan.lines.size(); ++k) {
    const Reply& y = tp.replies[k];
    executed += static_cast<double>(y.executed);
    batched += static_cast<double>(y.batched);
    iterations += y.iterations;
    if (y.unconverged && !scenario_seen[plan.request_body[k]]) {
      scenario_seen[plan.request_body[k]] = true;
      ++distinct_unconverged;
    }
  }
  batched += static_cast<double>(tp.trace.counter("sweep.batched"));
  l.batched_share = executed > 0 ? batched / executed : 0;
  l.fp_iterations = executed > 0 ? static_cast<double>(iterations) / executed
                                 : 0;
  l.unconverged = distinct_unconverged;

  const ReplayStats rep = replay(plan.pool, 16);
  SolverPass sp;
  sp.ops = static_cast<double>(plan.lines.size());
  sp.wall_ms = stage_times(tp.trace).serve_request;
  sp.iterations = iterations;
  fill_solver_layers(l, tp.trace, rep, sp, args.seed);

  // The hit path, replayed on the reference service, which by now holds
  // every solved scenario.
  std::vector<double> hit_ms;
  for (std::size_t b = 0; b < plan.bodies.size() && hit_ms.size() < 64; ++b) {
    if (!used[b] || plan.body_kind[b] != kSolve) continue;
    const auto t0 = Clock::now();
    cold.handle_line(plan.bodies[b]);
    hit_ms.push_back(ms_between(t0, Clock::now()));
  }
  l.handle_hit_ms = median(hit_ms);
  l.hit_share = solves > 0 ? hits / solves : 0;
  l.coalesced_share =
      solves > 0
          ? static_cast<double>(tp.trace.counter("serve.net.coalesced")) /
                solves
          : 0;
  l.warm_share = misses > 0 ? warm / misses : 0;
  l.handle_miss_ms = median(traced_miss_ms);
  l.handle_sweep_ms = median(sweep_ms);
  // Saturation sits near rate / worker_util: the rate at which the
  // executors would be busy all the time.
  l.worker_util = sp.wall_ms / (kWorkers * plan.duration_s * 1000.0);
  l.wait_ms_p50 = median(wait_ms);
  l.shed = traced_shed;
  l.late_ms_max = tp.traffic.late_ms_max;
  for (int op = 0; op < 4; ++op) {
    l.op_p50[op] = median(by_op[op]);
    l.op_p99[op] = percentile(by_op[op], 0.99);
  }
  l.overhead_share =
      miss_ms.empty() ? 0 : median(traced_miss_ms) / median(miss_ms);
  std::cerr << "gangd_open: traced pass at " << plan.rate
            << " requests/s: worker utilisation " << l.worker_util
            << ", hit share " << l.hit_share << ", generator late by at most "
            << l.late_ms_max << " ms\n";
  emit_layers(r, l);
  return r;
}

}  // namespace perfbench
