#include "serve/dispatch.hpp"

#include <algorithm>
#include <optional>
#include <utility>

#include "obs/obs.hpp"
#include "util/thread_pool.hpp"

namespace gs::serve {

namespace {

using json::Json;

/// Admission key of a coalescable solve: the scenario's cache key,
/// salted when warm-start is off for this request — a cold and a warm
/// solve of the same scenario may answer differently (warm_started,
/// iterations), so they must not share a flight.
constexpr std::uint64_t kColdSalt = 0x9e3779b97f4a7c15ull;

/// Echo op/id the way EvalService::handle does, so transport-level
/// refusals are attributable exactly like service errors.
Json response_header(const Json& request) {
  Json out = Json::object();
  if (request.is_object()) {
    const Json* o = request.find("op");
    out.set("op", (o && o->is_string()) ? *o : Json(nullptr));
    if (const Json* id = request.find("id")) out.set("id", *id);
  } else {
    out.set("op", nullptr);
  }
  return out;
}

/// The leader's response with the rider's id spliced in (or removed, if
/// the rider sent none). Everything else is byte-identical.
std::string response_for_rider(const Json& leader, bool has_id,
                               const Json& id) {
  Json out = Json::object();
  for (const auto& m : leader.as_object()) {
    if (m.key == "id") continue;
    out.set(m.key, m.value);
    if (m.key == "op" && has_id) out.set("id", id);
  }
  return out.dump();
}

}  // namespace

Dispatcher::Dispatcher(EvalService& service, const DispatchOptions& options)
    : service_(service), options_(options) {
  if (options_.pool != nullptr) {
    pool_ = options_.pool;
    pool_->reserve(options_.workers > 0
                       ? static_cast<std::size_t>(options_.workers)
                       : pool_->num_threads());
  } else if (options_.workers > 0) {
    // A private pool with exactly `workers` executors: capacity is
    // workers + 1 because the constructing (loop) thread counts as a
    // lane but never participates in submitted work.
    owned_ = std::make_unique<util::ThreadPool>(
        static_cast<std::size_t>(options_.workers) + 1);
    pool_ = owned_.get();
    pool_->reserve(static_cast<std::size_t>(options_.workers));
  } else {
    pool_ = &util::ThreadPool::shared();
    pool_->reserve(pool_->num_threads());
  }
  if (options_.queue_limit == 0) options_.queue_limit = 1;
}

Dispatcher::~Dispatcher() { drain(); }

void Dispatcher::drain() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [&] { return admitted_ == 0; });
}

bool Dispatcher::idle() const {
  std::lock_guard<std::mutex> lock(mu_);
  return admitted_ == 0;
}

void Dispatcher::on_open(std::uint64_t) {
  ++net_.accepted;
  const auto open = ++net_.connections;
  obs::count("serve.net.accepted");
  obs::gauge_set("serve.net.connections", static_cast<double>(open));
}

void Dispatcher::on_close(std::uint64_t) {
  ++net_.closed;
  const auto open = --net_.connections;
  obs::gauge_set("serve.net.connections", static_cast<double>(open));
}

void Dispatcher::on_oversized(std::uint64_t conn) {
  ++net_.oversized;
  obs::count("serve.net.oversized");
  Json out = Json::object();
  Json detail = Json::object();
  detail.set("type", "line_too_long");
  detail.set("message", "request line exceeds the configured maximum");
  out.set("error", std::move(detail));
  server_->send(conn, out.dump());
}

void Dispatcher::on_response_dropped(std::uint64_t) {
  ++net_.dropped;
  obs::count("serve.net.dropped");
}

void Dispatcher::send_shed(std::uint64_t conn, const Json& request) {
  ++net_.shed;
  obs::count("serve.net.shed");
  Json out = response_header(request);
  Json detail = Json::object();
  detail.set("type", "overloaded");
  detail.set("message",
             "request queue full (" + std::to_string(options_.queue_limit) +
                 " in flight); retry later");
  out.set("error", std::move(detail));
  server_->send(conn, out.dump());
}

void Dispatcher::on_line(std::uint64_t conn, std::string line) {
  ++net_.requests;
  obs::count("serve.net.requests");

  Json request;
  try {
    request = Json::parse(line);
  } catch (const json::ParseError&) {
    // Let the service produce (and count) the structured parse error;
    // answering synchronously keeps garbage from occupying queue slots.
    server_->send(conn, service_.handle_line(line));
    return;
  }

  // Control-plane ops bypass the admission cap: an operator must be
  // able to inspect (stats) and stop (shutdown) an overloaded daemon —
  // shedding a shutdown would leave the loop running forever. They
  // still hold a queue slot while executing so drain() and idle()
  // account for them like any other request.
  bool control = false;
  std::optional<ScenarioKey> scenario;
  if (request.is_object()) {
    if (const Json* o = request.find("op"); o && o->is_string()) {
      const std::string& op = o->as_string();
      control = op == "stats" || op == "shutdown";
      if (op == "solve") {
        try {
          scenario = service_.scenario_key(request);
        } catch (const Error&) {
          // Not a valid solve; the executor answers with the error.
        }
      }
    }
  }
  // A cached scenario is answered here, on the loop thread: it holds no
  // queue slot, is never shed, and costs no executor hop.
  if (scenario) {
    if (std::optional<Json> hit = service_.handle_cached(request, *scenario)) {
      ++net_.hits_inline;
      obs::count("serve.net.hits_inline");
      server_->send(conn, hit->dump());
      return;
    }
  }
  const bool coalescable = scenario && options_.coalesce;
  const std::uint64_t key =
      coalescable ? scenario->hash ^ (scenario->warm ? 0 : kColdSalt) : 0;

  {
    std::lock_guard<std::mutex> lock(mu_);
    if (coalescable) {
      if (auto it = flights_.find(key); it != flights_.end()) {
        Waiter w;
        w.conn = conn;
        if (const Json* id = request.find("id")) {
          w.has_id = true;
          w.id = *id;
        }
        it->second.push_back(std::move(w));
        ++net_.coalesced;
        obs::count("serve.net.coalesced");
        return;  // answered when the leader's flight lands
      }
    }
    if (!control && admitted_ >= options_.queue_limit) {
      send_shed(conn, request);
      return;
    }
    ++admitted_;
    net_.inflight.store(static_cast<std::int64_t>(admitted_));
    obs::gauge_set("serve.net.inflight", static_cast<double>(admitted_));
    if (coalescable) flights_.emplace(key, std::vector<Waiter>{});
  }

  pool_->submit([this, conn, req = std::move(request), coalescable,
                 key]() mutable {
    execute(conn, std::move(req), coalescable, key);
  });
}

void Dispatcher::execute(std::uint64_t conn, Json request, bool coalescable,
                         std::uint64_t key) {
  ++net_.executing;
  obs::gauge_set(
      "serve.net.queue_depth",
      static_cast<double>(std::max<std::int64_t>(
          0, net_.inflight.load() - net_.executing.load())));
  const Json response = service_.handle(request);
  --net_.executing;

  const std::string text = response.dump();
  std::vector<Waiter> riders;
  if (coalescable) {
    std::lock_guard<std::mutex> lock(mu_);
    if (auto it = flights_.find(key); it != flights_.end()) {
      riders = std::move(it->second);
      flights_.erase(it);
    }
  }
  server_->send(conn, text);
  for (const Waiter& w : riders)
    server_->send(w.conn, response_for_rider(response, w.has_id, w.id));

  if (service_.shutdown_requested()) server_->request_stop();

  // Release the queue slot only after every response is queued, so
  // idle() going true guarantees the loop has all the bytes to flush.
  {
    std::lock_guard<std::mutex> lock(mu_);
    --admitted_;
    net_.inflight.store(static_cast<std::int64_t>(admitted_));
    obs::gauge_set("serve.net.inflight", static_cast<double>(admitted_));
    // Notify under the lock: once drain() sees admitted_ == 0 it may
    // return and let ~Dispatcher destroy cv_, so the notify must finish
    // before the lock is released.
    cv_.notify_all();
  }
}

}  // namespace gs::serve
