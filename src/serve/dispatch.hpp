// Request dispatch between the event-loop transport and EvalService:
// admission control, in-flight coalescing, and executor hand-off.
//
// The Dispatcher is the net::Handler of the concurrent daemon. For every
// request line the loop delivers, it decides — on the loop thread, in
// O(parse) time — one of four fates:
//
//  * answer: a `solve` whose scenario is in the result cache is answered
//    on the loop thread (EvalService::handle_cached), with the bytes an
//    executor would have sent. A hit holds no queue slot, is never shed
//    and costs no thread hop; the loop still never solves.
//  * coalesce: a `solve` whose canonical scenario hash matches a solve
//    already admitted (queued or running) attaches to it as a rider. The
//    leader executes once; when it answers, every rider receives the
//    same response with its own request id spliced in. Riders consume no
//    queue slot and no solver time. Coalescing keys on the admission
//    table, not the executor, so a burst of identical requests costs one
//    solve no matter how it interleaves.
//  * shed: when admitted-but-unanswered requests have reached
//    `queue_limit`, the request is refused immediately with a structured
//    {"error":{"type":"overloaded"}} response. The client keeps a usable
//    connection and a parseable answer; the daemon keeps a bounded
//    queue. Shed requests never reach EvalService and are not counted in
//    its request/error totals — they are transport refusals, visible in
//    NetStats and the stats op's "net" section instead.
//  * admit: everything else is handed to the executor pool
//    (util::ThreadPool::submit) and answered from the executor thread
//    via EventLoopServer::send.
//
// Malformed JSON and oversized lines are also answered synchronously on
// the loop thread (they are cheap and must not occupy queue slots).
#pragma once

#include <cstddef>
#include <cstdint>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "json/json.hpp"
#include "net/event_loop.hpp"
#include "serve/service.hpp"

namespace gs::util {
class ThreadPool;
}  // namespace gs::util

namespace gs::serve {

struct DispatchOptions {
  /// Executor threads — requests that may run concurrently. 0 sizes to
  /// the pool's default lane count. With an explicit value and no
  /// injected pool, the dispatcher owns a private pool with *exactly*
  /// this many executors (the deterministic configuration tests pin
  /// workers=1 to serialize execution).
  int workers = 0;
  /// Admission cap: admitted-but-unanswered requests beyond this are
  /// shed. Riders coalesced onto an in-flight solve do not count.
  std::size_t queue_limit = 64;
  /// Attach identical concurrent solves to one in-flight execution.
  bool coalesce = true;
  /// Executor pool override (non-owning; must outlive the dispatcher).
  /// Null uses ThreadPool::shared(), or a private pool when `workers`
  /// is explicit.
  util::ThreadPool* pool = nullptr;
};

class Dispatcher : public net::Handler {
 public:
  Dispatcher(EvalService& service, const DispatchOptions& options);
  ~Dispatcher() override;

  /// The server responses go back through. Must be set before the loop
  /// runs; the dispatcher does not own it.
  void set_server(net::EventLoopServer* server) { server_ = server; }

  /// Transport counters (attach to the service so the stats op reports
  /// them; outlives any attachment since the caller owns both).
  NetStats& net_stats() { return net_; }

  /// Block until every admitted request has been answered. Called after
  /// the loop exits to let executor threads finish flights whose
  /// responses will be dropped.
  void drain();

  // net::Handler
  void on_open(std::uint64_t conn) override;
  void on_close(std::uint64_t conn) override;
  void on_line(std::uint64_t conn, std::string line) override;
  void on_oversized(std::uint64_t conn) override;
  void on_response_dropped(std::uint64_t conn) override;
  bool idle() const override;

 private:
  struct Waiter {
    std::uint64_t conn = 0;
    bool has_id = false;
    json::Json id;
  };

  /// Executor-side: run the request through the service, fan the
  /// response out to the leader and any riders, release the queue slot.
  void execute(std::uint64_t conn, json::Json request, bool coalescable,
               std::uint64_t key);
  void send_shed(std::uint64_t conn, const json::Json& request);

  EvalService& service_;
  DispatchOptions options_;
  util::ThreadPool* pool_ = nullptr;  ///< executor pool (owned_ or injected)
  std::unique_ptr<util::ThreadPool> owned_;
  net::EventLoopServer* server_ = nullptr;
  NetStats net_;

  mutable std::mutex mu_;  ///< guards admitted_ and flights_
  std::condition_variable cv_;  ///< admitted_ dropped (drain)
  std::size_t admitted_ = 0;
  /// Coalescing table: admission key of an in-flight solve -> the riders
  /// waiting on it. The leader itself is not in the list.
  std::unordered_map<std::uint64_t, std::vector<Waiter>> flights_;
};

}  // namespace gs::serve
