// RequestBroker — request-level coalescing and response caching for the
// `sega_dcim serve` daemon.
//
// Two layers of dedup sit between N clients and the evaluation engine:
//
//   1. In-flight coalescing (this class): concurrent requests with an
//      identical argv execute ONCE.  The first arrival (the leader) runs the
//      executor; later arrivals (followers) attach to the in-flight entry,
//      replay its buffered progress records, stream subsequent ones live,
//      and receive a copy of the leader's result — byte-identical across
//      all subscribers by construction, since there is only one execution.
//   2. A bounded LRU response cache for *repeated* (non-overlapping)
//      requests the server marks cacheable — pure queries like `explore`
//      whose only output is the response itself.  Requests with filesystem
//      side effects (compile --out, sweep checkpoints) are never cached:
//      the client expects the files to (re)appear.
//
// Below the broker, the per-configuration CostCache (cost/cost_cache.h)
// dedups at the design-point level, so even *different* requests
// overlapping in evaluated points share work.  The broker is what turns
// "N clients ask the same question" into one answer computed once.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "util/json.h"

namespace sega {

/// One finished execution: the exact bytes every subscriber receives.
struct RunOutcome {
  int exit = 0;
  std::string out;
  std::string err;
};

class RequestBroker {
 public:
  /// Runs one argv to completion.  Called on the leader's thread, outside
  /// any broker lock; must not throw (a throw is mapped to exit 99 so
  /// followers never deadlock).  @p progress receives streamed records
  /// (sweep cells) in completion order.
  using Executor = std::function<int(
      const std::vector<std::string>& argv, std::ostream& out,
      std::ostream& err, const std::function<void(const Json&)>& progress)>;

  /// Per-subscriber progress delivery (e.g. "write one progress line to
  /// this client's socket").  Invoked in record order, never concurrently
  /// for one subscriber.
  using ProgressSink = std::function<void(const Json&)>;

  /// @p response_cache_entries bounds the LRU of finished cacheable
  /// responses (0 disables response caching).
  RequestBroker(Executor executor, std::size_t response_cache_entries);

  RequestBroker(const RequestBroker&) = delete;
  RequestBroker& operator=(const RequestBroker&) = delete;

  /// Serve @p argv: from the response cache, by attaching to an identical
  /// in-flight execution, or by executing (as leader).  @p cacheable marks
  /// side-effect-free requests whose outcome may be stored and replayed.
  /// @p progress may be null.
  RunOutcome run(const std::vector<std::string>& argv, bool cacheable,
                 const ProgressSink& progress);

  /// Counters (exact) for `serve --status` and the dedup tests.
  std::uint64_t requests() const { return requests_.load(); }
  std::uint64_t executions() const { return executions_.load(); }
  std::uint64_t coalesced() const { return coalesced_.load(); }
  std::uint64_t response_hits() const { return response_hits_.load(); }
  std::size_t response_entries() const;

 private:
  /// One in-flight execution; all fields guarded by mu_.
  struct Entry {
    std::vector<Json> progress;  ///< buffered records, in emission order
    bool done = false;
    RunOutcome outcome;
    std::condition_variable cv;
  };

  /// Canonical request identity: the compact JSON dump of argv.
  static std::string key_of(const std::vector<std::string>& argv);

  void cache_store(const std::string& key, const RunOutcome& outcome);

  Executor executor_;
  const std::size_t cache_capacity_;

  mutable std::mutex mu_;
  std::map<std::string, std::shared_ptr<Entry>> inflight_;
  /// LRU: most recent at front; map values point into the list.
  std::list<std::string> lru_;
  std::map<std::string, std::pair<RunOutcome, std::list<std::string>::iterator>>
      cache_;

  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> executions_{0};
  std::atomic<std::uint64_t> coalesced_{0};
  std::atomic<std::uint64_t> response_hits_{0};
};

}  // namespace sega
