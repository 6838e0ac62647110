// The `sega_dcim serve` daemon: an always-on evaluation service that keeps
// the expensive state of a CLI invocation — technology, analytic/RTL cost
// backends, the warm evaluation memo — resident in one process, and serves
// CLI commands to any number of concurrent clients over a Unix-domain
// socket (serve/protocol.h).
//
// Why a daemon: every cold `sega_dcim explore` pays process start, techlib
// construction, memo-file parse, and the full DSE evaluation bill before
// printing a line.  Under the daemon those costs are paid once; repeated
// and concurrent requests then dedup at three levels:
//
//   response   identical finished requests replay cached bytes
//   request    identical concurrent requests execute once (RequestBroker)
//   point      distinct requests overlapping in evaluated design points
//              share one warm CostCache per evaluation config, with a
//              BatchCoalescer underneath merging small concurrent batches
//
// Requests dispatch through run_cli_hooked — the *same* code path as the
// standalone binary — so a daemon response is byte-identical to
// `--no-daemon` output by construction.  Commands that would give the
// daemon a private environment (--tech, --cache-file, --rtl-cache-file) or
// process-level semantics (--shard, orchestrate, sweep-merge, memo-compact,
// serve) are rejected; the thin client runs those in-process instead.
//
// Memo persistence: with ServeOptions::cache_file set, each per-config
// cache seeds from that base memo (entries marked imported) plus its own
// `<cache_file>.serve-<hash>` delta file, and flushes only its delta —
// periodically (every kFlushEveryRuns completed requests and on idle, so a
// crashed or SIGKILLed daemon loses at most a few requests' worth of
// evaluations) and finally on shutdown.  `sega_dcim memo-compact
// --cache-file <base> --extra <deltas>` folds the deltas back into the
// base.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <thread>

#include "cost/batch_coalescer.h"
#include "cost/cost_cache.h"
#include "cost/eval_config.h"
#include "serve/broker.h"
#include "serve/protocol.h"
#include "tech/technology.h"
#include "util/socket.h"

namespace sega {

struct ServeOptions {
  std::string socket_path;
  /// Base path of the persistent evaluation memo; empty disables
  /// persistence (the daemon is then warm only for its own lifetime).
  std::string cache_file;
  /// Calibration artifact to verify at startup (`serve --calibration`):
  /// the daemon fail-fasts on a damaged artifact or one fitted for a
  /// different model/technology, instead of every calibrated request
  /// failing later.  Requests still name their artifact explicitly via
  /// --calibration — the preload never silently calibrates a request that
  /// did not ask (daemon and --no-daemon runs must stay byte-identical).
  std::string calibration_file;
  std::size_t max_request_bytes = kMaxRequestBytes;
  /// LRU capacity of the finished-response cache (0 disables it).
  std::size_t response_cache_entries = 64;
};

class ServeServer {
 public:
  ServeServer(Technology tech, ServeOptions opts);
  ~ServeServer();

  ServeServer(const ServeServer&) = delete;
  ServeServer& operator=(const ServeServer&) = delete;

  /// Bind the socket and start accepting.  False (with *error) when the
  /// path is unusable or a daemon is already listening on it.
  bool start(std::string* error = nullptr);

  /// Graceful shutdown, idempotent: stop accepting, unlink the socket (so
  /// new clients fall back in-process immediately), wake idle connections
  /// with EOF, let in-flight requests run to completion and receive their
  /// results, join every session, flush the memo deltas.
  void stop();

  /// True once a client sent a shutdown request; the hosting loop (or
  /// test) then calls stop().
  bool shutdown_requested() const;

  /// Block until shutdown_requested() or @p interrupted() (polled about
  /// every 200 ms — the signal-flag check of the foreground daemon).
  void wait(const std::function<bool()>& interrupted);

  /// The shared warm cache for an evaluation config, created on first use:
  /// CostCache over BatchCoalescer over the model @p eval resolves to.
  /// Stable for the server's lifetime.  Stacks are keyed by the resolved
  /// config's identity (EvalConfig::identity) — the artifact's content
  /// digest, never its path, so two paths to the same artifact share one
  /// stack and an edited artifact gets a fresh one.  When @p eval fails to
  /// resolve this returns null and the request's in-process fallback path
  /// surfaces the resolver's diagnostic.
  CostCache* cache_for(const EvalConfig& eval);

  /// The `serve --status` payload: pid/socket, broker counters, per-config
  /// cache + coalescer counters, active connection count.
  Json status_json() const;

  const RequestBroker& broker() const { return broker_; }
  const std::string& socket_path() const { return opts_.socket_path; }

 private:
  /// One client connection.  fd is owned by the session entry (closed at
  /// join time, never by the handler — stop() must be able to shutdown()
  /// it without racing a close).
  struct Session {
    std::thread thread;
    int fd = -1;
    std::atomic<bool> done{false};
  };

  /// One evaluation stack; its model carries the config it was built for.
  struct CacheStack {
    std::unique_ptr<CostCache> cache;
    const BatchCoalescer* coalescer = nullptr;
    std::string delta_path;  ///< empty when persistence is off
    bool base_loaded = false;
    /// Entry count at the last delta flush; a periodic (non-forced) flush
    /// skips stacks that have not grown since.
    std::size_t flushed_size = 0;
  };

  void accept_loop();
  void reap_finished();
  void handle_connection(Session& session);
  int execute(const std::vector<std::string>& argv, std::ostream& out,
              std::ostream& err, const std::function<void(const Json&)>& progress);
  /// Persist every stack's memo delta via the atomic `.serve-<hash>` delta
  /// writer.  Forced (shutdown) flushes write every stack — including
  /// header-only deltas for stacks with no fresh entries, exactly the
  /// historical drain behavior.  Periodic (non-forced) flushes skip stacks
  /// whose entry count has not grown since their last flush; the written
  /// bytes for a grown stack are identical to what a shutdown-only flush
  /// would have written at the same entry set.
  void flush_memos(bool force);

  const Technology tech_;
  const ServeOptions opts_;
  RequestBroker broker_;

  Fd listener_;
  std::thread accept_thread_;
  std::atomic<bool> stopping_{false};
  bool started_ = false;
  std::once_flag stop_once_;

  mutable std::mutex sessions_mu_;
  std::map<int, std::shared_ptr<Session>> sessions_;
  int next_session_ = 0;

  mutable std::mutex caches_mu_;
  std::map<std::string, CacheStack> caches_;  ///< by EvalConfig::identity

  /// Periodic delta-flush cadence: after this many completed run requests
  /// the accept loop persists grown memo deltas, so a crashed or SIGKILLed
  /// daemon loses at most this many requests' worth of evaluations (it
  /// also flushes when the daemon goes idle).  Crash-durability only —
  /// never changes any response byte.
  static constexpr std::uint64_t kFlushEveryRuns = 8;
  /// Completed run requests (incremented after each broker run finishes).
  std::atomic<std::uint64_t> completed_runs_{0};

  mutable std::mutex shutdown_mu_;
  std::condition_variable shutdown_cv_;
  bool shutdown_requested_ = false;
};

/// The `sega_dcim serve` subcommand (cli.cpp dispatches here): with
/// --status or --stop, a thin client call against the daemon; otherwise the
/// foreground daemon itself, serving until SIGTERM/SIGINT or a client
/// shutdown request, then draining gracefully.
int run_serve_cli(const std::map<std::string, std::string>& flags,
                  std::ostream& out, std::ostream& err);

}  // namespace sega
