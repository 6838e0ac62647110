#include "compiler/orchestrate.h"

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <thread>

#include "util/assert.h"
#include "util/strings.h"
#include "util/threadpool.h"

namespace sega {

namespace {

using Clock = std::chrono::steady_clock;

/// One supervised slice and its process-lifecycle state.
struct Slice {
  int shard = 0;
  pid_t pid = -1;               ///< -1 when no process is running
  int attempts = 0;             ///< launches so far
  int stall_kills = 0;
  bool completed = false;
  std::uintmax_t hb_size = 0;   ///< last observed heartbeat file size
  Clock::time_point last_progress;  ///< launch or last heartbeat growth
  bool relaunch_pending = false;
  Clock::time_point relaunch_at;    ///< backoff deadline
};

/// The worker's sweep spec for one slice: its shard identity, a heartbeat
/// cadence the supervisor can watch, and its fair share of the host's
/// threads.
SweepSpec slice_spec(const OrchestrateSpec& spec, int shard) {
  SweepSpec w = spec.sweep;
  w.shard = ShardSpec{};
  w.shard.index = shard;
  w.shard.count = spec.workers;
  if (w.heartbeat_every <= 0) w.heartbeat_every = 1;
  if (w.dse.threads == 0) {
    w.dse.threads =
        std::max(1, ThreadPool::default_threads() / spec.workers);
  }
  return w;
}

/// The heartbeat file a slice's workers append to (attempts share it — the
/// supervisor watches growth, so append-across-attempts is fine).
std::string slice_heartbeat_path(const OrchestrateSpec& spec, int shard) {
  const std::string ckpt =
      spec.workers > 1
          ? shard_file_path(spec.sweep.checkpoint, shard, spec.workers)
          : spec.sweep.checkpoint;
  return heartbeat_file_path(ckpt);
}

/// Fork one worker for a slice.  The child exports its attempt ordinal
/// (what scopes SEGA_SWEEP_FAULT arming), runs its slice with a forced
/// fresh thread pool (the parent's pool threads do not survive fork), and
/// _Exits — never returning into the supervisor's stack.
pid_t launch_slice(const Compiler& compiler, const OrchestrateSpec& spec,
                   int shard, int attempt) {
  const pid_t pid = ::fork();
  if (pid != 0) return pid;  // parent (or fork failure: -1)
  ::setenv("SEGA_SWEEP_ATTEMPT", strfmt("%d", attempt).c_str(), 1);
  const SweepSpec w = slice_spec(spec, shard);
  std::string worker_error;
  run_sweep(compiler, w, &worker_error);
  if (!worker_error.empty()) {
    std::fprintf(stderr, "[sega] orchestrate shard %d/%d (attempt %d): %s\n",
                 shard, spec.workers, attempt, worker_error.c_str());
    std::_Exit(2);
  }
  std::_Exit(0);
}

/// Blocking reap of a child we just signalled or saw exit.
void reap(pid_t pid) {
  int status = 0;
  pid_t waited;
  do {
    waited = ::waitpid(pid, &status, 0);
  } while (waited < 0 && errno == EINTR);
}

}  // namespace

int OrchestrateReport::total_retries() const {
  int total = 0;
  for (const auto& s : shards) total += s.retries;
  return total;
}

Json OrchestrateReport::to_json() const {
  Json j = Json::object();
  j["success"] = success;
  if (!error.empty()) j["error"] = error;
  j["workers"] = static_cast<std::int64_t>(shards.size());
  j["total_retries"] = total_retries();
  Json arr = Json::array();
  for (const auto& s : shards) {
    Json e = Json::object();
    e["shard"] = s.shard;
    e["attempts"] = s.attempts;
    e["retries"] = s.retries;
    e["stall_kills"] = s.stall_kills;
    e["completed"] = s.completed;
    arr.push_back(std::move(e));
  }
  j["shards"] = std::move(arr);
  return j;
}

std::string OrchestrateReport::render() const {
  std::string out = strfmt("orchestrate: %zu worker(s), %d retr%s, %s\n",
                           shards.size(), total_retries(),
                           total_retries() == 1 ? "y" : "ies",
                           success ? "success" : "FAILED");
  for (const auto& s : shards) {
    out += strfmt("  shard %d: attempts=%d retries=%d stall_kills=%d %s\n",
                  s.shard, s.attempts, s.retries, s.stall_kills,
                  s.completed ? "completed" : "NOT COMPLETED");
  }
  if (!error.empty()) out += "  error: " + error + "\n";
  return out;
}

OrchestrateReport run_orchestrate(const Compiler& compiler,
                                  const OrchestrateSpec& spec,
                                  SweepResult* result) {
  SEGA_EXPECTS(spec.workers >= 1);
  SEGA_EXPECTS(spec.max_retries >= 0);
  SEGA_EXPECTS(spec.stall_timeout_s > 0 && spec.poll_interval_s > 0);
  SEGA_EXPECTS(spec.backoff_initial_s > 0 &&
               spec.backoff_max_s >= spec.backoff_initial_s);
  SEGA_EXPECTS(result != nullptr);

  OrchestrateReport report;
  report.shards.resize(static_cast<std::size_t>(spec.workers));
  for (int s = 0; s < spec.workers; ++s) report.shards[s].shard = s;

  const auto finish = [&](const std::string& error) {
    report.error = error;
    report.success = error.empty();
    return report;
  };
  if (spec.sweep.checkpoint.empty()) {
    return finish(
        "orchestrate requires a checkpoint base path (spec key 'checkpoint' "
        "or --checkpoint) — the shard checkpoints are both the "
        "crash-recovery state and the merge fan-in");
  }

  std::vector<Slice> slices(static_cast<std::size_t>(spec.workers));
  const auto sync_report = [&]() {
    for (const Slice& sl : slices) {
      OrchestrateShardReport& r = report.shards[sl.shard];
      r.attempts = sl.attempts;
      r.retries = std::max(0, sl.attempts - 1);
      r.stall_kills = sl.stall_kills;
      r.completed = sl.completed;
    }
  };
  const auto kill_all = [&]() {
    for (Slice& sl : slices) {
      if (sl.pid <= 0) continue;
      ::kill(sl.pid, SIGKILL);
      reap(sl.pid);
      sl.pid = -1;
    }
  };
  const auto hb_bytes = [&](int shard) -> std::uintmax_t {
    std::error_code ec;
    const auto size =
        std::filesystem::file_size(slice_heartbeat_path(spec, shard), ec);
    return ec ? 0 : size;
  };
  // Doubling backoff before relaunch n (n = 1 for the first retry):
  // initial * 2^(n-1), capped.  Immediate relaunch of a crash-looping
  // worker would burn all retries inside one poll interval.
  const auto backoff_s = [&](int relaunch_n) {
    double d = spec.backoff_initial_s;
    for (int i = 1; i < relaunch_n; ++i) {
      d *= 2;
      if (d >= spec.backoff_max_s) break;
    }
    return std::min(d, spec.backoff_max_s);
  };
  const auto start = [&](Slice* sl) -> bool {
    const int attempt = sl->attempts;  // 0-based ordinal for the worker env
    const pid_t pid = launch_slice(compiler, spec, sl->shard, attempt);
    if (pid < 0) return false;
    sl->pid = pid;
    sl->attempts += 1;
    sl->relaunch_pending = false;
    sl->hb_size = hb_bytes(sl->shard);
    sl->last_progress = Clock::now();
    return true;
  };
  // A failed attempt either schedules a relaunch (retries remain) or is a
  // supervision failure.  Returns false when the slice is out of retries.
  const auto schedule_retry = [&](Slice* sl) -> bool {
    if (sl->attempts > spec.max_retries) return false;
    sl->relaunch_pending = true;
    sl->relaunch_at =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(
                               backoff_s(sl->attempts)));
    return true;
  };

  for (int s = 0; s < spec.workers; ++s) {
    slices[s].shard = s;
    if (!start(&slices[s])) {
      kill_all();
      sync_report();
      return finish("fork failed launching the worker fleet");
    }
  }

  for (;;) {
    bool all_done = true;
    for (Slice& sl : slices) {
      if (sl.completed) continue;
      all_done = false;

      if (sl.pid > 0) {
        // Exit supervision.
        int status = 0;
        const pid_t waited = ::waitpid(sl.pid, &status, WNOHANG);
        if (waited == sl.pid || (waited < 0 && errno == ECHILD)) {
          // ECHILD (someone else reaped the child) is an unknown outcome —
          // it must count as a failure, never as success.
          const bool clean_exit = waited == sl.pid && WIFEXITED(status) &&
                                  WEXITSTATUS(status) == 0;
          sl.pid = -1;
          if (clean_exit) {
            sl.completed = true;
            continue;
          }
          if (!schedule_retry(&sl)) {
            kill_all();
            sync_report();
            return finish(strfmt(
                "shard %d failed %d attempt(s) (max-retries %d exhausted)",
                sl.shard, sl.attempts, spec.max_retries));
          }
          continue;
        }
        // Stall supervision: heartbeat file growth is the liveness signal;
        // a worker that has written nothing for the stall timeout is
        // presumed wedged (a hung thread, the stall-after fault, NFS
        // limbo), SIGKILLed, and relaunched like any other failure.
        const std::uintmax_t bytes = hb_bytes(sl.shard);
        const auto now = Clock::now();
        if (bytes > sl.hb_size) {
          sl.hb_size = bytes;
          sl.last_progress = now;
        } else if (std::chrono::duration<double>(now - sl.last_progress)
                       .count() > spec.stall_timeout_s) {
          std::fprintf(stderr,
                       "[sega] orchestrate: shard %d stalled (no heartbeat "
                       "for %.1fs), killing pid %d\n",
                       sl.shard, spec.stall_timeout_s,
                       static_cast<int>(sl.pid));
          ::kill(sl.pid, SIGKILL);
          reap(sl.pid);
          sl.pid = -1;
          sl.stall_kills += 1;
          if (!schedule_retry(&sl)) {
            kill_all();
            sync_report();
            return finish(strfmt(
                "shard %d failed %d attempt(s) (max-retries %d exhausted)",
                sl.shard, sl.attempts, spec.max_retries));
          }
        }
        continue;
      }

      // Backoff elapsed -> relaunch.
      if (sl.relaunch_pending && Clock::now() >= sl.relaunch_at) {
        std::fprintf(stderr,
                     "[sega] orchestrate: relaunching shard %d (attempt "
                     "%d)\n",
                     sl.shard, sl.attempts);
        if (!start(&sl)) {
          kill_all();
          sync_report();
          return finish(
              strfmt("fork failed relaunching shard %d", sl.shard));
        }
      }
    }
    if (all_done) break;
    std::this_thread::sleep_for(
        std::chrono::duration<double>(spec.poll_interval_s));
  }
  sync_report();

  // Every slice completed: fan the shards into the unified result.  The
  // merge re-derives all knee metrics through the pure cost model, so the
  // output is byte-identical to an unsharded run no matter how many
  // attempts any slice took.
  std::string merge_error;
  SweepResult merged =
      merge_sweep_shards(compiler, spec.sweep, spec.workers, &merge_error);
  if (!merge_error.empty()) return finish(merge_error);
  *result = std::move(merged);
  return finish("");
}

}  // namespace sega
