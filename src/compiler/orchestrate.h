// Supervised sweep orchestration — the fleet controller above run_sweep.
//
// `sega_dcim orchestrate` launches N sweep workers (one forked process per
// `--shard i/N` slice), then *supervises* them instead of merely waiting:
// each worker appends heartbeat lines to `<shard checkpoint>.hb` every K
// completed cells (SweepSpec::heartbeat_every), and the supervisor polls
// worker exit status and heartbeat file growth.  A worker that exits
// non-zero, dies on a signal, or stops heartbeating for longer than the
// stall timeout (a wedged worker is SIGKILLed first) is relaunched on its
// own slice after an exponential backoff — and because every attempt
// resumes from the dead worker's shard checkpoint (and its
// heartbeat-persisted memo delta), a retry re-pays at most the cells
// completed since the last snapshot, never the whole slice.  Once every slice completes, the shards are fanned
// into the unified result via merge_sweep_shards — byte-identical to an
// unsharded run, crashes and all.
//
// Retry accounting is per shard: a slice may be relaunched up to
// max_retries times (max_retries + 1 attempts total).  Exhausting a
// slice's retries is a supervision failure — every still-running worker is
// killed and the report carries the error; no partial merge is attempted.
// The attempt ordinal is exported to each worker as SEGA_SWEEP_ATTEMPT,
// which is what scopes SEGA_SWEEP_FAULT fault injection (sweep.h) to
// chosen attempts — the chaos CI job kills first attempts and asserts the
// supervised result is byte-identical to a serial run.
#pragma once

#include <string>
#include <vector>

#include "compiler/sweep.h"

namespace sega {

struct OrchestrateSpec {
  /// The sweep to supervise.  `checkpoint` is required (shard checkpoints
  /// are both the crash-recovery state and the merge fan-in); when
  /// `heartbeat_every` is 0 the orchestrator raises it to 1 so stall
  /// detection always has a signal.  `dse.threads` == 0 divides the host
  /// between the workers instead of oversubscribing it K-fold; an explicit
  /// count is per-worker and kept as given.
  SweepSpec sweep;

  int workers = 2;              ///< shard count == concurrent worker processes
  int max_retries = 2;          ///< relaunches allowed per shard
  double stall_timeout_s = 60;  ///< no heartbeat growth for this long = stalled
  double poll_interval_s = 0.2; ///< supervisor poll cadence
  double backoff_initial_s = 0.5;  ///< delay before a slice's first relaunch
  double backoff_max_s = 8.0;      ///< cap for the doubling backoff
};

/// Per-shard supervision outcome.
struct OrchestrateShardReport {
  int shard = 0;
  int attempts = 0;     ///< processes launched for this slice (>= 1)
  int retries = 0;      ///< attempts - 1, the relaunches
  int stall_kills = 0;  ///< relaunches caused by the stall timeout (SIGKILL)
  bool completed = false;
};

struct OrchestrateReport {
  bool success = false;
  std::string error;  ///< first fatal supervision/merge error when !success
  std::vector<OrchestrateShardReport> shards;

  int total_retries() const;
  /// Machine-readable report (the orchestrate.json payload).
  Json to_json() const;
  /// Human-readable per-shard summary.
  std::string render() const;
};

/// Supervise an OrchestrateSpec to completion.  On success (report.success)
/// *result holds the merged sweep — byte-identical JSON/CSV to an unsharded
/// run of spec.sweep — and the unified checkpoint/memo/index exist under
/// the base paths.  On failure *result is untouched and report.error names
/// the first fatal problem (a slice out of retries, a fork failure, a merge
/// error).  The report's per-shard attempt/retry counts are filled either
/// way.  Preconditions: workers >= 1, max_retries >= 0, positive timeouts.
OrchestrateReport run_orchestrate(const Compiler& compiler,
                                  const OrchestrateSpec& spec,
                                  SweepResult* result);

}  // namespace sega
