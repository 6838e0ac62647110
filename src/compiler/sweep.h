// Batch sweep runner — the paper's §IV validation grid ("a wide range of
// Wstore, from 4K to 128K" across eight precisions), producing one knee
// summary per (Wstore, precision) cell with JSON and CSV export.
//
// The grid is evaluated as a parallel sweep engine: every (Wstore,
// precision) cell is one task on the DSE thread pool, all cells share one
// memoizing CostCache, and results are folded in fixed grid order — so the
// JSON/CSV output is byte-identical to the serial path for a fixed seed at
// any thread count.  An optional JSONL checkpoint makes long sweeps
// interruptible: each completed cell is appended (and flushed) as one line,
// and a restarted sweep skips cells the checkpoint already covers.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "compiler/compiler.h"

namespace sega {

/// One worker's slice of a sharded sweep: worker @p index of @p count
/// cooperating processes.  The grid is partitioned deterministically by
/// stable cell id — cell i (in fixed Wstore-major grid order) belongs to the
/// worker with i % count == index — so any worker can compute its subset
/// without coordination, and the union over all workers is exactly the grid.
/// count == 1 (the default) is the ordinary unsharded sweep.
struct ShardSpec {
  int index = 0;
  int count = 1;

  bool active() const { return count > 1; }
  bool owns(std::size_t cell_id) const {
    return !active() ||
           cell_id % static_cast<std::size_t>(count) ==
               static_cast<std::size_t>(index);
  }
};

struct SweepSpec {
  std::vector<std::int64_t> wstores = {4096,  8192,  16384,
                                       32768, 65536, 131072};
  std::vector<Precision> precisions = all_precisions();
  /// Backend, conditions, calibration artifact and layout stage of every
  /// cell.  All four are result-affecting and join the checkpoint config
  /// fingerprint (EvalConfig::write_identity) and the memo fingerprint, so
  /// a checkpoint or memo never resumes or seeds a sweep under a different
  /// evaluation config.
  EvalConfig eval;
  Nsga2Options dse;
  SpaceConstraints limits;

  /// JSONL checkpoint/resume file; empty disables checkpointing.  The first
  /// line records the sweep configuration; each later line is one completed
  /// cell.  Resuming against a checkpoint written for a different
  /// configuration is an error (a stale checkpoint must not silently mix
  /// into fresh results).  Truncated trailing lines — the signature of a
  /// killed run — are tolerated and recomputed.
  ///
  /// When shard.active(), this is the *base* path: the worker actually reads
  /// and writes `<checkpoint>.shard-<index>-of-<count>` (shard_file_path),
  /// whose header carries the same config fingerprint plus the shard
  /// identity, and merge_sweep_shards fans the shard files back into one
  /// unified checkpoint under the base path.
  std::string checkpoint;

  /// Persistent cost-cache memo file; empty disables persistence.  The
  /// grid's shared CostCache is seeded from this file before any cell runs
  /// and saved back (atomically) after the last cell completes, so a second
  /// sweep of the same grid performs zero macro-model evaluations.  The
  /// memo is fingerprinted (technology + evaluation identity); a mismatched
  /// file is an error.  Results are unchanged either way.
  ///
  /// When shard.active(), this too is a base path: the worker seeds its
  /// cache from the unified base memo (if present) plus its own
  /// `<cache_file>.shard-<index>-of-<count>` shard, and saves back only its
  /// own shard — and only its own *delta* (entries not already in the base
  /// memo), so workers never contend on one file and shard files never
  /// duplicate the base.  merge_sweep_shards merges the shards into the
  /// unified base memo.
  std::string cache_file;

  /// This worker's slice of the grid (spec keys "shard_index"/"shard_count",
  /// CLI `--shard i/N`).  Sharding never changes any cell's result — it only
  /// selects which cells this process computes — so the config fingerprint
  /// deliberately excludes it.
  ShardSpec shard;

  /// Liveness/progress cadence (spec key "heartbeat_every", CLI
  /// --heartbeat-every): every K completed cells the worker appends one
  /// liveness line to `<effective checkpoint>.hb` (heartbeat_file_path) and
  /// persists its cost-memo delta — so a worker killed at any point leaves
  /// at most K cells' worth of cache evaluations unpersisted, and the
  /// orchestrate supervisor can watch the .hb file to detect a stalled
  /// worker.  0 (the default) disables the cadence; the heartbeat and memo
  /// snapshot then happen only at completion.  Requires a checkpoint (the
  /// .hb path derives from it).  Not result-affecting — excluded from the
  /// config fingerprint, like threads.
  int heartbeat_every = 0;

  /// Observational hooks for an embedding host (the `sega_dcim serve`
  /// daemon).  Never serialized, never part of the config fingerprint:
  /// neither can change a byte of any result.
  ///
  /// progress fires once per cell *completed by this run* (cells recovered
  /// from a checkpoint were already streamed by the run that computed
  /// them), after the cell's checkpoint line — when one is written — is
  /// flushed, and receives the same checksummed JSON record the checkpoint
  /// stores.  Calls are serialized (one at a time, record order matches
  /// checkpoint append order) but arrive on pool worker threads.
  std::function<void(const Json&)> progress;

  /// When non-null, evaluate through this externally owned cache instead of
  /// constructing one, and skip cache_file load/save entirely (the owner
  /// manages persistence — this is how N daemon clients dedup through one
  /// warm cache).  Precondition: the cache wraps the model eval resolves
  /// to over the same technology.  SweepResult::cache_hits/cache_misses
  /// then report the shared cache's cumulative counters, not this run's
  /// (they are unserialized diagnostics either way).
  CostCache* shared_cache = nullptr;

  /// Parse from JSON, e.g.:
  ///   {"wstores": [4096, 8192], "precisions": ["INT8", "BF16"],
  ///    "sparsity": 0.1, "seed": 42, "threads": 8,
  ///    "shard_index": 0, "shard_count": 4,
  ///    "checkpoint": "sweep.ckpt.jsonl", "cache_file": "cost.memo.jsonl"}
  /// Omitted "wstores"/"precisions" keep the full §IV defaults.  Unknown
  /// keys are rejected.
  static std::optional<SweepSpec> from_json(const Json& json,
                                            std::string* error = nullptr);
  Json to_json() const;
};

struct SweepCell {
  std::int64_t wstore = 0;
  Precision precision;
  std::size_t front_size = 0;
  std::int64_t evaluations = 0;
  EvaluatedDesign knee;  ///< knee-distilled representative design
};

struct SweepResult {
  std::vector<SweepCell> cells;

  /// Stats of the grid's shared cost cache (not serialized — to_json/to_csv
  /// stay byte-identical regardless of cache temperature).  A warm
  /// spec.cache_file run of an unchanged grid reports cache_misses == 0:
  /// every evaluation was a memo hit.
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;

  Json to_json() const;
  /// CSV with a header row; one row per cell.
  std::string to_csv() const;
};

/// Run DSE (no generation) over this worker's share of the grid (the whole
/// grid unless spec.shard.active()) on the thread pool (spec.dse.threads;
/// 0 = auto via SEGA_THREADS / hardware concurrency, 1 = serial).  Cells
/// whose design space is empty are skipped.
///
/// Scheduling vs. fold order: pending cells are *scheduled* longest-first —
/// sorted by descending predicted cost (Wstore x input width x weight
/// width), ties in grid order, and claimed through the pool's shared
/// counter — so the expensive FP32/128K cells start first and free threads
/// take the cheap tail.  The *fold* order is always fixed grid order
/// (Wstore-major, precisions in spec order) — every cell's result lands in
/// its own grid slot and the output is assembled from the slots afterwards
/// — so JSON/CSV output is byte-identical at any thread count, under any
/// schedule, and (after merge) for any shard count.  Scheduling order is a
/// latency lever only; it must never be able to change a byte of output.
///
/// Checkpoint failures and cache-file *load* failures (stale configuration,
/// unreadable file) set *error and return an empty result when @p error is
/// non-null, and abort otherwise — stale state must never silently mix into
/// results.  A cache-file *save* failure after the grid completes only
/// warns on stderr: the computed sweep is the primary product and is still
/// returned.
///
/// Fault injection (CI chaos testing): the SEGA_SWEEP_FAULT environment
/// variable `kill-after:<k>` / `stall-after:<k>` (optional
/// `:prob=<p>`/`:seed=<s>`/`:attempts=<n>` suffixes, see docs/TESTING.md)
/// makes the worker _Exit(86) or hang forever after its k-th completed
/// cell, after persisting its memo delta and heartbeat — the crash the
/// orchestrate supervisor must recover from.  The fault arms only when the
/// SEGA_SWEEP_ATTEMPT ordinal (set by the supervisor per retry) is below
/// `attempts`, so retried workers run clean.  A malformed SEGA_SWEEP_FAULT
/// is a hard error, never silently ignored.
SweepResult run_sweep(const Compiler& compiler, const SweepSpec& spec,
                      std::string* error = nullptr);

/// Fan the per-worker shard files of an N-worker sweep back into one result.
/// spec.checkpoint is the base path; the shard checkpoints
/// `<checkpoint>.shard-<i>-of-<N>` (i in [0, N)) are read, every recovered
/// cell's knee metrics are re-derived through the pure cost model (so the
/// merged result is bit-exact, not a deserialization), and the full grid is
/// folded in fixed grid order — the returned result, its to_json() and its
/// to_csv() are byte-identical to a single unsharded run of the same spec.
/// On success the unified checkpoint is rewritten under the base path (grid
/// order, no shard identity — a later unsharded `sweep` resumes from it),
/// and when spec.cache_file is set the existing memo shards are merged and
/// saved to the unified base memo.
///
/// Hard errors (set *error + empty result when @p error is non-null, abort
/// otherwise): a shard file whose config fingerprint does not match the
/// spec, whose shard identity is not <i, N> (a shard-set mismatch — e.g.
/// files from a 2-way sweep merged as 4-way), an unreadable/malformed shard
/// file, or missing shards / uncovered cells — for the latter the error
/// text includes the partial-coverage report (the --resume-summary
/// machinery), naming what is missing.
SweepResult merge_sweep_shards(const Compiler& compiler, const SweepSpec& spec,
                               int shard_count, std::string* error = nullptr);

/// Coverage of one precision across the checkpoint's grid column.
struct CheckpointPrecisionCoverage {
  std::string precision;
  std::size_t done = 0;
  std::size_t total = 0;
};

/// Coverage report of a sweep checkpoint, produced without running any DSE
/// (the `sega_dcim sweep --resume-summary` payload).
struct CheckpointSummary {
  bool config_match = false;     ///< header fingerprint matches (spec, tech)
  std::size_t cells_total = 0;   ///< grid size of the spec
  std::size_t cells_done = 0;    ///< grid cells covered by valid lines
  std::size_t stale_lines = 0;   ///< valid cell lines outside this grid
  std::size_t corrupt_lines = 0; ///< unparseable/invalid cell lines
  std::vector<CheckpointPrecisionCoverage> per_precision;  ///< spec order

  /// Human-readable report.
  std::string render(const std::string& path) const;
};

/// Read spec.checkpoint and report its coverage of spec's grid without
/// evaluating anything.  A config-fingerprint mismatch is NOT an error — the
/// summary reports it (and still counts coverage, so the user can see what
/// the file holds).  A missing checkpoint path in the spec, an unreadable
/// file, or a missing/malformed header line set *error and return nullopt.
std::optional<CheckpointSummary> summarize_checkpoint(
    const Compiler& compiler, const SweepSpec& spec,
    std::string* error = nullptr);

}  // namespace sega
