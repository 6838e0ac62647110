// Memoizing CostModel decorator with a persistent cross-process memo file.
//
// explore_nsga2 re-reads its front after the run, the multi-precision merge
// re-evaluates every front member, checkpoint recovery re-derives knee
// metrics, and repeated runs of a grid (a warm rerun, or requests to the
// serve daemon) revisit whole cells' worth of points.  The macro model is a
// pure function of (Technology, EvalConditions, DesignPoint), so one
// CostCache — wrapping a model bound to fixed technology and conditions —
// turns every repeated evaluation into a lookup, and its memo file carries
// that across processes.
//
// Thread safety: evaluate()/evaluate_batch() may be called concurrently from
// the DSE thread pool.  The table is sharded 16 ways to keep lock contention
// off the hot path.  Each distinct key is evaluated exactly once
// process-wide: the first requester claims the key with a pending marker and
// computes outside the lock; concurrent requesters of the same key park on
// the shard's condition variable and are woken when the result publishes.
// hits() and misses() are therefore exact — every lookup is exactly one of
// the two, hits() + misses() equals the number of points requested, and
// misses() equals the number of points the underlying model evaluated.
//
// Persistence: save() writes a versioned JSONL memo (header = model name +
// model version + technology + conditions fingerprint, one line per entry,
// doubles in their shortest round-trip form so metrics come back
// bit-exactly; docs/FORMATS.md) via
// write-temp-then-rename, so a crashed writer can never leave a
// half-written file under the real name.  Every entry line carries a
// self-checksum ("c", util/json.h) computed over the rest of the line, so
// in-place corruption — even a flipped digit that stays parseable JSON — is
// detected and the line skipped, never served as a metric.  load() merges a
// memo into the table (existing entries win; entries are identical for
// matching fingerprints anyway), rejects files written under a different
// fingerprint (different model backend included), and tolerates truncated
// or corrupt entry lines.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <tuple>
#include <vector>

#include "cost/cost_model.h"
#include "util/json.h"

namespace sega {

class CostCache final : public CostModel {
 public:
  /// Convenience: cache over an owned AnalyticCostModel.  The cache keeps a
  /// pointer to @p tech; the technology must outlive it.
  explicit CostCache(const Technology& tech, EvalConditions cond = {});

  /// Cache over an owned model of any backend (make_cost_model) — the
  /// sweep/compile path for `--cost-model`.
  explicit CostCache(std::unique_ptr<const CostModel> model);

  /// Cache over a caller-provided model (e.g. an instrumented model in
  /// tests); @p model must outlive the cache.
  explicit CostCache(const CostModel& model);

  CostCache(const CostCache&) = delete;
  CostCache& operator=(const CostCache&) = delete;

  const Technology& tech() const override { return model_->tech(); }
  const EvalConditions& conditions() const override {
    return model_->conditions();
  }
  /// The cache is identity-transparent: memo fingerprints must describe the
  /// wrapped model, not the decorator.
  const char* model_name() const override { return model_->model_name(); }
  int model_version() const override { return model_->model_version(); }
  std::shared_ptr<const Calibration> calibration() const override {
    return model_->calibration();
  }
  bool layout_enabled() const override { return model_->layout_enabled(); }

  /// Cached evaluation of one design point.
  MacroMetrics evaluate(const DesignPoint& dp) const override;

  /// Cached batch evaluation: hits fill out[] directly, the cold remainder
  /// goes to the underlying model as one batch.
  void evaluate_batch(Span<const DesignPoint> points,
                      Span<MacroMetrics> out) const override;

  /// Number of distinct design points evaluated or loaded so far.
  std::size_t size() const;

  std::uint64_t hits() const { return hits_.load(); }
  std::uint64_t misses() const { return misses_.load(); }

  /// Drop every entry and reset the counters.  Must not race evaluations.
  void clear();

  /// Write the memo file atomically (temp file + rename).  Returns false and
  /// sets *error (when given) on I/O failure.
  bool save(const std::string& path, std::string* error = nullptr) const;

  /// Like save(), but skips entries that were load()ed with
  /// mark_imported == true.  A sharded sweep worker seeds from the unified
  /// base memo (imported) plus its own shard (not imported) and saves the
  /// delta — its own contribution — so shard files don't each carry a full
  /// copy of the base and memo I/O stays base + K deltas, not (K+1) x base.
  bool save_delta(const std::string& path, std::string* error = nullptr) const;

  /// Merge a memo file into the table.  Returns false and sets *error on an
  /// unreadable file, a missing/malformed header, or a fingerprint mismatch
  /// (different technology, conditions, or cost-model version — a stale memo
  /// must never leak old numbers into new runs).  Truncated or corrupt entry
  /// lines are skipped; entries already in the table are kept (their
  /// imported flag too).  Loaded entries count as neither hits nor misses.
  /// @p mark_imported tags the entries this call adds as coming from a base
  /// memo some other file already persists — save_delta() omits them.
  bool load(const std::string& path, std::string* error = nullptr,
            bool mark_imported = false);

  /// Merge every existing per-worker memo shard of @p base —
  /// `<base>.shard-<i>-of-<count>` for i in [0, count), the files a sharded
  /// sweep's workers write — into the table.  A missing shard file is
  /// skipped, not an error: a worker whose cells were all recovered from its
  /// checkpoint never evaluates (or writes) anything.  An existing shard
  /// that fails to load (unreadable, malformed, fingerprint mismatch) is an
  /// error, same as load().  @p merged (when given) reports how many shard
  /// files were merged.
  bool load_shards(const std::string& base, int count,
                   std::string* error = nullptr, int* merged = nullptr);

  /// Statistics of one compact_memo_files run.
  struct CompactStats {
    int files_merged = 0;           ///< sources that existed and were read
    std::size_t entries = 0;        ///< deduplicated entries written
    std::size_t duplicates = 0;     ///< entries dropped as already present
    std::size_t corrupt_lines = 0;  ///< unparseable/bad-checksum lines skipped
  };

  /// Streamed merge of several memo files (a base memo plus its shard
  /// deltas — the `sega_dcim memo-compact` engine) into one deduplicated
  /// memo at @p out_path, written atomically.  Unlike load()+save(), no
  /// metrics are ever materialized: each source is folded line-at-a-time,
  /// only the entry *keys* (for first-wins dedup, earlier sources win) and
  /// per-line byte extents are held in memory, and the output is assembled
  /// by copying the winning lines verbatim in save()'s canonical
  /// shard-bucket/key order — so compacting files that save()/save_delta()
  /// wrote produces byte-identical output to loading them all into one
  /// cache and saving it.  Missing sources are skipped (at least one must
  /// exist); every source read must carry the same header fingerprint as
  /// the first (a mismatched file is an error — memos of different
  /// models/technologies/conditions must never be merged); corrupt entry
  /// lines are skipped and counted.  No model is needed: the fingerprint
  /// of record is the first source's header, copied through unchanged.
  static bool compact_memo_files(const std::vector<std::string>& sources,
                                 const std::string& out_path,
                                 std::string* error = nullptr,
                                 CompactStats* stats = nullptr);

 private:
  // Every cost-affecting field of DesignPoint, ordered.  (signed_weights is
  // census-identical by design but is still keyed — correctness over reuse.)
  using Key = std::tuple<int,           // arch
                         int,           // precision.kind
                         int, int, int, // int_bits, exp_bits, mant_bits
                         std::int64_t, std::int64_t, std::int64_t,
                         std::int64_t, // n, h, l, k
                         bool, bool>;  // signed_weights, pipelined_tree
  static Key key_of(const DesignPoint& dp);

  /// A slot in the table: claimed (pending) at first request, published
  /// (ready) once the model evaluation lands.  imported marks entries that
  /// arrived via load(..., mark_imported=true) — already persisted in a base
  /// memo, so save_delta() skips them.
  struct Entry {
    bool ready = false;
    bool imported = false;
    MacroMetrics metrics;
  };

  static constexpr std::size_t kShards = 16;
  struct Shard {
    mutable std::mutex mu;
    mutable std::condition_variable cv;
    std::map<Key, Entry> table;
  };
  /// The table bucket a key hashes to — also the major sort key of save()'s
  /// canonical serialization order, which compact_memo_files reproduces.
  static std::size_t shard_index_of(const Key& key);
  Shard& shard_of(const Key& key) const;

  /// Parse one memo entry line (already JSON-parsed) into its key and,
  /// when @p metrics is non-null, its metrics.  All structural validation —
  /// checksum, field shapes, types — runs either way; false means the line
  /// is corrupt and must be skipped.  Shared by load() (materializes
  /// metrics) and compact_memo_files() (keys only).
  static bool parse_memo_entry(const Json& parsed, Key* key,
                               MacroMetrics* metrics);

  /// Memo-file identity: model version + serialized technology + conditions.
  Json fingerprint_header() const;

  bool save_impl(const std::string& path, std::string* error,
                 bool delta_only) const;

  std::unique_ptr<const CostModel> owned_;
  const CostModel* model_;
  mutable Shard shards_[kShards];
  mutable std::atomic<std::uint64_t> hits_{0};
  mutable std::atomic<std::uint64_t> misses_{0};
};

}  // namespace sega
