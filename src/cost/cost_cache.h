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
// detected and the line skipped, never served as a metric.  Entry lines
// have one text codec: save() formats each entry once, straight into the
// file's text, and checksums the bytes it wrote; the reader scans exactly
// that form and builds no Json, so a line in any other form — even valid
// JSON whose checksum matches — counts as corrupt.  load() merges a
// memo into the table (existing entries win; entries are identical for
// matching fingerprints anyway), rejects files written under a different
// fingerprint (different model backend included), and tolerates truncated
// or corrupt entry lines.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
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

  /// load() each of @p paths that exists, in order, marking the entries of
  /// the first @p imported paths as imported.  A missing file is skipped,
  /// not an error: the memo of a first run, or of a shard whose cells were
  /// all recovered from its checkpoint, was never written.  An existing
  /// file that fails to load is an error, same as load().  The one way a
  /// command seeds its cache from memo files (sweep: base memo then own
  /// shard; sweep-merge: base memo then every shard; compile and validate:
  /// their one memo).
  bool load_existing(const std::vector<std::string>& paths,
                     std::string* error = nullptr, std::size_t imported = 0);

  /// Statistics of one compact_memo_files run.
  struct CompactStats {
    int files_merged = 0;           ///< sources that existed and were read
    std::size_t entries = 0;        ///< deduplicated entries written
    std::size_t duplicates = 0;     ///< entries dropped as already present
    std::size_t corrupt_lines = 0;  ///< unparseable/bad-checksum lines skipped
  };

  /// Merge several memo files (a base memo plus its shard deltas — the
  /// `sega_dcim memo-compact` engine) into one deduplicated memo at
  /// @p out_path, written atomically.  Each source is read through the same
  /// line reader as load(); the first line of each key wins (earlier
  /// sources win), and the winning lines' text is kept and written verbatim
  /// in save()'s canonical shard-bucket/key order.  The reader takes only
  /// lines in save()'s exact form, so compacting any files produces
  /// byte-identical output to loading them all into one cache and saving
  /// it.  Memory is the winning lines' text, about 645 B per entry.
  /// Missing sources are skipped (at least one must exist); every source
  /// read must carry the same header fingerprint as the first (a mismatched
  /// file is an error — memos of different models/technologies/conditions
  /// must never be merged); corrupt entry lines are skipped and counted.
  /// No model is needed: the fingerprint of record is the first source's
  /// header, copied through unchanged.
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

  /// The memo codec (docs/FORMATS.md, "Entry lines").  append_memo_entry
  /// writes an entry's line, newline included, as Json's compact dump of
  /// the entry object with its checksum "c" — without building a Json.
  /// parse_memo_entry reads back exactly that form and nothing else: any
  /// other text, even valid JSON with the right checksum, is corrupt (false)
  /// and the line is skipped.
  static void append_memo_entry(std::string& out, const Key& key,
                                const MacroMetrics& metrics);
  static bool parse_memo_entry(std::string_view line, Key* key,
                               MacroMetrics* metrics);

  /// The one memo-file reader, shared by load() and compact_memo_files().
  /// The first non-empty line must be a memo header; @p vet_header gets it
  /// (parsed, and as text) and returns the refusal diagnostic, empty to
  /// accept.  Every verified entry goes to @p on_entry as its key, its
  /// metrics and its line text; corrupt lines are counted in
  /// *corrupt_lines.  False (with *error) on an unreadable file, a
  /// missing/malformed header, or a refused one.
  using HeaderVetter =
      std::function<std::string(const Json& header, const std::string& text)>;
  using EntrySink = std::function<void(const Key&, MacroMetrics&&,
                                       const std::string& text)>;
  static bool read_memo(const std::string& path,
                        const HeaderVetter& vet_header,
                        const EntrySink& on_entry, std::size_t* corrupt_lines,
                        std::string* error);

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
