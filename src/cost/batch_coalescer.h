// BatchCoalescer — a CostModel decorator that merges small concurrent
// evaluate_batch() calls into shared batches on the wrapped model.
//
// In the `sega_dcim serve` daemon many unrelated clients evaluate design
// points through one warm CostCache at once.  The cache already guarantees
// each *distinct* point is computed at most once; what it cannot do is
// amortize per-batch overhead across callers — each session's cold
// remainder reaches the underlying model as its own (often tiny) batch,
// and the analytic backend's batched path (hoisted context, shared module
// memo) pays its setup per call.  The coalescer is
// the admission queue under the cache: concurrently arriving small batches
// are funneled through a leader thread that drains every queued request
// into ONE call on the wrapped model, in the group-commit style — while the
// leader evaluates, new arrivals queue up and form the next combined batch.
//
// Large batches bypass the queue entirely and run concurrently on the
// caller's thread: the DSE pool already saturates the cores with big
// chunks, and funneling those through one leader would *serialize* healthy
// intra-request parallelism.  Coalescing therefore engages only below a
// size threshold — exactly the traffic shape (single-point repair walks,
// mostly-warm requests with a few cold stragglers) where per-batch overhead
// dominates.
//
// Determinism: the wrapped model is a pure function evaluated point-wise;
// batch composition and ordering cannot change any result.  Thread-safe by
// construction; safe to call concurrently with direct (bypass) batches.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "cost/cost_model.h"

namespace sega {

class BatchCoalescer final : public CostModel {
 public:
  /// Batches of at least this many points bypass the queue and run on the
  /// calling thread.
  static constexpr std::size_t kDirectThreshold = 32;

  /// Wrap an owned model of any backend.
  explicit BatchCoalescer(std::unique_ptr<const CostModel> model);

  BatchCoalescer(const BatchCoalescer&) = delete;
  BatchCoalescer& operator=(const BatchCoalescer&) = delete;

  const Technology& tech() const override { return model_->tech(); }
  const EvalConditions& conditions() const override {
    return model_->conditions();
  }
  /// Identity-transparent, like CostCache: memo fingerprints must describe
  /// the wrapped model, not the decorator.
  const char* model_name() const override { return model_->model_name(); }
  int model_version() const override { return model_->model_version(); }
  std::shared_ptr<const Calibration> calibration() const override {
    return model_->calibration();
  }
  bool layout_enabled() const override { return model_->layout_enabled(); }

  MacroMetrics evaluate(const DesignPoint& dp) const override;
  void evaluate_batch(Span<const DesignPoint> points,
                      Span<MacroMetrics> out) const override;

  /// Counters (exact, monotonic) for the daemon's status report and tests.
  std::uint64_t tickets() const { return tickets_.load(); }       ///< queued (small) batches
  std::uint64_t direct_batches() const { return direct_.load(); } ///< bypassed (large) batches
  std::uint64_t inner_batches() const { return inner_.load(); }   ///< calls reaching the model from the queue
  std::uint64_t inner_points() const { return inner_points_.load(); }
  /// Largest combined batch a leader has handed to the model.
  std::size_t max_coalesced() const { return max_coalesced_.load(); }

 private:
  /// One caller's queued batch; done flips under mu_ when its results land.
  struct Ticket {
    const DesignPoint* points;
    MacroMetrics* out;
    std::size_t count;
    bool done = false;
  };

  std::unique_ptr<const CostModel> model_;
  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  mutable std::vector<Ticket*> queue_;
  mutable bool leader_active_ = false;

  mutable std::atomic<std::uint64_t> tickets_{0};
  mutable std::atomic<std::uint64_t> direct_{0};
  mutable std::atomic<std::uint64_t> inner_{0};
  mutable std::atomic<std::uint64_t> inner_points_{0};
  mutable std::atomic<std::size_t> max_coalesced_{0};
};

}  // namespace sega
