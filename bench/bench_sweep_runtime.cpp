// Grid-sweep engine runtime: the §IV validation grid scheduled cell-by-cell
// onto the thread pool with one shared cost cache, versus the serial path.
// Output is byte-identical at every thread count (asserted per iteration in
// the checked variant and covered by test_compiler_sweep), so any delta is
// pure scheduling.  Run on >= 8 cores to see the grid-level speedup; the
// checkpointed variant measures the streaming-JSONL overhead per cell.
//
// Also measures the sharded path (per-shard slices plus the checkpoint
// merge), cost-memo save and load, and the NSGA-II non-dominated sort: the
// ENS-BS implementation behind fast_non_dominated_sort against the textbook
// O(n^2 * objectives) dominance-count baseline it replaced, at population
// sizes around and above the crossover point (>= 512).
#include <benchmark/benchmark.h>

#include <cstdio>
#include <filesystem>

#include "compiler/sweep.h"
#include "cost/cost_cache.h"
#include "dse/pareto.h"
#include "util/rng.h"
#include "util/strings.h"

namespace {

using namespace sega;

SweepSpec bench_spec(int threads) {
  SweepSpec spec;
  spec.wstores = {4096, 8192, 16384, 32768};
  spec.precisions = {precision_int8(), precision_bf16(), precision_fp16()};
  spec.dse.population = 32;
  spec.dse.generations = 16;
  spec.dse.seed = 42;
  spec.dse.threads = threads;
  return spec;
}

/// One full grid sweep at a fixed thread count; threads == 1 is the serial
/// baseline for the speedup comparison.
void BM_SweepGridThreads(benchmark::State& state) {
  const Compiler compiler(Technology::tsmc28());
  const SweepSpec spec = bench_spec(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_sweep(compiler, spec));
  }
  state.counters["cells"] = static_cast<double>(
      spec.wstores.size() * spec.precisions.size());
}

/// Serial and parallel at the same seed, aborting on any output mismatch —
/// a determinism regression cannot hide behind a speedup number.
void BM_SweepGridParallelChecked(benchmark::State& state) {
  const Compiler compiler(Technology::tsmc28());
  const SweepSpec serial_spec = bench_spec(1);
  const SweepSpec parallel_spec = bench_spec(8);
  for (auto _ : state) {
    const SweepResult a = run_sweep(compiler, serial_spec);
    const SweepResult b = run_sweep(compiler, parallel_spec);
    if (a.to_csv() != b.to_csv()) {
      state.SkipWithError("serial/parallel sweep output mismatch");
      return;
    }
    benchmark::DoNotOptimize(b);
  }
}

/// Streaming-checkpoint overhead: the same grid with one JSONL line
/// appended and flushed per completed cell.
void BM_SweepGridCheckpointed(benchmark::State& state) {
  const Compiler compiler(Technology::tsmc28());
  SweepSpec spec = bench_spec(static_cast<int>(state.range(0)));
  const auto path = std::filesystem::temp_directory_path() /
                    "sega_bench_sweep.ckpt.jsonl";
  for (auto _ : state) {
    std::filesystem::remove(path);  // fresh file: measure writes, not resume
    spec.checkpoint = path.string();
    benchmark::DoNotOptimize(run_sweep(compiler, spec));
  }
  std::filesystem::remove(path);
}

/// One shard's slice of the grid plus the merge that fans the shard files
/// back together — the per-worker cost of the distributed path.  The shards
/// are computed once per iteration (sequentially here; real deployments run
/// them as separate processes) and merged from their checkpoints.
void BM_SweepShardedAndMerged(benchmark::State& state) {
  const Compiler compiler(Technology::tsmc28());
  const int shards = static_cast<int>(state.range(0));
  const auto base = std::filesystem::temp_directory_path() /
                    "sega_bench_sweep_shard.ckpt.jsonl";
  for (auto _ : state) {
    for (int i = 0; i < shards; ++i) {
      std::filesystem::remove(shard_file_path(base.string(), i, shards));
    }
    SweepSpec spec = bench_spec(0);
    spec.checkpoint = base.string();
    for (int i = 0; i < shards; ++i) {
      SweepSpec worker = spec;
      worker.shard.index = i;
      worker.shard.count = shards;
      benchmark::DoNotOptimize(run_sweep(compiler, worker));
    }
    benchmark::DoNotOptimize(merge_sweep_shards(compiler, spec, shards));
  }
  for (int i = 0; i < shards; ++i) {
    std::filesystem::remove(shard_file_path(base.string(), i, shards));
  }
  std::filesystem::remove(base);
}

/// Resume of a completed >= 10k-cell checkpoint (1250 wstores x 8
/// precisions; most cells have an empty design space, which still costs a
/// checkpoint line) built once: every iteration JSON-parses every cell
/// line, recovers the whole grid and computes nothing.  The grid uses a
/// tiny GA so the one-time build is seconds, not hours — resume cost is
/// parse cost, independent of how the cells were originally computed.
void BM_SweepResume(benchmark::State& state) {
  static const SweepSpec spec = [] {
    SweepSpec s;
    s.wstores.clear();
    for (int i = 0; i < 1250; ++i) s.wstores.push_back(1024 + 8 * i);
    s.precisions = {precision_int2(),     precision_int4(),
                    precision_int8(),     precision_int16(),
                    precision_fp8_e4m3(), precision_fp16(),
                    precision_bf16(),     precision_fp32()};
    s.dse.population = 8;
    s.dse.generations = 1;
    s.dse.seed = 42;
    s.checkpoint = (std::filesystem::temp_directory_path() /
                    "sega_bench_resume.ckpt.jsonl")
                       .string();
    std::filesystem::remove(s.checkpoint);
    run_sweep(Compiler(Technology::tsmc28()), s);
    return s;
  }();
  const Compiler compiler(Technology::tsmc28());
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_sweep(compiler, spec));
  }
  state.counters["cells"] =
      static_cast<double>(spec.wstores.size() * spec.precisions.size());
}

/// The memo of one seeded 8-precision sweep at Wstore 4096 — the points
/// NSGA-II actually visits, ~2,300 entries — written once per process.
const std::string& sweep_memo_path() {
  static const std::string path = [] {
    SweepSpec s;
    s.wstores = {4096};
    s.precisions = {precision_int2(),     precision_int4(),
                    precision_int8(),     precision_int16(),
                    precision_fp8_e4m3(), precision_fp16(),
                    precision_bf16(),     precision_fp32()};
    s.dse.seed = 1;
    s.cache_file = (std::filesystem::temp_directory_path() /
                    "sega_bench_memo.jsonl")
                       .string();
    std::filesystem::remove(s.cache_file);
    run_sweep(Compiler(Technology::tsmc28()), s);
    return s.cache_file;
  }();
  return path;
}

/// Memo save: format every entry line once, checksum the bytes written and
/// write the file atomically — the persistence cost a sweep pays at
/// completion.
void BM_CostCacheSave(benchmark::State& state) {
  const Technology tech = Technology::tsmc28();
  CostCache cache(tech);
  std::string error;
  if (!cache.load(sweep_memo_path(), &error)) {
    state.SkipWithError(error.c_str());
    return;
  }
  const std::string out = sweep_memo_path() + ".save";
  for (auto _ : state) {
    if (!cache.save(out, &error)) {
      state.SkipWithError(error.c_str());
      return;
    }
  }
  state.counters["entries"] = static_cast<double>(cache.size());
  state.counters["bytes"] =
      static_cast<double>(std::filesystem::file_size(out));
  std::filesystem::remove(out);
}

/// Memo load: scan and checksum-verify every line into a fresh cache —
/// the cost a warm rerun pays before it can skip the model.
void BM_CostCacheLoad(benchmark::State& state) {
  const Technology tech = Technology::tsmc28();
  const std::string& path = sweep_memo_path();
  std::size_t entries = 0;
  for (auto _ : state) {
    CostCache cache(tech);
    std::string error;
    if (!cache.load(path, &error)) {
      state.SkipWithError(error.c_str());
      return;
    }
    entries = cache.size();
  }
  state.counters["entries"] = static_cast<double>(entries);
}

std::vector<Objectives> random_objectives(std::size_t n, std::size_t dims,
                                          std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Objectives> pts;
  pts.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    Objectives o(dims);
    for (auto& v : o) v = rng.uniform();
    pts.push_back(std::move(o));
  }
  return pts;
}

void BM_NonDominatedSortEns(benchmark::State& state) {
  const auto pts = random_objectives(
      static_cast<std::size_t>(state.range(0)), 4, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fast_non_dominated_sort(pts));
  }
}

void BM_NonDominatedSortBaseline(benchmark::State& state) {
  const auto pts = random_objectives(
      static_cast<std::size_t>(state.range(0)), 4, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fast_non_dominated_sort_baseline(pts));
  }
}

BENCHMARK(BM_SweepGridThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SweepGridParallelChecked)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SweepGridCheckpointed)->Arg(1)->Arg(8)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SweepShardedAndMerged)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SweepResume)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_CostCacheSave)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_CostCacheLoad)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_NonDominatedSortEns)->Arg(256)->Arg(512)->Arg(1024)->Arg(2048);
BENCHMARK(BM_NonDominatedSortBaseline)
    ->Arg(256)->Arg(512)->Arg(1024)->Arg(2048);

}  // namespace
