// Byte-identity pins for the design-space explorers.
//
// For a fixed set of runs this test stores literal fnv1a32 digests of:
//   - the explore_nsga2 front: each point's to_string() and the bits of its
//     objective vector, in the order the explorer returns them;
//   - that run's evaluations and generations_run;
//   - the explore_exhaustive front of every default-grid cell pinned below,
//     and one explore_multi_precision merge.
//
// The runs cover every precision at the smallest and the largest default
// sweep Wstore (default budget, seed 1), the serve budget (32 x 16), tiny
// tie-heavy populations (4 x 3) in which duplicate genomes and equal
// objectives are the common case, and each NSGA-II run at 1 and 4 threads
// against the same literal.
//
// The RNG stream, the archive fold order, the front ranking and the
// crowding tie-breaks are all part of these bytes, so any change to the
// explorer's bookkeeping that moves an output shows up here as a mismatch.
// A change that is meant to alter an output updates the literals in the
// same commit; the failure message prints the full replacement table.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "dse/explorer.h"
#include "util/strings.h"

namespace sega {
namespace {

struct PinnedRun {
  const char* precision;
  std::int64_t wstore;
  int population;
  int generations;
  std::uint32_t front;
  std::int64_t evaluations;
  int generations_run;
};

// clang-format off
const PinnedRun kRuns[] = {
    {"INT2", 4096, 64, 64, 0x0ad1eb5au, 83, 64},
    {"INT4", 4096, 64, 64, 0x747e519cu, 181, 64},
    {"INT8", 4096, 64, 64, 0x6e575c66u, 346, 64},
    {"INT16", 4096, 64, 64, 0xe147ad0fu, 551, 64},
    {"FP8", 4096, 64, 64, 0x18d83b60u, 184, 64},
    {"FP16", 4096, 64, 64, 0xf97d0600u, 164, 64},
    {"BF16", 4096, 64, 64, 0x3bfc4d0eu, 334, 64},
    {"FP32", 4096, 64, 64, 0xf10f769cu, 490, 64},
    {"INT2", 131072, 64, 64, 0xdccbf08du, 120, 64},
    {"INT4", 131072, 64, 64, 0x06c8c52cu, 219, 64},
    {"INT8", 131072, 64, 64, 0x877c0e5bu, 374, 64},
    {"INT16", 131072, 64, 64, 0x2afb33cau, 581, 64},
    {"FP8", 131072, 64, 64, 0x8ff5a99bu, 223, 64},
    {"FP16", 131072, 64, 64, 0xa5a5e5ecu, 274, 64},
    {"BF16", 131072, 64, 64, 0xb5fb246bu, 381, 64},
    {"FP32", 131072, 64, 64, 0x5da8cf1au, 574, 64},
    {"INT4", 16384, 32, 16, 0x33ffa6a7u, 146, 16},
    {"FP8", 65536, 32, 16, 0xbbb3daabu, 151, 16},
    {"INT2", 4096, 4, 3, 0x598591dcu, 10, 3},
    {"INT8", 4096, 4, 3, 0x6191e90bu, 12, 3},
    {"FP32", 131072, 4, 3, 0x1b2388d2u, 11, 3},
};

struct PinnedExhaustive {
  const char* precision;
  std::int64_t wstore;
  std::uint32_t front;
};

const PinnedExhaustive kExhaustive[] = {
    {"INT2", 4096, 0x0ad1eb5au},
    {"INT4", 4096, 0x747e519cu},
    {"INT8", 4096, 0xd4c21b36u},
    {"INT16", 4096, 0x0bd973c0u},
    {"FP8", 4096, 0xbe23b8a9u},
    {"FP16", 4096, 0xf97d0600u},
    {"BF16", 4096, 0x3bfc4d0eu},
    {"FP32", 4096, 0xd74c6b68u},
    {"INT2", 131072, 0xdccbf08du},
    {"INT4", 131072, 0x06c8c52cu},
    {"INT8", 131072, 0xdd6c780bu},
    {"INT16", 131072, 0x008d4742u},
    {"FP8", 131072, 0x8ff5a99bu},
    {"FP16", 131072, 0xa5a5e5ecu},
    {"BF16", 131072, 0x8f11eda4u},
    {"FP32", 131072, 0x090a0921u},
};
// clang-format on

constexpr std::uint64_t kSeed = 1;

std::string bits_of(double v) {
  std::uint64_t u = 0;
  std::memcpy(&u, &v, sizeof u);
  return strfmt("%016llx", static_cast<unsigned long long>(u));
}

std::uint32_t front_digest(const std::vector<EvaluatedDesign>& front) {
  std::string text;
  for (const EvaluatedDesign& ed : front) {
    text += ed.point.to_string();
    for (const double v : ed.objectives()) text += " " + bits_of(v);
    text += "\n";
  }
  return fnv1a32(text);
}

TEST(Nsga2IdentityTest, FrontsAndStatsAreByteIdentical) {
  const Technology tech = Technology::tsmc28();
  std::ostringstream table;
  bool all_match = true;
  for (const PinnedRun& p : kRuns) {
    const DesignSpace space(p.wstore, *precision_from_name(p.precision));
    std::uint32_t first = 0;
    Nsga2Stats first_stats;
    for (const int threads : {1, 4}) {
      SCOPED_TRACE(strfmt("%s %lld %dx%d threads=%d", p.precision,
                          static_cast<long long>(p.wstore), p.population,
                          p.generations, threads));
      Nsga2Options opt;
      opt.population = p.population;
      opt.generations = p.generations;
      opt.seed = kSeed;
      opt.threads = threads;
      Nsga2Stats stats;
      const std::uint32_t front =
          front_digest(explore_nsga2(space, tech, {}, opt, &stats));
      EXPECT_EQ(front, p.front) << "front";
      EXPECT_EQ(stats.evaluations, p.evaluations) << "evaluations";
      EXPECT_EQ(stats.generations_run, p.generations_run)
          << "generations_run";
      all_match = all_match && front == p.front &&
                  stats.evaluations == p.evaluations &&
                  stats.generations_run == p.generations_run;
      if (threads == 1) {
        first = front;
        first_stats = stats;
      }
    }
    table << strfmt("    {\"%s\", %lld, %d, %d, 0x%08xu, %lld, %d},\n",
                    p.precision, static_cast<long long>(p.wstore),
                    p.population, p.generations, first,
                    static_cast<long long>(first_stats.evaluations),
                    first_stats.generations_run);
  }
  EXPECT_TRUE(all_match) << "digests as computed (threads=1):\n"
                         << table.str();
}

TEST(Nsga2IdentityTest, ExhaustiveFrontsAreByteIdentical) {
  const Technology tech = Technology::tsmc28();
  std::ostringstream table;
  bool all_match = true;
  for (const PinnedExhaustive& p : kExhaustive) {
    SCOPED_TRACE(strfmt("%s %lld", p.precision,
                        static_cast<long long>(p.wstore)));
    const DesignSpace space(p.wstore, *precision_from_name(p.precision));
    const std::uint32_t front = front_digest(explore_exhaustive(space, tech));
    EXPECT_EQ(front, p.front);
    all_match = all_match && front == p.front;
    table << strfmt("    {\"%s\", %lld, 0x%08xu},\n", p.precision,
                    static_cast<long long>(p.wstore), front);
  }
  EXPECT_TRUE(all_match) << "digests as computed:\n" << table.str();
}

TEST(Nsga2IdentityTest, MultiPrecisionMergeIsByteIdentical) {
  const Technology tech = Technology::tsmc28();
  Nsga2Options opt;
  opt.seed = kSeed;
  const std::uint32_t merged = front_digest(explore_multi_precision(
      16384, all_precisions(), tech, {}, opt));
  EXPECT_EQ(merged, 0xfa8e264cu)
      << strfmt("digest as computed: 0x%08xu", merged);
}

}  // namespace
}  // namespace sega
