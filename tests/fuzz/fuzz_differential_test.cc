/**
 * @file
 * The acceptance gate for the differential fuzzer: 500 fixed seeds,
 * each compiled under all three models plus two seed-rotated
 * ablation flips with the post-pass verifier on, must produce zero
 * divergences, verifier failures, or traps. The seeds run as
 * ten-seed cases, so ctest can shard them across cores
 * (tests/CMakeLists.txt). Any failure prints its full oracle record
 * so the seed is reproducible offline via
 * `build/src/fuzz/fuzz_main --start <seed> --seeds 1`.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "fuzz/oracle.hh"

namespace predilp
{
namespace
{

constexpr std::uint64_t kSeeds = 500;
/** Seeds per test case, the unit ctest shards are made of. */
constexpr std::uint64_t kSeedsPerCase = 10;

class FuzzDifferential : public testing::TestWithParam<std::uint64_t>
{};

TEST_P(FuzzDifferential, SeedRangeAgreesAcrossAllModels)
{
    const std::uint64_t first = GetParam();
    const std::uint64_t end = std::min(first + kSeedsPerCase, kSeeds);
    OracleOptions opts; // ablations + per-pass verification on.
    std::uint64_t configs = 0;
    std::vector<OracleFailure> failures;
    for (std::uint64_t seed = first; seed < end; ++seed) {
        OracleResult result = runDifferentialOracle(seed, opts);
        configs += result.configsRun;
        failures.insert(failures.end(), result.failures.begin(),
                        result.failures.end());
    }
    for (const OracleFailure &f : failures) {
        ADD_FAILURE() << "seed " << f.seed << " [" << f.config
                      << "] " << f.kind << ": " << f.message;
    }
    EXPECT_TRUE(failures.empty());
    // 3 models + 2 ablation flips per seed.
    EXPECT_EQ(configs, (end - first) * 5);
}

// Seeds [0, kSeeds) in consecutive ranges of kSeedsPerCase.
INSTANTIATE_TEST_SUITE_P(
    FiveHundredSeeds, FuzzDifferential,
    testing::Range<std::uint64_t>(0, kSeeds, kSeedsPerCase));

} // namespace
} // namespace predilp
