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
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "driver/pipeline.hh"
#include "fuzz/oracle.hh"
#include "support/faultpoint.hh"

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

/** The rest of @p path's `// <field>: ` header line ("" if none). */
std::string
headerField(const std::string &path, const std::string &field)
{
    std::ifstream in(path);
    const std::string prefix = "// " + field + ": ";
    for (std::string line; std::getline(in, line);) {
        if (line.rfind(prefix, 0) == 0)
            return line.substr(prefix.size());
    }
    return "";
}

TEST(FuzzOracle, ReproducersNameTheFailingModelAndFlags)
{
    // A capture fault fails every compile of seed 3 (its reference
    // run captures nothing), so each config writes a reproducer. Its
    // header must name the config's model and ablation flags, or a
    // developer replaying it by hand compiles another program.
    const std::string dir = testing::TempDir() + "predilp-fuzz-repro";
    std::filesystem::remove_all(dir);
    OracleOptions opts;
    opts.reproducerDir = dir;
    faultpoints::armFromSpec("emu.threaded.capture=prob:1");
    const OracleResult result = runDifferentialOracle(3, opts);
    faultpoints::resetForTest();

    AblationFlags noUnrolling;
    noUnrolling.unrolling = false;
    AblationFlags noPromotion;
    noPromotion.promotion = false;
    const std::map<std::string, std::pair<Model, AblationFlags>>
        configs = {
            {"Superblock", {Model::Superblock, {}}},
            {"CondMove", {Model::CondMove, {}}},
            {"FullPred", {Model::FullPred, {}}},
            {"Cond. Move/flip-unrolling", {Model::CondMove, noUnrolling}},
            {"Full Pred./flip-promotion", {Model::FullPred, noPromotion}},
        };
    ASSERT_EQ(result.failures.size(), configs.size());
    for (const OracleFailure &failure : result.failures) {
        SCOPED_TRACE(failure.config);
        auto config = configs.find(failure.config);
        ASSERT_NE(config, configs.end());
        ASSERT_FALSE(failure.reproducerPath.empty());
        const auto &[model, flags] = config->second;
        EXPECT_EQ(headerField(failure.reproducerPath, "model"),
                  modelName(model));
        // The ablation line is the key, then the flags' names.
        const std::string ablation =
            headerField(failure.reproducerPath, "ablation");
        EXPECT_EQ(ablation.substr(0, ablation.find(' ')), flags.key());
    }
}

} // namespace
} // namespace predilp
