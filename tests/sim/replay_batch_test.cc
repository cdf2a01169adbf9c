/**
 * @file
 * replayBatch() bit-identity tests: pricing one captured trace for N
 * SimConfigs in a single streaming pass must equal N independent
 * replay() calls — every SimResult field and every sim.* stats leaf
 * — for batch sizes 1/2/odd/8+, across all three models, with real
 * and perfect caches mixed in one batch, on suite workloads and on
 * fuzz-generated programs, and with the lane work spread over a
 * ThreadPool. A record whose static id lies past the trace's op
 * table panics in both paths.
 */

#include <gtest/gtest.h>

#include <array>
#include <span>

#include "driver/pipeline.hh"
#include "fuzz/generator.hh"
#include "sim/timing.hh"
#include "support/thread_pool.hh"
#include "trace/replay.hh"
#include "trace/trace.hh"
#include "workloads/workloads.hh"

namespace predilp
{
namespace
{

void
expectSimEq(const SimResult &a, const SimResult &b)
{
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.dynInstrs, b.dynInstrs);
    EXPECT_EQ(a.nullified, b.nullified);
    EXPECT_EQ(a.branches, b.branches);
    EXPECT_EQ(a.condBranches, b.condBranches);
    EXPECT_EQ(a.mispredicts, b.mispredicts);
    EXPECT_EQ(a.loads, b.loads);
    EXPECT_EQ(a.stores, b.stores);
    EXPECT_EQ(a.icacheMisses, b.icacheMisses);
    EXPECT_EQ(a.dcacheMisses, b.dcacheMisses);
    EXPECT_EQ(a.exitValue, b.exitValue);
    EXPECT_EQ(a.output, b.output);
    // The detailed sim.* machine counters must agree leaf for leaf.
    EXPECT_EQ(a.stats.counters(), b.stats.counters());
}

/**
 * @p n deterministic, deliberately heterogeneous configs: machine
 * width, BTB geometry, predictor, penalties, cache shape, and the
 * perfect/real cache switch all vary, so one batch mixes lanes that
 * need decoded addresses with lanes that skip the address stream.
 */
std::vector<SimConfig>
makeConfigs(std::size_t n)
{
    const MachineConfig machines[] = {issue8Branch1(), issue1(),
                                      issue4Branch1(),
                                      issue8Branch2()};
    std::vector<SimConfig> configs;
    configs.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        SimConfig sim;
        sim.machine = machines[i % 4];
        sim.machine.mispredictPenalty =
            4 + static_cast<int>(i % 3) * 3;
        sim.perfectCaches = (i % 2) == 0;
        sim.btbEntries = 16u << (i % 4);
        sim.btbAssociativity = (i % 3 == 0) ? 1 : 2;
        if (i % 3 == 1)
            sim.predictor = BranchPredictor::OneBit;
        sim.cacheSizeBytes = 1024 << (i % 3);
        sim.cacheLineBytes = (i % 2) == 0 ? 32 : 64;
        sim.cacheMissPenalty = 8 + static_cast<int>(i % 5);
        configs.push_back(sim);
    }
    return configs;
}

void
expectBatchMatchesSequential(const TraceBuffer &buffer,
                             std::span<const SimConfig> configs,
                             ThreadPool *pool = nullptr)
{
    std::vector<SimResult> batch = replayBatch(buffer, configs, pool);
    ASSERT_EQ(batch.size(), configs.size());
    for (std::size_t i = 0; i < configs.size(); ++i) {
        SCOPED_TRACE("config " + std::to_string(i));
        expectSimEq(batch[i], replay(buffer, configs[i]));
    }
}

std::unique_ptr<Program>
compiledWorkload(const Workload &workload, Model model,
                 const std::string &input)
{
    CompileOptions opts;
    opts.model = model;
    opts.machine = issue8Branch1();
    opts.profileInput = input;
    return compileForModel(workload.source, opts);
}

TEST(ReplayBatch, EverySizeEveryModelMatchesSequential)
{
    const Workload *workload = findWorkload("cmp");
    ASSERT_NE(workload, nullptr);
    std::string input = workload->makeInput(1);
    for (Model model : {Model::Superblock, Model::CondMove,
                        Model::FullPred}) {
        auto prog = compiledWorkload(*workload, model, input);
        auto buffer = capture(*prog, input);
        // 1 = degenerate batch, 2 = smallest real batch, 5 and 11 =
        // odd sizes, 8 = the acceptance batch width.
        for (std::size_t size : {1u, 2u, 5u, 8u, 11u}) {
            SCOPED_TRACE(modelName(model) + "/batch" +
                         std::to_string(size));
            expectBatchMatchesSequential(*buffer,
                                         makeConfigs(size));
        }
    }
}

TEST(ReplayBatch, AllPerfectCacheBatchSkipsAddressDecode)
{
    // When no lane member reads addresses the cursor skips varint
    // decoding entirely; the priced results must not change.
    const Workload *workload = findWorkload("wc");
    ASSERT_NE(workload, nullptr);
    std::string input = workload->makeInput(1);
    auto prog =
        compiledWorkload(*workload, Model::FullPred, input);
    auto buffer = capture(*prog, input);
    std::vector<SimConfig> configs = makeConfigs(8);
    for (SimConfig &sim : configs)
        sim.perfectCaches = true;
    expectBatchMatchesSequential(*buffer, configs);
}

TEST(ReplayBatch, ThreadPoolLaneSpreadMatchesSerial)
{
    const Workload *workload = findWorkload("qsort");
    ASSERT_NE(workload, nullptr);
    std::string input = workload->makeInput(1);
    auto prog =
        compiledWorkload(*workload, Model::CondMove, input);
    auto buffer = capture(*prog, input);
    // 19 configs on a 4-thread pool split into four uneven lanes;
    // results must come back in request order whichever thread
    // priced each lane.
    std::vector<SimConfig> configs = makeConfigs(19);
    ThreadPool pool(4);
    expectBatchMatchesSequential(*buffer, configs, &pool);
}

TEST(ReplayBatch, FuzzProgramsMatchSequential)
{
    for (std::uint64_t seed : {7u, 21u}) {
        GeneratedProgram generated = generateProgram(seed);
        for (Model model : {Model::Superblock, Model::CondMove,
                            Model::FullPred}) {
            SCOPED_TRACE("seed " + std::to_string(seed) + "/" +
                         modelName(model));
            CompileOptions opts;
            opts.model = model;
            opts.machine = issue8Branch1();
            opts.profileInput = generated.input;
            auto prog =
                compileForModel(generated.source, opts);
            auto buffer = capture(*prog, generated.input);
            expectBatchMatchesSequential(*buffer, makeConfigs(8));
        }
    }
}

TEST(ReplayBatch, StaticIdPastTheTablePanics)
{
    // A one-op index whose trace names op 1 after a valid record:
    // the range check must fire before any model prices the record,
    // for a single replay and for a two-config batch (one lane with
    // perfect caches, one with real caches).
    TraceBuffer buffer(
        StaticIndex({StaticOp{}}, {}, std::array<int, 3>{0, 0, 0}));
    buffer.append(0, 0, 0);
    buffer.append(1, 0, 0);
    EXPECT_THROW(replay(buffer, SimConfig{}), PanicError);
    SimConfig configs[2];
    configs[1].perfectCaches = false;
    EXPECT_THROW(replayBatch(buffer, configs), PanicError);
}

TEST(ReplayBatch, EmptyBatchYieldsNoResults)
{
    const Workload *workload = findWorkload("cmp");
    ASSERT_NE(workload, nullptr);
    std::string input = workload->makeInput(1);
    auto prog =
        compiledWorkload(*workload, Model::Superblock, input);
    auto buffer = capture(*prog, input);
    EXPECT_TRUE(
        replayBatch(*buffer, std::span<const SimConfig>{}).empty());
}

} // namespace
} // namespace predilp
