/**
 * @file
 * The bit-identity gate between the two emulator backends. The
 * interpreter (emu/emulator.cc) is the reference oracle; the
 * pre-decoded threaded engine (emu/threaded.cc) must be an invisible
 * substitution: for every workload and a batch of fuzz-generated
 * programs, both backends must produce byte-identical trace streams
 * (packed entries AND the varint memory side stream, chunk by
 * chunk), field-identical StaticIndex contents, equal RunResults,
 * equal profiles, equal replay figures — and identical EmuTrap
 * kind/pc/steps/message on runs that trap.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "analysis/profile.hh"
#include "driver/pipeline.hh"
#include "emu/decoded.hh"
#include "fuzz/generator.hh"
#include "sim/timing.hh"
#include "trace/replay.hh"
#include "trace/trace.hh"
#include "workloads/workloads.hh"

namespace predilp
{
namespace
{

void
expectIndexEq(const StaticIndex &a, const StaticIndex &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (RegClass cls :
         {RegClass::Int, RegClass::Float, RegClass::Pred}) {
        EXPECT_EQ(a.regBound(cls), b.regBound(cls));
    }
    for (std::uint32_t id = 0; id < a.size(); ++id) {
        const StaticOp &x = a.op(id);
        const StaticOp &y = b.op(id);
        SCOPED_TRACE("static id " + std::to_string(id));
        EXPECT_EQ(x.addr, y.addr);
        EXPECT_EQ(x.op, y.op);
        EXPECT_EQ(x.guard, y.guard);
        EXPECT_EQ(x.dest, y.dest);
        EXPECT_EQ(x.srcRegCount, y.srcRegCount);
        EXPECT_EQ(x.predDestCount, y.predDestCount);
        EXPECT_EQ(x.kind, y.kind);
        EXPECT_EQ(x.isBranch, y.isBranch);
        EXPECT_EQ(x.isLoad, y.isLoad);
        EXPECT_EQ(x.isStore, y.isStore);
        EXPECT_EQ(x.isPredAll, y.isPredAll);
        const Reg *xr = a.regs(x);
        const Reg *yr = b.regs(y);
        const int n = x.srcRegCount + x.predDestCount;
        for (int i = 0; i < n; ++i)
            EXPECT_EQ(xr[i], yr[i]);
    }
}

void
expectRunEq(const RunResult &a, const RunResult &b)
{
    EXPECT_EQ(a.exitValue, b.exitValue);
    EXPECT_EQ(a.dynInstrs, b.dynInstrs);
    EXPECT_EQ(a.output, b.output);
    EXPECT_EQ(a.memHash, b.memHash);
}

/** Byte-for-byte comparison of the two packed trace streams. */
void
expectTraceEq(const TraceBuffer &a, const TraceBuffer &b)
{
    ASSERT_EQ(a.size(), b.size());
    ASSERT_EQ(a.chunkCount(), b.chunkCount());
    for (std::size_t i = 0; i < a.chunkCount(); ++i) {
        SCOPED_TRACE("chunk " + std::to_string(i));
        TraceBuffer::ChunkView x = a.chunk(i);
        TraceBuffer::ChunkView y = b.chunk(i);
        ASSERT_EQ(x.entryCount, y.entryCount);
        EXPECT_EQ(std::memcmp(x.entries, y.entries,
                              x.entryCount * sizeof(TraceEntry)),
                  0);
        ASSERT_EQ(x.memSize, y.memSize);
        EXPECT_EQ(std::memcmp(x.memBytes, y.memBytes, x.memSize), 0);
        EXPECT_EQ(x.memCount, y.memCount);
    }
    expectIndexEq(a.index(), b.index());
    expectRunEq(a.run(), b.run());
}

std::unique_ptr<Program>
compiled(const std::string &source, Model model,
         const std::string &input)
{
    CompileOptions opts;
    opts.model = model;
    opts.machine = issue8Branch1();
    opts.profileInput = input;
    return compileForModel(source, opts);
}

constexpr Model kModels[] = {Model::Superblock, Model::CondMove,
                             Model::FullPred};

TEST(BackendDiff, EveryWorkloadBitIdenticalTrace)
{
    auto expectBackendsAgree = [](const Workload &workload, Model model,
                                  const std::string &input) {
        auto prog = compiled(workload.source, model, input);
        auto interp =
            capture(*prog, input, 2'000'000'000ull, EmuBackend::Interp);
        auto threaded = capture(*prog, input, 2'000'000'000ull,
                                EmuBackend::Threaded);
        SCOPED_TRACE(workload.name + "/" + modelName(model) + ", " +
                     std::to_string(input.size()) + "-byte input");
        expectTraceEq(*interp, *threaded);
    };
    // Each workload runs under one model (rotating) at scale 1 to
    // keep the suite fast; the fuzz batch below covers the full model
    // cross product.
    std::size_t i = 0;
    for (const Workload &workload : allWorkloads())
        expectBackendsAgree(workload, kModels[i++ % 3],
                            workload.makeInput(1));
    // One figure-set trace at full size: espresso under Full Pred. at
    // its default input, about 467K records.
    const Workload *espresso = findWorkload("espresso");
    ASSERT_NE(espresso, nullptr);
    expectBackendsAgree(*espresso, Model::FullPred, espresso->input());
}

TEST(BackendDiff, ReplayFiguresAgree)
{
    const Workload *workload = findWorkload("wc");
    ASSERT_NE(workload, nullptr);
    std::string input = workload->makeInput(1);
    auto prog = compiled(workload->source, Model::FullPred, input);
    auto interp =
        capture(*prog, input, 2'000'000'000ull, EmuBackend::Interp);
    auto threaded =
        capture(*prog, input, 2'000'000'000ull, EmuBackend::Threaded);
    SimConfig sim;
    sim.machine = issue8Branch1();
    sim.perfectCaches = false;
    SimResult a = replay(*interp, sim);
    SimResult b = replay(*threaded, sim);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.dynInstrs, b.dynInstrs);
    EXPECT_EQ(a.nullified, b.nullified);
    EXPECT_EQ(a.branches, b.branches);
    EXPECT_EQ(a.mispredicts, b.mispredicts);
    EXPECT_EQ(a.loads, b.loads);
    EXPECT_EQ(a.stores, b.stores);
    EXPECT_EQ(a.icacheMisses, b.icacheMisses);
    EXPECT_EQ(a.dcacheMisses, b.dcacheMisses);
    EXPECT_EQ(a.exitValue, b.exitValue);
    EXPECT_EQ(a.output, b.output);
    EXPECT_EQ(a.stats.counters(), b.stats.counters());
}

TEST(BackendDiff, FuzzBatchBitIdenticalAllModels)
{
    for (std::uint64_t seed = 0; seed < 10; ++seed) {
        GeneratedProgram gen = generateProgram(seed);
        for (Model model : kModels) {
            auto prog = compiled(gen.source, model, gen.input);
            auto interp = capture(*prog, gen.input, 2'000'000'000ull,
                                  EmuBackend::Interp);
            auto threaded = capture(*prog, gen.input,
                                    2'000'000'000ull,
                                    EmuBackend::Threaded);
            SCOPED_TRACE("seed " + std::to_string(seed) + "/" +
                         modelName(model));
            expectTraceEq(*interp, *threaded);
        }
    }
}

TEST(BackendDiff, RunResultAndProfileAgree)
{
    const Workload *workload = findWorkload("qsort");
    ASSERT_NE(workload, nullptr);
    std::string input = workload->makeInput(1);
    auto prog =
        compiled(workload->source, Model::Superblock, input);

    ProgramProfile interpProfile(*prog);
    EmuOptions interpOpts;
    interpOpts.backend = EmuBackend::Interp;
    interpOpts.profile = &interpProfile;
    RunResult a = Emulator(*prog).run(input, interpOpts);

    ProgramProfile threadedProfile(*prog);
    EmuOptions threadedOpts;
    threadedOpts.backend = EmuBackend::Threaded;
    threadedOpts.profile = &threadedProfile;
    RunResult b = Emulator(*prog).run(input, threadedOpts);

    expectRunEq(a, b);
    for (const auto &fn : prog->functions()) {
        const FunctionProfile &x =
            interpProfile.forFunction(fn->name());
        const FunctionProfile &y =
            threadedProfile.forFunction(fn->name());
        SCOPED_TRACE(fn->name());
        const auto blockIds = static_cast<BlockId>(fn->numBlockIds());
        for (BlockId id = 0; id < blockIds; ++id)
            EXPECT_EQ(x.blockCount(id), y.blockCount(id));
        for (int id = 0; id < fn->instrIdBound(); ++id)
            EXPECT_EQ(x.takenCount(id), y.takenCount(id));
    }
}

/** Capture the EmuTrap a run throws; fail if it completes. */
template <typename Fn>
EmuTrap
expectTrap(Fn &&run)
{
    try {
        run();
    } catch (const EmuTrap &trap) {
        return trap;
    }
    ADD_FAILURE() << "run completed without trapping";
    return EmuTrap(TrapKind::BadProgram, -1, 0, "did not trap");
}

void
expectSameTrap(const Program &prog, const std::string &input,
               std::uint64_t fuel)
{
    EmuOptions interpOpts;
    interpOpts.backend = EmuBackend::Interp;
    interpOpts.maxDynInstrs = fuel;
    EmuOptions threadedOpts;
    threadedOpts.backend = EmuBackend::Threaded;
    threadedOpts.maxDynInstrs = fuel;
    EmuTrap a = expectTrap(
        [&] { Emulator(prog).run(input, interpOpts); });
    EmuTrap b = expectTrap(
        [&] { Emulator(prog).run(input, threadedOpts); });
    EXPECT_EQ(a.kind(), b.kind());
    EXPECT_EQ(a.pc(), b.pc());
    EXPECT_EQ(a.steps(), b.steps());
    EXPECT_STREQ(a.what(), b.what());
}

TEST(BackendDiff, TrapParityFuelExhausted)
{
    const Workload *workload = findWorkload("wc");
    ASSERT_NE(workload, nullptr);
    std::string input = workload->makeInput(1);
    auto prog = compiled(workload->source, Model::FullPred, input);
    expectSameTrap(*prog, input, 1000);
}

TEST(BackendDiff, TrapParityDivideByZero)
{
    // readblock on empty input yields 0, so the divide traps at run
    // time (the divisor is not a compile-time constant).
    const char *source = R"ILC(
byte scratch[16];
int main() {
    int n = readblock(scratch, 0, 16);
    return 100 / n;
}
)ILC";
    // Profile with a benign input (n = 1); trap at run time on "".
    auto prog = compiled(source, Model::FullPred, "x");
    expectSameTrap(*prog, "", 1000000);
}

TEST(BackendDiff, TrapParityMemFault)
{
    // One input byte makes the index huge; the load faults.
    const char *source = R"ILC(
byte scratch[16];
int main() {
    int n = readblock(scratch, 0, 16);
    int wild = n * 1000000000;
    return scratch[wild];
}
)ILC";
    // Profile with empty input (index 0); trap at run time on "x".
    auto prog = compiled(source, Model::FullPred, "");
    expectSameTrap(*prog, "x", 1000000);
}

} // namespace
} // namespace predilp
