/**
 * @file
 * The bit-identity gate between the two emulator backends. The
 * interpreter (emu/emulator.cc) is the reference oracle; the
 * pre-decoded threaded engine (emu/threaded.cc), which runs every
 * production profile, reference run and capture, must be an
 * invisible substitution: for every trace the figure benches capture
 * and a batch of fuzz-generated programs, both backends must produce
 * byte-identical trace streams (packed entries AND the varint memory
 * side stream, chunk by chunk), field-identical StaticIndex
 * contents, equal RunResults, equal profiles, equal replay figures —
 * and identical EmuTrap kind/pc/steps/message on runs that trap.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <map>
#include <utility>
#include <vector>

#include "analysis/profile.hh"
#include "driver/certified.hh"
#include "driver/pipeline.hh"
#include "emu/decoded.hh"
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

/** Run @p prog on @p input under @p backend, returning its profile
 * (and its RunResult through @p run, when given). */
ProgramProfile
profiled(const Program &prog, const std::string &input,
         EmuBackend backend, RunResult *run = nullptr)
{
    ProgramProfile profile(prog);
    EmuOptions opts;
    opts.backend = backend;
    opts.profile = &profile;
    RunResult result = Emulator(prog).run(input, opts);
    if (run != nullptr)
        *run = std::move(result);
    return profile;
}

/** Equal block and taken counts in every function of @p prog. */
void
expectProfileEq(const Program &prog, const ProgramProfile &a,
                const ProgramProfile &b)
{
    for (const auto &fn : prog.functions()) {
        SCOPED_TRACE(fn->name());
        const FunctionProfile *x = a.find(fn->name());
        const FunctionProfile *y = b.find(fn->name());
        ASSERT_NE(x, nullptr);
        ASSERT_NE(y, nullptr);
        const auto blockIds = static_cast<BlockId>(fn->numBlockIds());
        for (BlockId id = 0; id < blockIds; ++id)
            EXPECT_EQ(x->blockCount(id), y->blockCount(id));
        for (int id = 0; id < fn->instrIdBound(); ++id)
            EXPECT_EQ(x->takenCount(id), y->takenCount(id));
    }
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

/**
 * One compiled program of the figure benches: a model with its
 * ablation flags, scheduled for a machine.
 */
struct BenchProgram
{
    Model model;
    AblationFlags flags;
    MachineConfig machine;
};

/**
 * Every program bench_figures_all and bench_ablations capture per
 * workload: the three models on the three figure machines (Figure 11
 * reuses Figure 8's traces), the 1-issue Superblock baseline, and
 * the ablation table's seven flag flips at 8-issue, 1-branch.
 */
std::vector<BenchProgram>
benchPrograms()
{
    std::vector<BenchProgram> programs;
    for (const MachineConfig &machine :
         {issue8Branch1(), issue8Branch2(), issue4Branch1()}) {
        for (Model model : kModels)
            programs.push_back({model, {}, machine});
    }
    programs.push_back({Model::Superblock, {}, issue1()});
    AblationFlags noPromotion;
    noPromotion.promotion = false;
    AblationFlags noCombining;
    noCombining.branchCombining = false;
    AblationFlags noHeightReduction;
    noHeightReduction.heightReduction = false;
    AblationFlags noOrTree;
    noOrTree.orTree = false;
    AblationFlags withSelect;
    withSelect.useSelect = true;
    for (const auto &[model, flags] :
         std::vector<std::pair<Model, AblationFlags>>{
             {Model::FullPred, noPromotion},
             {Model::CondMove, noPromotion},
             {Model::FullPred, noCombining},
             {Model::FullPred, noHeightReduction},
             {Model::CondMove, noHeightReduction},
             {Model::CondMove, noOrTree},
             {Model::CondMove, withSelect}}) {
        programs.push_back({model, flags, issue8Branch1()});
    }
    return programs;
}

TEST(BackendDiff, EveryBenchTraceAndProfileBitIdentical)
{
    // Compiled the way the evaluator compiles: one prefix per
    // workload, one formation per model and flag set, one schedule
    // per machine, all on the workload's default input. Workloads
    // run in parallel; each compares its own programs.
    const std::vector<BenchProgram> programs = benchPrograms();
    ASSERT_EQ(programs.size(), 17u);
    const std::vector<Workload> &workloads = allWorkloads();
    std::atomic<std::size_t> traces{0};
    std::atomic<std::size_t> profiles{0};
    ThreadPool pool;
    pool.parallelFor(workloads.size(), [&](std::size_t w) {
        const Workload &workload = workloads[w];
        SCOPED_TRACE(workload.name);
        const std::string input = workload.input();
        const FrontendSnapshot snapshot =
            compilePrefix(workload.source, input);
        expectProfileEq(*snapshot.prog,
                        profiled(*snapshot.prog, input,
                                 EmuBackend::Interp),
                        snapshot.profile);
        profiles += 1;
        std::map<std::string, std::unique_ptr<Program>> formed;
        for (const BenchProgram &bench : programs) {
            CompileOptions opts;
            opts.model = bench.model;
            opts.ablation = bench.flags;
            opts.machine = bench.machine;
            opts.profileInput = input;
            std::unique_ptr<Program> &form =
                formed[modelKey(bench.model) + bench.flags.key()];
            SCOPED_TRACE(modelName(bench.model) + " " +
                         bench.flags.key() + " on " +
                         machineIdentity(bench.machine));
            if (form == nullptr) {
                form = formFromSnapshot(snapshot, opts);
                RunResult a;
                RunResult b;
                const ProgramProfile x =
                    profiled(*form, input, EmuBackend::Interp, &a);
                const ProgramProfile y =
                    profiled(*form, input, EmuBackend::Threaded, &b);
                expectRunEq(a, b);
                expectProfileEq(*form, x, y);
                profiles += 1;
            }
            const std::unique_ptr<Program> prog =
                scheduleFormed(*form, opts);
            expectTraceEq(*capture(*prog, input, 2'000'000'000ull,
                                   EmuBackend::Interp),
                          *capture(*prog, input, 2'000'000'000ull,
                                   EmuBackend::Threaded));
            traces += 1;
        }
    });
    // 255 traces; per workload, the prefix profile and one profile
    // per formed program (3 models, 7 flag flips).
    EXPECT_EQ(traces.load(), workloads.size() * programs.size());
    EXPECT_EQ(profiles.load(), workloads.size() * (1 + 3 + 7));
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
    RunResult a;
    RunResult b;
    const ProgramProfile x =
        profiled(*prog, input, EmuBackend::Interp, &a);
    const ProgramProfile y =
        profiled(*prog, input, EmuBackend::Threaded, &b);
    expectRunEq(a, b);
    expectProfileEq(*prog, x, y);
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
