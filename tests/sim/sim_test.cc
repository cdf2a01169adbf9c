/**
 * @file
 * Unit tests for the timing simulator: caches (direct-mapped,
 * write-through/no-allocate), the 2-bit BTB, the address map, and
 * the in-order pipeline's issue-width / latency / misprediction
 * behavior.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <limits>

#include "driver/pipeline.hh"
#include "frontend/irgen.hh"
#include "ir/builder.hh"
#include "opt/passes.hh"
#include "sim/cache.hh"
#include "sim/scoreboard.hh"
#include "sim/timing.hh"
#include "trace/replay.hh"

namespace predilp
{
namespace
{

TEST(Cache, HitsAfterFill)
{
    SetAssocCache cache(64 * 1024, 64, 1);
    EXPECT_FALSE(cache.access(0));
    EXPECT_TRUE(cache.access(0));
    EXPECT_TRUE(cache.access(63));  // same line.
    EXPECT_FALSE(cache.access(64)); // next line.
    EXPECT_EQ(cache.misses(), 2u);
    EXPECT_EQ(cache.hits(), 2u);
}

TEST(Cache, DirectMappedConflicts)
{
    SetAssocCache cache(64 * 1024, 64, 1);
    EXPECT_FALSE(cache.access(0));
    EXPECT_FALSE(cache.access(64 * 1024)); // same index, other tag.
    EXPECT_FALSE(cache.access(0));         // evicted.
}

TEST(Cache, WriteNoAllocate)
{
    SetAssocCache cache(64 * 1024, 64, 1);
    EXPECT_FALSE(cache.writeAccess(128));
    // The write must not have allocated the line.
    EXPECT_FALSE(cache.present(128));
    EXPECT_FALSE(cache.access(128));
    // A write to a present line hits and keeps it.
    EXPECT_TRUE(cache.writeAccess(128));
    EXPECT_TRUE(cache.present(128));
}

TEST(Cache, ResetClears)
{
    SetAssocCache cache(1024, 64, 1);
    cache.access(0);
    cache.reset();
    EXPECT_FALSE(cache.access(0));
}

TEST(Btb, TwoBitHysteresis)
{
    BranchTargetBuffer btb(16);
    std::int64_t addr = 0x40;
    // Initial counters are weakly not-taken. Each call returns the
    // prediction made before training.
    EXPECT_FALSE(btb.predictAndTrain(addr, true)); // 1 -> 2.
    EXPECT_TRUE(btb.predictAndTrain(addr, true));  // 2 -> 3.
    EXPECT_TRUE(btb.predictAndTrain(addr, false)); // 3 -> 2.
    EXPECT_TRUE(btb.predictAndTrain(addr, false)); // still taken; -> 1.
    EXPECT_FALSE(btb.predictAndTrain(addr, false));
    EXPECT_EQ(btb.lookups(), 5u);
}

TEST(Btb, Aliasing)
{
    BranchTargetBuffer btb(4);
    // Entries 4 apart in words share a slot in a 4-entry table.
    std::int64_t a = 0;
    std::int64_t b = 4 * 4;
    btb.predictAndTrain(a, true);
    btb.predictAndTrain(a, true);
    EXPECT_TRUE(btb.predictAndTrain(b, false)); // aliased.
}

TEST(AddressMap, SequentialWithinFunction)
{
    Program prog;
    Function *fn = prog.newFunction("main");
    fn->setRetKind(RetKind::Int);
    IRBuilder b(fn);
    b.startBlock();
    Reg a = fn->newIntReg();
    // Capture ids immediately: references into the instruction
    // vector do not survive further appends.
    int id0 = b.mov(a, Operand::imm(1)).id();
    int id1 =
        b.emit(Opcode::Add, a, Operand(a), Operand::imm(2)).id();
    b.ret(Operand(a));

    AddressMap map(prog);
    const Instruction *p0 = nullptr;
    const Instruction *p1 = nullptr;
    for (const auto &instr : fn->entry()->instrs()) {
        if (instr.id() == id0)
            p0 = &instr;
        if (instr.id() == id1)
            p1 = &instr;
    }
    ASSERT_NE(p0, nullptr);
    ASSERT_NE(p1, nullptr);
    EXPECT_EQ(map.addressOf(fn, p1) - map.addressOf(fn, p0), 4);
}

/** Compile + simulate a small source at a given config. */
SimResult
simOf(const std::string &source, const MachineConfig &machine,
      bool perfect = true, const std::string &input = "")
{
    CompileOptions opts;
    opts.model = Model::Superblock;
    opts.machine = machine;
    opts.profileInput = input;
    SimConfig sim;
    sim.machine = machine;
    sim.perfectCaches = perfect;
    return runModel(source, input, opts, sim);
}

const char *const loopSource = R"(
    int main() {
        int s = 0;
        for (int i = 0; i < 2000; i = i + 1) {
            s = s + (i ^ 3) - (i >> 1);
        }
        return s & 0xFFFF;
    }
)";

TEST(Timing, WiderMachineIsFaster)
{
    SimResult narrow = simOf(loopSource, issue1());
    SimResult wide = simOf(loopSource, issue8Branch1());
    EXPECT_LT(wide.cycles, narrow.cycles);
    // 1-issue can never beat one instruction per cycle.
    EXPECT_GE(narrow.cycles, narrow.dynInstrs);
}

TEST(Timing, CyclesAtLeastIssueBound)
{
    SimResult r = simOf(loopSource, issue8Branch1());
    EXPECT_GE(r.cycles, r.dynInstrs / 8);
    EXPECT_GE(r.cycles, r.branches); // 1 branch per cycle.
}

TEST(Timing, MispredictsCostCycles)
{
    // A data-dependent unpredictable branch stream.
    const char *const noisy = R"(
        int main() {
            int s = 0, x = 12345;
            for (int i = 0; i < 4000; i = i + 1) {
                x = (x * 1103515245 + 12345) % 2147483647;
                if ((x & 1) == 0) { s = s + 1; }
                else { s = s - 1; }
            }
            return s;
        }
    )";
    CompileOptions opts;
    opts.model = Model::Superblock;
    opts.machine = issue8Branch1();
    SimConfig sim;
    sim.machine = opts.machine;
    SimResult r = runModel(noisy, "", opts, sim);
    EXPECT_GT(r.mispredicts, 500u); // ~50% mispredict rate.
    EXPECT_GT(r.mispredictRate(), 0.1);

    // The same program with a higher penalty costs more cycles.
    CompileOptions opts2 = opts;
    opts2.machine.mispredictPenalty = 10;
    SimConfig sim2;
    sim2.machine = opts2.machine;
    SimResult r2 = runModel(noisy, "", opts2, sim2);
    EXPECT_GT(r2.cycles, r.cycles);
}

TEST(Timing, RealCachesCostCycles)
{
    // Stride through a large array to generate data misses.
    const char *const strider = R"(
        int arr[6000];
        int main() {
            int s = 0;
            for (int pass = 0; pass < 4; pass = pass + 1) {
                for (int i = 0; i < 6000; i = i + 32) {
                    s = s + arr[i];
                    arr[i] = s;
                }
            }
            return s;
        }
    )";
    SimResult perfect = simOf(strider, issue8Branch1(), true);
    SimResult real = simOf(strider, issue8Branch1(), false);
    EXPECT_GT(real.dcacheMisses, 100u);
    EXPECT_GT(real.cycles, perfect.cycles);
    EXPECT_EQ(perfect.dcacheMisses, 0u);
}

TEST(Timing, StatsAreConsistent)
{
    SimResult r = simOf(loopSource, issue8Branch1());
    EXPECT_GT(r.dynInstrs, 0u);
    EXPECT_LE(r.condBranches, r.branches);
    EXPECT_LE(r.mispredicts, r.condBranches);
    EXPECT_EQ(r.nullified, 0u); // superblock code has no guards.
}

TEST(Timing, MachineWithoutIssueOrBranchSlotsPanics)
{
    // A record needs an issue slot, and a branch a branch slot: with
    // none, pricing would wait forever, so the model refuses the
    // machine before it prices anything.
    TraceBuffer buffer(StaticIndex({}, {}, std::array<int, 3>{}));
    SimConfig noIssue;
    noIssue.machine.issueWidth = 0;
    EXPECT_THROW(replay(buffer, noIssue), PanicError);
    SimConfig noBranch;
    noBranch.machine.branchesPerCycle = 0;
    EXPECT_THROW(replay(buffer, noBranch), PanicError);
}

TEST(Timing, FullPredNullifiedConsumeSlots)
{
    const char *const branchy = R"(
        int main() {
            int a = 0, b = 0;
            for (int i = 0; i < 3000; i = i + 1) {
                if ((i & 1) == 0) { a = a + 1; }
                else { b = b + 1; }
            }
            return a * 10000 + b;
        }
    )";
    CompileOptions opts;
    opts.model = Model::FullPred;
    opts.machine = issue8Branch1();
    SimConfig sim;
    sim.machine = opts.machine;
    SimResult r = runModel(branchy, "", opts, sim);
    EXPECT_GT(r.nullified, 1000u);
    // Nullified instructions are fetched: cycles reflect the full
    // fetch stream, not just the executed subset.
    EXPECT_GE(r.cycles, r.dynInstrs / 8);
}

/**
 * Slots of a board over 16 Int and 16 Pred registers: slot 0 is "no
 * register", r0-r15 are slots 1-16 and p0-p15 slots 17-32.
 */
constexpr std::uint32_t boardSlots = 33;
constexpr std::uint32_t predSlotBase = 17;
constexpr std::uint32_t r3 = 1 + 3;
constexpr std::uint32_t r7 = 1 + 7;
constexpr std::uint32_t p1 = predSlotBase + 1;
constexpr std::uint32_t p2 = predSlotBase + 2;

TEST(Scoreboard, EpochWraparoundHardResetsStaleTags)
{
    RegScoreboard board(boardSlots, predSlotBase);
    board.setDest(r3, 42);
    EXPECT_EQ(board.readyAt(r3), 42);

    // Jump to the final epoch before the 32-bit counter wraps, as
    // if ~2^32 drains had happened since r3 was written.
    board.presetEpochForTest(
        std::numeric_limits<std::uint32_t>::max());
    EXPECT_EQ(board.readyAt(r3), 0);
    board.setDest(r7, 99);
    EXPECT_EQ(board.readyAt(r7), 99);

    // The wrapping drain: the epoch increment overflows to 0 and
    // clear() must hard-reset every tag before restarting at epoch
    // 1. Without that reset, r3's stale tag from the original
    // epoch 1 would alias the fresh epoch and resurrect the ready
    // cycle written ~2^32 drains ago.
    board.clear();
    EXPECT_EQ(board.readyAt(r3), 0);
    EXPECT_EQ(board.readyAt(r7), 0);
    EXPECT_EQ(board.maxOutstanding(0), 0);
    board.setDest(r3, 7);
    EXPECT_EQ(board.readyAt(r3), 7);
    EXPECT_EQ(board.maxOutstanding(0), 7);
}

TEST(Scoreboard, WholeFileWritesSeeOnlyPredicatesTouchedThisEpoch)
{
    RegScoreboard board(boardSlots, predSlotBase);
    // Slot 0 is never written and always reads 0.
    EXPECT_EQ(board.readyAt(0), 0);
    board.setDest(r3, 5);
    board.accumulate(p1, 9);
    board.accumulate(p1, 4); // accumulation keeps the latest.
    EXPECT_EQ(board.readyAt(p1), 9);

    // pred_set/pred_clear rewrite p1 only: r3 is no predicate and
    // p2 was not written since the last drain.
    board.setAllPred(3);
    EXPECT_EQ(board.readyAt(r3), 5);
    EXPECT_EQ(board.readyAt(p1), 3);
    EXPECT_EQ(board.readyAt(p2), 0);
    EXPECT_EQ(board.maxOutstanding(0), 5);

    // A drain forgets both dirty lists.
    board.clear();
    board.setAllPred(30);
    EXPECT_EQ(board.readyAt(p1), 0);
    EXPECT_EQ(board.maxOutstanding(1), 1);
}

} // namespace
} // namespace predilp
