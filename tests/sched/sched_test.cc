/**
 * @file
 * Unit tests for the machine model, dependence graph, and list
 * scheduler: latencies, issue-width and branch-slot limits, wired-OR
 * simultaneous issue, cross-branch speculation, and semantic
 * preservation of scheduled code.
 */

#include <gtest/gtest.h>

#include <functional>

#include "emu/emulator.hh"
#include "frontend/irgen.hh"
#include "ir/builder.hh"
#include "ir/verifier.hh"
#include "opt/passes.hh"
#include "sched/depgraph.hh"
#include "sched/scheduler.hh"

namespace predilp
{
namespace
{

TEST(Machine, PresetsMatchPaper)
{
    MachineConfig m8 = issue8Branch1();
    EXPECT_EQ(m8.issueWidth, 8);
    EXPECT_EQ(m8.branchesPerCycle, 1);
    EXPECT_EQ(m8.mispredictPenalty, 2);
    EXPECT_EQ(issue8Branch2().branchesPerCycle, 2);
    EXPECT_EQ(issue4Branch1().issueWidth, 4);
    EXPECT_EQ(issue1().issueWidth, 1);
}

TEST(Machine, LatenciesFollowClasses)
{
    MachineConfig m;
    Instruction add(Opcode::Add);
    Instruction mul(Opcode::Mul);
    Instruction div(Opcode::Div);
    Instruction ld(Opcode::Ld);
    Instruction fdiv(Opcode::FDiv);
    Instruction def(Opcode::PredEq);
    EXPECT_EQ(m.latencyOf(add), 1);
    EXPECT_EQ(m.latencyOf(mul), 3);
    EXPECT_EQ(m.latencyOf(div), 10);
    EXPECT_EQ(m.latencyOf(ld), 2);
    EXPECT_EQ(m.latencyOf(fdiv), 8);
    EXPECT_EQ(m.latencyOf(def), 1);
}

/** Build a block, schedule, and return the final instrs. */
struct Sched
{
    Program prog;
    Function *fn;
    IRBuilder b;

    Sched() : fn(prog.newFunction("main")), b(fn)
    {
        fn->setRetKind(RetKind::Int);
        b.startBlock();
    }

    ScheduleStats
    schedule(const MachineConfig &config, bool speculation = true)
    {
        return scheduleFunction(*fn, config, speculation);
    }

    int
    cycleOf(Opcode op)
    {
        for (BlockId id : fn->layout()) {
            for (const auto &instr : fn->block(id)->instrs()) {
                if (instr.op() == op)
                    return instr.issueCycle();
            }
        }
        return -1;
    }
};

TEST(Scheduler, RespectsRawLatency)
{
    Sched s;
    Reg a = s.fn->newIntReg();
    Reg c = s.fn->newIntReg();
    s.b.emit(Opcode::Mul, a, Operand::imm(3), Operand::imm(4));
    s.b.emit(Opcode::Add, c, Operand(a), Operand::imm(1));
    s.b.ret(Operand(c));
    s.schedule(issue8Branch1());
    // mul at 0 (lat 3) -> add no earlier than 3.
    EXPECT_EQ(s.cycleOf(Opcode::Mul), 0);
    EXPECT_GE(s.cycleOf(Opcode::Add), 3);
}

TEST(Scheduler, IndependentOpsShareCycle)
{
    Sched s;
    std::vector<Reg> regs;
    for (int i = 0; i < 6; ++i) {
        Reg r = s.fn->newIntReg();
        s.b.emit(Opcode::Add, r, Operand::imm(i), Operand::imm(1));
        regs.push_back(r);
    }
    s.b.ret(Operand(regs[0]));
    s.schedule(issue8Branch1());
    for (const auto &instr : s.fn->entry()->instrs()) {
        if (instr.op() == Opcode::Add) {
            EXPECT_EQ(instr.issueCycle(), 0);
        }
    }
}

TEST(Scheduler, IssueWidthLimits)
{
    Sched s;
    for (int i = 0; i < 8; ++i) {
        Reg r = s.fn->newIntReg();
        s.b.emit(Opcode::Add, r, Operand::imm(i), Operand::imm(1));
    }
    s.b.ret(Operand::imm(0));
    s.schedule(issue4Branch1());
    int atZero = 0;
    for (const auto &instr : s.fn->entry()->instrs()) {
        if (instr.issueCycle() == 0)
            atZero += 1;
    }
    EXPECT_EQ(atZero, 4);
}

TEST(Scheduler, BranchSlotLimitSerializesBranches)
{
    // Two independent predicated exit jumps can share a cycle only
    // when branchesPerCycle allows.
    auto build = [](Program &prog) {
        Function *fn = prog.newFunction("main");
        fn->setRetKind(RetKind::Int);
        IRBuilder b(fn);
        BasicBlock *entry = b.startBlock();
        BasicBlock *t1 = fn->newBlock();
        BasicBlock *t2 = fn->newBlock();
        Reg c1 = fn->newIntReg();
        Reg c2 = fn->newIntReg();
        b.setBlock(entry);
        b.mov(c1, Operand::imm(3));
        b.mov(c2, Operand::imm(4));
        b.branch(Opcode::Beq, Operand(c1), Operand::imm(1),
                 t1->id());
        b.branch(Opcode::Beq, Operand(c2), Operand::imm(2),
                 t2->id());
        b.ret(Operand::imm(0));
        b.setBlock(t1);
        b.ret(Operand::imm(1));
        b.setBlock(t2);
        b.ret(Operand::imm(2));
        return fn;
    };

    Program p1;
    Function *fn1 = build(p1);
    scheduleFunction(*fn1, issue8Branch1());
    std::vector<int> cycles1;
    for (const auto &instr : fn1->entry()->instrs()) {
        if (instr.isCondBranch())
            cycles1.push_back(instr.issueCycle());
    }
    ASSERT_EQ(cycles1.size(), 2u);
    EXPECT_NE(cycles1[0], cycles1[1]); // 1 branch/cycle.

    Program p2;
    Function *fn2 = build(p2);
    scheduleFunction(*fn2, issue8Branch2());
    std::vector<int> cycles2;
    for (const auto &instr : fn2->entry()->instrs()) {
        if (instr.isCondBranch())
            cycles2.push_back(instr.issueCycle());
    }
    EXPECT_EQ(cycles2[0], cycles2[1]); // 2 branches/cycle.
}

TEST(Scheduler, WiredOrDefinesShareCycle)
{
    Sched s;
    Reg c = s.fn->newIntReg();
    Reg pX = s.fn->newPredReg();
    s.b.getc(c);
    s.b.predAll(Opcode::PredClear);
    for (int i = 0; i < 3; ++i) {
        s.b.predDefine(Opcode::PredEq,
                       PredDest{pX, PredType::Or}, Operand(c),
                       Operand::imm(i));
    }
    Reg out = s.fn->newIntReg();
    s.b.mov(out, Operand::imm(0));
    s.b.mov(out, Operand::imm(1)).setGuard(pX);
    s.b.ret(Operand(out));
    s.schedule(issue8Branch1());

    std::vector<int> defineCycles;
    int guardedMovCycle = -1;
    for (const auto &instr : s.fn->entry()->instrs()) {
        if (instr.isPredDefine())
            defineCycles.push_back(instr.issueCycle());
        if (instr.op() == Opcode::Mov && instr.guarded())
            guardedMovCycle = instr.issueCycle();
    }
    ASSERT_EQ(defineCycles.size(), 3u);
    // Wired-OR: all three issue in the same cycle.
    EXPECT_EQ(defineCycles[0], defineCycles[1]);
    EXPECT_EQ(defineCycles[1], defineCycles[2]);
    // The consumer waits for the accumulation.
    EXPECT_GT(guardedMovCycle, defineCycles[0]);
}

TEST(Scheduler, SpeculationHoistsSilentLoadAboveExit)
{
    // A load after a rarely-taken exit branch whose result is dead
    // at the exit target may hoist above it, becoming silent.
    Sched s;
    BasicBlock *exitBlk = s.fn->newBlock();
    Reg c = s.fn->newIntReg();
    Reg v = s.fn->newIntReg();
    std::int64_t addr = s.prog.allocGlobal("g", 8, 8, false);
    s.b.getc(c);
    s.b.branch(Opcode::Blt, Operand(c), Operand::imm(0),
               exitBlk->id());
    s.b.load(Opcode::Ld, v, Operand::imm(addr), Operand::imm(0));
    s.b.ret(Operand(v));
    s.b.setBlock(exitBlk);
    s.b.ret(Operand::imm(-1));

    s.schedule(issue8Branch1(), true);
    // Find the load and the branch.
    int loadCycle = -1, branchCycle = -1;
    bool speculative = false;
    for (const auto &instr : s.fn->entry()->instrs()) {
        if (instr.isLoad()) {
            loadCycle = instr.issueCycle();
            speculative = instr.speculative();
        }
        if (instr.isCondBranch())
            branchCycle = instr.issueCycle();
    }
    EXPECT_LE(loadCycle, branchCycle);
    EXPECT_TRUE(speculative);

    // Execution still correct on both paths.
    Emulator emu(s.prog);
    EXPECT_EQ(emu.run("A").exitValue, 0);
    EXPECT_EQ(emu.run("").exitValue, -1); // EOF -> c = -1.
}

TEST(Scheduler, NoSpeculationKeepsOrder)
{
    Sched s;
    BasicBlock *exitBlk = s.fn->newBlock();
    Reg c = s.fn->newIntReg();
    Reg v = s.fn->newIntReg();
    std::int64_t addr = s.prog.allocGlobal("g", 8, 8, false);
    s.b.getc(c);
    s.b.branch(Opcode::Blt, Operand(c), Operand::imm(0),
               exitBlk->id());
    s.b.load(Opcode::Ld, v, Operand::imm(addr), Operand::imm(0));
    s.b.ret(Operand(v));
    s.b.setBlock(exitBlk);
    s.b.ret(Operand::imm(-1));

    s.schedule(issue8Branch1(), false);
    int loadCycle = -1, branchCycle = -1;
    for (const auto &instr : s.fn->entry()->instrs()) {
        if (instr.isLoad())
            loadCycle = instr.issueCycle();
        if (instr.isCondBranch())
            branchCycle = instr.issueCycle();
    }
    EXPECT_GT(loadCycle, branchCycle);
}

TEST(Scheduler, StoresNeverCrossExits)
{
    Sched s;
    BasicBlock *exitBlk = s.fn->newBlock();
    Reg c = s.fn->newIntReg();
    std::int64_t addr = s.prog.allocGlobal("g", 8, 8, false);
    s.b.getc(c);
    s.b.branch(Opcode::Blt, Operand(c), Operand::imm(0),
               exitBlk->id());
    s.b.store(Opcode::St, Operand::imm(addr), Operand::imm(0),
              Operand::imm(7));
    s.b.ret(Operand::imm(1));
    s.b.setBlock(exitBlk);
    s.b.ret(Operand::imm(2));

    s.schedule(issue8Branch1(), true);
    int storeCycle = -1, branchCycle = -1;
    std::size_t storePos = 0, branchPos = 0;
    const auto &instrs = s.fn->entry()->instrs();
    for (std::size_t i = 0; i < instrs.size(); ++i) {
        if (instrs[i].isStore()) {
            storeCycle = instrs[i].issueCycle();
            storePos = i;
        }
        if (instrs[i].isCondBranch()) {
            branchCycle = instrs[i].issueCycle();
            branchPos = i;
        }
    }
    EXPECT_GT(storeCycle, branchCycle);
    EXPECT_GT(storePos, branchPos);
}

TEST(Scheduler, MemoryDisambiguationAllowsReordering)
{
    // Store to one global, load from another: the load may move
    // above the store.
    Sched s;
    std::int64_t a = s.prog.allocGlobal("a", 8, 8, false);
    std::int64_t g = s.prog.allocGlobal("b", 8, 8, false);
    Reg v = s.fn->newIntReg();
    Reg w = s.fn->newIntReg();
    s.b.getc(v);
    s.b.emit(Opcode::Mul, w, Operand(v), Operand::imm(5));
    s.b.store(Opcode::St, Operand::imm(a), Operand::imm(0),
              Operand(w)); // waits for the multiply.
    Reg l = s.fn->newIntReg();
    s.b.load(Opcode::Ld, l, Operand::imm(g), Operand::imm(0));
    s.b.ret(Operand(l));
    s.schedule(issue8Branch1());

    int loadCycle = -1, storeCycle = -1;
    for (const auto &instr : s.fn->entry()->instrs()) {
        if (instr.isLoad() && instr.op() == Opcode::Ld)
            loadCycle = instr.issueCycle();
        if (instr.isStore())
            storeCycle = instr.issueCycle();
    }
    EXPECT_LT(loadCycle, storeCycle);
}

TEST(Scheduler, ScheduledKernelsStaySemanticallyCorrect)
{
    auto prog = compileSource(R"(
        int main() {
            int s = 0;
            for (int i = 0; i < 200; i = i + 1) {
                int t = i * 3;
                if (t % 7 < 3) { s = s + t; }
                else { s = s - 1; }
            }
            return s;
        }
    )");
    optimizeProgram(*prog);
    std::int64_t expected;
    {
        Emulator emu(*prog);
        expected = emu.run("").exitValue;
    }
    for (const MachineConfig &config :
         {issue1(), issue4Branch1(), issue8Branch1(),
          issue8Branch2()}) {
        auto copy = compileSource(R"(
            int main() {
                int s = 0;
                for (int i = 0; i < 200; i = i + 1) {
                    int t = i * 3;
                    if (t % 7 < 3) { s = s + t; }
                    else { s = s - 1; }
                }
                return s;
            }
        )");
        optimizeProgram(*copy);
        scheduleProgram(*copy, config);
        EXPECT_EQ(verifyProgram(*copy), "");
        Emulator emu(*copy);
        EXPECT_EQ(emu.run("").exitValue, expected);
    }
}

} // namespace
} // namespace predilp
