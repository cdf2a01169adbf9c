/**
 * @file
 * Unit tests for the classical optimizer: constant folding, copy
 * propagation, CSE (with the self-reference regression), dead code
 * elimination, copy coalescing, memory forwarding, LICM, inlining,
 * unrolling, CFG simplification, and layout.
 */

#include <gtest/gtest.h>

#include "emu/emulator.hh"
#include "ir/builder.hh"
#include "frontend/irgen.hh"
#include "ir/printer.hh"
#include "ir/verifier.hh"
#include "opt/passes.hh"
#include "superblock/superblock.hh"
#include "support/logging.hh"

namespace predilp
{
namespace
{

/** Count instructions matching @p pred across a function. */
template <typename Pred>
int
countInstrs(const Function &fn, Pred &&pred)
{
    int count = 0;
    for (BlockId id : fn.layout()) {
        for (const auto &instr : fn.block(id)->instrs()) {
            if (pred(instr))
                count += 1;
        }
    }
    return count;
}

TEST(ConstFold, FoldsArithmeticChains)
{
    auto prog =
        compileSource("int main() { return (2 + 3) * 4 - 6; }");
    optimizeProgram(*prog);
    Function *fn = prog->function("main");
    // Everything folds into `ret 14` (a mov may survive).
    EXPECT_LE(fn->instructionCount(), 2u);
    Emulator emu(*prog);
    EXPECT_EQ(emu.run("").exitValue, 14);
}

TEST(ConstFold, ConstantBranchesBecomeJumps)
{
    auto prog = compileSource(R"(
        int main() {
            if (1 < 2) { return 10; }
            return 20;
        }
    )");
    optimizeProgram(*prog);
    Function *fn = prog->function("main");
    EXPECT_EQ(countInstrs(*fn, [](const Instruction &i) {
                  return i.isCondBranch();
              }),
              0);
    Emulator emu(*prog);
    EXPECT_EQ(emu.run("").exitValue, 10);
}

TEST(ConstFold, MulByPowerOfTwoBecomesShift)
{
    Program prog;
    Function *fn = prog.newFunction("main");
    fn->setRetKind(RetKind::Int);
    IRBuilder b(fn);
    b.startBlock();
    Reg a = fn->newIntReg();
    Reg c = fn->newIntReg();
    b.getc(a); // opaque value so it cannot fully fold.
    b.emit(Opcode::Mul, c, Operand(a), Operand::imm(8));
    b.ret(Operand(c));
    constantFold(*fn);
    EXPECT_EQ(countInstrs(*fn, [](const Instruction &i) {
                  return i.op() == Opcode::Shl;
              }),
              1);
    Emulator emu(prog);
    EXPECT_EQ(emu.run("A").exitValue, 65 * 8);
}

TEST(CopyProp, ForwardsThroughMovChains)
{
    Program prog;
    Function *fn = prog.newFunction("main");
    fn->setRetKind(RetKind::Int);
    IRBuilder b(fn);
    b.startBlock();
    Reg a = fn->newIntReg();
    Reg c = fn->newIntReg();
    Reg d = fn->newIntReg();
    b.mov(a, Operand::imm(7));
    b.mov(c, Operand(a));
    b.mov(d, Operand(c));
    b.ret(Operand(d));
    copyPropagate(*fn);
    // The ret now reads the constant directly.
    const Instruction &ret =
        fn->entry()->instrs().back();
    EXPECT_TRUE(ret.src(0).isImm());
    EXPECT_EQ(ret.src(0).immValue(), 7);
}

TEST(CopyProp, StopsAtRedefinition)
{
    Program prog;
    Function *fn = prog.newFunction("main");
    fn->setRetKind(RetKind::Int);
    IRBuilder b(fn);
    b.startBlock();
    Reg a = fn->newIntReg();
    Reg c = fn->newIntReg();
    b.mov(a, Operand::imm(7));
    b.mov(c, Operand(a));
    b.mov(a, Operand::imm(9)); // kills the copy a=7.
    Reg d = fn->newIntReg();
    b.emit(Opcode::Add, d, Operand(c), Operand(a));
    b.ret(Operand(d));
    copyPropagate(*fn);
    Emulator emu(prog);
    EXPECT_EQ(emu.run("").exitValue, 16);
}

TEST(Cse, DeduplicatesPureExpressions)
{
    Program prog;
    Function *fn = prog.newFunction("main");
    fn->setRetKind(RetKind::Int);
    IRBuilder b(fn);
    b.startBlock();
    Reg a = fn->newIntReg();
    Reg x = fn->newIntReg();
    Reg y = fn->newIntReg();
    Reg s = fn->newIntReg();
    b.getc(a);
    b.emit(Opcode::Mul, x, Operand(a), Operand::imm(3));
    b.emit(Opcode::Mul, y, Operand(a), Operand::imm(3));
    b.emit(Opcode::Add, s, Operand(x), Operand(y));
    b.ret(Operand(s));
    localCSE(*fn);
    EXPECT_EQ(countInstrs(*fn, [](const Instruction &i) {
                  return i.op() == Opcode::Mul;
              }),
              1);
    Emulator emu(prog);
    EXPECT_EQ(emu.run("A").exitValue, 65 * 6);
}

TEST(Cse, SelfReferencingUpdateIsNotRecorded)
{
    // Regression: "add r2, r2, 1; add r4, r2, 1" must NOT turn the
    // second add into a copy of r2's pre-increment expression.
    Program prog;
    Function *fn = prog.newFunction("main");
    fn->setRetKind(RetKind::Int);
    IRBuilder b(fn);
    b.startBlock();
    Reg a = fn->newIntReg();
    Reg c = fn->newIntReg();
    b.mov(a, Operand::imm(5));
    b.emit(Opcode::Add, a, Operand(a), Operand::imm(1)); // a = 6
    b.emit(Opcode::Add, c, Operand(a), Operand::imm(1)); // c = 7
    b.ret(Operand(c));
    localCSE(*fn);
    Emulator emu(prog);
    EXPECT_EQ(emu.run("").exitValue, 7);
}

TEST(Cse, LoadsInvalidatedByStores)
{
    auto prog = compileSource(R"(
        int g;
        int main() {
            g = 1;
            int a = g;
            g = 2;
            int b = g;
            return a * 10 + b;
        }
    )");
    for (auto &fn : prog->functions())
        localCSE(*fn);
    Emulator emu(*prog);
    EXPECT_EQ(emu.run("").exitValue, 12);
}

TEST(Dce, RemovesDeadArithmetic)
{
    Program prog;
    Function *fn = prog.newFunction("main");
    fn->setRetKind(RetKind::Int);
    IRBuilder b(fn);
    b.startBlock();
    Reg dead = fn->newIntReg();
    Reg live = fn->newIntReg();
    b.emit(Opcode::Add, dead, Operand::imm(1), Operand::imm(2));
    b.mov(live, Operand::imm(42));
    b.ret(Operand(live));
    deadCodeElim(*fn);
    EXPECT_EQ(fn->instructionCount(), 2u);
}

TEST(Dce, KeepsStoresAndTrappingOps)
{
    auto prog = compileSource(R"(
        int g;
        int main() {
            g = 5;          // store: kept even though g unread.
            return 1;
        }
    )");
    Function *fn = prog->function("main");
    deadCodeElim(*fn);
    EXPECT_EQ(countInstrs(*fn, [](const Instruction &i) {
                  return i.isStore();
              }),
              1);
}

TEST(Dce, SideExitValueNotRemoved)
{
    // Regression for the compress bug: a value read only at a side
    // exit's target, later overwritten in the block, must survive.
    Program prog;
    Function *fn = prog.newFunction("main");
    fn->setRetKind(RetKind::Int);
    IRBuilder b(fn);
    BasicBlock *main = b.startBlock();
    BasicBlock *side = fn->newBlock();
    Reg v = fn->newIntReg();
    Reg c = fn->newIntReg();
    b.setBlock(main);
    b.mov(v, Operand::imm(11));
    b.getc(c);
    b.branch(Opcode::Bge, Operand(c), Operand::imm(0), side->id());
    b.mov(v, Operand::imm(22));
    b.ret(Operand(v));
    b.setBlock(side);
    b.ret(Operand(v));

    deadCodeElim(*fn);
    Emulator emu(prog);
    EXPECT_EQ(emu.run("x").exitValue, 11); // side exit taken.
    EXPECT_EQ(emu.run("").exitValue, 22);  // fallthrough.
}

TEST(Coalesce, FusesTempMovPairs)
{
    Program prog;
    Function *fn = prog.newFunction("main");
    fn->setRetKind(RetKind::Int);
    IRBuilder b(fn);
    b.startBlock();
    Reg a = fn->newIntReg();
    Reg t = fn->newIntReg();
    b.mov(a, Operand::imm(1));
    b.emit(Opcode::Add, t, Operand(a), Operand::imm(2));
    b.mov(a, Operand(t)); // a = t, t dead after.
    b.ret(Operand(a));
    EXPECT_TRUE(coalesceCopies(*fn));
    EXPECT_EQ(fn->entry()->instrs().size(), 3u);
    Emulator emu(prog);
    EXPECT_EQ(emu.run("").exitValue, 3);
}

TEST(Coalesce, RefusesAcrossBranches)
{
    Program prog;
    Function *fn = prog.newFunction("main");
    fn->setRetKind(RetKind::Int);
    IRBuilder b(fn);
    BasicBlock *main = b.startBlock();
    BasicBlock *side = fn->newBlock();
    Reg a = fn->newIntReg();
    Reg t = fn->newIntReg();
    Reg c = fn->newIntReg();
    b.setBlock(main);
    b.mov(a, Operand::imm(5));
    b.getc(c);
    b.emit(Opcode::Add, t, Operand(a), Operand::imm(1));
    b.branch(Opcode::Bge, Operand(c), Operand::imm(0), side->id());
    b.mov(a, Operand(t));
    b.ret(Operand(a));
    b.setBlock(side);
    b.ret(Operand(a)); // must see a == 5 when the exit fires.

    coalesceCopies(*fn);
    Emulator emu(prog);
    EXPECT_EQ(emu.run("x").exitValue, 5);
    EXPECT_EQ(emu.run("").exitValue, 6);
}

TEST(MemForward, StoreToLoadWithinBlock)
{
    auto prog = compileSource(R"(
        int g;
        int main() {
            g = 17;
            return g;   // load forwarded from the store.
        }
    )");
    optimizeProgram(*prog);
    Function *fn = prog->function("main");
    EXPECT_EQ(countInstrs(*fn, [](const Instruction &i) {
                  return i.isLoad();
              }),
              0);
    Emulator emu(*prog);
    EXPECT_EQ(emu.run("").exitValue, 17);
}

TEST(MemForward, ConservativeAcrossUnknownStore)
{
    auto prog = compileSource(R"(
        int g;
        byte arr[16];
        int main() {
            int i = getc() & 7;
            g = 17;
            arr[i] = 3;   // byte store: clears knowledge.
            return g;
        }
    )");
    Function *fn = prog->function("main");
    forwardMemory(*fn);
    // The re-load of g survives (byte store might alias... the pass
    // is conservative for byte stores).
    EXPECT_GE(countInstrs(*fn, [](const Instruction &i) {
                  return i.op() == Opcode::Ld;
              }),
              1);
    Emulator emu(*prog);
    EXPECT_EQ(emu.run("x").exitValue, 17);
}

TEST(Licm, HoistsInvariantLoad)
{
    auto prog = compileSource(R"(
        int n = 100;
        int main() {
            int s = 0;
            int i = 0;
            while (i < n) {       // load of n is invariant.
                s = s + i;
                i = i + 1;
            }
            return s;
        }
    )");
    optimizeProgram(*prog);
    int before = 0;
    {
        Function *fn = prog->function("main");
        before = countInstrs(*fn, [](const Instruction &i) {
            return i.isLoad();
        });
    }
    int hoisted = licmProgram(*prog);
    EXPECT_GE(hoisted, 1);
    EXPECT_EQ(verifyProgram(*prog), "");
    Emulator emu(*prog);
    EXPECT_EQ(emu.run("").exitValue, 4950);
    (void)before;
}

TEST(Licm, DoesNotHoistLoadsPastStores)
{
    auto prog = compileSource(R"(
        int n = 4;
        int main() {
            int s = 0;
            int i = 0;
            while (i < n) {
                n = n - 1;     // the loop writes n!
                s = s + 1;
                i = i + 1;
            }
            return s;
        }
    )");
    optimizeProgram(*prog);
    licmProgram(*prog);
    Emulator emu(*prog);
    EXPECT_EQ(emu.run("").exitValue, 2);
}

TEST(Inline, SplicesLeafCallees)
{
    auto prog = compileSource(R"(
        int add3(int a, int b, int c) { return a + b + c; }
        int main() { return add3(1, 2, 3) + add3(4, 5, 6); }
    )");
    int inlined = inlineFunctions(*prog);
    EXPECT_EQ(inlined, 2);
    EXPECT_EQ(verifyProgram(*prog), "");
    Function *fn = prog->function("main");
    EXPECT_EQ(countInstrs(*fn, [](const Instruction &i) {
                  return i.isCall();
              }),
              0);
    Emulator emu(*prog);
    EXPECT_EQ(emu.run("").exitValue, 21);
}

TEST(Inline, SkipsRecursionAndBigFunctions)
{
    auto prog = compileSource(R"(
        int fact(int n) {
            if (n <= 1) { return 1; }
            return n * fact(n - 1);
        }
        int main() { return fact(5); }
    )");
    inlineFunctions(*prog);
    Function *fn = prog->function("main");
    EXPECT_GE(countInstrs(*fn, [](const Instruction &i) {
                  return i.isCall();
              }),
              1);
    Emulator emu(*prog);
    EXPECT_EQ(emu.run("").exitValue, 120);
}

TEST(Inline, ConditionalEarlyReturns)
{
    auto prog = compileSource(R"(
        int clamp(int v) {
            if (v < 0) { return 0; }
            if (v > 9) { return 9; }
            return v;
        }
        int main() {
            return clamp(-5) * 100 + clamp(20) * 10 + clamp(4);
        }
    )");
    EXPECT_GE(inlineFunctions(*prog), 3);
    EXPECT_EQ(verifyProgram(*prog), "");
    Emulator emu(*prog);
    EXPECT_EQ(emu.run("").exitValue, 0 * 100 + 9 * 10 + 4);
}

TEST(Unroll, SelfLoopGetsCopies)
{
    auto prog = compileSource(R"(
        int main() {
            int s = 0;
            for (int i = 0; i < 1000; i = i + 1) { s = s + i; }
            return s % 100000;
        }
    )");
    optimizeProgram(*prog);
    // Unrolling operates on *formed* self-loop blocks, as in the
    // pipeline: superblock formation first merges the loop into a
    // single block with its backedge.
    {
        ProgramProfile profile(*prog);
        EmuOptions opts;
        opts.profile = &profile;
        Emulator emu(*prog);
        emu.run("", opts);
        formSuperblocks(*prog, profile);
        optimizeProgram(*prog);
    }
    ProgramProfile profile(*prog);
    EmuOptions opts;
    opts.profile = &profile;
    {
        Emulator emu(*prog);
        emu.run("", opts);
    }
    int copies = unrollLoops(*prog, profile);
    EXPECT_GE(copies, 1);
    EXPECT_EQ(verifyProgram(*prog), "");
    Emulator emu(*prog);
    EXPECT_EQ(emu.run("").exitValue, (999 * 1000 / 2) % 100000);
}

TEST(SimplifyCfg, ThreadsEmptyJumps)
{
    Program prog;
    Function *fn = prog.newFunction("main");
    fn->setRetKind(RetKind::Int);
    IRBuilder b(fn);
    BasicBlock *entry = b.startBlock();
    BasicBlock *hop = fn->newBlock();
    BasicBlock *target = fn->newBlock();
    b.setBlock(entry);
    b.jump(hop->id());
    b.setBlock(hop);
    b.jump(target->id());
    b.setBlock(target);
    b.ret(Operand::imm(3));

    simplifyCfg(*fn);
    // Everything merges into the entry.
    EXPECT_EQ(fn->layout().size(), 1u);
    Emulator emu(prog);
    EXPECT_EQ(emu.run("").exitValue, 3);
}

TEST(Layout, ConvertsJumpsToFallthrough)
{
    auto prog = compileSource(R"(
        int main() {
            int s = 0;
            for (int i = 0; i < 100; i = i + 1) {
                if (i % 2 == 0) { s = s + 2; }
                else { s = s + 1; }
            }
            return s;
        }
    )");
    optimizeProgram(*prog);
    ProgramProfile profile(*prog);
    EmuOptions opts;
    opts.profile = &profile;
    {
        Emulator emu(*prog);
        emu.run("", opts);
    }
    layoutProgram(*prog, &profile);
    EXPECT_EQ(verifyProgram(*prog), "");
    Function *fn = prog->function("main");
    // The entry must still be first, and execution still correct.
    Emulator emu(*prog);
    EXPECT_EQ(emu.run("").exitValue, 150);
    // At least one block now falls through.
    bool anyFallthrough = false;
    for (BlockId id : fn->layout()) {
        if (fn->block(id)->fallthrough() != invalidBlock)
            anyFallthrough = true;
    }
    EXPECT_TRUE(anyFallthrough);
}

TEST(Pipeline, OptimizeIsSemanticsPreservingOnPrograms)
{
    const char *sources[] = {
        "int main() { int a = getc(); return a * 3 - 1; }",
        R"(int t[8];
           int main() {
               for (int i = 0; i < 8; i = i + 1) { t[i] = i * i; }
               int s = 0;
               for (int i = 0; i < 8; i = i + 1) { s = s + t[i]; }
               return s;
           })",
        R"(float f(float x) { return x * 0.5; }
           int main() {
               float a = f(8.0) + f(4.0);
               return a;
           })",
    };
    for (const char *source : sources) {
        auto plain = compileSource(source);
        Emulator e1(*plain);
        auto expected = e1.run("Q").exitValue;

        auto optimized = compileSource(source);
        optimizeProgram(*optimized);
        licmProgram(*optimized);
        optimizeProgram(*optimized);
        EXPECT_EQ(verifyProgram(*optimized), "");
        Emulator e2(*optimized);
        EXPECT_EQ(e2.run("Q").exitValue, expected) << source;
    }
}

} // namespace
} // namespace predilp
