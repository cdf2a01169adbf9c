/**
 * @file
 * Unit tests for superblock formation: trace selection, tail
 * duplication of side entrances, merging, and semantic preservation.
 */

#include <gtest/gtest.h>

#include "emu/emulator.hh"
#include "frontend/irgen.hh"
#include "ir/builder.hh"
#include "ir/verifier.hh"
#include "opt/passes.hh"
#include "superblock/superblock.hh"

namespace predilp
{
namespace
{

/** Run source through optimize + profile + superblock formation. */
struct Formed
{
    std::unique_ptr<Program> prog;
    SuperblockStats stats;
    std::int64_t reference = 0;
    std::string referenceOutput;

    explicit Formed(const std::string &source,
                    const std::string &input = "")
    {
        prog = compileSource(source);
        optimizeProgram(*prog);
        {
            Emulator emu(*prog);
            RunResult r = emu.run(input);
            reference = r.exitValue;
            referenceOutput = r.output;
        }
        ProgramProfile profile(*prog);
        EmuOptions opts;
        opts.profile = &profile;
        {
            Emulator emu(*prog);
            emu.run(input, opts);
        }
        stats = formSuperblocks(*prog, profile);
        EXPECT_EQ(verifyProgram(*prog), "");
    }

    std::int64_t
    result(const std::string &input = "")
    {
        Emulator emu(*prog);
        RunResult r = emu.run(input);
        EXPECT_EQ(r.output, referenceOutput);
        return r.exitValue;
    }
};

TEST(Superblock, FormsTraceThroughHotLoop)
{
    Formed f(R"(
        int main() {
            int s = 0;
            for (int i = 0; i < 500; i = i + 1) {
                if (i % 10 == 0) { s = s + 2; }  // unlikely arm.
                else { s = s + 1; }
            }
            return s;
        }
    )");
    EXPECT_GE(f.stats.tracesFormed, 1);
    EXPECT_GE(f.stats.blocksMerged, 1);
    EXPECT_EQ(f.result(), 550);

    // There is now a superblock in main.
    bool found = false;
    Function *fn = f.prog->function("main");
    for (BlockId id : fn->layout()) {
        if (fn->block(id)->kind() == BlockKind::Superblock)
            found = true;
    }
    EXPECT_TRUE(found);
}

TEST(Superblock, TailDuplicatesSideEntrances)
{
    // The join after the if has two predecessors; pulling it into
    // the hot trace requires duplicating it for the cold path.
    Formed f(R"(
        int main() {
            int s = 0;
            for (int i = 0; i < 400; i = i + 1) {
                int add = 1;
                if (i % 16 == 0) { add = 7; }    // cold.
                s = s + add;                      // join block.
                s = s + (i & 1);
            }
            return s;
        }
    )");
    EXPECT_GE(f.stats.blocksDuplicated, 1);
    EXPECT_EQ(f.result(), 400 + 25 * 6 + 200);
}

TEST(Superblock, PreservesRecursionAndCalls)
{
    Formed f(R"(
        int fib(int n) {
            if (n < 2) { return n; }
            return fib(n - 1) + fib(n - 2);
        }
        int main() { return fib(12); }
    )");
    EXPECT_EQ(f.result(), 144);
}

TEST(Superblock, ColdCodeNotTraced)
{
    Formed f(R"(
        int main() {
            int s = 0;
            for (int i = 0; i < 100; i = i + 1) { s = s + i; }
            if (s == 123456) { s = 0; }   // never executes.
            return s;
        }
    )");
    // The never-executed block must not join a trace but must still
    // be present and correct.
    EXPECT_EQ(f.result(), 4950);
}

TEST(Superblock, CloneBlockCopiesEverything)
{
    Program prog;
    Function *fn = prog.newFunction("main");
    fn->setRetKind(RetKind::Int);
    IRBuilder b(fn);
    BasicBlock *src = b.startBlock("orig");
    BasicBlock *next = fn->newBlock();
    Reg a = fn->newIntReg();
    b.setBlock(src);
    b.mov(a, Operand::imm(5));
    b.branch(Opcode::Beq, Operand(a), Operand::imm(0), next->id());
    src->setFallthrough(next->id());
    b.setBlock(next);
    b.ret(Operand(a));

    BlockId cloneId = cloneBlock(*fn, src->id());
    const BasicBlock *clone = fn->block(cloneId);
    ASSERT_EQ(clone->instrs().size(), 2u);
    EXPECT_EQ(clone->instrs()[0].op(), Opcode::Mov);
    EXPECT_EQ(clone->instrs()[1].target(), next->id());
    EXPECT_EQ(clone->fallthrough(), next->id());
    // Fresh instruction ids.
    EXPECT_NE(clone->instrs()[0].id(), src->instrs()[0].id());
}

TEST(Superblock, RetargetEdgesRewritesAllForms)
{
    Program prog;
    Function *fn = prog.newFunction("main");
    fn->setRetKind(RetKind::Int);
    IRBuilder b(fn);
    BasicBlock *from = b.startBlock();
    BasicBlock *oldT = fn->newBlock();
    BasicBlock *newT = fn->newBlock();
    Reg a = fn->newIntReg();
    b.setBlock(from);
    b.mov(a, Operand::imm(0));
    b.branch(Opcode::Beq, Operand(a), Operand::imm(0), oldT->id());
    from->setFallthrough(oldT->id());
    b.setBlock(oldT);
    b.ret(Operand::imm(1));
    b.setBlock(newT);
    b.ret(Operand::imm(2));

    retargetEdges(*fn, from->id(), oldT->id(), newT->id());
    EXPECT_EQ(from->instrs()[1].target(), newT->id());
    EXPECT_EQ(from->fallthrough(), newT->id());
    Emulator emu(prog);
    EXPECT_EQ(emu.run("").exitValue, 2);
}

TEST(Superblock, RespectsMaxInstrs)
{
    SuperblockOptions opts;
    opts.maxInstrs = 4; // absurdly small: merging mostly rejected.
    auto prog = compileSource(R"(
        int main() {
            int s = 0;
            for (int i = 0; i < 300; i = i + 1) {
                s = s + i * 3 - (i & 7) + (i >> 2);
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
    ProgramProfile profile(*prog);
    EmuOptions eo;
    eo.profile = &profile;
    {
        Emulator emu(*prog);
        emu.run("", eo);
    }
    formSuperblocks(*prog, profile, opts);
    EXPECT_EQ(verifyProgram(*prog), "");
    Emulator emu(*prog);
    EXPECT_EQ(emu.run("").exitValue, expected);
}

} // namespace
} // namespace predilp
