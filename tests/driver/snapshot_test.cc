/**
 * @file
 * The front-end snapshot cache's soundness contract (driver/pipeline):
 * resuming a compilation from a cached FrontendSnapshot must produce
 * a program bit-identical (printProgram) to compiling from scratch,
 * for every model and for ablation flips — the snapshot path only
 * skips recomputing the shared prefix, never changes the result.
 *
 * Also the compiler pin: a digest of every program the figure set
 * compiles, tied to compilerEpoch (opt/pass.hh).
 */

#include <sstream>

#include <gtest/gtest.h>

#include "driver/pipeline.hh"
#include "ir/printer.hh"
#include "sched/machine.hh"
#include "store/sha256.hh"
#include "workloads/workloads.hh"

namespace predilp
{
namespace
{

std::string
print(const Program &prog)
{
    std::ostringstream os;
    printProgram(os, prog);
    return os.str();
}

CompileOptions
optionsFor(const Workload &workload, Model model)
{
    CompileOptions opts;
    opts.model = model;
    opts.machine = issue8Branch1();
    opts.profileInput = workload.input();
    return opts;
}

class SnapshotCompileTest : public ::testing::Test
{
  protected:
    void
    expectSnapshotMatchesScratch(const Workload &workload,
                                 const CompileOptions &opts)
    {
        FrontendSnapshot snapshot = compilePrefix(
            workload.source, opts.profileInput,
            opts.maxProfileInstrs);
        std::unique_ptr<Program> resumed =
            compileFromSnapshot(snapshot, opts);
        std::unique_ptr<Program> scratch =
            compileForModel(workload.source, opts);
        EXPECT_EQ(print(*resumed), print(*scratch));
    }
};

TEST_F(SnapshotCompileTest, MatchesFromScratchEveryModel)
{
    const Workload *workload = findWorkload("wc");
    ASSERT_NE(workload, nullptr);
    for (Model model : {Model::Superblock, Model::CondMove,
                        Model::FullPred}) {
        SCOPED_TRACE(modelName(model));
        expectSnapshotMatchesScratch(
            *workload, optionsFor(*workload, model));
    }
}

TEST_F(SnapshotCompileTest, MatchesFromScratchUnderAblationFlips)
{
    const Workload *workload = findWorkload("cmp");
    ASSERT_NE(workload, nullptr);

    // One flip per model, chosen so the flipped flag is actually
    // read by that model's pipeline (AblationFlags::canonicalFor).
    struct Case
    {
        Model model;
        void (*flip)(AblationFlags &);
    };
    const Case cases[] = {
        {Model::Superblock,
         [](AblationFlags &a) { a.unrolling = false; }},
        {Model::CondMove, [](AblationFlags &a) { a.orTree = false; }},
        {Model::FullPred,
         [](AblationFlags &a) { a.branchCombining = false; }},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(modelName(c.model));
        CompileOptions opts = optionsFor(*workload, c.model);
        c.flip(opts.ablation);
        expectSnapshotMatchesScratch(*workload, opts);
    }
}

TEST_F(SnapshotCompileTest, OneSnapshotServesManyResumes)
{
    // The cache's actual usage pattern: one snapshot, several
    // compileFromSnapshot calls. The snapshot must be left intact by
    // each resume (clone, not mutate).
    const Workload *workload = findWorkload("wc");
    ASSERT_NE(workload, nullptr);
    CompileOptions opts = optionsFor(*workload, Model::FullPred);
    FrontendSnapshot snapshot = compilePrefix(
        workload->source, opts.profileInput, opts.maxProfileInstrs);
    std::string prefixBefore = print(*snapshot.prog);

    std::string first =
        print(*compileFromSnapshot(snapshot, opts));
    opts.model = Model::CondMove;
    std::string second =
        print(*compileFromSnapshot(snapshot, opts));
    opts.model = Model::FullPred;
    std::string third =
        print(*compileFromSnapshot(snapshot, opts));

    EXPECT_EQ(print(*snapshot.prog), prefixBefore);
    EXPECT_EQ(first, third);
    EXPECT_NE(first, second);
    EXPECT_EQ(first,
              print(*compileForModel(workload->source, opts)));
}

TEST_F(SnapshotCompileTest, FormThenScheduleMatchesFromScratch)
{
    // The evaluator's two-level compile: one formed program per
    // model, cloned and scheduled per machine. Each schedule must
    // equal a from-scratch compile for that machine and leave the
    // formed program untouched for the next one.
    const MachineConfig machines[] = {issue8Branch1(), issue8Branch2(),
                                      issue4Branch1(), issue1()};
    for (const char *name : {"cmp", "wc", "grep"}) {
        const Workload *workload = findWorkload(name);
        ASSERT_NE(workload, nullptr);
        const FrontendSnapshot snapshot =
            compilePrefix(workload->source, workload->input());
        for (Model model : {Model::Superblock, Model::CondMove,
                            Model::FullPred}) {
            CompileOptions opts = optionsFor(*workload, model);
            const std::unique_ptr<Program> formed =
                formFromSnapshot(snapshot, opts);
            const std::string formedBefore = print(*formed);
            for (const MachineConfig &machine : machines) {
                SCOPED_TRACE(std::string(name) + " " +
                             modelName(model) + " width " +
                             std::to_string(machine.issueWidth) +
                             " branches " +
                             std::to_string(machine.branchesPerCycle));
                opts.machine = machine;
                EXPECT_EQ(print(*scheduleFormed(*formed, opts)),
                          print(*compileForModel(workload->source,
                                                 opts)));
            }
            EXPECT_EQ(print(*formed), formedBefore);
        }
    }
}

TEST(CompilerPin, FigureSetProgramsPinnedToEpoch)
{
    // Every program the figure set prices: 15 workloads x 3 models x
    // the four machines of Figures 8-11 and the 1-issue baseline,
    // compiled the evaluator's way (one snapshot per workload, one
    // formation per model, one schedule per machine) in a fixed
    // order. The digest is
    // deterministic: the compiler's sorts are stable or ordered by a
    // total key, and copyprop's unordered_map is only erased from,
    // never walked for output, so no standard-library tie-break
    // reaches a printed program.
    const MachineConfig machines[] = {issue8Branch1(), issue8Branch2(),
                                      issue4Branch1(), issue1()};
    Sha256 digest;
    for (const Workload &workload : allWorkloads()) {
        const std::string input = workload.input();
        const FrontendSnapshot snapshot =
            compilePrefix(workload.source, input);
        for (Model model : {Model::Superblock, Model::CondMove,
                            Model::FullPred}) {
            CompileOptions opts;
            opts.model = model;
            opts.profileInput = input;
            const std::unique_ptr<Program> formed =
                formFromSnapshot(snapshot, opts);
            for (const MachineConfig &machine : machines) {
                opts.machine = machine;
                digest.update(print(*scheduleFormed(*formed, opts)));
            }
        }
    }
    EXPECT_EQ(digest.hex(), compilerPin)
        << "compiled programs changed: bump compilerEpoch and "
           "re-pin compilerPin (src/opt/pass.hh)";
}

} // namespace
} // namespace predilp
