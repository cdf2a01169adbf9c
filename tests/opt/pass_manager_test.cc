/**
 * @file
 * PassManager tests: deterministic execution order, fixpoint-group
 * rerun semantics (including the iteration cap), the uniform
 * instrumentation counters checked against hand-computed values on
 * both scripted passes and a real DCE run, and the pipelines' pass
 * scopes, which hold no leaf restating a pass's change count.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "driver/pipeline.hh"
#include "ir/builder.hh"
#include "opt/pass.hh"
#include "opt/passes.hh"
#include "support/diag.hh"
#include "workloads/workloads.hh"

namespace predilp
{
namespace
{

/**
 * Logs each invocation and reports a scripted change count per run
 * (0 once the script is exhausted). Never touches the program.
 */
class ScriptedPass : public Pass
{
  public:
    ScriptedPass(std::string name,
                 std::vector<std::uint64_t> changesPerRun,
                 std::vector<std::string> *log)
        : name_(std::move(name)),
          changesPerRun_(std::move(changesPerRun)), log_(log)
    {}

    std::string name() const override { return name_; }

    PassResult
    run(Program &, PassContext &) override
    {
        if (log_ != nullptr)
            log_->push_back(name_);
        PassResult result;
        if (next_ < changesPerRun_.size())
            result.changes = changesPerRun_[next_];
        next_ += 1;
        return result;
    }

  private:
    std::string name_;
    std::vector<std::uint64_t> changesPerRun_;
    std::vector<std::string> *log_;
    std::size_t next_ = 0;
};

/** main() with two dead adds behind an opaque getc. */
std::unique_ptr<Program>
makeDeadCodeProgram()
{
    auto prog = std::make_unique<Program>();
    Function *fn = prog->newFunction("main");
    fn->setRetKind(RetKind::Int);
    IRBuilder b(fn);
    b.startBlock();
    Reg a = fn->newIntReg();
    Reg d = fn->newIntReg();
    Reg e = fn->newIntReg();
    b.getc(a); // side effect: must survive DCE.
    b.emit(Opcode::Add, d, Operand(a), Operand::imm(1)); // dead
    b.emit(Opcode::Add, e, Operand(d), Operand::imm(2)); // dead
    b.ret(Operand::imm(7));
    return prog;
}

TEST(PassManager, RunsPassesInDeclarationOrder)
{
    std::vector<std::string> log;
    PassManager pm;
    pm.add(std::make_unique<ScriptedPass>(
        "test.a", std::vector<std::uint64_t>{1}, &log));
    pm.add(std::make_unique<ScriptedPass>(
        "test.b", std::vector<std::uint64_t>{}, &log));
    pm.add(std::make_unique<ScriptedPass>(
        "test.c", std::vector<std::uint64_t>{2}, &log));
    EXPECT_EQ(pm.passNames(),
              (std::vector<std::string>{"test.a", "test.b",
                                        "test.c"}));

    Program prog;
    StatsRegistry stats;
    PassContext ctx(stats);
    PassResult total = pm.run(prog, ctx);
    EXPECT_EQ(log,
              (std::vector<std::string>{"test.a", "test.b",
                                        "test.c"}));
    EXPECT_EQ(total.changes, 3u);
}

TEST(PassManager, FixpointRerunsWhileAnyMemberChanges)
{
    // Member 1 changes on its first two runs, member 2 never does:
    // iteration 1 (2 changes) -> rerun, iteration 2 (1) -> rerun,
    // iteration 3 (0) -> stop. Every member runs every iteration.
    std::vector<std::string> log;
    std::vector<std::unique_ptr<Pass>> group;
    group.push_back(std::make_unique<ScriptedPass>(
        "test.x", std::vector<std::uint64_t>{2, 1}, &log));
    group.push_back(std::make_unique<ScriptedPass>(
        "test.y", std::vector<std::uint64_t>{}, &log));
    PassManager pm;
    pm.addFixpoint("test.group", std::move(group));

    Program prog;
    StatsRegistry stats;
    PassContext ctx(stats);
    pm.run(prog, ctx);

    EXPECT_EQ(log, (std::vector<std::string>{"test.x", "test.y",
                                             "test.x", "test.y",
                                             "test.x", "test.y"}));
    StatsSnapshot snap = stats.snapshot();
    EXPECT_EQ(snap.counter("test.group.iterations"), 3u);
    EXPECT_EQ(snap.counter("test.x.runs"), 3u);
    EXPECT_EQ(snap.counter("test.x.changes"), 3u);
    EXPECT_EQ(snap.counter("test.x.changed_runs"), 2u);
    EXPECT_EQ(snap.counter("test.y.runs"), 3u);
    EXPECT_EQ(snap.counter("test.y.changes"), 0u);
    EXPECT_EQ(snap.counter("test.y.changed_runs"), 0u);
}

TEST(PassManager, FixpointHonorsIterationCap)
{
    std::vector<std::unique_ptr<Pass>> group;
    group.push_back(std::make_unique<ScriptedPass>(
        "test.always",
        std::vector<std::uint64_t>(100, 1), nullptr));
    PassManager pm;
    pm.addFixpoint("test.cap", std::move(group), 4);

    Program prog;
    StatsRegistry stats;
    PassContext ctx(stats);
    pm.run(prog, ctx);

    StatsSnapshot snap = stats.snapshot();
    EXPECT_EQ(snap.counter("test.cap.iterations"), 4u);
    EXPECT_EQ(snap.counter("test.always.runs"), 4u);
}

TEST(PassManager, CountersMatchHandComputedDCECase)
{
    auto prog = makeDeadCodeProgram();
    ASSERT_EQ(programInstrCount(*prog), 4u);

    PassManager pm;
    pm.add(makePass("opt.dce", deadCodeElim));
    StatsRegistry stats;
    PassContext ctx(stats);
    pm.run(*prog, ctx);

    // Exactly the two dead adds go; getc and ret stay.
    EXPECT_EQ(programInstrCount(*prog), 2u);
    StatsSnapshot snap = stats.snapshot();
    EXPECT_EQ(snap.counter("opt.dce.runs"), 1u);
    EXPECT_EQ(snap.counter("opt.dce.changes"), 2u);
    EXPECT_EQ(snap.counter("opt.dce.changed_runs"), 1u);
    EXPECT_EQ(snap.counter("opt.dce.instrs_removed"), 2u);
    EXPECT_EQ(snap.counter("opt.dce.instrs_added"), 0u);
    EXPECT_GE(snap.seconds("opt.dce.seconds"), 0.0);
}

TEST(PassManager, InstrumentationIsolatesNoChangeRuns)
{
    // A second run over the already-clean program records a run but
    // no changes and no size delta.
    auto prog = makeDeadCodeProgram();
    PassManager pm;
    pm.add(makePass("opt.dce", deadCodeElim));
    StatsRegistry first;
    {
        PassContext ctx(first);
        pm.run(*prog, ctx);
    }
    StatsRegistry second;
    {
        PassContext ctx(second);
        pm.run(*prog, ctx);
    }
    StatsSnapshot snap = second.snapshot();
    EXPECT_EQ(snap.counter("opt.dce.runs"), 1u);
    EXPECT_EQ(snap.counter("opt.dce.changes"), 0u);
    EXPECT_EQ(snap.counter("opt.dce.changed_runs"), 0u);
    EXPECT_EQ(snap.counter("opt.dce.instrs_removed"), 0u);
}

/**
 * Test-only injected transform bug: writes a move whose destination
 * register was never allocated, breaking the verifier's
 * register-range invariant. Stands in for a real miscompiling pass.
 */
class CorruptingPass : public Pass
{
  public:
    std::string name() const override { return "test.corrupt"; }

    PassResult
    run(Program &prog, PassContext &) override
    {
        Function &fn = *prog.functions().front();
        BasicBlock *bb = fn.block(fn.layout().front());
        Instruction bad(Opcode::Mov);
        bad.setDest(intReg(fn.numIntRegs() + 7));
        bad.addSrc(Operand::imm(0));
        bad.setId(fn.nextInstrId());
        bb->instrs().insert(bb->instrs().begin(), std::move(bad));
        PassResult result;
        result.changes = 1;
        return result;
    }
};

TEST(PassManager, VerifyAfterEachNamesTheOffendingPass)
{
    auto prog = makeDeadCodeProgram();
    std::vector<std::string> log;
    PassManager pm;
    pm.add(makePass("opt.dce", deadCodeElim));
    pm.add(std::make_unique<CorruptingPass>());
    pm.add(std::make_unique<ScriptedPass>(
        "test.after", std::vector<std::uint64_t>{}, &log));

    StatsRegistry stats;
    PassContext ctx(stats);
    ctx.verifyAfterEach = true;
    try {
        pm.run(*prog, ctx);
        FAIL() << "expected VerifyError";
    } catch (const VerifyError &e) {
        EXPECT_EQ(e.passName(), "test.corrupt");
        EXPECT_NE(std::string(e.what()).find("test.corrupt"),
                  std::string::npos);
        EXPECT_NE(e.invariant().find("out of range"),
                  std::string::npos);
    }
    // The pipeline stopped at the offending pass.
    EXPECT_TRUE(log.empty());
}

TEST(PassManager, VerifyAfterEachIsOffByDefault)
{
    // Without the opt-in flag the corruption sails through the
    // manager (the pipelines' final whole-program verify is the
    // backstop) — post-pass verification must cost nothing on the
    // benchmark hot path.
    auto prog = makeDeadCodeProgram();
    PassManager pm;
    pm.add(std::make_unique<CorruptingPass>());
    StatsRegistry stats;
    PassContext ctx(stats);
    EXPECT_NO_THROW(pm.run(*prog, ctx));
}

TEST(BuildPassPipeline, PassListIsDeterministicPerModel)
{
    for (Model model : {Model::Superblock, Model::CondMove,
                        Model::FullPred}) {
        CompileOptions opts;
        opts.model = model;
        std::vector<std::string> names =
            buildPassPipeline(opts).passNames();
        EXPECT_EQ(names, buildPassPipeline(opts).passNames());
        ASSERT_FALSE(names.empty());
        EXPECT_EQ(names.back(), "sched.schedule");
        auto has = [&](const std::string &name) {
            return std::find(names.begin(), names.end(), name) !=
                   names.end();
        };
        EXPECT_EQ(has("superblock.form"),
                  model == Model::Superblock);
        EXPECT_EQ(has("hyperblock.form"),
                  model != Model::Superblock);
        EXPECT_EQ(has("partial.lower"), model == Model::CondMove);
        EXPECT_EQ(has("hyperblock.combine"),
                  model == Model::FullPred);
    }
}

TEST(BuildPassPipeline, AblationFlagsPrunePasses)
{
    CompileOptions opts;
    opts.model = Model::FullPred;
    opts.ablation.promotion = false;
    opts.ablation.branchCombining = false;
    opts.ablation.unrolling = false;
    std::vector<std::string> names =
        buildPassPipeline(opts).passNames();
    auto has = [&](const std::string &name) {
        return std::find(names.begin(), names.end(), name) !=
               names.end();
    };
    EXPECT_FALSE(has("hyperblock.promote"));
    EXPECT_FALSE(has("hyperblock.combine"));
    EXPECT_FALSE(has("opt.unroll"));
    EXPECT_TRUE(has("hyperblock.height"));
}

TEST(BuildPassPipeline, AblationFlagsReachTheLowering)
{
    // The or-tree switch prunes no pass: it reaches the Cond. Move
    // pipeline only through the lowering's options. wc holds the
    // one accumulation chain of the suite it rebalances.
    const Workload *wc = findWorkload("wc");
    ASSERT_NE(wc, nullptr);
    for (bool orTree : {true, false}) {
        CompileOptions opts;
        opts.model = Model::CondMove;
        opts.profileInput = wc->makeInput(1);
        opts.ablation.orTree = orTree;
        StatsRegistry stats;
        compileForModel(wc->source, opts, &stats);
        EXPECT_EQ(stats.snapshot().counter("partial.lower.or_trees"),
                  orTree ? 1u : 0u)
            << "orTree " << orTree;
    }
}

TEST(BuildPassPipeline, NoPassRestatesItsChangeCount)
{
    // Every pass scope holds the PassManager's own leaves. Besides
    // them, only the fixpoint group records its iterations, and only
    // a pass whose work has a breakdown its change count cannot
    // carry records leaves of its own.
    const std::set<std::string> managerLeaves = {
        "seconds",      "runs",          "changes",
        "changed_runs", "instrs_added", "instrs_removed"};
    const std::map<std::string, std::set<std::string>> ownLeaves = {
        {"opt.scalar", {"iterations"}},
        {"superblock.form",
         {"traces", "blocks_merged", "blocks_duplicated"}},
        {"hyperblock.form",
         {"formed", "blocks_if_converted", "branches_removed",
          "pred_defines"}},
        {"partial.lower",
         {"pred_defines", "guarded", "stores_redirected", "branches",
          "or_trees", "selects"}},
        {"sched.schedule", {"cycles", "instrs", "speculated"}},
        {"driver.profile", {"dyn_instrs"}},
        {"driver.reprofile", {"dyn_instrs"}},
    };
    const Workload *wc = findWorkload("wc");
    ASSERT_NE(wc, nullptr);
    for (Model model : {Model::Superblock, Model::CondMove,
                        Model::FullPred}) {
        CompileOptions opts;
        opts.model = model;
        opts.profileInput = wc->makeInput(1);
        StatsRegistry stats;
        compileForModel(wc->source, opts, &stats);
        StatsSnapshot snap = stats.snapshot();
        std::vector<std::string> names;
        for (const auto &[name, count] : snap.counters())
            names.push_back(name);
        for (const auto &[name, seconds] : snap.timers())
            names.push_back(name);
        ASSERT_FALSE(names.empty());
        for (const std::string &name : names) {
            std::size_t dot = name.rfind('.');
            ASSERT_NE(dot, std::string::npos) << name;
            std::string leaf = name.substr(dot + 1);
            if (managerLeaves.count(leaf) != 0)
                continue;
            auto own = ownLeaves.find(name.substr(0, dot));
            EXPECT_TRUE(own != ownLeaves.end() &&
                        own->second.count(leaf) != 0)
                << modelName(model) << " records " << name;
        }
    }
}

} // namespace
} // namespace predilp
