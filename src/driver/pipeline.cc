#include "driver/pipeline.hh"

#include <algorithm>

#include "frontend/irgen.hh"
#include "ir/verifier.hh"
#include "opt/passes.hh"
#include "sched/scheduler.hh"
#include "support/logging.hh"

namespace predilp
{

std::string
modelName(Model model)
{
    switch (model) {
      case Model::Superblock:
        return "Superblock";
      case Model::CondMove:
        return "Cond. Move";
      case Model::FullPred:
        return "Full Pred.";
    }
    return "?";
}

const char *
modelKey(Model model)
{
    switch (model) {
      case Model::Superblock:
        return "superblock";
      case Model::CondMove:
        return "cond_move";
      case Model::FullPred:
        return "full_pred";
    }
    return "unknown";
}

Model
modelFromKey(const std::string &key)
{
    if (key == "superblock")
        return Model::Superblock;
    if (key == "cond_move")
        return Model::CondMove;
    if (key == "full_pred")
        return Model::FullPred;
    throw FatalError("unknown model key '" + key +
                     "' (expected superblock, cond_move or "
                     "full_pred)");
}

AblationFlags
AblationFlags::canonicalFor(Model model) const
{
    AblationFlags canonical;
    // Unrolling runs in every model's pipeline; everything else is
    // read only where the switch below says so.
    canonical.unrolling = unrolling;
    switch (model) {
      case Model::Superblock:
        break; // no predication passes reach this pipeline.
      case Model::FullPred:
        canonical.promotion = promotion;
        canonical.branchCombining = branchCombining;
        canonical.heightReduction = heightReduction;
        break;
      case Model::CondMove:
        canonical.promotion = promotion;
        canonical.heightReduction = heightReduction;
        canonical.orTree = orTree;
        canonical.useSelect = useSelect;
        break;
    }
    return canonical;
}

std::string
AblationFlags::key() const
{
    std::string key;
    key.reserve(6);
    for (bool flag : {promotion, branchCombining, heightReduction,
                      unrolling, orTree, useSelect}) {
        key.push_back(flag ? '1' : '0');
    }
    return key;
}

JsonValue
AblationFlags::toJson() const
{
    return JsonValue::makeObject({
        {"promotion", JsonValue::makeBool(promotion)},
        {"branch_combining", JsonValue::makeBool(branchCombining)},
        {"height_reduction", JsonValue::makeBool(heightReduction)},
        {"unrolling", JsonValue::makeBool(unrolling)},
        {"or_tree", JsonValue::makeBool(orTree)},
        {"use_select", JsonValue::makeBool(useSelect)},
    });
}

AblationFlags
AblationFlags::fromJson(const JsonValue &json)
{
    AblationFlags flags;
    for (const auto &[key, value] : json.members()) {
        if (key == "promotion")
            flags.promotion = value.asBool();
        else if (key == "branch_combining")
            flags.branchCombining = value.asBool();
        else if (key == "height_reduction")
            flags.heightReduction = value.asBool();
        else if (key == "unrolling")
            flags.unrolling = value.asBool();
        else if (key == "or_tree")
            flags.orTree = value.asBool();
        else if (key == "use_select")
            flags.useSelect = value.asBool();
        else
            throw FatalError("unknown ablation key '" + key + "'");
    }
    return flags;
}

bool
AblationFlags::operator==(const AblationFlags &other) const
{
    return promotion == other.promotion &&
           branchCombining == other.branchCombining &&
           heightReduction == other.heightReduction &&
           unrolling == other.unrolling && orTree == other.orTree &&
           useSelect == other.useSelect;
}

namespace
{

/**
 * Measure an execution profile by emulating the current program on
 * the pipeline's profile input. The Primary slot fills
 * PassContext::profile (pre-formation: consumed by region selection
 * and final layout); the Region slot fills
 * PassContext::regionProfile (re-measured on formed code, whose
 * fresh instruction ids the primary profile has never seen —
 * consumed by branch combining and unrolling).
 */
class ProfilePass : public Pass
{
  public:
    enum class Slot
    {
        Primary,
        Region,
    };

    explicit ProfilePass(Slot slot) : slot_(slot) {}

    std::string
    name() const override
    {
        return slot_ == Slot::Primary ? "driver.profile"
                                      : "driver.reprofile";
    }

    PassResult
    run(Program &prog, PassContext &ctx) override
    {
        auto profile = std::make_unique<ProgramProfile>(prog);
        EmuOptions emuOpts;
        emuOpts.profile = profile.get();
        emuOpts.maxDynInstrs = ctx.profileFuel;
        Emulator emu(prog);
        RunResult run = emu.run(ctx.profileInput, emuOpts);
        ctx.stats.counter(name() + ".dyn_instrs")
            .add(run.dynInstrs);
        if (slot_ == Slot::Primary)
            ctx.profile = std::move(profile);
        else
            ctx.regionProfile = std::move(profile);
        return {};
    }

  private:
    Slot slot_;
};

} // namespace

namespace
{

/** The model-independent prefix (see buildPrefixPipeline). */
void
addPrefixPasses(PassManager &pm)
{
    pm.add(createInlinePass());
    pm.addFixpoint("opt.scalar", scalarPassList());
    pm.add(createLicmPass());
    pm.addFixpoint("opt.scalar", scalarPassList());

    // Profile the optimized pre-formation code.
    pm.add(std::make_unique<ProfilePass>(ProfilePass::Slot::Primary));
}

/** The machine-independent form stage (see formFromSnapshot). */
void
addFormPasses(PassManager &pm, const FormOptions &opts)
{
    const AblationFlags &ablation = opts.ablation;
    switch (opts.model) {
      case Model::Superblock:
        pm.add(createSuperblockFormationPass());
        break;
      case Model::FullPred:
      case Model::CondMove: {
        HyperblockOptions hbOpts;
        // The paper's concluding remark: "a compiler must be
        // extremely intelligent when exploiting conditional move".
        // The cmov model pays fetch slots for both representing the
        // predicates and executing all included paths, so its
        // formation tolerates less saturation.
        if (opts.model == Model::CondMove) {
            hbOpts.saturationFactor =
                std::min(hbOpts.saturationFactor, 1.25);
        }
        pm.add(createHyperblockFormationPass(hbOpts));
        if (ablation.heightReduction)
            pm.add(createHeightReductionPass());
        if (ablation.promotion)
            pm.add(createPromotionPass());
        // Branch combining pays off for full predication (parallel
        // OR defines, one exit slot); under the cmov model the
        // lowered OR chain plus decode-block bubbles cost more than
        // the saved slots on this machine, so the "extremely
        // intelligent" cmov compiler the paper calls for skips it.
        if (ablation.branchCombining &&
            opts.model == Model::FullPred) {
            pm.add(std::make_unique<ProfilePass>(
                ProfilePass::Slot::Region));
            pm.add(createBranchCombinePass());
        }
        if (opts.model == Model::CondMove) {
            PartialOptions partial;
            partial.orTree = ablation.orTree;
            partial.useSelect = ablation.useSelect;
            pm.add(createPartialLoweringPass(partial));
        }
        break;
      }
    }

    pm.addFixpoint("opt.scalar", scalarPassList());
    if (ablation.unrolling) {
        // Re-profile the formed code so unrolling sees the final
        // loop blocks, then unroll hot tight loops in place.
        pm.add(std::make_unique<ProfilePass>(
            ProfilePass::Slot::Region));
        pm.add(createUnrollPass());
        pm.addFixpoint("opt.scalar", scalarPassList());
    }
    pm.add(createLayoutPass());
}

/** The schedule stage: the list scheduler, for opts.machine. */
void
addSchedulePasses(PassManager &pm, const CompileOptions &opts)
{
    pm.add(createSchedulePass(opts.machine));
}

} // namespace

PassManager
buildPassPipeline(const CompileOptions &opts)
{
    PassManager pm;
    addPrefixPasses(pm);
    addFormPasses(pm, opts);
    addSchedulePasses(pm, opts);
    return pm;
}

PassManager
buildPrefixPipeline()
{
    PassManager pm;
    addPrefixPasses(pm);
    return pm;
}

namespace
{

/** Verify @p prog as left by @p producer; throw VerifyError if bad. */
void
verifyOrThrow(const Program &prog, const std::string &producer)
{
    std::string err = verifyProgram(prog);
    if (!err.empty())
        throw VerifyError(producer, err);
}

/**
 * The schedule stage, in place: run the list scheduler for
 * opts.machine over the formed @p prog, then verify the finished
 * program.
 */
void
scheduleInPlace(Program &prog, const CompileOptions &opts,
                StatsRegistry *stats)
{
    StatsRegistry localStats;
    PassContext ctx(stats != nullptr ? *stats : localStats);
    ctx.verifyAfterEach = opts.verifyEachPass;
    PassManager schedule;
    addSchedulePasses(schedule, opts);
    schedule.run(prog, ctx);
    verifyOrThrow(prog, "pipeline(" + modelName(opts.model) + ")");
}

} // namespace

std::unique_ptr<Program>
compileForModel(const std::string &source, const CompileOptions &opts,
                StatsRegistry *stats)
{
    std::unique_ptr<Program> prog = compileSource(source);
    verifyOrThrow(*prog, "frontend");

    StatsRegistry localStats;
    StatsRegistry &registry = stats != nullptr ? *stats : localStats;
    PassContext ctx(registry);
    ctx.profileInput = opts.profileInput;
    ctx.profileFuel = opts.maxProfileInstrs;
    ctx.verifyAfterEach = opts.verifyEachPass;

    PassManager pipeline = buildPassPipeline(opts);
    pipeline.run(*prog, ctx);

    verifyOrThrow(*prog, "pipeline(" + modelName(opts.model) + ")");
    return prog;
}

FrontendSnapshot
compilePrefix(const std::string &source,
              const std::string &profileInput,
              std::uint64_t maxProfileInstrs, StatsRegistry *stats)
{
    std::unique_ptr<Program> prog = compileSource(source);
    verifyOrThrow(*prog, "frontend");

    StatsRegistry localStats;
    StatsRegistry &registry = stats != nullptr ? *stats : localStats;
    PassContext ctx(registry);
    ctx.profileInput = profileInput;
    ctx.profileFuel = maxProfileInstrs;

    PassManager prefix = buildPrefixPipeline();
    prefix.run(*prog, ctx);
    panicIf(ctx.profile == nullptr,
            "prefix pipeline produced no profile");

    FrontendSnapshot snapshot;
    snapshot.prog = std::move(prog);
    snapshot.profile = std::move(*ctx.profile);
    return snapshot;
}

std::unique_ptr<Program>
formFromSnapshot(const FrontendSnapshot &snapshot,
                 const FormOptions &opts, StatsRegistry *stats)
{
    panicIf(snapshot.prog == nullptr,
            "formFromSnapshot: empty snapshot");
    std::unique_ptr<Program> prog = snapshot.prog->clone();

    StatsRegistry localStats;
    StatsRegistry &registry = stats != nullptr ? *stats : localStats;
    PassContext ctx(registry);
    ctx.profileInput = opts.profileInput;
    ctx.profileFuel = opts.maxProfileInstrs;
    ctx.verifyAfterEach = opts.verifyEachPass;
    ctx.profile =
        std::make_unique<ProgramProfile>(snapshot.profile);

    PassManager form;
    addFormPasses(form, opts);
    form.run(*prog, ctx);
    return prog;
}

std::unique_ptr<Program>
scheduleFormed(const Program &formed, const CompileOptions &opts,
               StatsRegistry *stats)
{
    std::unique_ptr<Program> prog = formed.clone();
    scheduleInPlace(*prog, opts, stats);
    return prog;
}

std::unique_ptr<Program>
compileFromSnapshot(const FrontendSnapshot &snapshot,
                    const CompileOptions &opts, StatsRegistry *stats)
{
    std::unique_ptr<Program> prog =
        formFromSnapshot(snapshot, opts, stats);
    scheduleInPlace(*prog, opts, stats);
    return prog;
}

SimResult
runModel(const std::string &source, const std::string &input,
         const CompileOptions &compileOpts, const SimConfig &simConfig)
{
    std::unique_ptr<Program> prog =
        compileForModel(source, compileOpts);
    return simulate(*prog, input, simConfig);
}

RunResult
runReference(const std::string &source, const std::string &input,
             std::uint64_t maxDynInstrs)
{
    std::unique_ptr<Program> prog = compileSource(source);
    optimizeProgram(*prog);
    EmuOptions opts;
    opts.maxDynInstrs = maxDynInstrs;
    Emulator emu(*prog);
    return emu.run(input, opts);
}

void
checkReference(const RunResult &run, const RunResult &reference,
               const std::string &what)
{
    if (run.exitValue == reference.exitValue &&
        run.output == reference.output &&
        run.memHash == reference.memHash)
        return;
    throw DivergenceError(detail::formatMessage(
        what, " diverged from reference: exit ", run.exitValue, " vs ",
        reference.exitValue, ", output ", run.output.size(), " vs ",
        reference.output.size(), " bytes",
        run.output == reference.output ? " (equal)" : " (differ)",
        ", memHash ", run.memHash, " vs ", reference.memHash));
}

} // namespace predilp
