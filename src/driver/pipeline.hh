/**
 * @file
 * End-to-end compilation pipelines for the three processor models of
 * the paper (§4.1): Superblock (baseline), Conditional Move (partial
 * predication), and Full Predication. Shared by the benchmark
 * harness, the examples, and the integration tests.
 *
 * Each model's pipeline is a declarative pass list (see
 * buildPassPipeline) run by a PassManager, so every stage reports
 * wall time, change counts, and IR-size deltas through the shared
 * StatsRegistry observability seam.
 */

#ifndef PREDILP_DRIVER_PIPELINE_HH
#define PREDILP_DRIVER_PIPELINE_HH

#include <memory>
#include <string>

#include "analysis/profile.hh"
#include "hyperblock/hyperblock.hh"
#include "opt/pass.hh"
#include "partial/partial.hh"
#include "sim/timing.hh"
#include "superblock/superblock.hh"
#include "support/json.hh"

namespace predilp
{

/** The three compilation/architecture models compared in the paper. */
enum class Model
{
    Superblock,   ///< no predication; superblock + speculation.
    CondMove,     ///< partial predication via cmov/cmov_com.
    FullPred,     ///< full predicate register file + defines.
};

/** @return "Superblock" / "Cond. Move" / "Full Pred.". */
std::string modelName(Model model);

/**
 * Stable machine-readable identifier: "superblock" / "cond_move" /
 * "full_pred". Used as the JSON key in BENCH_*.json, EvalRequest
 * serialization, and sweep cell labels.
 */
const char *modelKey(Model model);

/** Inverse of modelKey(); throws FatalError on an unknown key. */
Model modelFromKey(const std::string &key);

/**
 * On/off switches for the optional predication optimizations — the
 * ablation axes of the paper's evaluation, and the only compile
 * choices besides the model and the machine. One struct shared by
 * CompileOptions, EvalRequest, and the evaluator's cache-key
 * canonicalization, so a flag added here is automatically part of
 * every compile, every sweep, every trace-cache key and every
 * pass-pipeline digest. Every other pass threshold has one value,
 * its pass's default.
 */
struct AblationFlags
{
    bool promotion = true;       ///< predicate promotion (§3.2).
    bool branchCombining = true; ///< exit-branch combining (§4.2).
    bool heightReduction = true; ///< control height reduction (§2.1).
    bool unrolling = true;       ///< post-formation loop unrolling.
    bool orTree = true;          ///< OR-tree rebalancing (partial).
    bool useSelect = false;      ///< select formation (partial).

    /**
     * Canonical form for @p model: flags the model's pipeline never
     * reads are pinned to their defaults, so e.g. a no-or-tree sweep
     * shares the Superblock and Full Predication traces of the
     * default configuration.
     */
    AblationFlags canonicalFor(Model model) const;

    /** Stable cache-key fragment, one character per flag. */
    std::string key() const;

    /** Canonical JSON object (all six flags, fixed order). */
    JsonValue toJson() const;

    /**
     * Parse a flags object. Absent keys keep their defaults;
     * unknown keys throw FatalError.
     */
    static AblationFlags fromJson(const JsonValue &json);

    bool operator==(const AblationFlags &other) const;
    bool operator!=(const AblationFlags &other) const
    {
        return !(*this == other);
    }
};

/**
 * Everything the form stage reads: the model, the ablation flags and
 * the profiling run, and nothing of the machine. The passes take
 * every other threshold from their own defaults, so a formed
 * program depends on these fields alone — which is what lets
 * SuiteEvaluator cache one formed program per (workload, scale,
 * model, canonical flags) and schedule it for every machine.
 */
struct FormOptions
{
    Model model = Model::FullPred;
    /** Optional-optimization switches (one shared struct). */
    AblationFlags ablation;
    /**
     * Run the IR verifier after every pass; a violation throws
     * VerifyError naming the offending pass. Used by the fuzz
     * oracle and debugging runs; off for benchmark compiles.
     */
    bool verifyEachPass = false;
    /** Input used for the profiling run. */
    std::string profileInput;
    /** Emulator fuel for profiling runs. */
    std::uint64_t maxProfileInstrs = 2'000'000'000ull;
};

/** Everything configurable about one compilation. */
struct CompileOptions : FormOptions
{
    /** The machine the list scheduler targets. */
    MachineConfig machine;
};

/**
 * The declarative pass list for @p opts.model: classical cleanup to
 * fixpoint, profiling, model-specific region formation and lowering,
 * post-formation re-optimization, layout, and scheduling. Running it
 * through PassManager::run records the uniform per-pass
 * instrumentation into the PassContext's StatsRegistry.
 *
 * Equal to buildPrefixPipeline() followed by the passes of
 * formFromSnapshot and then the list scheduler for opts.machine.
 */
PassManager buildPassPipeline(const CompileOptions &opts);

/**
 * The model-independent front half shared by every pipeline:
 * inlining, classical cleanup to fixpoint, LICM, and the primary
 * profiling run. Nothing in it reads the model, machine, or ablation
 * flags, which is what makes the front-end snapshot cache sound: the
 * post-prefix Program (plus the profile it measured) is one
 * canonical artifact per (source, profile input).
 */
PassManager buildPrefixPipeline();

/**
 * The cached front-end artifact: the program as the prefix pipeline
 * left it, plus the primary execution profile measured on it.
 * Immutable once built — model compiles deep-clone the program
 * (Program::clone) and copy the profile, so any number of
 * compileFromSnapshot calls (including concurrent ones) can resume
 * from one snapshot.
 */
struct FrontendSnapshot
{
    std::unique_ptr<Program> prog;
    ProgramProfile profile;
};

/**
 * Run the frontend and the prefix pipeline once, producing the
 * snapshot every model of this (source, input) pair can resume from.
 * When @p stats is non-null, the prefix passes' counters/timers are
 * recorded into it.
 */
FrontendSnapshot compilePrefix(const std::string &source,
                               const std::string &profileInput,
                               std::uint64_t maxProfileInstrs =
                                   2'000'000'000ull,
                               StatsRegistry *stats = nullptr);

/**
 * Run the form stage from @p snapshot: clone the prefix program,
 * seed the pass context with a copy of the prefix profile, and run
 * the model's region formation, predication / lowering,
 * post-formation re-optimization and re-profiling, unrolling, and
 * layout. The formed program is unscheduled; any number of
 * scheduleFormed calls (including concurrent ones) can finish it for
 * their machines with the list scheduler, the only pass that reads
 * the machine.
 */
std::unique_ptr<Program> formFromSnapshot(const FrontendSnapshot &snapshot,
                                          const FormOptions &opts,
                                          StatsRegistry *stats = nullptr);

/**
 * Finish a compilation from a formed program: clone @p formed and
 * run the list scheduler for opts.machine over the clone. @p formed
 * is left unchanged.
 */
std::unique_ptr<Program> scheduleFormed(const Program &formed,
                                        const CompileOptions &opts,
                                        StatsRegistry *stats = nullptr);

/**
 * Finish a compilation from @p snapshot: formFromSnapshot, then the
 * scheduler, the same two stages the evaluator runs with a cached
 * formed program in between. Produces a Program bit-identical
 * (printProgram) to compileForModel on the same source/options —
 * the snapshot path merely skips recomputing the shared prefix.
 */
std::unique_ptr<Program>
compileFromSnapshot(const FrontendSnapshot &snapshot,
                    const CompileOptions &opts,
                    StatsRegistry *stats = nullptr);

/**
 * Compile ILC source for one model: frontend, then the
 * buildPassPipeline pass list. The result verifies cleanly and is
 * ready for simulation. When @p stats is non-null, per-pass timing
 * and change counters (opt.*, superblock.*, hyperblock.*, partial.*,
 * sched.*, driver.profile.*) are recorded into it.
 */
std::unique_ptr<Program> compileForModel(const std::string &source,
                                         const CompileOptions &opts,
                                         StatsRegistry *stats =
                                             nullptr);

/** Compile + simulate in one step. */
SimResult runModel(const std::string &source,
                   const std::string &input,
                   const CompileOptions &compileOpts,
                   const SimConfig &simConfig);

/**
 * Reference run: frontend + classical optimization only, emulated
 * functionally. Used as the correctness oracle for every model.
 */
RunResult runReference(const std::string &source,
                       const std::string &input,
                       std::uint64_t maxDynInstrs =
                           2'000'000'000ull);

/**
 * The oracle check every compiled run passes: throw DivergenceError,
 * naming @p what, unless @p run reproduces @p reference's
 * architectural result (exit value, output and final memory hash).
 */
void checkReference(const RunResult &run, const RunResult &reference,
                    const std::string &what);

} // namespace predilp

#endif // PREDILP_DRIVER_PIPELINE_HH
