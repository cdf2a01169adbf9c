/**
 * @file
 * The compiler's uniform pass seam. Every transformation the driver
 * pipeline runs — scalar cleanups, region formation, lowering,
 * scheduling — is a Pass, and a PassManager executes a declarative
 * list of them, recording wall time, change counts, and before/after
 * IR size for each run into a StatsRegistry
 * (support/stats_registry.hh). The per-pass counter scope is the
 * pass's name: pass "opt.cse" owns `opt.cse.seconds`,
 * `opt.cse.changes`, .... A pass that runs one transform is built by
 * makePass(), and the transform's count is its `.changes`. Only a
 * pass whose work has a breakdown that one count cannot carry
 * (region formation, lowering, scheduling, profiling) is a class of
 * its own, recording the breakdown under its scope through
 * PassContext::stats (e.g. `hyperblock.form.blocks_if_converted`).
 *
 * Scalar passes that iterate to a fixpoint are grouped with
 * addFixpoint(): the group reruns while any member reports changes,
 * up to an iteration cap. Every member is function-local and
 * idempotent once a function reaches its fixpoint, so a function
 * that settles early is left as it is while the others iterate.
 */

#ifndef PREDILP_OPT_PASS_HH
#define PREDILP_OPT_PASS_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "analysis/profile.hh"
#include "ir/program.hh"
#include "support/stats_registry.hh"

namespace predilp
{

/**
 * Names the compiled output of this tree's passes. It is hashed into
 * every trace artifact key (ArtifactStore::keyFor) and every
 * pass-pipeline digest (passPipelineDigest), so a store filled by an
 * older compiler misses instead of serving that compiler's programs,
 * and predilp_diff explains the moved cells by their digests. Bump
 * it with any change that moves a compiled program, then re-pin
 * compilerPin.
 */
inline constexpr const char *compilerEpoch = "predilp-compiler-1";

/**
 * sha256 over the printed programs of 15 workloads x 3 models x the
 * figure set's four machines, compiled the evaluator's way
 * (CompilerPin.FigureSetProgramsPinnedToEpoch). A change that moves
 * any of them fails that test until compilerEpoch is bumped and this
 * digest re-pinned.
 */
inline constexpr const char *compilerPin =
    "21e141a9031c7be5cec6131709330980416a72bef7ed8653f841be1f09690e9f";

/** What one pass invocation did. */
struct PassResult
{
    /** Number of individual rewrites (0 = nothing changed). */
    std::uint64_t changes = 0;

    bool changed() const { return changes != 0; }
};

/**
 * Shared state threaded through a pass pipeline: the stats registry
 * every pass records into, plus the execution profiles
 * profile-guided passes consume. The driver's ProfilePass fills
 * these; `profile` is the pre-formation profile (used by region
 * selection and final layout), `regionProfile` is re-measured on the
 * formed code (used by branch combining and unrolling, whose
 * decisions depend on instruction ids created during formation).
 */
struct PassContext
{
    explicit PassContext(StatsRegistry &statsRegistry)
        : stats(statsRegistry)
    {}

    StatsRegistry &stats;

    /**
     * When set, the IR verifier runs after every pass invocation
     * (including fixpoint-group members) and a violation throws
     * VerifyError naming the offending pass and the first broken
     * invariant. Off by default — it is meant for the differential
     * fuzz oracle, debugging, and tests, not the benchmark hot path.
     */
    bool verifyAfterEach = false;

    /** Pre-formation profile; null until a ProfilePass runs. */
    std::unique_ptr<ProgramProfile> profile;

    /** Post-formation re-profile; null until refreshed. */
    std::unique_ptr<ProgramProfile> regionProfile;

    /** Input fed to profiling emulation runs. */
    std::string profileInput;

    /** Emulator fuel for profiling runs. */
    std::uint64_t profileFuel = 2'000'000'000ull;
};

/** One unit of program transformation behind the uniform seam. */
class Pass
{
  public:
    virtual ~Pass() = default;

    /**
     * Dotted stats scope and display name, e.g. "opt.cse" or
     * "hyperblock.form". Must be stable across invocations.
     */
    virtual std::string name() const = 0;

    /** Transform @p prog; @return what changed. */
    virtual PassResult run(Program &prog, PassContext &ctx) = 0;
};

/**
 * A whole-program transform for makePass(). @return the number of
 * rewrites it made.
 */
using ProgramTransform =
    std::function<std::uint64_t(Program &, PassContext &)>;

/**
 * The pass named @p name that runs @p transform once per invocation
 * and reports its count as the pass's changes.
 */
std::unique_ptr<Pass> makePass(std::string name,
                               ProgramTransform transform);

/**
 * The pass named @p name that runs @p transform on every function in
 * program order and reports the sum of its counts as the pass's
 * changes.
 */
std::unique_ptr<Pass> makePass(std::string name,
                               int (*transform)(Function &));

/**
 * Runs a declarative list of passes in order, wrapping every
 * invocation in the uniform instrumentation seam. For a pass named
 * P, each run records into the registry:
 *   P.seconds        wall time (timer)
 *   P.runs           invocations
 *   P.changes        total rewrites reported
 *   P.changed_runs   invocations that changed anything
 *   P.instrs_removed / P.instrs_added   program-size delta
 * Fixpoint groups additionally record <group>.iterations.
 */
class PassManager
{
  public:
    PassManager() = default;

    /** Append one pass. */
    void add(std::unique_ptr<Pass> pass);

    /**
     * Append a group of passes iterated to a fixpoint: the group
     * reruns while any member reports changes, up to @p maxIters
     * iterations. @p groupName scopes the group's own counters
     * (<group>.iterations).
     */
    void addFixpoint(std::string groupName,
                     std::vector<std::unique_ptr<Pass>> group,
                     int maxIters = 10);

    /** Top-level pass names, in execution order. */
    std::vector<std::string> passNames() const;

    /** Run every pass on @p prog. @return aggregate changes. */
    PassResult run(Program &prog, PassContext &ctx);

  private:
    std::vector<std::unique_ptr<Pass>> passes_;
};

/** Total instruction count of @p prog (all functions, all blocks). */
std::uint64_t programInstrCount(const Program &prog);

} // namespace predilp

#endif // PREDILP_OPT_PASS_HH
