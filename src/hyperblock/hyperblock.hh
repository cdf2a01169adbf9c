/**
 * @file
 * Hyperblock formation and if-conversion (Mahlke et al., MICRO-25),
 * the full-predication compilation model of the paper. Profile-
 * selected single-entry regions are if-converted into one linear
 * block of predicated instructions with (possibly predicated) exit
 * branches.
 */

#ifndef PREDILP_HYPERBLOCK_HYPERBLOCK_HH
#define PREDILP_HYPERBLOCK_HYPERBLOCK_HH

#include "analysis/profile.hh"
#include "ir/program.hh"
#include "opt/pass.hh"

namespace predilp
{

/** Tuning knobs for hyperblock block selection. */
struct HyperblockOptions
{
    /** Minimum header execution count to attempt a region. */
    std::uint64_t minHeaderCount = 32;

    /**
     * A block joins the region when its execution count is at least
     * this fraction of the header's. Unlikely paths stay as exits.
     */
    double inclusionRatio = 0.01;

    /** Maximum blocks per region. */
    std::size_t maxBlocks = 24;

    /** Maximum instructions in the formed hyperblock. */
    std::size_t maxInstrs = 256;

    /**
     * Saturation limit (the paper's "including too many blocks may
     * over saturate the processor"): total fetched instructions per
     * region may not exceed this factor times the profile-expected
     * useful instructions per entry. Blocks are considered heaviest
     * first, so unlikely paths are the ones left out as exits.
     */
    double saturationFactor = 1.5;
};

/** Formation statistics, for tests and reporting. */
struct HyperblockStats
{
    int hyperblocksFormed = 0;
    int blocksIfConverted = 0;
    int branchesRemoved = 0;
    int predDefinesInserted = 0;
};

/**
 * Form hyperblocks in @p fn. Call after classical optimization and
 * before layout/scheduling. Region selection uses @p profile.
 */
HyperblockStats formHyperblocks(Function &fn,
                                const FunctionProfile &profile,
                                const HyperblockOptions &opts = {});

/** formHyperblocks over every profiled function. */
HyperblockStats formHyperblocks(Program &prog,
                                const ProgramProfile &profile,
                                const HyperblockOptions &opts = {});

/**
 * Predicate promotion (paper §3.2, Figure 2): remove the guard from
 * guarded instructions whose destination is only consumed under the
 * same guard and is dead outside the hyperblock, making them
 * speculative. Reduces dependence height for full predication and,
 * crucially, shrinks the code expansion of the partial-predication
 * lowering.
 *
 * @return number of instructions promoted.
 */
int promotePredicates(Function &fn);

/** promotePredicates over every function. */
int promotePredicates(Program &prog);

/**
 * Control height reduction over predicate define chains (paper §2.1,
 * ref [16]): short-circuit OR chains whose defines are serialized
 * through UBar continuation predicates are rewritten so every OR
 * contribution runs under the chain's entry predicate (issuable
 * simultaneously, wired-OR), with the surviving continuation
 * recomputed from the OR result.
 * @return number of chains reduced.
 */
int reducePredicateHeight(Function &fn);

/** reducePredicateHeight over every function. */
int reducePredicateHeight(Program &prog);

/**
 * Branch combining (paper §4.2, grep discussion): merge runs of
 * unlikely predicated exit branches in a hyperblock into predicate
 * OR-defines feeding a single exit jump to a decode block, which
 * re-dispatches to the original targets. Legality: instructions
 * between the combined exits must not write anything live at the
 * earlier exits' targets and must not touch memory or trap.
 *
 * @return number of branches eliminated (combined into defines).
 */
int combineExitBranches(Function &fn, const FunctionProfile &profile);

/** combineExitBranches over every profiled function. */
int combineExitBranches(Program &prog, const ProgramProfile &profile);

/**
 * "hyperblock.form": formation as a Pass consuming the pre-formation
 * PassContext::profile (no-op when no profile ran). Counters:
 * hyperblock.form.formed / .blocks_if_converted / .branches_removed
 * / .pred_defines.
 */
std::unique_ptr<Pass>
createHyperblockFormationPass(HyperblockOptions opts = {});

/**
 * "hyperblock.promote": predicate promotion.
 * Counter: hyperblock.promote.promoted.
 */
std::unique_ptr<Pass> createPromotionPass();

/**
 * "hyperblock.height": control height reduction.
 * Counter: hyperblock.height.chains.
 */
std::unique_ptr<Pass> createHeightReductionPass();

/**
 * "hyperblock.combine": exit-branch combining, consuming the
 * post-formation PassContext::regionProfile (no-op when no region
 * re-profile ran). Counter: hyperblock.combine.branches_combined.
 */
std::unique_ptr<Pass> createBranchCombinePass();

} // namespace predilp

#endif // PREDILP_HYPERBLOCK_HYPERBLOCK_HH
