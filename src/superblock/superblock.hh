/**
 * @file
 * Superblock formation (Hwu et al., "The Superblock: an effective
 * technique for VLIW and superscalar compilation") — the baseline
 * compilation model of the paper. Profile-selected traces are turned
 * into single-entry multiple-exit blocks via tail duplication and
 * merging; speculation happens later in the scheduler.
 */

#ifndef PREDILP_SUPERBLOCK_SUPERBLOCK_HH
#define PREDILP_SUPERBLOCK_SUPERBLOCK_HH

#include "analysis/profile.hh"
#include "ir/program.hh"
#include "opt/pass.hh"

namespace predilp
{

/** Tuning knobs for trace selection. */
struct SuperblockOptions
{
    /** Minimum execution count for a block to seed or join a trace. */
    std::uint64_t minCount = 32;

    /** Minimum branch probability to extend a trace along an edge. */
    double minProb = 0.6;

    /** Maximum blocks per trace. */
    std::size_t maxBlocks = 24;

    /** Maximum instructions per formed superblock. */
    std::size_t maxInstrs = 256;
};

/** Statistics reported by formation, for tests and logging. */
struct SuperblockStats
{
    int tracesFormed = 0;
    int blocksMerged = 0;
    int blocksDuplicated = 0;
};

/**
 * Clone @p src into a fresh block (fresh instruction ids, identical
 * operands and targets). Shared by superblock tail duplication and
 * hyperblock formation.
 * @return the clone's id.
 */
BlockId cloneBlock(Function &fn, BlockId src);

/**
 * Rewrite every control edge from @p from that targets @p oldTarget
 * so it targets @p newTarget (branch targets, jump targets, and the
 * fallthrough field).
 */
void retargetEdges(Function &fn, BlockId from, BlockId oldTarget,
                   BlockId newTarget);

/**
 * Form superblocks in @p fn using @p profile.
 * The function must be in explicit-control form or fallthrough form;
 * the result keeps the same external behavior.
 */
SuperblockStats formSuperblocks(Function &fn,
                                const FunctionProfile &profile,
                                const SuperblockOptions &opts = {});

/** formSuperblocks over every function with a profile entry. */
SuperblockStats formSuperblocks(Program &prog,
                                const ProgramProfile &profile,
                                const SuperblockOptions &opts = {});

/**
 * "superblock.form": formation with the default SuperblockOptions as
 * a Pass consuming the pre-formation PassContext::profile (no-op
 * when no profile ran). Counters: superblock.form.traces /
 * .blocks_merged / .blocks_duplicated.
 */
std::unique_ptr<Pass> createSuperblockFormationPass();

} // namespace predilp

#endif // PREDILP_SUPERBLOCK_SUPERBLOCK_HH
