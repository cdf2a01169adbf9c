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
 * Form superblocks in @p fn using @p profile. The trace-selection
 * thresholds are constants in superblock.cc.
 * The function must be in explicit-control form or fallthrough form;
 * the result keeps the same external behavior.
 */
SuperblockStats formSuperblocks(Function &fn,
                                const FunctionProfile &profile);

/** formSuperblocks over every function with a profile entry. */
SuperblockStats formSuperblocks(Program &prog,
                                const ProgramProfile &profile);

/**
 * "superblock.form": formation as a Pass consuming the pre-formation
 * PassContext::profile (no-op when no profile ran). Its changes are
 * the traces formed; it also records the breakdown
 * superblock.form.traces / .blocks_merged / .blocks_duplicated.
 */
std::unique_ptr<Pass> createSuperblockFormationPass();

} // namespace predilp

#endif // PREDILP_SUPERBLOCK_SUPERBLOCK_HH
