/**
 * @file
 * Raw transformation entry points: the classical scalar optimizations
 * the paper's partial-predication flow (§3.2) applies — "common
 * subexpression elimination, copy propagation, and dead code removal"
 * — plus inlining, LICM, unrolling, and layout. These are the
 * algorithm seams used by unit tests and by the Pass wrappers in
 * passes.hh; production pipelines run them through a PassManager
 * (opt/pass.hh), which adds timing, change, and IR-size
 * instrumentation around every invocation.
 *
 * Count-returning functions report the number of individual rewrites
 * (instructions folded, propagated uses, eliminated instructions...)
 * so the PassManager's change counters carry real magnitudes, not
 * just changed/unchanged bits.
 */

#ifndef PREDILP_OPT_TRANSFORMS_HH
#define PREDILP_OPT_TRANSFORMS_HH

#include "analysis/profile.hh"
#include "ir/program.hh"

namespace predilp
{

/**
 * Fold instructions whose sources are all constants, and turn
 * constant-condition branches into jumps or nothing.
 * @return number of instructions folded or simplified.
 */
int constantFold(Function &fn);

/**
 * Block-local copy and constant propagation: forward the sources of
 * unguarded mov/fmov instructions into later uses within the block.
 * @return number of operands rewritten.
 */
int copyPropagate(Function &fn);

/**
 * Block-local common subexpression elimination over pure operations
 * and loads (loads are invalidated by stores and calls). Guarded
 * instructions participate only when guards match exactly.
 * @return number of redundant computations replaced by moves.
 */
int localCSE(Function &fn);

/**
 * Remove instructions whose results are never used and which have no
 * side effects, using global liveness.
 * @return number of instructions removed.
 */
int deadCodeElim(Function &fn);

/**
 * CFG cleanup: thread jumps through empty blocks, merge straight-line
 * block pairs, and prune unreachable blocks.
 * @return number of jumps threaded plus block pairs merged.
 */
int simplifyCfg(Function &fn);

/**
 * Function inlining: splice small leaf callees (no calls of their
 * own) into their call sites. Run before region formation —
 * hyperblocks exclude call-containing blocks, so inlining hot
 * helpers (stdio-style getchar, comparison kernels) is what lets
 * the paper's loops if-convert at all.
 * @return number of call sites inlined.
 */
int inlineFunctions(Program &prog);

/**
 * Copy coalescing: fold "op t, ...; mov x, t" pairs (the frontend's
 * assignment pattern) into "op x, ..." when t is a single-def,
 * single-use temporary. Shrinks every model's code, and especially
 * the partial-predication lowering's expansion.
 * @return number of pairs coalesced.
 */
int coalesceCopies(Function &fn);

/**
 * Loop-invariant code motion (header-resident instructions only):
 * loads and pure operations whose sources are loop-invariant move to
 * a freshly created preheader; hoisted trapping instructions become
 * speculative (silent). Loads are only hoisted from loops free of
 * stores and calls.
 * @return number of instructions hoisted.
 */
int licmFunction(Function &fn);

/** licmFunction over every function. */
int licmProgram(Program &prog);

/**
 * Block-local memory forwarding: a load from a statically known slot
 * (immediate base + offset) whose current contents are known — from
 * a preceding store or load to the same slot — becomes a register
 * move. Breaks the store-to-load recurrences of stdio-style buffer
 * bookkeeping.
 * @return number of loads forwarded.
 */
int forwardMemory(Function &fn);

/**
 * Unroll hot self-loop blocks (formed superblock/hyperblock loops or
 * tight plain loops) in place, as the IMPACT compiler does during
 * superblock ILP optimization. Run after region formation, before
 * scheduling.
 * @return number of extra body copies created.
 */
int unrollLoops(Function &fn, const FunctionProfile &profile);

/** unrollLoops over every profiled function. */
int unrollLoops(Program &prog, const ProgramProfile &profile);

/**
 * Profile-guided code layout. Orders blocks so that likely successors
 * follow their predecessors, converts jumps-to-next into
 * fallthroughs, and inverts branch conditions so that off-path
 * targets are the taken direction where that saves a jump. After this
 * pass the function is in its final emission order, ready for
 * scheduling and timing simulation.
 *
 * @param profile profile for this function, or nullptr for static
 * heuristics.
 */
void layoutFunction(Function &fn, const FunctionProfile *profile);

/** layoutFunction() over every function. */
void layoutProgram(Program &prog, const ProgramProfile *profile);

} // namespace predilp

#endif // PREDILP_OPT_TRANSFORMS_HH
