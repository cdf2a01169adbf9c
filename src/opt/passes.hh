/**
 * @file
 * Pass-object API of the classical optimizer. The raw algorithms
 * live in opt/transforms.hh (the unit-test seam); this header wraps
 * each one as a Pass (opt/pass.hh) so pipelines are declarative pass
 * lists run by a PassManager, with wall-time/change/IR-size
 * instrumentation recorded per pass into a StatsRegistry. Each pass
 * additionally owns detail counters under its own scope
 * (`opt.cse.removed`, `opt.licm.hoisted`, ...).
 */

#ifndef PREDILP_OPT_PASSES_HH
#define PREDILP_OPT_PASSES_HH

#include "opt/pass.hh"
#include "opt/transforms.hh"

namespace predilp
{

/** "opt.fold": constant folding. Counter: opt.fold.folded. */
std::unique_ptr<Pass> createConstantFoldPass();

/** "opt.copyprop": copy propagation. Counter: opt.copyprop.propagated. */
std::unique_ptr<Pass> createCopyPropagatePass();

/** "opt.cse": local CSE. Counter: opt.cse.removed. */
std::unique_ptr<Pass> createCSEPass();

/** "opt.memfwd": memory forwarding. Counter: opt.memfwd.forwarded. */
std::unique_ptr<Pass> createMemoryForwardPass();

/** "opt.coalesce": copy coalescing. Counter: opt.coalesce.coalesced. */
std::unique_ptr<Pass> createCoalescePass();

/** "opt.dce": dead code elimination. Counter: opt.dce.removed. */
std::unique_ptr<Pass> createDCEPass();

/** "opt.simplifycfg": CFG cleanup. Counter: opt.simplifycfg.simplified. */
std::unique_ptr<Pass> createSimplifyCfgPass();

/** "opt.inline": leaf inlining. Counter: opt.inline.sites. */
std::unique_ptr<Pass> createInlinePass();

/** "opt.licm": invariant code motion. Counter: opt.licm.hoisted. */
std::unique_ptr<Pass> createLicmPass();

/**
 * "opt.unroll": hot-loop unrolling. Requires a fresh
 * PassContext::regionProfile (run a region ProfilePass first).
 * Counter: opt.unroll.copies.
 */
std::unique_ptr<Pass> createUnrollPass();

/**
 * "opt.layout": profile-guided final block layout, using the
 * pre-formation PassContext::profile (static heuristics when no
 * profile ran). Counter: opt.layout.functions.
 */
std::unique_ptr<Pass> createLayoutPass();

/**
 * The scalar cleanup group (fold, copyprop, CSE, memfwd, coalesce,
 * DCE, simplifycfg) in canonical order, for
 * PassManager::addFixpoint("opt.scalar", scalarPassList()).
 */
std::vector<std::unique_ptr<Pass>> scalarPassList();

/**
 * Run the pipelines' "opt.scalar" fixpoint group (scalarPassList,
 * the default iteration cap) once over @p prog, recording into a
 * throwaway registry — the optimize-to-quiescence entry point used
 * by tests, examples, and the reference (oracle) pipeline.
 */
void optimizeProgram(Program &prog);

} // namespace predilp

#endif // PREDILP_OPT_PASSES_HH
