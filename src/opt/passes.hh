/**
 * @file
 * The classical optimizer as passes. The raw algorithms live in
 * opt/transforms.hh (the unit-test seam); the pipelines build each
 * one as a Pass with makePass() (opt/pass.hh), so a PassManager
 * records its wall time, change count and IR-size delta under the
 * pass's name. The transform's count is the pass's `.changes`
 * (`opt.cse.changes` counts the computations CSE replaced); no
 * scalar pass records a counter of its own.
 */

#ifndef PREDILP_OPT_PASSES_HH
#define PREDILP_OPT_PASSES_HH

#include "opt/pass.hh"
#include "opt/transforms.hh"

namespace predilp
{

/**
 * The scalar cleanup group in canonical order: "opt.fold",
 * "opt.copyprop", "opt.cse", "opt.memfwd", "opt.coalesce", "opt.dce"
 * and "opt.simplifycfg", for
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
