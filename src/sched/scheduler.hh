/**
 * @file
 * Cycle-driven list scheduler for the in-order ILP machine. Operates
 * per block (plain blocks, superblocks, hyperblocks), reorders the
 * instruction stream into issue order, and annotates issue cycles.
 */

#ifndef PREDILP_SCHED_SCHEDULER_HH
#define PREDILP_SCHED_SCHEDULER_HH

#include "ir/program.hh"
#include "opt/pass.hh"
#include "sched/machine.hh"

namespace predilp
{

/** Aggregate schedule metrics, for reporting and tests. */
struct ScheduleStats
{
    long totalCycles = 0;      ///< sum of block schedule lengths.
    long totalInstrs = 0;
    int speculated = 0;        ///< instructions made silent by motion.
};

/**
 * Schedule every block of @p fn for @p config.
 *
 * @param allowSpeculation permit moving silent instructions across
 * side-exit branches (superblock-style speculation). Instructions
 * that may trap and end up crossing a branch are switched to their
 * non-excepting forms.
 */
ScheduleStats scheduleFunction(Function &fn,
                               const MachineConfig &config,
                               bool allowSpeculation = true);

/** scheduleFunction, with speculation, over every function. */
ScheduleStats scheduleProgram(Program &prog, const MachineConfig &config);

/**
 * "sched.schedule": list scheduling with speculation as a Pass.
 * Counters: sched.schedule.cycles / .instrs / .speculated.
 */
std::unique_ptr<Pass> createSchedulePass(MachineConfig config);

} // namespace predilp

#endif // PREDILP_SCHED_SCHEDULER_HH
