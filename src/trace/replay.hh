/**
 * @file
 * The replay half of trace-once/replay-many: price a captured
 * TraceBuffer under a SimConfig without re-running the emulator.
 * This is the only way a trace is priced — simulate() is capture()
 * followed by replay(). The implementation lives with the cycle
 * model in src/sim/timing.cc.
 */

#ifndef PREDILP_TRACE_REPLAY_HH
#define PREDILP_TRACE_REPLAY_HH

#include "sim/timing.hh"
#include "trace/trace.hh"

namespace predilp
{

/**
 * Drive the timing model with a captured trace.
 *
 * One capture() per compiled program serves every SimConfig: issue
 * width, branch slots, misprediction penalty, cache and BTB
 * parameters only affect pricing, never the dynamic instruction
 * stream. (config.maxDynInstrs is ignored — the fuel limit applied
 * at capture time governs the trace.)
 */
SimResult replay(const TraceBuffer &trace, const SimConfig &config);

} // namespace predilp

#endif // PREDILP_TRACE_REPLAY_HH
