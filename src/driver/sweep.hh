/**
 * @file
 * Sharded scenario-sweep grid driver. A declarative
 * SweepSpec — a base EvalRequest plus ordered value lists for the
 * paper's hardware axes (issue width, BTB entries/associativity/
 * predictor, cache size/line/associativity/penalty, perfect-vs-real
 * caches) — expands into the full cross product of SweepCells, each
 * a complete, serializable EvalRequest.
 *
 * runSweep() executes the grid either sequentially (one in-process
 * SuiteEvaluator) or sharded across N forked worker processes.
 * Sharding is trace-affine: cells are grouped by which captured
 * traces they replay (the request minus its replay-only BTB/
 * predictor/cache knobs) and the groups are dealt round-robin to
 * workers, so no two workers ever capture or replay the same trace.
 * Each worker prices its whole shard with one
 * SuiteEvaluator::evaluateBatch call — every trace is streamed once
 * for all of the shard's configs. Every worker opens the same
 * flock-safe ArtifactStore (via PREDILP_STORE), so captured traces
 * are shared across the fleet and a warm re-run of the same grid
 * performs zero compiles and zero captures. Workers report per-cell
 * JSON plus their SuiteEvaluator::stats() through temp files; the
 * parent validates completeness (no duplicate, no missing cells),
 * merges the stats additively, and emits one consolidated
 * BENCH_sweep.json with the cells in grid order plus a per-axis
 * crossover summary (where full predication's mean speedup overtakes
 * the partial-predication Cond. Move model).
 *
 * Determinism: the merged cells array is byte-identical to the
 * sequential run's — both paths build cell objects with the same
 * code and route them through JsonValue's canonical dump, and
 * StatsSnapshot's number formatting survives the worker-file
 * round trip losslessly.
 *
 * Self-healing (SweepHealPolicy): the forked path supervises its
 * workers instead of trusting them. A per-shard watchdog SIGKILLs a
 * worker that exceeds its deadline; death (signal, nonzero exit, or
 * a truncated/short/unparseable result file) is detected and
 * attributed (pid, exit status, shard file), and the shard is
 * re-dealt to a fresh worker with bounded exponential backoff, up to
 * maxAttempts total tries. Because cell evaluation is deterministic
 * and the artifact store publishes via temp+rename under a lock, a
 * retried shard reproduces its cells byte-identically — so a sweep
 * that loses workers to crashes converges to the same report as a
 * clean run. Shards that exhaust their attempts become per-cell
 * degraded records ({"degraded": true, "error": {...}} instead of
 * "benchmarks") when degradeCells is set, or throw FatalError when
 * it is not.
 */

#ifndef PREDILP_DRIVER_SWEEP_HH
#define PREDILP_DRIVER_SWEEP_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "driver/eval_request.hh"
#include "driver/evaluator.hh"
#include "support/json.hh"

namespace predilp
{

/** One ordered sweep axis: name plus the values to sweep. */
struct SweepAxis
{
    std::string name;
    std::vector<JsonValue> values;
};

/** One expanded grid cell. */
struct SweepCell
{
    /** Row-major position; the first listed axis varies slowest. */
    std::size_t index = 0;
    /** The fully resolved request (base + this cell's axis values). */
    EvalRequest request;
    /** This cell's (axis name, value) coordinates, in axis order. */
    std::vector<std::pair<std::string, JsonValue>> axisValues;
};

/** A declarative sweep grid; see file comment. */
struct SweepSpec
{
    /**
     * The request template: workloads, models, ablation, scale, and
     * the SimConfig every axis modifies (spec key "base").
     */
    EvalRequest base;

    /**
     * Axes in declaration order (order is semantic: the first listed
     * axis varies slowest in the expanded grid).
     */
    std::vector<SweepAxis> axes;

    /**
     * Parse a grid spec. Top-level keys: "workloads", "models",
     * "ablation", "scale", "base" (a SimConfig object), "axes" (an
     * object mapping axis name -> non-empty value array). Unknown
     * top-level keys and unknown axis names throw FatalError.
     */
    static SweepSpec fromJson(const JsonValue &json);

    /** Known axis names (for diagnostics and validation). */
    static const std::vector<std::string> &knownAxes();

    /** Cross product of all axes, row-major; no axes = one cell. */
    std::vector<SweepCell> expandGrid() const;
};

/** How the forked sweep path supervises and heals its workers. */
struct SweepHealPolicy
{
    /**
     * Total tries per shard (first run + retries). 1 disables
     * retry: the first failure is final.
     */
    int maxAttempts = 3;
    /**
     * Kill a worker that runs longer than this many seconds and
     * retry its shard. <= 0 reads PREDILP_SWEEP_WATCHDOG_SEC (and
     * disables the watchdog when that is unset too).
     */
    double watchdogSec = 0;
    /**
     * When a shard exhausts maxAttempts: true renders its cells as
     * degraded records and finishes the sweep; false throws
     * FatalError with the last failure's attribution.
     */
    bool degradeCells = true;
    /** First retry delay; doubles per subsequent attempt. */
    double backoffSec = 0.1;
};

/** What one sweep run produced. */
struct SweepOutcome
{
    std::size_t cells = 0;
    int workers = 1;
    /** Pool threads over all workers: what phase seconds sum over. */
    int threads = 1;
    /** Worker re-forks performed by the healing supervisor. */
    int workerRetries = 0;
    /** Cells rendered as degraded records (shards that never
     * produced a valid result file within their attempt budget). */
    std::size_t degradedCells = 0;
    /** SuiteEvaluator::stats() merged additively across all workers
     * (or the one sequential evaluator's). */
    StatsSnapshot timing;
    /**
     * The dumped "cells" array — the determinism surface: equal for
     * sequential and any worker count on the same grid and tree.
     */
    std::string cellsJson;
    /** Path of the consolidated report written ("" = not written). */
    std::string path;
};

/**
 * Execute @p spec with @p workers processes (<= 1 = sequential,
 * in-process) and write the consolidated report to @p outPath
 * ("" skips the file). Each shard is priced by one evaluateBatch
 * call (one streaming pass per trace for all its configs). Worker
 * failures are retried per @p heal; a duplicate, missing, or
 * out-of-range cell in a worker's result file counts as that
 * worker's failure and is attributed to it (pid, exit status, shard
 * file). Arms PREDILP_FAULTS (once per process) before forking, so
 * armed fault state is shared with every worker.
 */
SweepOutcome runSweep(const SweepSpec &spec, int workers,
                      const std::string &outPath,
                      const SweepHealPolicy &heal = {});

} // namespace predilp

#endif // PREDILP_DRIVER_SWEEP_HH
