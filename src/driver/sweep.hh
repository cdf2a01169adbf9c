/**
 * @file
 * Scenario-sweep grid driver. A declarative SweepSpec — a base
 * EvalRequest plus ordered value lists for the paper's hardware axes
 * (issue width, BTB entries/associativity/predictor, cache
 * size/line/associativity/penalty, perfect-vs-real caches) — expands
 * into the full cross product of SweepCells, each a complete,
 * serializable EvalRequest.
 *
 * runSweep() prices the whole grid in process with one
 * SuiteEvaluator::evaluateBatch call, so each captured trace is
 * streamed once for every config that replays it, and emits one
 * BENCH_sweep.json: the evaluator's stats(), the cells in grid order,
 * and a per-axis crossover summary (where full predication's mean
 * speedup overtakes the partial-predication Cond. Move model). With
 * PREDILP_STORE set, traces and certified results persist in the
 * flock-safe artifact store: a warm re-run of the same grid performs
 * zero compiles and zero captures, and concurrent sweeps may share
 * one store.
 *
 * Determinism: the cells array is a pure function of the grid and
 * the tree. A store-backed run, cold or warm, renders the same bytes
 * as a store-off run, and because the store publishes by temp file
 * plus rename, a sweep killed mid-publish reruns to the same bytes.
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

/** What one sweep run produced. */
struct SweepOutcome
{
    std::size_t cells = 0;
    /** Evaluator pool threads: what phase seconds sum over. */
    int threads = 1;
    /** SuiteEvaluator::stats() plus faultpoints::stats(): the
     * fault.<point>.hits/.fired counters of every armed point. */
    StatsSnapshot timing;
    /** The dumped "cells" array — the determinism surface. */
    std::string cellsJson;
    /** Path of the report written ("" = not written). */
    std::string path;
};

/**
 * Price every cell of @p spec with one in-process evaluateBatch call
 * and write the report to @p outPath ("" skips the file). The
 * evaluator arms PREDILP_FAULTS (once per process) when it is built.
 */
SweepOutcome runSweep(const SweepSpec &spec,
                      const std::string &outPath);

} // namespace predilp

#endif // PREDILP_DRIVER_SWEEP_HH
