/**
 * @file
 * Suite evaluation and table rendering for the paper's figures and
 * tables: run every workload under every processor model, compute
 * speedups against the 1-issue baseline exactly as §4.1 defines
 * them, and print rows in the paper's format.
 */

#ifndef PREDILP_DRIVER_REPORT_HH
#define PREDILP_DRIVER_REPORT_HH

#include <map>
#include <ostream>
#include <vector>

#include "driver/certified.hh"
#include "driver/pipeline.hh"
#include "workloads/workloads.hh"

namespace predilp
{

/**
 * Structured record of one failed evaluation cell, produced when the
 * evaluator runs with fault isolation on: the failing cell degrades
 * to this record (with a self-contained reproducer file when a
 * reproducer directory is configured) while every other cell
 * completes normally.
 */
struct CellError
{
    std::string workload;
    std::string model;    ///< modelName() of the failing cell.
    bool baseline = false; ///< the 1-issue denominator cell.
    /** Taxonomy label from classifyException(). */
    std::string kind;
    std::string message;  ///< the exception's what().
    /** Reproducer file path ("" when none was written). */
    std::string reproducerPath;
};

/** All measurements for one benchmark. */
struct BenchmarkResult
{
    std::string name;
    /** Cycle count of the 1-issue Superblock baseline processor. */
    std::uint64_t baseCycles = 0;
    std::map<Model, SimResult> models;
    /**
     * Per-model cell provenance: the digests backing this cell's
     * certified record and predilp_diff's evidence. Filled by
     * SuiteEvaluator alongside `models`, failed cells included: an
     * isolated failure keeps its provenance beside a zeroed
     * SimResult and its CellError.
     */
    std::map<Model, CellProvenance> provenance;
    /** Failed cells (empty unless fault isolation caught any). */
    std::vector<CellError> errors;

    /** Speedup of @p model per the paper: base / model cycles. */
    double
    speedup(Model model) const
    {
        auto it = models.find(model);
        if (it == models.end() || it->second.cycles == 0)
            return 0.0;
        return static_cast<double>(baseCycles) /
               static_cast<double>(it->second.cycles);
    }
};

/**
 * Print a figure-style speedup table (Figures 8-11): one row per
 * benchmark, columns Superblock / Cond. Move / Full Pred., plus the
 * arithmetic mean row the paper reports.
 */
void printSpeedupFigure(std::ostream &os, const std::string &title,
                        const std::vector<BenchmarkResult> &results);

/** Print Table 2: dynamic instruction counts with ratios. */
void printInstructionTable(std::ostream &os,
                           const std::vector<BenchmarkResult> &results);

/** Print Table 3: branches, mispredictions, misprediction rates. */
void printBranchTable(std::ostream &os,
                      const std::vector<BenchmarkResult> &results);

} // namespace predilp

#endif // PREDILP_DRIVER_REPORT_HH
