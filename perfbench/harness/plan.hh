/**
 * @file
 * What one pass of each benchmark workload asks PredILP to do, drawn
 * from the workload seed, and how its priced cells are checked.
 *
 *  - figures_cold / figures_warm: bench_figures_all's request set
 *    (Figures 8, 11, 9, 10; Tables 2-3 are read from Figure 8). The
 *    seed permutes the workload names inside each request; results
 *    are assembled by name, so the figures do not depend on it.
 *  - sweep_cache_grid: one request per grid point, all 15 programs x
 *    3 models on the 8-issue/1-branch machine with real caches. The
 *    seed draws the points from the product of the cache, BTB,
 *    predictor and miss-penalty axes (drawSweepGrid). No axis touches
 *    the machine, so every point shares the same 60 traces.
 *
 * Every priced cell is compared against an expected program output
 * recorded once from the frontend-only program on the interpreter,
 * so the check does not depend on the optimizer or on the evaluator's
 * own divergence check (which store hits skip).
 */

#ifndef PERFBENCH_PLAN_HH
#define PERFBENCH_PLAN_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "driver/eval_request.hh"

namespace perfbench
{

/** The benchmark's workloads, named as in BENCHMARK.json. */
enum class WorkloadKind
{
    FiguresCold,
    FiguresWarm,
    SweepCacheGrid,
};

/** Parse a workload name; throws predilp::FatalError when unknown. */
WorkloadKind workloadFromName(const std::string &name);

/** One request of the figure set. */
struct FigureRequest
{
    std::string figure; ///< "fig08", "fig09", "fig10" or "fig11".
    predilp::EvalRequest request;
    /** Drop captured traces afterwards, as bench_figures_all does. */
    bool releaseTracesAfter = false;
};

/** bench_figures_all's requests in its evaluation order. */
std::vector<FigureRequest> figureRequests(std::uint64_t seed);

/** Grid points priced by one sweep pass. */
inline constexpr std::size_t sweepPoints = 12;

/**
 * sweepPoints distinct grid points drawn with @p seed, one per
 * combination of the axes that set replay cost.
 */
std::vector<predilp::SimConfig> drawSweepGrid(std::uint64_t seed);

/** One whole-suite request per drawn grid point. */
std::vector<predilp::EvalRequest> sweepRequests(std::uint64_t seed);

/** A program's architectural result at default scale. */
struct ExpectedOutput
{
    std::int64_t exitValue = 0;
    std::string output;
};

/** Expected results keyed by workload name. */
using ExpectedOutputs = std::map<std::string, ExpectedOutput>;

/**
 * Run every workload at its default scale through the frontend only
 * (no opt or region passes) on the interpreter backend.
 */
ExpectedOutputs recordExpectedOutputs();

/** The expected-output file format, one workload per line. */
std::string expectedOutputsToJson(const ExpectedOutputs &expected);

/** Read an expected-output file; throws on a malformed one. */
ExpectedOutputs loadExpectedOutputs(const std::string &path);

/** Priced cells of one or more passes and their figure speedups. */
struct CellTally
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** The first few failures, for the report. */
    std::vector<std::string> failures;
    /** Speedup per "<label>/<workload>", ordered so the mean is
     * summed in the same order on every run. */
    std::map<std::string, double> fullPred;
    std::map<std::string, double> condMove;
    /** False once a cell's speedup differed between two passes. */
    bool speedupsRepeat = true;
};

/**
 * Count every model cell of @p results as attempted, and as failed
 * when it ended as a CellError (its own or its baseline's) or its
 * program output differs from @p expected. Speedups accumulate
 * across passes, which must agree on every cell.
 */
void checkResults(const std::string &label,
                  const std::vector<predilp::BenchmarkResult> &results,
                  const ExpectedOutputs &expected, CellTally &tally);

/** Geometric mean of the values of @p speedups (0 when empty). */
double geomean(const std::map<std::string, double> &speedups);

} // namespace perfbench

#endif // PERFBENCH_PLAN_HH
