#include "plan.hh"

#include <cmath>
#include <fstream>
#include <iterator>
#include <sstream>

#include "emu/emulator.hh"
#include "frontend/irgen.hh"
#include "support/diag.hh"
#include "support/json.hh"
#include "support/rng.hh"
#include "workloads/workloads.hh"

namespace perfbench
{

using namespace predilp;

WorkloadKind
workloadFromName(const std::string &name)
{
    if (name == "figures_cold")
        return WorkloadKind::FiguresCold;
    if (name == "figures_warm")
        return WorkloadKind::FiguresWarm;
    if (name == "sweep_cache_grid")
        return WorkloadKind::SweepCacheGrid;
    throw FatalError("unknown workload '" + name +
                     "' (expected figures_cold, figures_warm or "
                     "sweep_cache_grid)");
}

namespace
{

/** The suite's workload names in a seeded order (Fisher-Yates). */
std::vector<std::string>
shuffledWorkloadNames(Rng &rng)
{
    std::vector<std::string> names;
    for (const Workload &workload : allWorkloads())
        names.push_back(workload.name);
    for (std::size_t i = names.size(); i > 1; --i)
        std::swap(names[i - 1], names[rng.nextBelow(i)]);
    return names;
}

} // namespace

std::vector<FigureRequest>
figureRequests(std::uint64_t seed)
{
    EvalRequest fig08;
    fig08.sim = SimConfig::paperMachine();
    EvalRequest fig09 = fig08;
    fig09.sim.machine = issue8Branch2();
    EvalRequest fig10 = fig08;
    fig10.sim.machine = issue4Branch1();
    EvalRequest fig11 = fig08;
    fig11.sim.perfectCaches = false;

    // bench_figures_all's order: Figure 11 replays Figure 8's traces,
    // and traces are released before each remaining machine.
    std::vector<FigureRequest> set = {
        {"fig08", fig08, false},
        {"fig11", fig11, true},
        {"fig09", fig09, true},
        {"fig10", fig10, false},
    };
    Rng rng(seed);
    for (FigureRequest &figure : set)
        figure.request.workloads = shuffledWorkloadNames(rng);
    return set;
}

std::vector<SimConfig>
drawSweepGrid(std::uint64_t seed)
{
    // Axes that change pricing only. The machine stays the paper's
    // 8-issue/1-branch one, so all points share one trace per cell.
    // The draw is stratified: every pass prices each combination of
    // the axes that set replay cost (cache associativity, line size,
    // BTB associativity) once, and the seed draws the remaining axes
    // per point, so a pass costs about the same for every seed.
    const int ways[] = {1, 2, 4};
    const std::int64_t lines[] = {32, 64};
    const int btbWays[] = {1, 2};
    const std::int64_t sizes[] = {16 * 1024, 32 * 1024, 64 * 1024,
                                  128 * 1024};
    const int missPenalties[] = {12, 24};
    const std::size_t btbEntries[] = {256, 1024, 4096};
    const BranchPredictor predictors[] = {BranchPredictor::TwoBit,
                                          BranchPredictor::OneBit};

    Rng rng(seed ^ 0x5eed5eed5eed5eedull);
    auto pick = [&rng](const auto &axis) {
        return axis[rng.nextBelow(std::size(axis))];
    };
    std::vector<SimConfig> grid;
    for (int way : ways) {
        for (std::int64_t line : lines) {
            for (int btbWay : btbWays) {
                SimConfig sim = SimConfig::paperMachine();
                sim.perfectCaches = false;
                sim.cacheAssociativity = way;
                sim.cacheLineBytes = line;
                sim.btbAssociativity = btbWay;
                sim.cacheSizeBytes = pick(sizes);
                sim.cacheMissPenalty = pick(missPenalties);
                sim.btbEntries = pick(btbEntries);
                sim.predictor = pick(predictors);
                grid.push_back(sim);
            }
        }
    }
    panicIf(grid.size() != sweepPoints, "sweep strata changed size");
    return grid;
}

std::vector<EvalRequest>
sweepRequests(std::uint64_t seed)
{
    std::vector<EvalRequest> requests;
    for (const SimConfig &sim : drawSweepGrid(seed)) {
        EvalRequest request;
        request.sim = sim;
        requests.push_back(request);
    }
    return requests;
}

ExpectedOutputs
recordExpectedOutputs()
{
    ExpectedOutputs expected;
    for (const Workload &workload : allWorkloads()) {
        std::unique_ptr<Program> prog = compileSource(workload.source);
        EmuOptions opts;
        opts.backend = EmuBackend::Interp;
        RunResult run = Emulator(*prog).run(workload.input(), opts);
        for (unsigned char c : run.output) {
            if (c >= 0x80)
                throw FatalError("workload " + workload.name +
                                 " printed a non-ASCII byte; the "
                                 "expected-output file holds ASCII");
        }
        expected[workload.name] = {run.exitValue, run.output};
    }
    return expected;
}

std::string
expectedOutputsToJson(const ExpectedOutputs &expected)
{
    std::ostringstream os;
    os << "{\n  \"recorded_with\": \"frontend only (compileSource), "
          "interpreter backend, default input scale\",\n"
       << "  \"workloads\": {\n";
    bool first = true;
    for (const auto &[name, result] : expected) {
        if (!first)
            os << ",\n";
        first = false;
        os << "    \"" << jsonEscape(name)
           << "\": {\"exit_value\": " << result.exitValue
           << ", \"output\": \"" << jsonEscape(result.output) << "\"}";
    }
    os << "\n  }\n}\n";
    return os.str();
}

ExpectedOutputs
loadExpectedOutputs(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw FatalError("cannot read expected outputs " + path);
    std::ostringstream text;
    text << in.rdbuf();
    JsonValue doc = JsonValue::parse(text.str());
    ExpectedOutputs expected;
    for (const auto &[name, entry] : doc.at("workloads").members()) {
        expected[name] = {entry.at("exit_value").asInt(),
                          entry.at("output").asString()};
    }
    for (const Workload &workload : allWorkloads()) {
        if (expected.find(workload.name) == expected.end())
            throw FatalError(path + " has no expected output for " +
                             workload.name);
    }
    return expected;
}

void
checkResults(const std::string &label,
             const std::vector<BenchmarkResult> &results,
             const ExpectedOutputs &expected, CellTally &tally)
{
    auto fail = [&tally](std::string why) {
        tally.failed += 1;
        if (tally.failures.size() < 8)
            tally.failures.push_back(std::move(why));
    };
    for (const BenchmarkResult &row : results) {
        auto want = expected.find(row.name);
        bool baselineFailed = false;
        for (const CellError &error : row.errors)
            baselineFailed = baselineFailed || error.baseline;
        for (Model model :
             {Model::Superblock, Model::CondMove, Model::FullPred}) {
            tally.attempted += 1;
            const std::string cell = label + "/" + row.name + "/" +
                                     modelKey(model);
            bool errored = baselineFailed;
            for (const CellError &error : row.errors) {
                if (!error.baseline && error.model == modelName(model))
                    errored = true;
            }
            auto priced = row.models.find(model);
            if (errored || priced == row.models.end() ||
                row.baseCycles == 0) {
                fail(cell + ": no priced result");
                continue;
            }
            if (want == expected.end() ||
                priced->second.exitValue != want->second.exitValue ||
                priced->second.output != want->second.output) {
                fail(cell + ": program output differs from expected");
                continue;
            }
            if (model == Model::Superblock)
                continue;
            auto &speedups = model == Model::FullPred ? tally.fullPred
                                                      : tally.condMove;
            auto [it, first] = speedups.emplace(label + "/" + row.name,
                                                row.speedup(model));
            if (!first && it->second != row.speedup(model))
                tally.speedupsRepeat = false;
        }
    }
}

double
geomean(const std::map<std::string, double> &speedups)
{
    if (speedups.empty())
        return 0.0;
    double logSum = 0.0;
    for (const auto &entry : speedups)
        logSum += std::log(entry.second);
    return std::exp(logSum / static_cast<double>(speedups.size()));
}

} // namespace perfbench
