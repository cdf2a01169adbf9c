/**
 * @file
 * Metamorphic timing properties. Each check fixes one captured trace
 * and varies one SimConfig axis, then asserts the direction the
 * cycle count may move:
 *
 *  - cycles never rise as the issue width grows 1 -> 2 -> 4 -> 8;
 *  - cycles never rise going from 1 to 2 branch slots;
 *  - cycles never fall as the mispredict penalty grows 0 -> 2 -> 4;
 *  - cycles never fall as the miss penalty grows 6 -> 12 -> 24;
 *  - perfect caches never cost more cycles than real caches;
 *  - the branch, conditional-branch and mispredict counts do not
 *    depend on the issue width or the caches.
 *
 * Inputs are the 15 suite workloads (default input scale) under the
 * three models, plus 50 fuzz-generated programs under the three
 * models, each compiled for the paper machine and priced with one
 * replayBatch() call per trace on a 4-thread pool.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "driver/pipeline.hh"
#include "fuzz/generator.hh"
#include "sim/timing.hh"
#include "support/thread_pool.hh"
#include "trace/trace.hh"
#include "workloads/workloads.hh"

namespace predilp
{
namespace
{

/** One priced configuration of the property grid. */
struct NamedConfig
{
    std::string name;
    SimConfig sim;
};

/**
 * The grid every trace is priced under. Each entry changes one axis
 * of the paper machine (8-issue, 1 branch slot, 2-cycle mispredict
 * penalty, perfect caches), or of its real-cache variant.
 */
std::vector<NamedConfig>
propertyGrid()
{
    std::vector<NamedConfig> grid;
    auto add = [&grid](std::string name, auto change) {
        SimConfig sim = SimConfig::paperMachine();
        change(sim);
        grid.push_back({std::move(name), sim});
    };
    for (int width : {1, 2, 4, 8}) {
        add("issue " + std::to_string(width),
            [width](SimConfig &s) { s.machine.issueWidth = width; });
    }
    add("2 branch slots",
        [](SimConfig &s) { s.machine.branchesPerCycle = 2; });
    for (int penalty : {0, 4}) {
        add("mispredict " + std::to_string(penalty),
            [penalty](SimConfig &s) {
                s.machine.mispredictPenalty = penalty;
            });
    }
    for (int penalty : {6, 12, 24}) {
        add("real caches, miss " + std::to_string(penalty),
            [penalty](SimConfig &s) {
                s.perfectCaches = false;
                s.cacheMissPenalty = penalty;
            });
    }
    return grid;
}

/** Index of @p name in @p grid; the grid is fixed, so this is total. */
std::size_t
at(const std::vector<NamedConfig> &grid, const std::string &name)
{
    for (std::size_t i = 0; i < grid.size(); ++i) {
        if (grid[i].name == name)
            return i;
    }
    ADD_FAILURE() << "no config named " << name;
    return 0;
}

/** One program to price: suite workload or fuzz seed, one model. */
struct Case
{
    std::string label;
    const std::string *source = nullptr;
    std::string input;
    Model model = Model::FullPred;
};

/**
 * Check every property on one trace's results; append a line per
 * violation naming the case and both configurations.
 */
void
checkProperties(const Case &c, const std::vector<NamedConfig> &grid,
                const std::vector<SimResult> &results,
                std::vector<std::string> &violations,
                std::size_t &checks)
{
    auto fail = [&](const std::string &what, std::size_t a,
                    std::size_t b) {
        violations.push_back(
            c.label + "/" + modelName(c.model) + ": " + what + " [" +
            grid[a].name + ": " + std::to_string(results[a].cycles) +
            " cycles, " + grid[a].sim.toJson().dump() + "] vs [" +
            grid[b].name + ": " + std::to_string(results[b].cycles) +
            " cycles, " + grid[b].sim.toJson().dump() + "]");
    };
    // cycles(lo) <= cycles(hi), where lo is the config that must not
    // cost more.
    auto noMoreCycles = [&](const std::string &lo,
                            const std::string &hi, const char *what) {
        const std::size_t a = at(grid, lo);
        const std::size_t b = at(grid, hi);
        checks += 1;
        if (results[a].cycles > results[b].cycles)
            fail(what, a, b);
    };
    auto sameBranchCounts = [&](const std::string &x,
                                const std::string &y) {
        const std::size_t a = at(grid, x);
        const std::size_t b = at(grid, y);
        checks += 1;
        if (results[a].branches != results[b].branches ||
            results[a].condBranches != results[b].condBranches ||
            results[a].mispredicts != results[b].mispredicts) {
            fail("branch counts differ", a, b);
        }
    };

    // The paper machine: 8-issue, mispredict penalty 2.
    const std::string paper = "issue 8";
    const char *widthRule = "wider issue took more cycles";
    noMoreCycles("issue 2", "issue 1", widthRule);
    noMoreCycles("issue 4", "issue 2", widthRule);
    noMoreCycles(paper, "issue 4", widthRule);
    noMoreCycles("2 branch slots", paper,
                 "a second branch slot took more cycles");
    const char *mispredictRule =
        "a larger mispredict penalty took fewer cycles";
    noMoreCycles("mispredict 0", paper, mispredictRule);
    noMoreCycles(paper, "mispredict 4", mispredictRule);
    const char *missRule = "a larger miss penalty took fewer cycles";
    noMoreCycles("real caches, miss 6", "real caches, miss 12",
                 missRule);
    noMoreCycles("real caches, miss 12", "real caches, miss 24",
                 missRule);
    for (const char *real : {"real caches, miss 6",
                             "real caches, miss 12",
                             "real caches, miss 24"}) {
        noMoreCycles(paper, real,
                     "perfect caches took more cycles than real ones");
        sameBranchCounts(paper, real);
    }
    for (const char *narrow : {"issue 1", "issue 2", "issue 4"})
        sameBranchCounts(paper, narrow);
}

TEST(TimingProperties, HoldOnSuiteAndFuzzTraces)
{
    const std::vector<NamedConfig> grid = propertyGrid();
    std::vector<SimConfig> configs;
    for (const NamedConfig &entry : grid)
        configs.push_back(entry.sim);

    std::vector<GeneratedProgram> fuzz;
    for (std::uint64_t seed = 1; seed <= 50; ++seed)
        fuzz.push_back(generateProgram(seed));

    std::vector<Case> cases;
    const Model models[] = {Model::Superblock, Model::CondMove,
                            Model::FullPred};
    for (const Workload &workload : allWorkloads()) {
        for (Model model : models) {
            cases.push_back(
                {workload.name, &workload.source, workload.input(),
                 model});
        }
    }
    for (const GeneratedProgram &program : fuzz) {
        for (Model model : models) {
            cases.push_back({"fuzz seed " + std::to_string(program.seed),
                             &program.source, program.input, model});
        }
    }

    // Each pool thread compiles, captures and prices its own cases
    // and drops the trace, so at most one trace per thread is live.
    std::mutex mutex;
    std::vector<std::string> violations;
    std::size_t checks = 0;
    ThreadPool pool(4);
    pool.parallelFor(cases.size(), [&](std::size_t i) {
        const Case &c = cases[i];
        CompileOptions opts;
        opts.model = c.model;
        opts.machine = issue8Branch1();
        opts.profileInput = c.input;
        auto prog = compileForModel(*c.source, opts);
        auto trace = capture(*prog, c.input);
        std::vector<SimResult> results = replayBatch(*trace, configs);
        std::vector<std::string> found;
        std::size_t done = 0;
        checkProperties(c, grid, results, found, done);
        std::lock_guard<std::mutex> lock(mutex);
        checks += done;
        violations.insert(violations.end(), found.begin(), found.end());
    });

    for (const std::string &violation : violations)
        ADD_FAILURE() << violation;
    EXPECT_TRUE(violations.empty())
        << violations.size() << " violations in " << checks
        << " checks";
}

} // namespace
} // namespace predilp
