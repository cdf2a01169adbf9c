/**
 * @file
 * Ablation study over the design choices DESIGN.md calls out: each
 * row disables one ingredient of the Full Predication or Cond. Move
 * pipeline and reports the mean speedup across the suite at 8-issue,
 * 1-branch, perfect caches.
 *
 *  - no-promotion:     predicate promotion off (paper Fig. 2)
 *  - no-combining:     exit branch combining off (grep discussion)
 *  - no-height-red:    OR-chain control height reduction off
 *  - no-or-tree:       partial predication OR-tree rebalancing off
 *  - with-select:      partial predication uses select fusion (§2.2)
 *
 * All rows share one SuiteEvaluator: the 1-issue Superblock baseline
 * and any row whose flag cannot affect a model's code (e.g.
 * no-combining for Cond. Move) are compiled and traced exactly once.
 */

#include <iostream>

#include "driver/bench_io.hh"
#include "support/stats.hh"
#include "support/string_utils.hh"

using namespace predilp;

namespace
{

std::vector<BenchmarkResult> allResults;

double
meanSpeedup(SuiteEvaluator &evaluator, const std::string &rowName,
            const EvalRequest &config, Model model)
{
    // One request per workload, priced as one batch: the row's
    // traces are each walked once for every pending config.
    std::vector<EvalRequest> requests;
    for (const Workload &w : allWorkloads()) {
        EvalRequest request = config;
        request.workloads = {w.name};
        request.models = {model};
        requests.push_back(std::move(request));
    }
    std::vector<double> speedups;
    for (EvalResponse &response : evaluator.evaluateBatch(requests)) {
        BenchmarkResult r = std::move(response.results.at(0));
        speedups.push_back(r.speedup(model));
        r.name = rowName + "/" + r.name;
        allResults.push_back(std::move(r));
    }
    return arithmeticMean(speedups);
}

} // namespace

int
main()
{
    WallTimer wall;
    EvalRequest base;
    base.sim.machine = issue8Branch1();
    SuiteEvaluator evaluator;

    TextTable table;
    table.setHeader({"Configuration", "Model", "Mean speedup"});

    auto row = [&](const std::string &name, const EvalRequest &c,
                   Model m) {
        table.addRow(
            {name, modelName(m),
             formatFixed(meanSpeedup(evaluator, name, c, m), 3)});
        // Rows share priced results (which survive this), never raw
        // traces, so dropping traces per row bounds peak memory
        // without changing any counter.
        evaluator.releaseTraces();
        std::cout << "." << std::flush;
    };

    row("baseline", base, Model::FullPred);
    row("baseline", base, Model::CondMove);

    {
        EvalRequest c = base;
        c.ablation.promotion = false;
        row("no-promotion", c, Model::FullPred);
        row("no-promotion", c, Model::CondMove);
    }
    {
        EvalRequest c = base;
        c.ablation.branchCombining = false;
        row("no-combining", c, Model::FullPred);
    }
    {
        EvalRequest c = base;
        c.ablation.heightReduction = false;
        row("no-height-red", c, Model::FullPred);
        row("no-height-red", c, Model::CondMove);
    }
    {
        EvalRequest c = base;
        c.ablation.orTree = false;
        row("no-or-tree", c, Model::CondMove);
    }
    {
        EvalRequest c = base;
        c.ablation.useSelect = true;
        row("with-select", c, Model::CondMove);
    }

    std::cout << "\nAblations (8-issue, 1-branch, perfect caches)\n";
    table.print(std::cout);
    const StatsSnapshot stats = evaluator.stats();
    printPhaseTiming(std::cout, stats, wall.seconds(),
                     evaluator.threadCount());
    writeBenchJson("ablations", allResults, stats, wall.seconds(),
                   evaluator.threadCount(),
                   evaluator.compileStats());
    return 0;
}
