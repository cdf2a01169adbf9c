/**
 * @file
 * One-process reproduction of every figure and table in §5 of the
 * paper, priced as one SuiteEvaluator::evaluateBatch() call so work
 * is never repeated:
 *
 *  - the 1-issue Superblock baseline is compiled/traced once and
 *    priced for all four figures;
 *  - Figure 11 shares Figure 8's 8-issue/1-branch trace groups and
 *    prices them under real caches in the same walk (caches never
 *    change the instruction stream);
 *  - Tables 2 and 3 are read straight out of Figure 8's results
 *    (no new work at all).
 *
 * The `-- cache:` line printed here shows the trace-once/replay-many
 * savings: 150 compiles where pricing each figure on its own would
 * compile 240 times.
 */

#include <iostream>

#include "driver/bench_io.hh"

int
main()
try {
    using namespace predilp;
    WallTimer wall;
    SuiteEvaluator evaluator;

    EvalRequest fig08;
    fig08.sim = SimConfig::paperMachine();

    EvalRequest fig09 = fig08;
    fig09.sim.machine = issue8Branch2();

    EvalRequest fig10 = fig08;
    fig10.sim.machine = issue4Branch1();

    EvalRequest fig11 = fig08;
    fig11.sim.perfectCaches = false;

    const std::vector<EvalResponse> responses =
        evaluator.evaluateBatch({fig08, fig09, fig10, fig11});
    const auto &r08 = responses[0].results;
    const auto &r09 = responses[1].results;
    const auto &r10 = responses[2].results;
    const auto &r11 = responses[3].results;

    printSpeedupFigure(
        std::cout,
        "Figure 8: speedup, 8-issue / 1-branch, perfect caches", r08);
    printSpeedupFigure(
        std::cout,
        "Figure 9: speedup, 8-issue / 2-branch, perfect caches", r09);
    printSpeedupFigure(
        std::cout,
        "Figure 10: speedup, 4-issue / 1-branch, perfect caches",
        r10);
    printSpeedupFigure(
        std::cout,
        "Figure 11: speedup, 8-issue / 1-branch, 64K real caches",
        r11);
    printInstructionTable(std::cout, r08);
    printBranchTable(std::cout, r08);

    std::vector<BenchmarkResult> all;
    auto addPrefixed = [&](const char *prefix,
                           const std::vector<BenchmarkResult> &rs) {
        for (BenchmarkResult r : rs) {
            r.name = std::string(prefix) + "/" + r.name;
            all.push_back(std::move(r));
        }
    };
    addPrefixed("fig08", r08);
    addPrefixed("fig09", r09);
    addPrefixed("fig10", r10);
    addPrefixed("fig11", r11);

    const StatsSnapshot stats = evaluator.stats();
    printPhaseTiming(std::cout, stats, wall.seconds(),
                     evaluator.threadCount());
    writeBenchJson("figures_all", all, stats, wall.seconds(),
                   evaluator.threadCount(),
                   evaluator.compileStats());
    return 0;
} catch (const std::exception &e) {
    // A bad environment value (say, a PREDILP_FAULTS spec naming no
    // fault point) is a user error: name it and exit 1.
    std::cerr << "bench_figures_all: " << e.what() << "\n";
    return 1;
}
