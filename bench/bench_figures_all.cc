/**
 * @file
 * One-process reproduction of every figure and table in §5 of the
 * paper, sharing a single SuiteEvaluator so work is never repeated:
 *
 *  - the 1-issue Superblock baseline is compiled/traced once and
 *    priced for all four figures;
 *  - Figure 11 replays Figure 8's 8-issue/1-branch traces under the
 *    real-cache pricing (caches never change the instruction stream);
 *  - Tables 2 and 3 are read straight out of Figure 8's results
 *    (result-cache hits, no new work at all).
 *
 * The `-- cache:` line printed here shows the trace-once/replay-many
 * savings: 150 compiles where pricing each figure on its own would
 * compile 240 times.
 */

#include <iostream>

#include "driver/bench_io.hh"

int
main()
{
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

    // Figure 11 replays Figure 8's traces (only the pricing
    // differs), so evaluate it right after Figure 8 and drop the
    // captured traces before each remaining machine sweep: peak
    // trace residency is one machine's worth instead of three, and
    // every counter (compiles, captures, cache hits) is unchanged —
    // Figures 9/10 share only priced results, which survive
    // releaseTraces().
    auto r08 = evaluator.evaluate(fig08).results;
    auto r11 = evaluator.evaluate(fig11).results;
    evaluator.releaseTraces();
    auto r09 = evaluator.evaluate(fig09).results;
    evaluator.releaseTraces();
    auto r10 = evaluator.evaluate(fig10).results;

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

    BenchTiming timing = evaluator.timing();
    printPhaseTiming(std::cout, timing, wall.seconds(),
                     evaluator.threadCount());
    writeBenchJson("figures_all", all, timing, wall.seconds(),
                   evaluator.threadCount(),
                   evaluator.compileStats());
    return 0;
}
