/**
 * @file
 * The paper's grep case study (§3.3, Figure 6): grep's hot loop is
 * dominated by infrequently-taken exit branches. Full predication
 * combines them through OR-type predicate defines (issuable
 * simultaneously — wired OR) behind a single exit; partial
 * predication needs a logical-OR chain that the or-tree optimization
 * rebalances to log2(n) depth. This example measures grep with and
 * without those two optimizations. Its two Cond. Move rows are
 * equal: grep's lowered code holds no chain the or-tree rebalances
 * (in this suite only wc's does).
 */

#include <cmath>
#include <iostream>

#include "driver/pipeline.hh"
#include "support/string_utils.hh"
#include "workloads/workloads.hh"

using namespace predilp;

namespace
{

std::uint64_t
run(const Workload &grep, const std::string &input, Model model,
    bool combining, bool orTree)
{
    CompileOptions opts;
    opts.model = model;
    opts.machine = issue8Branch1();
    opts.profileInput = input;
    opts.ablation.branchCombining = combining;
    opts.ablation.orTree = orTree;
    SimConfig sim;
    sim.machine = opts.machine;
    return runModel(grep.source, input, opts, sim).cycles;
}

} // namespace

int
main()
{
    const Workload *grep = findWorkload("grep");
    std::string input = grep->makeInput(2);

    std::uint64_t sb =
        run(*grep, input, Model::Superblock, true, true);
    std::uint64_t fpPlain =
        run(*grep, input, Model::FullPred, false, true);
    std::uint64_t fpCombined =
        run(*grep, input, Model::FullPred, true, true);
    std::uint64_t cmChain =
        run(*grep, input, Model::CondMove, true, false);
    std::uint64_t cmTree =
        run(*grep, input, Model::CondMove, true, true);

    std::cout << "grep case study (8-issue, 1-branch)\n\n";
    std::cout << "Superblock baseline:                   " << sb
              << " cycles\n";
    std::cout << "Full predication, no branch combining: "
              << fpPlain << " cycles\n";
    std::cout << "Full predication, combining on:        "
              << fpCombined << " cycles\n";
    std::cout << "Cond. move, serial OR chain:           "
              << cmChain << " cycles\n";
    std::cout << "Cond. move, or-tree rebalanced:        "
              << cmTree << " cycles\n\n";

    // Percent speed-up of the run taking @p other cycles over the
    // one taking @p base; negative when it is slower.
    auto pct = [](std::uint64_t base, std::uint64_t other) {
        return (static_cast<double>(base) /
                    static_cast<double>(other) -
                1.0) * 100.0;
    };
    double fpGain = pct(sb, fpCombined);
    std::cout << "Full predication vs superblock: "
              << formatFixed(std::fabs(fpGain), 1) << "% "
              << (fpGain < 0.0 ? "slower" : "faster") << "\n";
    std::cout << "or-tree's contribution to cond. move: "
              << formatFixed(pct(cmChain, cmTree), 1) << "%\n";
    std::cout << "\nPaper (§3.3): full predication cut the loop from "
                 "14 to 6 cycles; partial predication with the "
                 "or-tree reached 10.\n";
    return 0;
}
