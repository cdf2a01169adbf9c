/**
 * @file
 * Quickstart: the paper's Figure 1, end to end.
 *
 * Compiles the source fragment
 *
 *     if (a == 0 || b == 0) { if (c != 0) k++; else k--; }
 *     else j++;
 *     i++;
 *
 * through the PredILP pipeline, shows the branchy code, if-converts
 * it into a hyperblock of predicated instructions (full predication),
 * lowers it to conditional-move form (partial predication), and runs
 * all three on the emulator to show they agree.
 */

#include <iostream>

#include "driver/pipeline.hh"
#include "frontend/irgen.hh"
#include "ir/printer.hh"
#include "opt/passes.hh"

using namespace predilp;

namespace
{

// The Figure 1 kernel, iterated over a small input so the profile
// has something to say. getc drives the a/b/c values.
const char *const source = R"ILC(
int main() {
    int i = 300, j = 100, k = 200;
    int c0 = getc();
    while (c0 >= 0) {
        int a = c0 & 1;
        int b = c0 & 2;
        int c = c0 & 4;
        if (a == 0 || b == 0) {
            if (c != 0) { k = k + 1; }
            else { k = k - 1; }
        } else {
            j = j + 1;
        }
        i = i + 1;
        c0 = getc();
    }
    return i * 1000000 + j * 1000 + k;
}
)ILC";

std::string
makeInput()
{
    std::string input;
    for (int i = 0; i < 64; ++i)
        input.push_back(static_cast<char>('0' + (i * 7) % 8));
    return input;
}

void
show(const std::string &title, Program &prog)
{
    std::cout << "=== " << title << " ===\n";
    PrintOptions opts;
    opts.showIssueCycles = true;
    printFunction(std::cout, *prog.function("main"), opts);
}

} // namespace

int
main()
{
    std::string input = makeInput();

    // 1. The branchy code the frontend produces (Figure 1(b)).
    {
        auto prog = compileSource(source);
        optimizeProgram(*prog);
        std::cout << "=== branchy code (Figure 1(b) analogue) ===\n";
        printFunction(std::cout, *prog->function("main"));
    }

    // 2..4. The three processor models of the paper.
    SimConfig sim;
    sim.machine = issue8Branch1();

    std::int64_t reference = 0;
    bool agree = true;
    for (Model model :
         {Model::Superblock, Model::FullPred, Model::CondMove}) {
        CompileOptions opts;
        opts.model = model;
        opts.machine = sim.machine;
        opts.profileInput = input;
        opts.ablation.unrolling = false; // keep the listings readable.
        auto prog = compileForModel(source, opts);
        show(modelName(model), *prog);

        SimResult result = simulate(*prog, input, sim);
        std::cout << modelName(model) << ": cycles=" << result.cycles
                  << " instrs=" << result.dynInstrs
                  << " branches=" << result.branches
                  << " nullified=" << result.nullified
                  << " exit=" << result.exitValue << "\n\n";
        if (model == Model::Superblock) {
            reference = result.exitValue;
        } else if (result.exitValue != reference) {
            std::cout << "!! models disagree\n";
            agree = false;
        }
    }
    if (!agree)
        return 1;
    std::cout << "All three models computed the same result.\n";
    return 0;
}
