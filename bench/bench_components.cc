/**
 * @file
 * google-benchmark microbenchmarks of the library's own components:
 * emulator throughput, compilation pipeline phases, the timing
 * simulator, and the predicate truth table. These measure the
 * reproduction's machinery, not the paper's system.
 */

#include <benchmark/benchmark.h>

#include "driver/pipeline.hh"
#include "emu/emulator.hh"
#include "frontend/irgen.hh"
#include "ir/verifier.hh"
#include "opt/passes.hh"
#include "sim/cache.hh"
#include "workloads/workloads.hh"

using namespace predilp;

namespace
{

const Workload &
wc()
{
    return *findWorkload("wc");
}

void
BM_PredTruthTable(benchmark::State &state)
{
    int i = 0;
    for (auto _ : state) {
        auto type = static_cast<PredType>(i % 6);
        benchmark::DoNotOptimize(
            applyPredType(type, i & 1, i & 2, i & 4));
        i += 1;
    }
}
BENCHMARK(BM_PredTruthTable);

void
BM_FrontendCompile(benchmark::State &state)
{
    for (auto _ : state) {
        auto prog = compileSource(wc().source);
        benchmark::DoNotOptimize(prog);
    }
}
BENCHMARK(BM_FrontendCompile);

void
BM_Optimize(benchmark::State &state)
{
    for (auto _ : state) {
        state.PauseTiming();
        auto prog = compileSource(wc().source);
        state.ResumeTiming();
        optimizeProgram(*prog);
    }
}
BENCHMARK(BM_Optimize);

void
BM_FullPipeline(benchmark::State &state)
{
    std::string input = wc().makeInput(1);
    for (auto _ : state) {
        CompileOptions opts;
        opts.model = Model::FullPred;
        opts.machine = issue8Branch1();
        opts.profileInput = input;
        auto prog = compileForModel(wc().source, opts);
        benchmark::DoNotOptimize(prog);
    }
}
BENCHMARK(BM_FullPipeline);

void
BM_EmulatorThroughput(benchmark::State &state)
{
    auto prog = compileSource(wc().source);
    optimizeProgram(*prog);
    std::string input = wc().makeInput(2);
    std::uint64_t instrs = 0;
    for (auto _ : state) {
        Emulator emu(*prog);
        RunResult r = emu.run(input);
        instrs += r.dynInstrs;
        benchmark::DoNotOptimize(r.exitValue);
    }
    state.counters["instrs/s"] = benchmark::Counter(
        static_cast<double>(instrs), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_EmulatorThroughput);

void
BM_TimingSimulator(benchmark::State &state)
{
    std::string input = wc().makeInput(2);
    CompileOptions opts;
    opts.model = Model::FullPred;
    opts.machine = issue8Branch1();
    opts.profileInput = input;
    auto prog = compileForModel(wc().source, opts);
    SimConfig sim;
    sim.machine = opts.machine;
    std::uint64_t instrs = 0;
    for (auto _ : state) {
        SimResult r = simulate(*prog, input, sim);
        instrs += r.dynInstrs;
        benchmark::DoNotOptimize(r.cycles);
    }
    state.counters["instrs/s"] = benchmark::Counter(
        static_cast<double>(instrs), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_TimingSimulator);

void
BM_DirectMappedCache(benchmark::State &state)
{
    SetAssocCache cache(64 * 1024, 64, 1);
    std::int64_t addr = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(cache.access(addr));
        addr = (addr * 1103515245 + 12345) & 0xFFFFF;
    }
}
BENCHMARK(BM_DirectMappedCache);

void
BM_BranchTargetBuffer(benchmark::State &state)
{
    BranchTargetBuffer btb(1024);
    std::int64_t addr = 0;
    for (auto _ : state) {
        bool taken = (addr & 3) != 0;
        benchmark::DoNotOptimize(btb.predictAndTrain(addr, taken));
        addr += 4;
    }
}
BENCHMARK(BM_BranchTargetBuffer);

} // namespace

BENCHMARK_MAIN();
