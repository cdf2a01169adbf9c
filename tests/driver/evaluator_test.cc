/**
 * @file
 * SuiteEvaluator tests: results are identical for every thread
 * count, repeated evaluation hits the caches instead of recompiling,
 * and one evaluator reuses captured traces across simulation
 * configurations (the trace-once/replay-many contract).
 */

#include <gtest/gtest.h>

#include <fstream>

#include "driver/evaluator.hh"
#include "support/diag.hh"

namespace predilp
{
namespace
{

const std::vector<std::string> subset = {"cmp", "qsort", "wc"};

SuiteConfig
smallConfig()
{
    SuiteConfig config;
    config.machine = issue8Branch1();
    config.perfectCaches = true;
    return config;
}

EvalRequest
requestFor(const SuiteConfig &config,
           std::vector<std::string> workloads = {},
           std::vector<Model> models = {})
{
    EvalRequest request = EvalRequest::fromSuiteConfig(config);
    request.workloads = std::move(workloads);
    request.models = std::move(models);
    return request;
}

std::vector<BenchmarkResult>
evalSuite(SuiteEvaluator &evaluator, const SuiteConfig &config,
          const std::vector<std::string> &names)
{
    return evaluator.evaluate(requestFor(config, names)).results;
}

BenchmarkResult
evalOne(SuiteEvaluator &evaluator, const Workload &workload,
        const SuiteConfig &config, std::vector<Model> models = {})
{
    return evaluator
        .evaluate(
            requestFor(config, {workload.name}, std::move(models)))
        .results.at(0);
}

void
expectResultsEq(const std::vector<BenchmarkResult> &a,
                const std::vector<BenchmarkResult> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].name, b[i].name);
        EXPECT_EQ(a[i].baseCycles, b[i].baseCycles);
        ASSERT_EQ(a[i].models.size(), b[i].models.size());
        for (const auto &[model, sim] : a[i].models) {
            const SimResult &other = b[i].models.at(model);
            EXPECT_EQ(sim.cycles, other.cycles);
            EXPECT_EQ(sim.dynInstrs, other.dynInstrs);
            EXPECT_EQ(sim.nullified, other.nullified);
            EXPECT_EQ(sim.branches, other.branches);
            EXPECT_EQ(sim.condBranches, other.condBranches);
            EXPECT_EQ(sim.mispredicts, other.mispredicts);
            EXPECT_EQ(sim.loads, other.loads);
            EXPECT_EQ(sim.stores, other.stores);
            EXPECT_EQ(sim.icacheMisses, other.icacheMisses);
            EXPECT_EQ(sim.dcacheMisses, other.dcacheMisses);
            EXPECT_EQ(sim.exitValue, other.exitValue);
            EXPECT_EQ(sim.output, other.output);
        }
    }
}

TEST(SuiteEvaluator, ThreadCountDoesNotChangeResults)
{
    SuiteConfig config = smallConfig();
    SuiteEvaluator serial(1);
    SuiteEvaluator parallel(4);
    EXPECT_EQ(serial.threadCount(), 1);
    EXPECT_EQ(parallel.threadCount(), 4);
    auto a = evalSuite(serial, config, subset);
    auto b = evalSuite(parallel, config, subset);
    expectResultsEq(a, b);
    // Order follows the requested names, not completion order.
    ASSERT_EQ(a.size(), subset.size());
    for (std::size_t i = 0; i < subset.size(); ++i)
        EXPECT_EQ(a[i].name, subset[i]);
}

TEST(SuiteEvaluator, StatsPrintEveryLeafFromConstruction)
{
    // A leaf no work reaches still prints, as zero: the warm-run
    // gates read phases.emulate_seconds and store.miss by name.
    SuiteEvaluator evaluator(1);
    const StatsSnapshot stats = evaluator.stats();
    EXPECT_EQ(stats.counters().size(), 24u);
    EXPECT_EQ(stats.timers().size(), 4u);
    for (const auto &[name, value] : stats.counters())
        EXPECT_EQ(value, 0u) << name;
    EXPECT_EQ(stats.timers().count("phases.emulate_seconds"), 1u);
    EXPECT_EQ(stats.counters().count("store.miss"), 1u);
    EXPECT_EQ(stats.counters().count("counters.trace_peak_bytes"), 1u);
}

TEST(SuiteEvaluator, RepeatHitsResultCache)
{
    SuiteConfig config = smallConfig();
    SuiteEvaluator evaluator(1);
    auto first = evalSuite(evaluator, config, subset);
    const StatsSnapshot cold = evaluator.stats();
    EXPECT_GT(cold.counter("counters.compiles"), 0u);
    EXPECT_EQ(cold.counter("counters.result_cache_hits"), 0u);
    // Per workload, the four trace captures share one reference run.
    EXPECT_EQ(cold.counter("counters.reference_cache_hits"),
              3 * subset.size());

    auto second = evalSuite(evaluator, config, subset);
    const StatsSnapshot warm = evaluator.stats();
    expectResultsEq(first, second);
    // The repeat did no new work: every cell was a result-cache hit.
    EXPECT_EQ(warm.counter("counters.compiles"),
              cold.counter("counters.compiles"));
    EXPECT_EQ(warm.counter("counters.captures"),
              cold.counter("counters.captures"));
    EXPECT_EQ(warm.counter("counters.replays"),
              cold.counter("counters.replays"));
    EXPECT_EQ(warm.counter("counters.result_cache_hits"),
              4 * subset.size());

    // timing() is a view of the same leaves.
    const BenchTiming timing = evaluator.timing();
    EXPECT_EQ(timing.compiles, warm.counter("counters.compiles"));
    EXPECT_EQ(timing.prefixCompiles,
              warm.counter("counters.prefix_compiles"));
    EXPECT_EQ(timing.captures, warm.counter("counters.captures"));
    EXPECT_EQ(timing.replays, warm.counter("counters.replays"));
    EXPECT_EQ(timing.capturedRecords,
              warm.counter("counters.captured_records"));
    EXPECT_EQ(timing.replayedRecords,
              warm.counter("counters.replayed_records"));
    EXPECT_EQ(timing.resultCacheHits,
              warm.counter("counters.result_cache_hits"));
}

TEST(SuiteEvaluator, TracesReusedAcrossSimConfigs)
{
    SuiteConfig perfect = smallConfig();
    SuiteConfig real = smallConfig();
    real.perfectCaches = false;

    SuiteEvaluator evaluator(1);
    evalSuite(evaluator, perfect, subset);
    const StatsSnapshot cold = evaluator.stats();

    evalSuite(evaluator, real, subset);
    const StatsSnapshot warm = evaluator.stats();
    // Real caches change only the pricing: no recompilation or
    // re-emulation, every cell replayed from the cached trace.
    EXPECT_EQ(warm.counter("counters.compiles"),
              cold.counter("counters.compiles"));
    EXPECT_EQ(warm.counter("counters.captures"),
              cold.counter("counters.captures"));
    EXPECT_EQ(warm.counter("counters.trace_cache_hits"),
              cold.counter("counters.trace_cache_hits") +
                  4 * subset.size());
    EXPECT_EQ(warm.counter("counters.replays"),
              cold.counter("counters.replays") + 4 * subset.size());
}

TEST(SuiteEvaluator, ModelSubsetEvaluatesOnlyThatModel)
{
    SuiteConfig config = smallConfig();
    SuiteEvaluator evaluator(1);
    const Workload *workload = findWorkload("cmp");
    ASSERT_NE(workload, nullptr);
    BenchmarkResult r =
        evalOne(evaluator, *workload, config, {Model::FullPred});
    EXPECT_EQ(r.models.size(), 1u);
    EXPECT_GT(r.baseCycles, 0u);
    EXPECT_GT(r.speedup(Model::FullPred), 0.0);
    // Baseline + one model: exactly two compiles.
    EXPECT_EQ(evaluator.stats().counter("counters.compiles"), 2u);
}

TEST(SuiteEvaluator, ReleaseTracesKeepsResults)
{
    SuiteConfig config = smallConfig();
    SuiteEvaluator evaluator(1);
    auto first = evalSuite(evaluator, config, subset);
    const std::uint64_t peak =
        evaluator.stats().counter("counters.trace_peak_bytes");
    EXPECT_GT(evaluator.stats().counter("counters.trace_bytes"), 0u);
    evaluator.releaseTraces();
    EXPECT_EQ(evaluator.stats().counter("counters.trace_bytes"), 0u);
    EXPECT_EQ(evaluator.stats().counter("counters.trace_peak_bytes"),
              peak);
    // Priced results survive the trace drop.
    auto second = evalSuite(evaluator, config, subset);
    expectResultsEq(first, second);
    // Per workload: 4 capturing emulations + 1 reference run.
    EXPECT_EQ(evaluator.stats().counter("counters.captures"),
              first.size() * 5);
}

TEST(SuiteEvaluator, UnknownWorkloadPanics)
{
    SuiteConfig config = smallConfig();
    SuiteEvaluator evaluator(1);
    EXPECT_ANY_THROW(evalSuite(evaluator, config, {"nope"}));
}

TEST(SuiteEvaluator, StrictModePropagatesTypedTrapThroughPool)
{
    // A budget far below any workload's dynamic count forces an
    // EmuTrap in every capturing cell; under the default strict
    // policy the first worker's exception must surface from
    // evaluate() with its type intact (captured via exception_ptr
    // in the pool and rethrown after the join).
    SuiteConfig tiny = smallConfig();
    tiny.maxDynInstrs = 500;
    SuiteEvaluator evaluator(4);
    const Workload *workload = findWorkload("cmp");
    ASSERT_NE(workload, nullptr);
    try {
        evalOne(evaluator, *workload, tiny, {Model::FullPred});
        FAIL() << "expected EmuTrap";
    } catch (const EmuTrap &trap) {
        EXPECT_EQ(trap.kind(), TrapKind::FuelExhausted);
        EXPECT_GE(trap.steps(), 500u);
    }
}

TEST(SuiteEvaluator, FailedComputationIsEvictedForRetry)
{
    // A failed cell must not poison the once-per-key cache: the
    // retry recomputes (captures grows) instead of replaying the
    // stale exception as a cache hit forever.
    SuiteConfig tiny = smallConfig();
    tiny.maxDynInstrs = 500;
    SuiteEvaluator evaluator(1);
    const Workload *workload = findWorkload("cmp");
    ASSERT_NE(workload, nullptr);
    EXPECT_THROW(
        evalOne(evaluator, *workload, tiny, {Model::FullPred}),
        EmuTrap);
    // The model compile lands before the capture traps, so a real
    // retry recompiles; a poisoned cache would instead resolve the
    // retry as a trace-cache hit with no new compile.
    const StatsSnapshot cold = evaluator.stats();
    EXPECT_GT(cold.counter("counters.compiles"), 0u);
    EXPECT_THROW(
        evalOne(evaluator, *workload, tiny, {Model::FullPred}),
        EmuTrap);
    const StatsSnapshot warm = evaluator.stats();
    EXPECT_GT(warm.counter("counters.compiles"),
              cold.counter("counters.compiles"));
    EXPECT_EQ(warm.counter("counters.trace_cache_hits"),
              cold.counter("counters.trace_cache_hits"));
}

TEST(SuiteEvaluator, IsolatedTrapCellDegradesToErrorAndReproducer)
{
    const std::string reproDir =
        testing::TempDir() + "predilp-repro";
    SuiteConfig tiny = smallConfig();
    tiny.maxDynInstrs = 500;

    SuiteEvaluator evaluator(1);
    EvalPolicy policy;
    policy.isolateFaults = true;
    policy.reproducerDir = reproDir;
    evaluator.setPolicy(policy);

    const Workload *workload = findWorkload("cmp");
    ASSERT_NE(workload, nullptr);

    // Every cell traps, but evaluate() completes and reports each
    // failure as a structured record with a readable reproducer.
    BenchmarkResult result = evalOne(evaluator, *workload, tiny);
    EXPECT_EQ(result.errors.size(), 4u);
    for (const CellError &error : result.errors) {
        EXPECT_EQ(error.workload, "cmp");
        EXPECT_EQ(error.kind, "EmuTrap");
        EXPECT_NE(error.message.find("budget"), std::string::npos);
        ASSERT_FALSE(error.reproducerPath.empty());
        std::ifstream in(error.reproducerPath);
        ASSERT_TRUE(in.good());
        std::string header;
        std::getline(in, header);
        EXPECT_EQ(header, "// predilp reproducer");
    }

    // The same evaluator then completes an honest configuration
    // bit-identically to a fresh strict evaluator: the failed
    // cells neither poisoned the caches nor leaked into results.
    SuiteConfig normal = smallConfig();
    BenchmarkResult ok = evalOne(evaluator, *workload, normal);
    EXPECT_TRUE(ok.errors.empty());
    SuiteEvaluator fresh(1);
    BenchmarkResult expected = evalOne(fresh, *workload, normal);
    EXPECT_EQ(ok.baseCycles, expected.baseCycles);
    ASSERT_EQ(ok.models.size(), expected.models.size());
    for (const auto &[model, sim] : ok.models) {
        EXPECT_EQ(sim.cycles, expected.models.at(model).cycles);
        EXPECT_EQ(sim.output, expected.models.at(model).output);
    }
}

TEST(SuiteEvaluator, EqualCellKeysGetDistinctReproducerFiles)
{
    // Two failing cells can share (title, kind) — here the same
    // model requested twice — and each must still get its own
    // reproducer file: the sequence suffix in the filename keeps
    // the second write from clobbering the first.
    const std::string reproDir =
        testing::TempDir() + "predilp-repro-collide";
    SuiteConfig tiny = smallConfig();
    tiny.maxDynInstrs = 500;

    SuiteEvaluator evaluator(1);
    EvalPolicy policy;
    policy.isolateFaults = true;
    policy.reproducerDir = reproDir;
    evaluator.setPolicy(policy);

    const Workload *workload = findWorkload("cmp");
    ASSERT_NE(workload, nullptr);
    BenchmarkResult result = evalOne(
        evaluator, *workload, tiny,
        {Model::FullPred, Model::FullPred});
    ASSERT_EQ(result.errors.size(), 3u);

    std::vector<std::string> paths;
    for (const CellError &error : result.errors) {
        ASSERT_FALSE(error.reproducerPath.empty());
        paths.push_back(error.reproducerPath);
    }
    for (std::size_t i = 0; i < paths.size(); ++i) {
        for (std::size_t j = i + 1; j < paths.size(); ++j)
            EXPECT_NE(paths[i], paths[j]);
        std::ifstream in(paths[i]);
        EXPECT_TRUE(in.good()) << paths[i];
    }
}

TEST(SuiteEvaluator, EvaluateBatchMatchesSequentialEvaluation)
{
    // A batch over requests that differ only in non-machine axes
    // must price trace-major (one capture pass per trace, many
    // configs per walk) and still return responses bit-identical to
    // evaluating each request on a fresh evaluator.
    std::vector<EvalRequest> requests;
    for (int btbEntries : {256, 1024}) {
        for (bool perfect : {true, false}) {
            EvalRequest request =
                requestFor(smallConfig(), subset);
            request.sim.perfectCaches = perfect;
            request.sim.btbEntries = btbEntries;
            requests.push_back(std::move(request));
        }
    }

    SuiteEvaluator batched(2);
    std::vector<EvalResponse> fromBatch =
        batched.evaluateBatch(requests);
    ASSERT_EQ(fromBatch.size(), requests.size());

    SuiteEvaluator sequential(1);
    for (std::size_t i = 0; i < requests.size(); ++i) {
        EvalResponse expected = sequential.evaluate(requests[i]);
        EXPECT_EQ(fromBatch[i].requestDigest,
                  expected.requestDigest);
        expectResultsEq(fromBatch[i].results, expected.results);
    }

    // Trace-once across the whole batch: the four configurations
    // share one set of captures (4 capturing cells + 1 reference
    // per workload), and every cell was replayed exactly once.
    const StatsSnapshot stats = batched.stats();
    EXPECT_EQ(stats.counter("counters.captures"), subset.size() * 5);
    EXPECT_EQ(stats.counter("counters.replays"),
              requests.size() * subset.size() * 4);
}

TEST(SuiteEvaluator, EvaluateBatchSeedsResultCache)
{
    // The assembly pass must find every batch-priced cell in the
    // result cache: cells = 4 per workload per request, all hits.
    std::vector<EvalRequest> requests;
    EvalRequest real = requestFor(smallConfig(), subset);
    real.sim.perfectCaches = false;
    requests.push_back(requestFor(smallConfig(), subset));
    requests.push_back(std::move(real));

    SuiteEvaluator evaluator(1);
    evaluator.evaluateBatch(requests);
    const StatsSnapshot stats = evaluator.stats();
    EXPECT_EQ(stats.counter("counters.result_cache_hits"),
              requests.size() * subset.size() * 4);
    EXPECT_EQ(stats.counter("counters.replays"),
              requests.size() * subset.size() * 4);
}

TEST(SuiteEvaluator, VerifyEachPassPolicyMatchesDefaultResults)
{
    // Running the verifier after every pass is purely observational:
    // cycle-for-cycle identical results, just slower compiles.
    SuiteConfig config = smallConfig();
    SuiteEvaluator verifying(1);
    EvalPolicy policy;
    policy.verifyEachPass = true;
    verifying.setPolicy(policy);
    SuiteEvaluator plain(1);
    const Workload *workload = findWorkload("cmp");
    ASSERT_NE(workload, nullptr);
    BenchmarkResult a = evalOne(verifying, *workload, config);
    BenchmarkResult b = evalOne(plain, *workload, config);
    EXPECT_EQ(a.baseCycles, b.baseCycles);
    ASSERT_EQ(a.models.size(), b.models.size());
    for (const auto &[model, sim] : a.models)
        EXPECT_EQ(sim.cycles, b.models.at(model).cycles);
}

} // namespace
} // namespace predilp
