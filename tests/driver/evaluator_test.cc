/**
 * @file
 * SuiteEvaluator tests: results are identical for every thread
 * count, repeated evaluation hits the caches instead of recompiling,
 * a trace is priced under every simulation configuration of its call
 * and reused by a later call only through the store (the
 * trace-once/replay-many contract), compiles that differ only by
 * machine share one formed program, unknown workloads throw before
 * any work, and a failed trace group retries its cells one at a time
 * so only the cells that fail again fail.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "driver/evaluator.hh"
#include "support/diag.hh"
#include "support/faultpoint.hh"

namespace predilp
{
namespace
{

namespace fs = std::filesystem;

const std::vector<std::string> subset = {"cmp", "qsort", "wc"};

/** An empty directory under the test temp dir. */
std::string
freshDir(const std::string &name)
{
    fs::path dir = fs::path(testing::TempDir()) / name;
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir.string();
}

EvalRequest
smallConfig()
{
    EvalRequest config;
    config.sim.machine = issue8Branch1();
    return config;
}

EvalRequest
requestFor(const EvalRequest &config,
           std::vector<std::string> workloads = {},
           std::vector<Model> models = {})
{
    EvalRequest request = config;
    request.workloads = std::move(workloads);
    request.models = std::move(models);
    return request;
}

std::vector<BenchmarkResult>
evalSuite(SuiteEvaluator &evaluator, const EvalRequest &config,
          const std::vector<std::string> &names)
{
    return evaluator.evaluate(requestFor(config, names)).results;
}

BenchmarkResult
evalOne(SuiteEvaluator &evaluator, const Workload &workload,
        const EvalRequest &config, std::vector<Model> models = {})
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
    EvalRequest config = smallConfig();
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
    // gates read phases.emulate_seconds, store.miss and the result
    // tier's store.result_* by name.
    SuiteEvaluator evaluator(1);
    const StatsSnapshot stats = evaluator.stats();
    EXPECT_EQ(stats.counters().size(), 24u);
    EXPECT_EQ(stats.timers().size(), 4u);
    for (const auto &[name, value] : stats.counters())
        EXPECT_EQ(value, 0u) << name;
    EXPECT_EQ(stats.timers().count("phases.emulate_seconds"), 1u);
    EXPECT_EQ(stats.counters().count("store.miss"), 1u);
    for (const char *leaf : {"store.result_hit", "store.result_miss",
                             "store.result_repair", "store.result_write"})
        EXPECT_EQ(stats.counters().count(leaf), 1u) << leaf;
    EXPECT_EQ(stats.counters().count("counters.captured_bytes"), 1u);
    EXPECT_EQ(stats.counters().count("counters.formations"), 1u);
}

TEST(SuiteEvaluator, RepeatHitsResultCache)
{
    EvalRequest config = smallConfig();
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

TEST(SuiteEvaluator, TracesAreReusedAcrossCallsThroughTheStore)
{
    // A trace lives as long as its trace group, so a later call
    // reuses it only through the store's trace tier. Real caches
    // change only the pricing: with the store on, the real-cache
    // call maps every trace the perfect-cache call published and
    // compiles and captures nothing.
    EvalRequest perfect = smallConfig();
    EvalRequest real = smallConfig();
    real.sim.perfectCaches = false;
    const std::uint64_t cellsPerCall = 4 * subset.size();

    SuiteEvaluator stored(1);
    EvalPolicy policy;
    policy.storeMode = StoreMode::ReadWrite;
    policy.storeDir = freshDir("predilp-eval-trace-tier");
    stored.setPolicy(policy);
    evalSuite(stored, perfect, subset);
    const StatsSnapshot cold = stored.stats();
    const auto fromStore = evalSuite(stored, real, subset);
    const StatsSnapshot warm = stored.stats();
    EXPECT_EQ(warm.counter("store.hit"),
              cold.counter("store.hit") + cellsPerCall);
    EXPECT_EQ(warm.counter("counters.compiles"),
              cold.counter("counters.compiles"));
    EXPECT_EQ(warm.counter("counters.captures"),
              cold.counter("counters.captures"));
    EXPECT_EQ(warm.counter("counters.replays"),
              cold.counter("counters.replays") + cellsPerCall);

    // With the store off, the second call captures every trace
    // again; the reference runs stay cached.
    SuiteEvaluator unstored(1);
    evalSuite(unstored, perfect, subset);
    const std::uint64_t captures =
        unstored.stats().counter("counters.captures");
    expectResultsEq(evalSuite(unstored, real, subset), fromStore);
    EXPECT_EQ(unstored.stats().counter("counters.captures"),
              captures + cellsPerCall);
}

TEST(SuiteEvaluator, ModelSubsetEvaluatesOnlyThatModel)
{
    EvalRequest config = smallConfig();
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

TEST(SuiteEvaluator, UnknownWorkloadPanics)
{
    EvalRequest config = smallConfig();
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
    EvalRequest tiny = smallConfig();
    tiny.sim.maxDynInstrs = 500;
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
    EvalRequest tiny = smallConfig();
    tiny.sim.maxDynInstrs = 500;
    SuiteEvaluator evaluator(1);
    const Workload *workload = findWorkload("cmp");
    ASSERT_NE(workload, nullptr);
    EXPECT_THROW(
        evalOne(evaluator, *workload, tiny, {Model::FullPred}),
        EmuTrap);
    // The model compile lands before the capture traps, so a real
    // retry recompiles instead of resolving to a stale failure.
    const StatsSnapshot cold = evaluator.stats();
    EXPECT_GT(cold.counter("counters.compiles"), 0u);
    EXPECT_THROW(
        evalOne(evaluator, *workload, tiny, {Model::FullPred}),
        EmuTrap);
    const StatsSnapshot warm = evaluator.stats();
    EXPECT_GT(warm.counter("counters.compiles"),
              cold.counter("counters.compiles"));
}

TEST(SuiteEvaluator, IsolatedTrapCellDegradesToErrorAndReproducer)
{
    const std::string reproDir =
        testing::TempDir() + "predilp-repro";
    EvalRequest tiny = smallConfig();
    tiny.sim.maxDynInstrs = 500;

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
    EvalRequest normal = smallConfig();
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
    EvalRequest tiny = smallConfig();
    tiny.sim.maxDynInstrs = 500;

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

TEST(SuiteEvaluator, RepeatedBatchIsAllResultCacheHits)
{
    // A repeat of the same batch finds every slot already priced: it
    // compiles, captures and replays nothing, and counts each of the
    // 4 slots per workload per request as a result-cache hit.
    std::vector<EvalRequest> requests;
    EvalRequest real = requestFor(smallConfig(), subset);
    real.sim.perfectCaches = false;
    requests.push_back(requestFor(smallConfig(), subset));
    requests.push_back(std::move(real));
    const std::uint64_t slots = requests.size() * subset.size() * 4;

    SuiteEvaluator evaluator(2);
    const std::vector<EvalResponse> first =
        evaluator.evaluateBatch(requests);
    const StatsSnapshot cold = evaluator.stats();
    EXPECT_EQ(cold.counter("counters.result_cache_hits"), 0u);
    EXPECT_EQ(cold.counter("counters.replays"), slots);

    const std::vector<EvalResponse> second =
        evaluator.evaluateBatch(requests);
    const StatsSnapshot warm = evaluator.stats();
    for (const char *counter :
         {"counters.compiles", "counters.captures", "counters.replays"})
        EXPECT_EQ(warm.counter(counter), cold.counter(counter)) << counter;
    EXPECT_EQ(warm.counter("counters.result_cache_hits"), slots);
    ASSERT_EQ(second.size(), first.size());
    for (std::size_t i = 0; i < first.size(); ++i)
        expectResultsEq(second[i].results, first[i].results);
}

TEST(SuiteEvaluator, UnknownWorkloadThrowsBeforeAnyWork)
{
    // Every request's workloads resolve before any cell is priced, so
    // a bad name late in a batch costs no compile.
    SuiteEvaluator evaluator(2);
    const std::vector<EvalRequest> requests = {
        requestFor(smallConfig(), {"cmp"}),
        requestFor(smallConfig(), {"nope"})};
    EXPECT_THROW(evaluator.evaluateBatch(requests), FatalError);
    EXPECT_EQ(evaluator.stats().counter("counters.compiles"), 0u);
}

TEST(SuiteEvaluator, RefusedConfigFailsOnlyItsOwnCells)
{
    // 48 KiB of 64-byte direct-mapped lines is 768 sets, which the
    // cache model refuses; set on the struct, the geometry skips the
    // request parser's check. The bad request shares every trace
    // group with the good one, so each group's batched replay
    // panics. The one-cell retry then prices the good cells against
    // the group's trace, capturing nothing again, and fails only the
    // bad ones.
    EvalRequest good = requestFor(smallConfig(), {"cmp"});
    good.sim.perfectCaches = false;
    EvalRequest bad = good;
    bad.sim.cacheSizeBytes = 48 * 1024;

    SuiteEvaluator fresh(1);
    const EvalResponse expected = fresh.evaluate(good);
    // Four traces and one reference run.
    const std::uint64_t goodCaptures =
        fresh.stats().counter("counters.captures");
    EXPECT_EQ(goodCaptures, 5u);

    SuiteEvaluator isolated(2);
    EvalPolicy policy;
    policy.isolateFaults = true;
    isolated.setPolicy(policy);
    const std::vector<EvalResponse> responses =
        isolated.evaluateBatch({good, bad});
    ASSERT_EQ(responses.size(), 2u);
    EXPECT_TRUE(responses[0].results.at(0).errors.empty());
    expectResultsEq(responses[0].results, expected.results);
    const BenchmarkResult &refused = responses[1].results.at(0);
    ASSERT_EQ(refused.errors.size(), 4u);
    for (const CellError &error : refused.errors)
        EXPECT_EQ(error.kind, "PanicError");
    EXPECT_EQ(isolated.stats().counter("counters.batch_fallbacks"), 4u);
    EXPECT_EQ(isolated.stats().counter("counters.captures"), goodCaptures);

    SuiteEvaluator strict(2);
    EXPECT_THROW(strict.evaluateBatch({good, bad}), PanicError);
}

/** Every certified figure of every cell, plus the baselines. */
void
expectFiguresEq(const std::vector<BenchmarkResult> &a,
                const std::vector<BenchmarkResult> &b)
{
    expectResultsEq(a, b);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        for (const auto &[model, sim] : a[i].models) {
            EXPECT_EQ(certifiedFigures(sim).dump(),
                      certifiedFigures(b[i].models.at(model)).dump())
                << a[i].name << ' ' << modelName(model);
        }
    }
}

TEST(SuiteEvaluator, FigureSetSharesOneFormationPerModel)
{
    // bench_figures_all's four requests, priced as it prices them:
    // one batch of Figures 8, 9, 10 and 11, where Figure 11 shares
    // Figure 8's trace groups. Only the scheduler reads the machine,
    // so the 150 compiles schedule 45 formed programs (15 workloads x
    // 3 models; the 1-issue baselines reuse the Superblock ones).
    EvalRequest fig08;
    fig08.sim = SimConfig::paperMachine();
    EvalRequest fig09 = fig08;
    fig09.sim.machine = issue8Branch2();
    EvalRequest fig10 = fig08;
    fig10.sim.machine = issue4Branch1();
    EvalRequest fig11 = fig08;
    fig11.sim.perfectCaches = false;

    SuiteEvaluator shared(4);
    const std::vector<EvalResponse> responses =
        shared.evaluateBatch({fig08, fig09, fig10, fig11});
    const auto &r08 = responses[0].results;
    const auto &r09 = responses[1].results;
    const auto &r10 = responses[2].results;
    const auto &r11 = responses[3].results;
    const StatsSnapshot stats = shared.stats();
    EXPECT_EQ(stats.counter("counters.compiles"), 150u);
    EXPECT_EQ(stats.counter("counters.formations"), 45u);
    EXPECT_EQ(stats.counter("counters.prefix_compiles"), 15u);

    // One fresh evaluator per machine forms its own programs; the
    // figures must not depend on which machine formed them first.
    {
        SuiteEvaluator paper(4);
        expectFiguresEq(r08, paper.evaluate(fig08).results);
        expectFiguresEq(r11, paper.evaluate(fig11).results);
    }
    {
        SuiteEvaluator twoBranch(4);
        expectFiguresEq(r09, twoBranch.evaluate(fig09).results);
    }
    {
        SuiteEvaluator fourIssue(4);
        expectFiguresEq(r10, fourIssue.evaluate(fig10).results);
    }
}

TEST(SuiteEvaluator, OrTreeFlipFormsOnlyCondMoveAnew)
{
    // Only Cond. Move's pipeline reads orTree. Flipped on a new
    // machine, every model compiles anew, but Superblock and Full
    // Pred. schedule the formations of the default request.
    SuiteEvaluator evaluator(2);
    const EvalRequest base = requestFor(smallConfig(), {"cmp"});
    evaluator.evaluate(base);
    const StatsSnapshot before = evaluator.stats();
    EXPECT_EQ(before.counter("counters.formations"), 3u);
    EXPECT_EQ(before.counter("counters.compiles"), 4u);

    EvalRequest flipped = base;
    flipped.ablation.orTree = false;
    flipped.sim.machine = issue4Branch1();
    const auto shared = evaluator.evaluate(flipped).results;
    const StatsSnapshot after = evaluator.stats();
    EXPECT_EQ(after.counter("counters.formations"), 4u);
    // Three models on the 4-issue machine; the 1-issue baseline is
    // the default request's trace.
    EXPECT_EQ(after.counter("counters.compiles"), 7u);

    SuiteEvaluator fresh(2);
    expectFiguresEq(shared, fresh.evaluate(flipped).results);
}

TEST(SuiteEvaluator, FailedFormationIsEvictedAndFormedAgain)
{
    // One Superblock formation serves both cells of the row: the
    // 1-issue baseline and the 8-issue cell. A failed attempt is
    // evicted, never served from the cache.
    const EvalRequest request =
        requestFor(smallConfig(), {"cmp"}, {Model::Superblock});
    EvalPolicy policy;
    policy.isolateFaults = true;
    faultpoints::resetForTest();
    SuiteEvaluator fresh(1);
    const auto expected = fresh.evaluate(request).results;

    // A formation that always throws fails both cells, the retry
    // included, and forms nothing.
    faultpoints::armFromSpec("eval.form=prob:1");
    SuiteEvaluator evaluator(4);
    evaluator.setPolicy(policy);
    const BenchmarkResult failed = evaluator.evaluate(request).results.at(0);
    ASSERT_EQ(failed.errors.size(), 2u);
    for (const CellError &error : failed.errors)
        EXPECT_EQ(error.kind, "FaultInjectedError");
    EXPECT_EQ(evaluator.stats().counter("counters.formations"), 0u);

    // Disarmed, the next request forms it and matches a fault-free
    // run.
    faultpoints::resetForTest();
    const auto healed = evaluator.evaluate(request).results;
    EXPECT_TRUE(healed.at(0).errors.empty());
    EXPECT_EQ(evaluator.stats().counter("counters.formations"), 1u);
    expectFiguresEq(healed, expected);

    // A first attempt that throws once heals inside the call: the
    // failed group's retry forms the program again.
    faultpoints::armFromSpec("eval.form=once");
    SuiteEvaluator retried(4);
    retried.setPolicy(policy);
    const auto once = retried.evaluate(request).results;
    faultpoints::resetForTest();
    EXPECT_TRUE(once.at(0).errors.empty());
    const StatsSnapshot stats = retried.stats();
    EXPECT_GE(stats.counter("counters.batch_fallbacks"), 1u);
    EXPECT_EQ(stats.counter("counters.formations"), 1u);
    expectFiguresEq(once, expected);
}

} // namespace
} // namespace predilp
