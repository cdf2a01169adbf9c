/**
 * @file
 * Self-healing sweep tests: workers that are SIGKILLed mid-publish,
 * tear their result file, throw at startup, or hang against the
 * watchdog are detected, attributed, and retried on fresh workers —
 * and the healed sweep's cells array is byte-identical to a clean
 * run's. Shards that exhaust their attempt budget degrade to
 * attributed per-cell records (or fail the sweep under --no-degrade).
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "driver/sweep.hh"
#include "support/diag.hh"
#include "support/faultpoint.hh"

namespace predilp
{
namespace
{

namespace fs = std::filesystem;

class SweepHeal : public ::testing::Test
{
  protected:
    void SetUp() override { faultpoints::resetForTest(); }
    void TearDown() override { faultpoints::resetForTest(); }
};

/** A cheap 2-cell grid: one cell per worker at --workers 2. */
SweepSpec
tinySpec()
{
    return SweepSpec::fromJson(JsonValue::parse(R"({
      "workloads": ["cmp"],
      "axes": {"issue_width": [4, 8]}
    })"));
}

/** The clean (fault-free) merged cells array, computed once. */
const std::string &
cleanCells()
{
    static const std::string cells = [] {
        faultpoints::resetForTest();
        return runSweep(tinySpec(), 2, "").cellsJson;
    }();
    return cells;
}

/**
 * Run the tiny sweep with @p spec armed and expect full
 * convergence: every shard healed by retry, zero degraded cells,
 * and a cells array byte-identical to the clean run's.
 */
void
expectHealedRun(const std::string &spec)
{
    const std::string expected = cleanCells();
    faultpoints::armFromSpec(spec);
    SweepOutcome outcome = runSweep(tinySpec(), 2, "");
    faultpoints::resetForTest();
    EXPECT_GE(outcome.workerRetries, 1) << spec;
    EXPECT_EQ(outcome.degradedCells, 0u) << spec;
    EXPECT_EQ(outcome.cellsJson, expected) << spec;
}

TEST_F(SweepHeal, WorkerKilledMidPublishIsRetried)
{
    // SIGKILL the instant before the result file is written: the
    // brutal death the supervisor must detect and re-deal.
    expectHealedRun("sweep.worker.publish=once:crash");
}

TEST_F(SweepHeal, TornResultFileIsRejectedAndRetried)
{
    // The worker exits 0 but its result file is half-written; merge
    // validation must attribute and retry, not merge garbage.
    expectHealedRun("sweep.worker.publish=once:short-write");
}

TEST_F(SweepHeal, WorkerStartupFailureIsRetried)
{
    expectHealedRun("sweep.worker.start=once");
}

TEST_F(SweepHeal, StorePublishCrashConvergesWithSharedStore)
{
    // Die inside the artifact store's publish window (temp staged,
    // canonical path untouched) with all workers sharing one store:
    // the retried worker recomputes and republishes.
    fs::path dir = fs::path(testing::TempDir()) / "sweep_heal_store";
    fs::remove_all(dir);
    fs::create_directories(dir);
    ASSERT_EQ(setenv("PREDILP_STORE", dir.string().c_str(), 1), 0);
    expectHealedRun("store.publish.rename=once:crash");
    // No corrupt artifact was published: a warm sweep over the
    // healed store does zero emulation (a poisoned artifact would
    // force a quarantine-and-recompute, i.e. captures > 0) and
    // still merges to the clean bytes. The certified records are
    // dropped first so the warm sweep maps every trace.
    fs::remove_all(dir / "results");
    SweepOutcome warm = runSweep(tinySpec(), 2, "");
    ASSERT_EQ(unsetenv("PREDILP_STORE"), 0);
    EXPECT_EQ(warm.timing.counter("counters.captures"), 0u);
    EXPECT_GT(warm.timing.counter("store.hit"), 0u);
    EXPECT_EQ(warm.cellsJson, cleanCells());
}

TEST_F(SweepHeal, WatchdogKillsHungWorkerAndRetries)
{
    const std::string expected = cleanCells();
    // One worker sleeps 30s at startup; the watchdog must SIGKILL
    // it and the retry (hit != nth 1) runs clean. 2s is generous
    // for the healthy worker's single cell yet far under the hang.
    faultpoints::armFromSpec("sweep.worker.start=nth:1:delay:30000");
    SweepHealPolicy heal;
    heal.watchdogSec = 2.0;
    SweepOutcome outcome = runSweep(tinySpec(), 2, "", heal);
    EXPECT_GE(outcome.workerRetries, 1);
    EXPECT_EQ(outcome.degradedCells, 0u);
    EXPECT_EQ(outcome.cellsJson, expected);
}

TEST_F(SweepHeal, ExhaustedShardDegradesWithAttribution)
{
    const std::string dir =
        (fs::path(testing::TempDir()) / "sweep_heal_degraded")
            .string();
    fs::remove_all(dir);
    fs::create_directories(dir);
    const std::string report = dir + "/BENCH_sweep.json";

    // Every attempt of every worker fails: the sweep must still
    // finish, with every cell degraded and attributed.
    faultpoints::armFromSpec("sweep.worker.start=prob:1");
    SweepHealPolicy heal;
    heal.maxAttempts = 2;
    heal.backoffSec = 0.01;
    SweepOutcome outcome =
        runSweep(tinySpec(), 2, report, heal);
    EXPECT_EQ(outcome.degradedCells, 2u);
    EXPECT_EQ(outcome.workerRetries, 2);

    std::ifstream in(report, std::ios::binary);
    ASSERT_TRUE(in.good());
    std::ostringstream text;
    text << in.rdbuf();
    JsonValue doc = JsonValue::parse(text.str());
    EXPECT_EQ(doc.at("degraded_cells").asInt(), 2);
    EXPECT_EQ(doc.at("worker_retries").asInt(), 2);
    const auto &cells = doc.at("cells").items();
    ASSERT_EQ(cells.size(), 2u);
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const JsonValue &cell = cells[i];
        EXPECT_EQ(cell.at("index").asInt(),
                  static_cast<std::int64_t>(i));
        EXPECT_TRUE(cell.at("degraded").asBool());
        EXPECT_TRUE(cell.find("benchmarks") == nullptr);
        // Attribution: pid, attempt budget, and shard file.
        const std::string message =
            cell.at("error").at("message").asString();
        EXPECT_NE(message.find("pid "), std::string::npos);
        EXPECT_NE(message.find("attempt 2/2"), std::string::npos);
        EXPECT_NE(message.find("worker_"), std::string::npos);
    }
}

TEST_F(SweepHeal, NoDegradeFailsTheSweepWithAttribution)
{
    faultpoints::armFromSpec("sweep.worker.start=prob:1");
    SweepHealPolicy heal;
    heal.maxAttempts = 1;
    heal.degradeCells = false;
    try {
        runSweep(tinySpec(), 2, "", heal);
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        const std::string message = e.what();
        EXPECT_NE(message.find("failed permanently"),
                  std::string::npos);
        EXPECT_NE(message.find("pid "), std::string::npos);
    }
}

TEST_F(SweepHeal, CleanRunReportsZeroHealActivity)
{
    SweepOutcome outcome = runSweep(tinySpec(), 2, "");
    EXPECT_EQ(outcome.workerRetries, 0);
    EXPECT_EQ(outcome.degradedCells, 0u);
    EXPECT_EQ(outcome.cellsJson, cleanCells());
}

} // namespace
} // namespace predilp
