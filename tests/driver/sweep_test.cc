/**
 * @file
 * Sweep-driver tests: row-major grid expansion, eager spec
 * validation, the report's shape, and the store's contracts — two
 * sweep processes racing on one artifact store both succeed, a warm
 * sweep over a populated store performs zero compiles and zero
 * captures, and a sweep killed mid-publish reruns to the clean
 * cells. Every store-backed run renders the same cells as a
 * store-off run.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

#include "driver/sweep.hh"
#include "support/diag.hh"
#include "support/faultpoint.hh"

namespace predilp
{
namespace
{

namespace fs = std::filesystem;

/** Fresh empty directory under the test temp root. */
std::string
freshDir(const std::string &name)
{
    fs::path dir = fs::path(testing::TempDir()) / name;
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir.string();
}

/** A cheap 4-cell grid over the suite's fastest workload. */
SweepSpec
smallSpec()
{
    return SweepSpec::fromJson(JsonValue::parse(R"({
      "workloads": ["cmp"],
      "axes": {
        "issue_width": [4, 8],
        "perfect_caches": [true, false]
      }
    })"));
}

TEST(Sweep, ExpandGridIsRowMajor)
{
    SweepSpec spec = SweepSpec::fromJson(JsonValue::parse(R"({
      "axes": {
        "issue_width": [2, 4],
        "btb_entries": [256, 1024],
        "perfect_caches": [true, false]
      }
    })"));
    auto cells = spec.expandGrid();
    ASSERT_EQ(cells.size(), 8u);
    // The first listed axis varies slowest, the last fastest.
    EXPECT_EQ(cells[0].request.sim.machine.issueWidth, 2);
    EXPECT_EQ(cells[0].request.sim.btbEntries, 256u);
    EXPECT_TRUE(cells[0].request.sim.perfectCaches);
    EXPECT_FALSE(cells[1].request.sim.perfectCaches);
    EXPECT_EQ(cells[1].request.sim.btbEntries, 256u);
    EXPECT_EQ(cells[2].request.sim.btbEntries, 1024u);
    EXPECT_EQ(cells[4].request.sim.machine.issueWidth, 4);
    EXPECT_EQ(cells[7].request.sim.machine.issueWidth, 4);
    EXPECT_EQ(cells[7].request.sim.btbEntries, 1024u);
    EXPECT_FALSE(cells[7].request.sim.perfectCaches);
    std::set<std::string> digests;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        EXPECT_EQ(cells[i].index, i);
        ASSERT_EQ(cells[i].axisValues.size(), 3u);
        EXPECT_EQ(cells[i].axisValues[0].first, "issue_width");
        digests.insert(cells[i].request.requestDigest());
    }
    // Every cell is a distinct request.
    EXPECT_EQ(digests.size(), cells.size());
}

TEST(Sweep, NoAxesYieldsSingleCell)
{
    SweepSpec spec = SweepSpec::fromJson(
        JsonValue::parse("{\"workloads\": [\"cmp\"]}"));
    auto cells = spec.expandGrid();
    ASSERT_EQ(cells.size(), 1u);
    EXPECT_TRUE(cells[0].axisValues.empty());
    EXPECT_TRUE(cells[0].request.sim == SimConfig{});
}

TEST(Sweep, SpecValidatesEagerly)
{
    // Unknown axis, empty axis, bad value, unknown top-level key,
    // and a bad enum value all fail at parse time — before any cell
    // evaluation starts.
    EXPECT_THROW(SweepSpec::fromJson(
                     JsonValue::parse("{\"axes\": {\"issue\": [2]}}")),
                 FatalError);
    EXPECT_THROW(SweepSpec::fromJson(JsonValue::parse(
                     "{\"axes\": {\"issue_width\": []}}")),
                 FatalError);
    EXPECT_THROW(SweepSpec::fromJson(JsonValue::parse(
                     "{\"axes\": {\"issue_width\": [0]}}")),
                 FatalError);
    EXPECT_THROW(
        SweepSpec::fromJson(JsonValue::parse("{\"grid\": {}}")),
        FatalError);
    EXPECT_THROW(SweepSpec::fromJson(JsonValue::parse(
                     "{\"axes\": {\"predictor\": [\"gshare\"]}}")),
                 FatalError);
    // Penalty axes take 0 but not negative values.
    for (const char *axis :
         {"mispredict_penalty", "cache_miss_penalty"}) {
        SCOPED_TRACE(axis);
        const std::string prefix =
            std::string("{\"axes\": {\"") + axis + "\": ";
        EXPECT_THROW(
            SweepSpec::fromJson(JsonValue::parse(prefix + "[-1]}}")),
            FatalError);
        SweepSpec zero =
            SweepSpec::fromJson(JsonValue::parse(prefix + "[0, 12]}}"));
        EXPECT_EQ(zero.expandGrid().size(), 2u);
    }
}

TEST(Sweep, GeometryAxesRequirePowersOfTwo)
{
    // The cache and BTB models index by shift and mask, so a
    // non-power-of-two geometry fails at parse time, not mid-replay.
    for (const char *axis :
         {"cache_size_bytes", "cache_line_bytes", "cache_assoc",
          "btb_entries", "btb_assoc"}) {
        SCOPED_TRACE(axis);
        const std::string prefix =
            std::string("{\"axes\": {\"") + axis + "\": ";
        EXPECT_THROW(
            SweepSpec::fromJson(JsonValue::parse(prefix + "[2, 3]}}")),
            FatalError);
        EXPECT_NO_THROW(
            SweepSpec::fromJson(JsonValue::parse(prefix + "[2, 4]}}")));
    }
}

TEST(Sweep, ReportFileHasTheDocumentedShape)
{
    const std::string dir = freshDir("sweep_report");
    const std::string path = dir + "/BENCH_sweep.json";
    SweepOutcome outcome = runSweep(smallSpec(), path);
    EXPECT_EQ(outcome.path, path);

    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.good());
    std::ostringstream text;
    text << in.rdbuf();
    JsonValue report = JsonValue::parse(text.str());
    EXPECT_EQ(report.at("bench").asString(), "sweep");
    EXPECT_EQ(report.at("cell_count").asInt(), 4);
    EXPECT_TRUE(report.at("timing").isObject());
    EXPECT_TRUE(report.at("crossover").isArray());

    // Phase seconds sum over every pool thread, so `threads` must
    // count those threads: no thread can spend more than the sweep's
    // wall time in its phases.
    const JsonValue &timing = report.at("timing");
    double phaseSeconds = 0.0;
    for (const auto &[name, seconds] : timing.at("phases").members())
        phaseSeconds += seconds.asDouble();
    EXPECT_GT(phaseSeconds, 0.0);
    EXPECT_LE(phaseSeconds,
              timing.at("elapsed_seconds").asDouble() *
                      static_cast<double>(
                          timing.at("threads").asInt()) +
                  1e-6);

    const auto &cells = report.at("cells").items();
    ASSERT_EQ(cells.size(), 4u);
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const JsonValue &cell = cells[i];
        EXPECT_EQ(cell.at("index").asInt(),
                  static_cast<std::int64_t>(i));
        EXPECT_TRUE(cell.at("axes").isObject());
        EXPECT_EQ(cell.at("request_digest").asString().substr(0, 3),
                  "v1:");
        ASSERT_EQ(cell.at("benchmarks").items().size(), 1u);
        const JsonValue &bench = cell.at("benchmarks").items()[0];
        EXPECT_EQ(bench.at("name").asString(), "cmp");
        EXPECT_GT(bench.at("base_cycles").asInt(), 0);
        EXPECT_TRUE(bench.at("models").find("full_pred") != nullptr);
    }
}

TEST(Sweep, ConcurrentSweepsShareOneStore)
{
    const std::string dir = freshDir("sweep_contention_store");
    ASSERT_EQ(setenv("PREDILP_STORE", dir.c_str(), 1), 0);
    SweepSpec spec = smallSpec();

    // Two whole sweeps race on the same store: both processes publish
    // the same artifacts concurrently under the flock protocol, and
    // both must succeed.
    pid_t pids[2];
    for (auto &pid : pids) {
        pid = ::fork();
        ASSERT_GE(pid, 0);
        if (pid == 0) {
            try {
                runSweep(spec, "");
                _exit(0);
            } catch (...) {
                _exit(1);
            }
        }
    }
    for (pid_t pid : pids) {
        int status = 0;
        ASSERT_EQ(::waitpid(pid, &status, 0), pid);
        ASSERT_TRUE(WIFEXITED(status));
        EXPECT_EQ(WEXITSTATUS(status), 0);
    }

    // A warm sweep over the populated store is served from the
    // certified records: no compile, capture or replay.
    SweepOutcome served = runSweep(spec, "");
    EXPECT_EQ(served.timing.counter("counters.compiles"), 0u);
    EXPECT_EQ(served.timing.counter("counters.captures"), 0u);
    EXPECT_EQ(served.timing.counter("counters.replays"), 0u);
    EXPECT_GT(served.timing.counter("store.result_hit"), 0u);

    // Without the records, a warm sweep still does no new work —
    // every trace comes off disk — and still renders the same bytes
    // as a cold run with no store at all.
    fs::remove_all(fs::path(dir) / "results");
    SweepOutcome warm = runSweep(spec, "");
    EXPECT_EQ(warm.timing.counter("counters.compiles"), 0u);
    EXPECT_EQ(warm.timing.counter("counters.captures"), 0u);
    EXPECT_GT(warm.timing.counter("store.hit"), 0u);
    ASSERT_EQ(unsetenv("PREDILP_STORE"), 0);
    SweepOutcome cold = runSweep(spec, "");
    EXPECT_EQ(warm.cellsJson, cold.cellsJson);
    EXPECT_EQ(served.cellsJson, cold.cellsJson);
}

TEST(Sweep, StorePublishCrashThenRerunConverges)
{
    const std::string clean = runSweep(smallSpec(), "").cellsJson;
    const std::string dir = freshDir("sweep_crash_store");
    ASSERT_EQ(setenv("PREDILP_STORE", dir.c_str(), 1), 0);

    // The sweep process dies inside the artifact store's publish
    // window: the temp file is staged, the canonical path untouched.
    pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        try {
            faultpoints::armFromSpec("store.publish.rename=once:crash");
            runSweep(smallSpec(), "");
        } catch (...) {
        }
        _exit(0); // reached only if the point never fired.
    }
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFSIGNALED(status));
    EXPECT_EQ(WTERMSIG(status), SIGKILL);

    // A disarmed rerun recomputes what the dead run never published
    // and converges to the clean cells.
    EXPECT_EQ(runSweep(smallSpec(), "").cellsJson, clean);

    // No corrupt artifact was published: with the certified records
    // dropped, a warm sweep maps every trace and captures nothing (a
    // poisoned artifact would be quarantined and re-captured).
    fs::remove_all(fs::path(dir) / "results");
    SweepOutcome warm = runSweep(smallSpec(), "");
    ASSERT_EQ(unsetenv("PREDILP_STORE"), 0);
    EXPECT_EQ(warm.timing.counter("counters.captures"), 0u);
    EXPECT_GT(warm.timing.counter("store.hit"), 0u);
    EXPECT_EQ(warm.cellsJson, clean);
}

TEST(Sweep, ArmedFaultPointFiresAndHeals)
{
    const std::string clean = runSweep(smallSpec(), "").cellsJson;
    // An injected compile failure is healed by the evaluator's
    // sequential recompute, and the report proves the point fired.
    faultpoints::armFromSpec("eval.compile=once");
    SweepOutcome outcome = runSweep(smallSpec(), "");
    faultpoints::resetForTest();
    EXPECT_EQ(outcome.timing.counter("fault.eval.compile.fired"), 1u);
    EXPECT_EQ(outcome.cellsJson, clean);
}

} // namespace
} // namespace predilp
