/**
 * @file
 * Self-healing tests, driven by injected faults: a trace group that
 * fails once (a threaded-capture trap, a compile, a batched replay)
 * heals through the evaluator's one-cell retry, an artifact that
 * fails validation is quarantined and recomputed (including two
 * processes racing on the same corrupted artifact), and every heal
 * reproduces the clean run's results bit-identically. Plus the
 * classifyException taxonomy for non-predilp exceptions.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <new>
#include <sstream>

#include "driver/evaluator.hh"
#include "support/diag.hh"
#include "support/faultpoint.hh"

namespace predilp
{
namespace
{

namespace fs = std::filesystem;

class SelfHeal : public ::testing::Test
{
  protected:
    void SetUp() override { faultpoints::resetForTest(); }
    void TearDown() override { faultpoints::resetForTest(); }
};

TEST_F(SelfHeal, EvaluatorArmsFaultsFromEnvironment)
{
    // Bench binaries never reach runSweep; constructing the
    // evaluator is what arms PREDILP_FAULTS for them.
    ASSERT_EQ(setenv("PREDILP_FAULTS", "store.load.validate=nth:1", 1),
              0);
    {
        SuiteEvaluator evaluator(1);
    }
    ASSERT_EQ(unsetenv("PREDILP_FAULTS"), 0);
    ASSERT_TRUE(faultpoints::armed());
    EXPECT_EQ(faultpoints::poll("store.load.validate"),
              faultpoints::FaultAction::Throw);
    EXPECT_EQ(faultpoints::stats().counter(
                  "fault.store.load.validate.fired"),
              1u);
}

/** Fresh empty directory under the test temp root. */
std::string
freshDir(const std::string &name)
{
    fs::path dir = fs::path(testing::TempDir()) / name;
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir.string();
}

EvalRequest
cmpRequest()
{
    EvalRequest request;
    request.sim.machine = issue8Branch1();
    request.workloads = {"cmp"};
    return request;
}

/** Stable digest of every architectural number in a response. */
std::string
fingerprint(const EvalResponse &response)
{
    std::ostringstream os;
    for (const BenchmarkResult &r : response.results) {
        os << r.name << ':' << r.baseCycles;
        for (const auto &[model, sim] : r.models) {
            os << '|' << modelKey(model) << '=' << sim.cycles << ','
               << sim.dynInstrs << ',' << sim.mispredicts << ','
               << sim.exitValue;
        }
        os << '\n';
    }
    return os.str();
}

/**
 * Drop the certified records under @p dir, so the next evaluator
 * reaches every cell through the trace tier: a warm run that can
 * serve its records never maps (or validates) a trace.
 */
void
dropResultRecords(const std::string &dir)
{
    fs::remove_all(fs::path(dir) / "results");
}

EvalPolicy
storePolicy(const std::string &dir)
{
    EvalPolicy policy;
    policy.storeMode = StoreMode::ReadWrite;
    policy.storeDir = dir;
    return policy;
}

/** Flip one payload byte in every published artifact under @p dir. */
void
corruptEveryArtifact(const std::string &dir)
{
    std::size_t corrupted = 0;
    for (const auto &entry : fs::recursive_directory_iterator(dir)) {
        if (entry.path().extension() != ".trc")
            continue;
        std::fstream f(entry.path(),
                       std::ios::binary | std::ios::in |
                           std::ios::out);
        ASSERT_TRUE(f.good()) << entry.path();
        f.seekg(0, std::ios::end);
        const std::streamoff size = f.tellg();
        ASSERT_GT(size, 0) << entry.path();
        f.seekg(size / 2);
        char byte = 0;
        f.read(&byte, 1);
        byte = static_cast<char>(byte ^ 0x5a);
        f.seekp(size / 2);
        f.write(&byte, 1);
        corrupted += 1;
    }
    ASSERT_GT(corrupted, 0u) << "no artifacts under " << dir;
}

TEST_F(SelfHeal, ThreadedCaptureTrapHealsOnRetry)
{
    EvalRequest request = cmpRequest();
    SuiteEvaluator clean(2);
    const std::string expected = fingerprint(clean.evaluate(request));

    faultpoints::armFromSpec("emu.threaded.capture=once");
    SuiteEvaluator healed(2);
    EXPECT_EQ(fingerprint(healed.evaluate(request)), expected);
    const StatsSnapshot stats = healed.stats();
    EXPECT_EQ(stats.counter("counters.batch_fallbacks"), 1u);
}

TEST_F(SelfHeal, FailedBatchGroupRecomputesSequentially)
{
    EvalRequest a = cmpRequest();
    EvalRequest b = cmpRequest();
    b.sim.machine.issueWidth = 4;
    SuiteEvaluator clean(2);
    const std::string expectedA = fingerprint(clean.evaluate(a));
    const std::string expectedB = fingerprint(clean.evaluate(b));

    faultpoints::armFromSpec("eval.replay.batch=once");
    SuiteEvaluator healed(2);
    std::vector<EvalResponse> responses = healed.evaluateBatch({a, b});
    ASSERT_EQ(responses.size(), 2u);
    EXPECT_EQ(fingerprint(responses[0]), expectedA);
    EXPECT_EQ(fingerprint(responses[1]), expectedB);
    EXPECT_GE(healed.stats().counter("counters.batch_fallbacks"), 1u);
}

TEST_F(SelfHeal, IsolatedCellRecordsInjectedFaultKind)
{
    EvalPolicy policy;
    policy.isolateFaults = true;
    SuiteEvaluator clean(2);
    const EvalResponse expected = clean.evaluate(cmpRequest());

    // A compile that always throws fails every cell, the retry
    // included, and each records the injected fault's kind.
    faultpoints::armFromSpec("eval.compile=prob:1");
    SuiteEvaluator failing(2);
    failing.setPolicy(policy);
    EvalResponse response = failing.evaluate(cmpRequest());
    ASSERT_EQ(response.results.size(), 1u);
    EXPECT_EQ(response.results[0].errors.size(), 4u);
    for (const CellError &error : response.results[0].errors)
        EXPECT_EQ(error.kind, "FaultInjectedError");

    // A compile that throws once heals inside the call, and the
    // retry reuses the formations the failed attempt left cached.
    faultpoints::resetForTest();
    faultpoints::armFromSpec("eval.compile=once");
    SuiteEvaluator healed(2);
    healed.setPolicy(policy);
    response = healed.evaluate(cmpRequest());
    EXPECT_TRUE(response.results.at(0).errors.empty());
    EXPECT_EQ(fingerprint(response), fingerprint(expected));
    const StatsSnapshot stats = healed.stats();
    EXPECT_GE(stats.counter("counters.batch_fallbacks"), 1u);
    EXPECT_EQ(stats.counter("counters.formations"),
              clean.stats().counter("counters.formations"));
}

TEST_F(SelfHeal, ClassifyExceptionTypesForeignExceptions)
{
    EXPECT_EQ(classifyException(
                  std::make_exception_ptr(std::bad_alloc())),
              "ResourceError");
    EXPECT_EQ(classifyException(std::make_exception_ptr(
                  std::length_error("resize"))),
              "ResourceError");
    EXPECT_EQ(classifyException(std::make_exception_ptr(42)),
              "UnknownError");
    EXPECT_EQ(classifyException(nullptr), "UnknownError");
    EXPECT_EQ(classifyException(std::make_exception_ptr(
                  FaultInjectedError("test.x"))),
              "FaultInjectedError");
}

TEST_F(SelfHeal, ValidateFaultQuarantinesAndRecomputes)
{
    const std::string dir = freshDir("selfheal_validate_store");
    EvalRequest request = cmpRequest();

    SuiteEvaluator first(2);
    first.setPolicy(storePolicy(dir));
    const std::string expected = fingerprint(first.evaluate(request));
    ASSERT_GT(first.stats().counter("store.write"), 0u);

    // Every artifact load in this evaluator's cold pass fails
    // validation once; the store must quarantine and recompute.
    dropResultRecords(dir);
    faultpoints::armFromSpec("store.load.validate=nth:1");
    SuiteEvaluator second(2);
    second.setPolicy(storePolicy(dir));
    EXPECT_EQ(fingerprint(second.evaluate(request)), expected);
    EXPECT_GE(second.stats().counter("store.repair"), 1u);
    // The recomputed artifact was republished: a third, disarmed
    // evaluator loads it clean with zero emulation.
    faultpoints::resetForTest();
    dropResultRecords(dir);
    SuiteEvaluator third(2);
    third.setPolicy(storePolicy(dir));
    EXPECT_EQ(fingerprint(third.evaluate(request)), expected);
    EXPECT_EQ(third.stats().counter("counters.captures"), 0u);
    EXPECT_GT(third.stats().counter("store.hit"), 0u);
}

TEST_F(SelfHeal, MmapFaultDegradesToRecompute)
{
    const std::string dir = freshDir("selfheal_mmap_store");
    EvalRequest request = cmpRequest();
    SuiteEvaluator first(2);
    first.setPolicy(storePolicy(dir));
    const std::string expected = fingerprint(first.evaluate(request));

    dropResultRecords(dir);
    faultpoints::armFromSpec("store.load.mmap=once");
    SuiteEvaluator second(2);
    second.setPolicy(storePolicy(dir));
    EXPECT_EQ(fingerprint(second.evaluate(request)), expected);
    EXPECT_GE(second.stats().counter("store.repair"), 1u);
}

TEST_F(SelfHeal, RacingEvaluatorsBothRecoverFromCorruption)
{
    const std::string dir = freshDir("selfheal_race_store");
    EvalRequest request = cmpRequest();

    SuiteEvaluator seed(2);
    seed.setPolicy(storePolicy(dir));
    const std::string expected = fingerprint(seed.evaluate(request));

    // Corrupt every published artifact in place, then race two
    // fresh processes on the poisoned store. Each detects the
    // checksum mismatch, quarantines (under the store lock), and
    // recomputes; neither may serve corrupt bytes or trip over the
    // other's quarantine rename.
    corruptEveryArtifact(dir);
    dropResultRecords(dir);

    const std::string outA = dir + "/race_a.txt";
    const std::string outB = dir + "/race_b.txt";
    pid_t pids[2];
    const std::string *outs[2] = {&outA, &outB};
    for (int i = 0; i < 2; ++i) {
        pids[i] = ::fork();
        ASSERT_GE(pids[i], 0);
        if (pids[i] == 0) {
            try {
                SuiteEvaluator racer(2);
                racer.setPolicy(storePolicy(dir));
                std::ofstream out(*outs[i], std::ios::binary);
                out << fingerprint(racer.evaluate(request));
                out.close();
                _exit(out ? 0 : 3);
            } catch (...) {
                _exit(2);
            }
        }
    }
    for (pid_t pid : pids) {
        int status = 0;
        ASSERT_EQ(::waitpid(pid, &status, 0), pid);
        ASSERT_TRUE(WIFEXITED(status));
        EXPECT_EQ(WEXITSTATUS(status), 0);
    }
    for (const std::string *path : outs) {
        std::ifstream in(*path, std::ios::binary);
        ASSERT_TRUE(in.good()) << *path;
        std::ostringstream content;
        content << in.rdbuf();
        EXPECT_EQ(content.str(), expected) << *path;
    }
}

} // namespace
} // namespace predilp
