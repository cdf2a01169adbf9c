/**
 * @file
 * predilp_perfbench: runs one benchmark workload as a closed loop.
 * The main thread is the only client: it sends a pass's requests to
 * a SuiteEvaluator one at a time, each after the previous returned,
 * and starts the next pass (with a fresh evaluator) after the last.
 * The evaluator's pool size is fixed by --threads and fault
 * isolation is on, so a failing cell is counted, not fatal.
 *
 * Passes repeat until --seconds have elapsed. With --trace 1 the
 * untraced passes take half that budget and one traced pass follows
 * (traced.hh). The process prints one JSON report line with the raw
 * samples; perfbench/run.py turns it into the benchmark's metrics.
 *
 * Other modes:
 *   --prepare-store DIR   run one cold figures pass into DIR.
 *   --record-expected F   write the expected-output file F.
 *   --print-plan          print the workload's requests for --seed.
 */

#include <sys/resource.h>

#include <cstdio>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>

#include "driver/evaluator.hh"
#include "plan.hh"
#include "spans.hh"
#include "support/diag.hh"
#include "traced.hh"

namespace
{

using namespace predilp;
using namespace perfbench;
namespace fs = std::filesystem;

struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10;
    bool trace = false;
    int threads = 1;
    std::string workDir;
    std::string expectedPath;
    std::string traceOut;
    std::string prepareStore;
    std::string recordExpected;
    bool printPlan = false;
};

Options
parseOptions(int argc, char **argv)
{
    Options opts;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--print-plan") {
            opts.printPlan = true;
            continue;
        }
        if (i + 1 >= argc)
            throw FatalError("missing value for " + arg);
        const std::string value = argv[++i];
        if (arg == "--workload")
            opts.workload = value;
        else if (arg == "--seed")
            opts.seed = std::stoull(value);
        else if (arg == "--seconds")
            opts.seconds = std::stod(value);
        else if (arg == "--trace")
            opts.trace = value == "1";
        else if (arg == "--threads")
            opts.threads = std::stoi(value);
        else if (arg == "--work-dir")
            opts.workDir = value;
        else if (arg == "--expected")
            opts.expectedPath = value;
        else if (arg == "--trace-out")
            opts.traceOut = value;
        else if (arg == "--prepare-store")
            opts.prepareStore = value;
        else if (arg == "--record-expected")
            opts.recordExpected = value;
        else
            throw FatalError("unknown option " + arg);
    }
    if (opts.threads < 1)
        throw FatalError("--threads must be at least 1");
    return opts;
}

double
processCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

std::int64_t
peakRssKib()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return usage.ru_maxrss;
}

/** Where a pass keeps its store, or "" when the store is off. */
std::string
storeDirFor(WorkloadKind kind, const Options &opts)
{
    switch (kind) {
      case WorkloadKind::FiguresCold:
        return (fs::path(opts.workDir) / "store-cold").string();
      case WorkloadKind::FiguresWarm:
        return (fs::path(opts.workDir) / "store").string();
      case WorkloadKind::SweepCacheGrid:
        break;
    }
    return "";
}

/** Start a cold pass from an empty store; check a warm one is full. */
void
prepareStoreDir(WorkloadKind kind, const std::string &dir)
{
    if (kind == WorkloadKind::FiguresCold) {
        fs::remove_all(dir);
    } else if (kind == WorkloadKind::FiguresWarm &&
               (!fs::is_directory(fs::path(dir) / "objects") ||
                fs::is_empty(fs::path(dir) / "objects"))) {
        throw FatalError("no populated store at " + dir +
                         " (run --prepare-store first)");
    }
}

/** Generate every workload's input stream, as the evaluator does. */
void
generateInputs()
{
    for (const Workload &workload : allWorkloads())
        workload.input();
}

/** The results of one pass, labelled for the cell check. */
using PassResults =
    std::vector<std::pair<std::string, std::vector<BenchmarkResult>>>;

/**
 * Run one pass's requests. Works for SuiteEvaluator and
 * TracedEvaluator alike: both take requests one at a time.
 */
template <typename Evaluator>
PassResults
runRequests(WorkloadKind kind, std::uint64_t seed, Evaluator &evaluator)
{
    PassResults results;
    if (kind == WorkloadKind::SweepCacheGrid) {
        std::vector<EvalResponse> responses =
            evaluator.evaluateBatch(sweepRequests(seed));
        for (std::size_t i = 0; i < responses.size(); ++i) {
            results.emplace_back("p" + std::to_string(i),
                                 std::move(responses[i].results));
        }
        return results;
    }
    for (const FigureRequest &figure : figureRequests(seed)) {
        results.emplace_back(figure.figure,
                             evaluator.evaluate(figure.request).results);
        if (figure.releaseTracesAfter)
            evaluator.releaseTraces();
    }
    return results;
}

constexpr int setupRepeats = 10;

struct PassSample
{
    std::vector<double> setupSeconds;
    double wallSeconds = 0;
    double cpuSeconds = 0;
    BenchTiming timing;
};

PassSample
runUntracedPass(WorkloadKind kind, const Options &opts,
                const ExpectedOutputs &expected, CellTally &tally)
{
    const std::string storeDir = storeDirFor(kind, opts);
    prepareStoreDir(kind, storeDir);

    EvalPolicy policy;
    policy.isolateFaults = true;
    if (!storeDir.empty()) {
        policy.storeMode = StoreMode::ReadWrite;
        policy.storeDir = storeDir;
    }
    // Set-up takes about a millisecond, so it is sampled several
    // times per pass; the pass keeps the last evaluator.
    PassSample sample;
    std::unique_ptr<SuiteEvaluator> evaluator;
    for (int i = 0; i < setupRepeats; ++i) {
        WallTimer setup;
        generateInputs();
        auto fresh = std::make_unique<SuiteEvaluator>(opts.threads);
        fresh->setPolicy(policy);
        sample.setupSeconds.push_back(setup.seconds());
        evaluator = std::move(fresh);
    }

    const double cpuStart = processCpuSeconds();
    WallTimer wall;
    PassResults results = runRequests(kind, opts.seed, *evaluator);
    sample.wallSeconds = wall.seconds();
    sample.cpuSeconds = processCpuSeconds() - cpuStart;
    sample.timing = evaluator->timing();

    for (const auto &[label, rows] : results)
        checkResults(label, rows, expected, tally);
    if (kind == WorkloadKind::FiguresCold)
        fs::remove_all(storeDir);
    return sample;
}

JsonValue
num(double v)
{
    return JsonValue::makeDouble(v);
}

JsonValue
count(std::uint64_t v)
{
    return JsonValue::makeInt(static_cast<std::int64_t>(v));
}

/** The untraced pass's plan counts, for the faithfulness check. */
PlanCounts
planCounts(const BenchTiming &t)
{
    PlanCounts c;
    c.compiles = t.compiles;
    c.prefixCompiles = t.prefixCompiles;
    c.captures = t.captures;
    c.replays = t.replays;
    c.capturedRecords = t.capturedRecords;
    c.replayedRecords = t.replayedRecords;
    c.storeHits = t.storeHits;
    c.storeWrites = t.storeWrites;
    c.resultCacheHits = t.resultCacheHits;
    return c;
}

JsonValue
planJson(const PlanCounts &c)
{
    return JsonValue::makeObject({
        {"compiles", count(c.compiles)},
        {"prefix_compiles", count(c.prefixCompiles)},
        {"captures", count(c.captures)},
        {"replays", count(c.replays)},
        {"captured_records", count(c.capturedRecords)},
        {"replayed_records", count(c.replayedRecords)},
        {"store_hits", count(c.storeHits)},
        {"store_writes", count(c.storeWrites)},
        {"result_cache_hits", count(c.resultCacheHits)},
    });
}

/** Per-layer metrics of the traced pass, named as in BENCHMARK.json. */
JsonValue
layerMetrics(const TracedCounts &counts,
             const std::map<std::string, double> &self)
{
    auto seconds = [&self](const std::string &layer) {
        auto it = self.find(layer);
        return it == self.end() ? 0.0 : it->second;
    };
    auto work = [&counts](const std::string &layer) {
        auto it = counts.layers.find(layer);
        return it == counts.layers.end() ? LayerWork{} : it->second;
    };
    auto rate = [](std::uint64_t records, double s) {
        return s > 0 ? static_cast<double>(records) / s * 1e-6 : 0.0;
    };

    std::vector<std::pair<std::string, JsonValue>> m;
    m.emplace_back("workloads.input.s", num(seconds("workloads.input")));
    for (const char *layer : {"frontend", "opt.prefix",
                              "compile.superblock", "compile.cond_move",
                              "compile.full_pred"}) {
        const std::string name = layer;
        m.emplace_back(name + ".s", num(seconds(name)));
        m.emplace_back(name + ".calls", count(work(name).calls));
        m.emplace_back(name + ".ir_instrs", count(work(name).irInstrs));
    }
    m.emplace_back("reference.s", num(seconds("reference")));
    m.emplace_back("reference.calls", count(work("reference").calls));
    m.emplace_back("emu.decode.s", num(seconds("emu.decode")));
    m.emplace_back("emu.decode.calls", count(work("emu.decode").calls));
    const LayerWork capture = work("emu.capture");
    m.emplace_back("emu.capture.s", num(seconds("emu.capture")));
    m.emplace_back("emu.capture.records", count(capture.records));
    m.emplace_back("emu.capture.mrec_per_s",
                   num(rate(capture.records, seconds("emu.capture"))));
    m.emplace_back("trace.bytes_per_record",
                   num(counts.traceRecords == 0
                           ? 0.0
                           : static_cast<double>(counts.traceBytes) /
                                 static_cast<double>(
                                     counts.traceRecords)));
    for (const char *layer :
         {"sim.replay.perfect", "sim.replay.realcache"}) {
        const std::string name = layer;
        const LayerWork replayed = work(name);
        m.emplace_back(name + ".s", num(seconds(name)));
        m.emplace_back(name + ".calls", count(replayed.calls));
        m.emplace_back(name + ".records", count(replayed.records));
        m.emplace_back(name + ".mrec_per_s",
                       num(rate(replayed.records, seconds(name))));
    }
    const LayerWork batch = work("sim.replay_batch");
    m.emplace_back("sim.replay_batch.s", num(seconds("sim.replay_batch")));
    m.emplace_back("sim.replay_batch.configs", count(batch.configs));
    m.emplace_back("sim.replay_batch.records", count(batch.records));
    m.emplace_back("sim.replay_batch.mrec_per_s_per_config",
                   num(rate(batch.records, seconds("sim.replay_batch"))));
    m.emplace_back("store.save.s", num(seconds("store.save")));
    m.emplace_back("store.save.calls", count(work("store.save").calls));
    m.emplace_back("store.save.bytes", count(work("store.save").bytes));
    m.emplace_back("store.save_result.s",
                   num(seconds("store.save_result")));
    m.emplace_back("store.save_result.calls",
                   count(work("store.save_result").calls));
    m.emplace_back("store.load.s", num(seconds("store.load")));
    m.emplace_back("store.load.calls", count(work("store.load").calls));
    m.emplace_back("store.load.bytes_mapped",
                   count(work("store.load").bytes));
    return JsonValue::makeObject(std::move(m));
}

/** One traced pass: spans, layer metrics, and the walk's counts. */
JsonValue
runTracedPass(WorkloadKind kind, const Options &opts,
              const ExpectedOutputs &expected, CellTally &tally)
{
    const std::string storeDir = storeDirFor(kind, opts);
    prepareStoreDir(kind, storeDir);
    std::unique_ptr<ArtifactStore> store;
    if (!storeDir.empty())
        store = std::make_unique<ArtifactStore>(storeDir,
                                                StoreMode::ReadWrite);

    SpanRecorder spans;
    TracedEvaluator evaluator(spans, store.get());
    const double cpuStart = processCpuSeconds();
    WallTimer wall;
    PassResults results;
    {
        SpanRecorder::Scope root(spans, "driver.pass", spans.newCell());
        results = runRequests(kind, opts.seed, evaluator);
    }
    const double wallSeconds = wall.seconds();
    const double cpuSeconds = processCpuSeconds() - cpuStart;

    for (const auto &[label, rows] : results)
        checkResults(label, rows, expected, tally);
    if (kind == WorkloadKind::FiguresCold)
        fs::remove_all(storeDir);

    const std::map<std::string, double> self = spans.selfSeconds();
    double layerSeconds = 0;
    double driverSeconds = 0;
    for (const auto &[name, seconds] : self) {
        if (name.rfind("driver.", 0) == 0)
            driverSeconds += seconds;
        else
            layerSeconds += seconds;
    }
    if (!opts.traceOut.empty())
        spans.writeChromeTrace(opts.traceOut);

    return JsonValue::makeObject({
        {"wall_s", num(wallSeconds)},
        {"cpu_s", num(cpuSeconds)},
        {"layer_self_s", num(layerSeconds)},
        {"driver_self_s", num(driverSeconds)},
        {"spans", count(spans.spans().size())},
        {"counts", planJson(evaluator.counts())},
        {"layers", layerMetrics(evaluator.counts(), self)},
    });
}

const char *
compilerIdentity()
{
#if defined(__clang__)
    return "clang " __clang_version__;
#elif defined(__GNUC__)
    return "gcc " __VERSION__;
#else
    return "unknown";
#endif
}

JsonValue
speedupsJson(const CellTally &tally)
{
    return JsonValue::makeObject({
        {"full_pred", num(geomean(tally.fullPred))},
        {"cond_move", num(geomean(tally.condMove))},
    });
}

int
runBenchmark(const Options &opts)
{
    const WorkloadKind kind = workloadFromName(opts.workload);
    if (opts.workDir.empty())
        throw FatalError("--work-dir is required");
    fs::create_directories(opts.workDir);
    const ExpectedOutputs expected =
        loadExpectedOutputs(opts.expectedPath);

    const double untracedBudget =
        opts.trace ? opts.seconds / 2 : opts.seconds;
    CellTally tally;
    std::vector<PassSample> samples;
    WallTimer elapsed;
    do {
        samples.push_back(runUntracedPass(kind, opts, expected, tally));
    } while (elapsed.seconds() < untracedBudget);

    std::vector<JsonValue> passes;
    for (const PassSample &s : samples) {
        std::vector<JsonValue> setups;
        for (double seconds : s.setupSeconds)
            setups.push_back(num(seconds));
        passes.push_back(JsonValue::makeObject({
            {"setup_s", JsonValue::makeArray(std::move(setups))},
            {"wall_s", num(s.wallSeconds)},
            {"cpu_s", num(s.cpuSeconds)},
        }));
    }

    // The traced pass keeps its own tally so its speedups can be
    // compared with the untraced passes'; its cells count all the same.
    JsonValue traced;
    if (opts.trace) {
        CellTally tracedTally;
        std::vector<std::pair<std::string, JsonValue>> members =
            runTracedPass(kind, opts, expected, tracedTally).members();
        members.emplace_back("speedups", speedupsJson(tracedTally));
        traced = JsonValue::makeObject(std::move(members));
        tally.attempted += tracedTally.attempted;
        tally.failed += tracedTally.failed;
        tally.failures.insert(tally.failures.end(),
                              tracedTally.failures.begin(),
                              tracedTally.failures.end());
    }

    std::vector<JsonValue> failures;
    for (const std::string &failure : tally.failures)
        failures.push_back(JsonValue::makeString(failure));
    JsonValue report = JsonValue::makeObject({
        {"workload", JsonValue::makeString(opts.workload)},
        {"seed", count(opts.seed)},
        {"pool_threads", JsonValue::makeInt(opts.threads)},
        {"store_mode",
         JsonValue::makeString(kind == WorkloadKind::SweepCacheGrid
                                   ? "off"
                                   : "rw")},
        {"emu_backend",
         JsonValue::makeString(emuBackendName(defaultEmuBackend()))},
        {"compiler", JsonValue::makeString(compilerIdentity())},
        {"build_type", JsonValue::makeString(PERFBENCH_BUILD_TYPE)},
        {"passes", JsonValue::makeArray(std::move(passes))},
        {"untraced_counts", planJson(planCounts(samples.front().timing))},
        {"peak_rss_kib", JsonValue::makeInt(peakRssKib())},
        {"attempted", count(tally.attempted)},
        {"failed", count(tally.failed)},
        {"failures", JsonValue::makeArray(std::move(failures))},
        {"speedups", speedupsJson(tally)},
        {"speedups_stable", JsonValue::makeBool(tally.speedupsRepeat)},
        {"traced", traced},
    });
    std::cout << report.dump() << std::endl;
    return 0;
}

int
prepareStore(const Options &opts)
{
    fs::remove_all(opts.prepareStore);
    SuiteEvaluator evaluator(opts.threads);
    EvalPolicy policy;
    policy.isolateFaults = true;
    policy.storeMode = StoreMode::ReadWrite;
    policy.storeDir = opts.prepareStore;
    evaluator.setPolicy(policy);
    runRequests(WorkloadKind::FiguresCold, opts.seed, evaluator);
    return 0;
}

int
printPlan(const Options &opts)
{
    const WorkloadKind kind = workloadFromName(opts.workload);
    if (kind == WorkloadKind::SweepCacheGrid) {
        for (const EvalRequest &request : sweepRequests(opts.seed))
            std::cout << request.toJson().dump() << "\n";
    } else {
        for (const FigureRequest &figure : figureRequests(opts.seed))
            std::cout << figure.request.toJson().dump() << "\n";
    }
    return 0;
}

int
recordExpected(const Options &opts)
{
    std::ofstream out(opts.recordExpected);
    out << expectedOutputsToJson(recordExpectedOutputs());
    if (!out)
        throw FatalError("cannot write " + opts.recordExpected);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        const Options opts = parseOptions(argc, argv);
        if (!opts.recordExpected.empty())
            return recordExpected(opts);
        if (!opts.prepareStore.empty())
            return prepareStore(opts);
        if (opts.printPlan)
            return printPlan(opts);
        return runBenchmark(opts);
    } catch (const std::exception &e) {
        std::cerr << "predilp_perfbench: " << e.what() << "\n";
        return 2;
    }
}
