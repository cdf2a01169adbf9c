#include "driver/sweep.hh"

#include <csignal>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>
#include <tuple>
#include <unordered_map>
#include <unordered_set>

#include "driver/bench_io.hh"
#include "support/diag.hh"
#include "support/env.hh"
#include "support/faultpoint.hh"
#include "support/logging.hh"
#include "support/thread_pool.hh"

namespace predilp
{

namespace
{

namespace fs = std::filesystem;

// ---- Axis application ----

std::int64_t
positiveAxisValue(const std::string &axis, const JsonValue &value)
{
    std::int64_t raw = value.asInt();
    if (raw <= 0) {
        throw FatalError("axis '" + axis +
                         "' requires positive integer values");
    }
    return raw;
}

void
applyAxis(SimConfig &sim, const std::string &axis,
          const JsonValue &value)
{
    if (axis == "issue_width") {
        sim.machine.issueWidth =
            static_cast<int>(positiveAxisValue(axis, value));
    } else if (axis == "branches_per_cycle") {
        sim.machine.branchesPerCycle =
            static_cast<int>(positiveAxisValue(axis, value));
    } else if (axis == "mispredict_penalty") {
        sim.machine.mispredictPenalty =
            static_cast<int>(value.asInt());
    } else if (axis == "btb_entries") {
        sim.btbEntries =
            static_cast<std::size_t>(positiveAxisValue(axis, value));
    } else if (axis == "btb_assoc") {
        sim.btbAssociativity =
            static_cast<int>(positiveAxisValue(axis, value));
    } else if (axis == "predictor") {
        sim.predictor = predictorFromName(value.asString());
    } else if (axis == "cache_size_bytes") {
        sim.cacheSizeBytes = positiveAxisValue(axis, value);
    } else if (axis == "cache_line_bytes") {
        sim.cacheLineBytes = positiveAxisValue(axis, value);
    } else if (axis == "cache_assoc") {
        sim.cacheAssociativity =
            static_cast<int>(positiveAxisValue(axis, value));
    } else if (axis == "cache_miss_penalty") {
        sim.cacheMissPenalty = static_cast<int>(value.asInt());
    } else if (axis == "perfect_caches") {
        sim.perfectCaches = value.asBool();
    } else {
        std::string known;
        for (const std::string &name : SweepSpec::knownAxes())
            known += (known.empty() ? "" : ", ") + name;
        throw FatalError("unknown sweep axis '" + axis +
                         "' (known axes: " + known + ")");
    }
}

// ---- Cell rendering ----

/**
 * One cell's JSON object. Both execution paths (sequential and
 * forked) build cells exclusively through this function, and the
 * worker-file round trip is lossless (JsonValue preserves number
 * lexical classes), so the merged cells array is byte-identical to
 * a sequential run's.
 */
JsonValue
cellToJson(const SweepCell &cell, const EvalResponse &response)
{
    std::vector<std::pair<std::string, JsonValue>> axes;
    for (const auto &[name, value] : cell.axisValues)
        axes.emplace_back(name, value);
    std::vector<JsonValue> benchmarks;
    benchmarks.reserve(response.results.size());
    for (const BenchmarkResult &result : response.results) {
        std::vector<std::pair<std::string, JsonValue>> models;
        for (const auto &[model, sim] : result.models) {
            models.emplace_back(
                modelKey(model),
                JsonValue::parse(
                    cellSnapshot(result, model, sim).toJson()));
        }
        std::vector<std::pair<std::string, JsonValue>> provs;
        for (const auto &[model, prov] : result.provenance)
            provs.emplace_back(modelKey(model), prov.toJson());
        benchmarks.push_back(JsonValue::makeObject({
            {"name", JsonValue::makeString(result.name)},
            {"base_cycles",
             JsonValue::makeInt(
                 static_cast<std::int64_t>(result.baseCycles))},
            {"models", JsonValue::makeObject(std::move(models))},
            {"provenance", JsonValue::makeObject(std::move(provs))},
        }));
    }
    return JsonValue::makeObject({
        {"index", JsonValue::makeInt(
                      static_cast<std::int64_t>(cell.index))},
        {"axes", JsonValue::makeObject(std::move(axes))},
        {"request_digest",
         JsonValue::makeString(cell.request.requestDigest())},
        {"config_digest",
         JsonValue::makeString(cell.request.sim.configDigest())},
        {"benchmarks", JsonValue::makeArray(std::move(benchmarks))},
    });
}

/** Mean of the named speedup leaf across a cell's benchmarks.
 * Degraded cells carry no "benchmarks" key and contribute nothing. */
bool
meanSpeedup(const JsonValue &cell, const char *model, double &mean)
{
    const JsonValue *benchmarks = cell.find("benchmarks");
    if (benchmarks == nullptr)
        return false;
    double sum = 0;
    std::size_t count = 0;
    for (const JsonValue &bench : benchmarks->items()) {
        if (const JsonValue *m = bench.at("models").find(model)) {
            if (const JsonValue *s = m->find("speedup")) {
                sum += s->asDouble();
                count += 1;
            }
        }
    }
    if (count == 0)
        return false;
    mean = sum / static_cast<double>(count);
    return true;
}

/**
 * Per-axis crossover summary: for every value of every axis, the
 * mean Full Predication and Cond. Move speedups over all cells at
 * that value (and all their benchmarks), plus the first axis value
 * (in declaration order) where full predication's mean matches or
 * beats partial predication's. Pure function of the cells array, so
 * it is identical for every worker count.
 */
JsonValue
crossoverSummary(const SweepSpec &spec,
                 const std::vector<JsonValue> &cells)
{
    std::vector<JsonValue> axisEntries;
    for (const SweepAxis &axis : spec.axes) {
        std::vector<JsonValue> points;
        const JsonValue *crossover = nullptr;
        for (const JsonValue &value : axis.values) {
            const std::string valueDump = value.dump();
            double fullSum = 0, condSum = 0;
            std::size_t count = 0;
            for (const JsonValue &cell : cells) {
                const JsonValue *coord =
                    cell.at("axes").find(axis.name);
                if (coord == nullptr ||
                    coord->dump() != valueDump) {
                    continue;
                }
                double full = 0, cond = 0;
                if (meanSpeedup(cell, "full_pred", full) &&
                    meanSpeedup(cell, "cond_move", cond)) {
                    fullSum += full;
                    condSum += cond;
                    count += 1;
                }
            }
            if (count == 0)
                continue;
            double fullMean =
                fullSum / static_cast<double>(count);
            double condMean =
                condSum / static_cast<double>(count);
            bool fullWins = fullMean >= condMean;
            if (fullWins && crossover == nullptr)
                crossover = &value;
            points.push_back(JsonValue::makeObject({
                {"value", value},
                {"full_pred_mean",
                 JsonValue::makeDouble(fullMean)},
                {"cond_move_mean",
                 JsonValue::makeDouble(condMean)},
                {"full_wins", JsonValue::makeBool(fullWins)},
            }));
        }
        if (points.empty())
            continue;
        std::vector<std::pair<std::string, JsonValue>> entry;
        entry.emplace_back("axis",
                           JsonValue::makeString(axis.name));
        entry.emplace_back("points",
                           JsonValue::makeArray(std::move(points)));
        if (crossover != nullptr)
            entry.emplace_back("crossover", *crossover);
        axisEntries.push_back(
            JsonValue::makeObject(std::move(entry)));
    }
    return JsonValue::makeArray(std::move(axisEntries));
}

// ---- Trace-affine sharding ----

/**
 * Key identifying which captured traces a cell replays: its request
 * with every replay-only SimConfig knob (BTB, predictor, caches)
 * scrubbed to the default. Capture depends only on workloads,
 * models, ablation, scale, the machine model, and the fuel limit —
 * exactly what survives the scrub — so two cells with equal keys
 * replay the same traces.
 */
std::string
traceGroupKey(const EvalRequest &request)
{
    EvalRequest scrubbed = request;
    SimConfig sim;
    sim.machine = request.sim.machine;
    sim.maxDynInstrs = request.sim.maxDynInstrs;
    scrubbed.sim = sim;
    return scrubbed.requestDigest();
}

/**
 * Shard index per cell: trace groups, numbered in first-appearance
 * (grid) order, are dealt round-robin to shards, so every cell
 * sharing a trace set lands on one worker and a single batched
 * replay pass prices all of them. Deterministic, so every forked
 * worker computes the identical assignment independently.
 */
std::vector<int>
shardAssignment(const std::vector<SweepCell> &cells, int stride)
{
    std::vector<int> shardOf(cells.size(), 0);
    std::unordered_map<std::string, int> groupOf;
    for (const SweepCell &cell : cells) {
        auto [it, inserted] = groupOf.emplace(
            traceGroupKey(cell.request),
            static_cast<int>(groupOf.size()));
        shardOf[cell.index] = it->second % stride;
    }
    return shardOf;
}

/** Evaluate one shard's cells in grid order with one evaluateBatch
 * call: each trace is streamed once for all configs that replay it.
 * @return the rendered cells and the evaluator's stats(). */
std::pair<std::vector<JsonValue>, StatsSnapshot>
runShard(const std::vector<SweepCell> &cells, int shard, int stride)
{
    const std::vector<int> shardOf = shardAssignment(cells, stride);
    std::vector<const SweepCell *> mine;
    for (const SweepCell &cell : cells) {
        if (shardOf[cell.index] == shard)
            mine.push_back(&cell);
    }
    std::vector<EvalRequest> requests;
    requests.reserve(mine.size());
    for (const SweepCell *cell : mine)
        requests.push_back(cell->request);
    SuiteEvaluator evaluator;
    std::vector<EvalResponse> responses =
        evaluator.evaluateBatch(requests);
    std::vector<JsonValue> rendered;
    rendered.reserve(mine.size());
    for (std::size_t i = 0; i < mine.size(); ++i)
        rendered.push_back(cellToJson(*mine[i], responses[i]));
    return {std::move(rendered), evaluator.stats()};
}

std::string
workerFilePath(const std::string &dir, int worker)
{
    return dir + "/worker_" + std::to_string(worker) + ".json";
}

/** Child-process body: evaluate the shard, write the result file. */
[[noreturn]] void
runWorkerChild(const std::vector<SweepCell> &cells, int worker,
               int workers, const std::string &dir)
{
    try {
        FAULT_POINT("sweep.worker.start");
        auto [rendered, stats] = runShard(cells, worker, workers);
        JsonValue doc = JsonValue::makeObject({
            {"worker", JsonValue::makeInt(worker)},
            {"timing", JsonValue::parse(stats.toJson())},
            {"cells",
             JsonValue::makeArray(std::move(rendered))},
        });
        std::string payload = doc.dump() + "\n";
        // A torn publish leaves a truncated result file the parent
        // must reject at merge time and re-deal to a fresh worker.
        switch (faultpoints::poll("sweep.worker.publish")) {
          case faultpoints::FaultAction::ShortWrite:
            payload.resize(payload.size() / 2);
            break;
          case faultpoints::FaultAction::Throw:
            throw FaultInjectedError("sweep.worker.publish");
          default:
            break;
        }
        std::ofstream out(workerFilePath(dir, worker),
                          std::ios::binary | std::ios::trunc);
        out << payload;
        out.close();
        // _exit: never run the parent's atexit/static destructors
        // (gtest handlers, stream flushes) in the child.
        _exit(out ? 0 : 3);
    } catch (const std::exception &e) {
        std::cerr << "sweep worker " << worker
                  << " failed: " << e.what() << "\n";
        _exit(2);
    } catch (...) {
        std::cerr << "sweep worker " << worker
                  << " failed: unknown exception\n";
        _exit(2);
    }
}

// ---- Worker supervision (self-healing forked path) ----

/** Human-readable waitpid status: "exit N" or "signal N (Name)". */
std::string
describeStatus(int status)
{
    if (WIFEXITED(status))
        return "exit " + std::to_string(WEXITSTATUS(status));
    if (WIFSIGNALED(status)) {
        const int sig = WTERMSIG(status);
        const char *name = ::strsignal(sig);
        return "signal " + std::to_string(sig) + " (" +
               (name != nullptr ? name : "?") + ")";
    }
    return "status " + std::to_string(status);
}

/**
 * Parse and validate one worker result file: well-formed JSON with
 * worker/timing/cells members, claiming the right worker id, and
 * containing exactly the cells of its shard, each once. Any
 * violation — including the truncated file a killed or torn publish
 * leaves behind — is returned as a failure reason (and the shard is
 * retried); "" means @p doc is valid. Validating per worker file
 * rather than per merged array means every duplicate, foreign, or
 * omitted cell is attributed to the process that produced it.
 */
std::string
parseWorkerDoc(const std::string &path, int worker,
               const std::vector<std::size_t> &expected,
               JsonValue &doc)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return "result file missing";
    std::ostringstream content;
    content << in.rdbuf();
    try {
        doc = JsonValue::parse(content.str());
    } catch (const std::exception &e) {
        return std::string(
                   "truncated or unparseable result file (") +
               e.what() + ")";
    }
    const JsonValue *who = doc.find("worker");
    const JsonValue *timing = doc.find("timing");
    const JsonValue *cellsJson = doc.find("cells");
    if (who == nullptr || timing == nullptr ||
        cellsJson == nullptr) {
        return "result file lacks worker/timing/cells members";
    }
    if (who->asInt() != worker) {
        return "result file claims worker " +
               std::to_string(who->asInt());
    }
    std::unordered_set<std::size_t> seen;
    for (const JsonValue &cell : cellsJson->items()) {
        const JsonValue *idx = cell.find("index");
        if (idx == nullptr)
            return "cell without an index";
        std::int64_t raw = idx->asInt();
        if (raw < 0)
            return "cell index out of range: " +
                   std::to_string(raw);
        std::size_t index = static_cast<std::size_t>(raw);
        if (std::find(expected.begin(), expected.end(), index) ==
            expected.end()) {
            return "cell " + std::to_string(index) +
                   " not owned by this shard";
        }
        if (!seen.insert(index).second)
            return "duplicate cell " + std::to_string(index);
    }
    if (seen.size() != expected.size()) {
        for (std::size_t index : expected) {
            if (seen.find(index) == seen.end())
                return "omitted cell " + std::to_string(index);
        }
    }
    return "";
}

/**
 * The record a cell degrades to when its shard exhausted every
 * attempt: same identity members as a healthy cell (index, axes,
 * digests) but "degraded": true and an "error" object carrying the
 * last failure's full attribution instead of "benchmarks".
 */
JsonValue
degradedCellJson(const SweepCell &cell, int worker,
                 const std::string &error)
{
    std::vector<std::pair<std::string, JsonValue>> axes;
    for (const auto &[name, value] : cell.axisValues)
        axes.emplace_back(name, value);
    return JsonValue::makeObject({
        {"index", JsonValue::makeInt(
                      static_cast<std::int64_t>(cell.index))},
        {"axes", JsonValue::makeObject(std::move(axes))},
        {"request_digest",
         JsonValue::makeString(cell.request.requestDigest())},
        {"config_digest",
         JsonValue::makeString(cell.request.sim.configDigest())},
        {"degraded", JsonValue::makeBool(true)},
        {"error", JsonValue::makeObject({
                      {"worker", JsonValue::makeInt(worker)},
                      {"message", JsonValue::makeString(error)},
                  })},
    });
}

} // namespace

const std::vector<std::string> &
SweepSpec::knownAxes()
{
    static const std::vector<std::string> axes = {
        "issue_width",      "branches_per_cycle",
        "mispredict_penalty", "btb_entries",
        "btb_assoc",        "predictor",
        "cache_size_bytes", "cache_line_bytes",
        "cache_assoc",      "cache_miss_penalty",
        "perfect_caches",
    };
    return axes;
}

SweepSpec
SweepSpec::fromJson(const JsonValue &json)
{
    SweepSpec spec;
    for (const auto &[key, value] : json.members()) {
        if (key == "workloads") {
            for (const JsonValue &item : value.items())
                spec.base.workloads.push_back(item.asString());
        } else if (key == "models") {
            for (const JsonValue &item : value.items())
                spec.base.models.push_back(
                    modelFromKey(item.asString()));
        } else if (key == "ablation") {
            spec.base.ablation = AblationFlags::fromJson(value);
        } else if (key == "scale") {
            std::int64_t raw = value.asInt();
            if (raw <= 0)
                throw FatalError("sweep scale must be positive");
            spec.base.scale = static_cast<int>(raw);
        } else if (key == "base") {
            spec.base.sim = SimConfig::fromJson(value);
        } else if (key == "axes") {
            for (const auto &[axis, values] : value.members()) {
                if (values.items().empty()) {
                    throw FatalError("sweep axis '" + axis +
                                     "' has no values");
                }
                // Validate name and value types now, on a scratch
                // config, so a bad spec fails before any work runs.
                for (const JsonValue &v : values.items()) {
                    SimConfig scratch;
                    applyAxis(scratch, axis, v);
                    scratch.checkGeometry();
                }
                spec.axes.push_back(SweepAxis{axis, values.items()});
            }
        } else {
            throw FatalError("unknown sweep spec key '" + key +
                             "'");
        }
    }
    return spec;
}

std::vector<SweepCell>
SweepSpec::expandGrid() const
{
    std::size_t total = 1;
    for (const SweepAxis &axis : axes)
        total *= axis.values.size();
    std::vector<SweepCell> cells;
    cells.reserve(total);
    for (std::size_t index = 0; index < total; ++index) {
        SweepCell cell;
        cell.index = index;
        cell.request = base;
        // Row-major: the last listed axis varies fastest.
        std::size_t rest = index;
        std::vector<std::size_t> coords(axes.size(), 0);
        for (std::size_t a = axes.size(); a-- > 0;) {
            coords[a] = rest % axes[a].values.size();
            rest /= axes[a].values.size();
        }
        for (std::size_t a = 0; a < axes.size(); ++a) {
            const JsonValue &value = axes[a].values[coords[a]];
            applyAxis(cell.request.sim, axes[a].name, value);
            cell.axisValues.emplace_back(axes[a].name, value);
        }
        cells.push_back(std::move(cell));
    }
    return cells;
}

SweepOutcome
runSweep(const SweepSpec &spec, int workers,
         const std::string &outPath, const SweepHealPolicy &heal)
{
    // Arm PREDILP_FAULTS here, before any fork: the fire-state page
    // is MAP_SHARED, so "once" spans the whole worker tree and a
    // retried shard runs clean after the fault fired.
    faultpoints::armFromEnv();
    const auto started = std::chrono::steady_clock::now();
    const std::vector<SweepCell> cells = spec.expandGrid();

    std::vector<JsonValue> rendered;
    StatsSnapshot timing;
    int workerRetries = 0;
    std::size_t degradedCells = 0;
    int effectiveWorkers = std::max(1, workers);
    if (effectiveWorkers > 1 &&
        cells.size() < static_cast<std::size_t>(effectiveWorkers)) {
        effectiveWorkers =
            std::max(1, static_cast<int>(cells.size()));
    }

    if (effectiveWorkers == 1) {
        std::tie(rendered, timing) = runShard(cells, 0, 1);
    } else {
        // Shard across forked workers sharing the flock-safe
        // artifact store (each child opens it independently via the
        // environment, like any other predilp process would). The
        // parent supervises: watchdog kills, death detection, and
        // bounded-backoff retries on fresh workers. Retried shards
        // reproduce their cells byte-identically (deterministic
        // evaluation + atomic store publish), so a sweep that loses
        // workers converges to the clean run's report.
        SweepHealPolicy policy = heal;
        policy.maxAttempts = std::max(1, policy.maxAttempts);
        if (policy.watchdogSec <= 0) {
            policy.watchdogSec =
                EnvConfig::fromEnvironment().sweepWatchdogSec;
        }

        // Worker scratch goes under TMPDIR (via EnvConfig), not a
        // hardcoded /tmp — sandboxed CI runners and multi-user hosts
        // point TMPDIR at a private writable directory.
        const std::string tmplStr =
            EnvConfig::fromEnvironment().tmpDir +
            "/predilp-sweep-XXXXXX";
        std::vector<char> tmpl(tmplStr.begin(), tmplStr.end());
        tmpl.push_back('\0');
        const char *dirc = ::mkdtemp(tmpl.data());
        if (dirc == nullptr) {
            throw FatalError(std::string("mkdtemp failed for ") +
                             tmplStr + ": " + std::strerror(errno));
        }
        const std::string dir = dirc;

        const std::vector<int> shardOf =
            shardAssignment(cells, effectiveWorkers);
        std::vector<std::vector<std::size_t>> owned(
            static_cast<std::size_t>(effectiveWorkers));
        for (const SweepCell &cell : cells) {
            owned[static_cast<std::size_t>(shardOf[cell.index])]
                .push_back(cell.index);
        }

        using Clock = std::chrono::steady_clock;
        struct ShardState
        {
            pid_t pid = -1;
            int attempts = 0;
            bool running = false;
            bool done = false; ///< valid result file merged.
            bool dead = false; ///< attempt budget exhausted.
            Clock::time_point deadline{};  ///< watchdog (running).
            Clock::time_point nextStart{}; ///< backoff (waiting).
            JsonValue doc;
            std::string lastError;
        };
        std::vector<ShardState> shards(
            static_cast<std::size_t>(effectiveWorkers));

        auto spawn = [&](int w) {
            ShardState &s = shards[static_cast<std::size_t>(w)];
            std::error_code ec;
            fs::remove(workerFilePath(dir, w), ec); // stale attempt
            pid_t pid = ::fork();
            if (pid < 0) {
                throw FatalError(std::string("fork failed: ") +
                                 std::strerror(errno));
            }
            if (pid == 0) {
                runWorkerChild(cells, w, effectiveWorkers, dir);
            }
            s.pid = pid;
            s.attempts += 1;
            s.running = true;
            if (policy.watchdogSec > 0) {
                s.deadline =
                    Clock::now() +
                    std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(
                            policy.watchdogSec));
            }
        };

        auto fail = [&](int w, const std::string &why) {
            ShardState &s = shards[static_cast<std::size_t>(w)];
            s.running = false;
            s.lastError = "worker " + std::to_string(w) + " (pid " +
                          std::to_string(s.pid) + ", attempt " +
                          std::to_string(s.attempts) + "/" +
                          std::to_string(policy.maxAttempts) +
                          ", shard file " + workerFilePath(dir, w) +
                          "): " + why;
            if (s.attempts >= policy.maxAttempts) {
                s.dead = true;
                warn("sweep: giving up on " + s.lastError);
                return;
            }
            const double backoff =
                policy.backoffSec *
                static_cast<double>(1 << (s.attempts - 1));
            s.nextStart =
                Clock::now() +
                std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(backoff));
            workerRetries += 1;
            warn("sweep: retrying " + s.lastError);
        };

        for (int w = 0; w < effectiveWorkers; ++w)
            spawn(w);
        while (true) {
            bool allSettled = true;
            const auto now = Clock::now();
            for (int w = 0; w < effectiveWorkers; ++w) {
                ShardState &s =
                    shards[static_cast<std::size_t>(w)];
                if (s.done || s.dead)
                    continue;
                if (s.running) {
                    int status = 0;
                    pid_t r = ::waitpid(s.pid, &status, WNOHANG);
                    if (r == s.pid) {
                        if (WIFEXITED(status) &&
                            WEXITSTATUS(status) == 0) {
                            std::string err = parseWorkerDoc(
                                workerFilePath(dir, w), w,
                                owned[static_cast<std::size_t>(w)],
                                s.doc);
                            if (err.empty())
                                s.done = true;
                            else
                                fail(w, err);
                            s.running = false;
                        } else {
                            fail(w, describeStatus(status));
                        }
                    } else if (r < 0) {
                        fail(w, std::string("waitpid failed: ") +
                                    std::strerror(errno));
                    } else if (policy.watchdogSec > 0 &&
                               now >= s.deadline) {
                        ::kill(s.pid, SIGKILL);
                        ::waitpid(s.pid, &status, 0);
                        fail(w, "watchdog timeout after " +
                                    std::to_string(
                                        policy.watchdogSec) +
                                    "s (SIGKILL)");
                    }
                } else if (now >= s.nextStart) {
                    spawn(w); // backoff elapsed: fresh worker.
                }
                if (!s.done && !s.dead)
                    allSettled = false;
            }
            if (allSettled)
                break;
            std::this_thread::sleep_for(
                std::chrono::milliseconds(5));
        }

        if (!policy.degradeCells) {
            std::string failures;
            for (const ShardState &s : shards) {
                if (s.dead)
                    failures += "\n  " + s.lastError;
            }
            if (!failures.empty()) {
                throw FatalError(
                    "sweep workers failed permanently:" +
                    failures);
            }
        }

        // Merge: every done shard's validated cells (per-file
        // validation already guaranteed exactly-once ownership);
        // every dead shard's cells degrade to attributed records.
        std::vector<const JsonValue *> byIndex(cells.size(),
                                               nullptr);
        for (const ShardState &s : shards) {
            if (!s.done)
                continue;
            timing.merge(
                StatsSnapshot::fromJson(s.doc.at("timing").dump()));
            for (const JsonValue &cell : s.doc.at("cells").items())
                byIndex[static_cast<std::size_t>(
                    cell.at("index").asInt())] = &cell;
        }
        rendered.reserve(cells.size());
        for (std::size_t i = 0; i < cells.size(); ++i) {
            if (byIndex[i] != nullptr) {
                rendered.push_back(*byIndex[i]);
                continue;
            }
            const int w = shardOf[i];
            degradedCells += 1;
            rendered.push_back(degradedCellJson(
                cells[i], w,
                shards[static_cast<std::size_t>(w)].lastError));
        }
        std::error_code ec;
        fs::remove_all(dir, ec); // best-effort cleanup.
    }

    SweepOutcome outcome;
    outcome.cells = cells.size();
    outcome.workers = effectiveWorkers;
    // Every shard's evaluator sizes its pool with resolveThreadCount(0).
    outcome.threads = effectiveWorkers * resolveThreadCount(0);
    outcome.workerRetries = workerRetries;
    outcome.degradedCells = degradedCells;
    outcome.timing = timing;
    outcome.cellsJson =
        JsonValue::makeArray(rendered).dump();

    if (!outPath.empty()) {
        const double wallSeconds =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - started)
                .count();
        std::ofstream os(outPath,
                         std::ios::binary | std::ios::trunc);
        if (!os) {
            throw FatalError("cannot write sweep report " +
                             outPath);
        }
        os << "{\n  \"bench\": \"sweep\",\n"
           << "  \"workers\": " << effectiveWorkers << ",\n"
           << "  \"cell_count\": " << cells.size() << ",\n"
           // Always present (0 on clean runs), so report consumers
           // can assert on them without probing for the keys.
           << "  \"worker_retries\": " << workerRetries << ",\n"
           << "  \"degraded_cells\": " << degradedCells << ",\n"
           << "  \"timing\": "
           << timingSnapshot(timing, wallSeconds, outcome.threads)
                  .toJson(2)
           << ",\n"
           << "  \"crossover\": "
           << crossoverSummary(spec, rendered).dump() << ",\n"
           << "  \"cells\": " << outcome.cellsJson << "\n}\n";
        outcome.path = outPath;
    }
    return outcome;
}

} // namespace predilp
