#include "driver/sweep.hh"

#include <chrono>
#include <fstream>

#include "driver/bench_io.hh"
#include "support/diag.hh"
#include "support/faultpoint.hh"

namespace predilp
{

namespace
{

// ---- Axis application ----

/** @p value as an integer of at least @p min, else FatalError. */
std::int64_t
intAxisValue(const std::string &axis, const JsonValue &value,
             std::int64_t min)
{
    std::int64_t raw = value.asInt();
    if (raw < min) {
        throw FatalError("axis '" + axis +
                         "' requires integer values >= " +
                         std::to_string(min));
    }
    return raw;
}

void
applyAxis(SimConfig &sim, const std::string &axis,
          const JsonValue &value)
{
    if (axis == "issue_width") {
        sim.machine.issueWidth =
            static_cast<int>(intAxisValue(axis, value, 1));
    } else if (axis == "branches_per_cycle") {
        sim.machine.branchesPerCycle =
            static_cast<int>(intAxisValue(axis, value, 1));
    } else if (axis == "mispredict_penalty") {
        sim.machine.mispredictPenalty =
            static_cast<int>(intAxisValue(axis, value, 0));
    } else if (axis == "btb_entries") {
        sim.btbEntries =
            static_cast<std::size_t>(intAxisValue(axis, value, 1));
    } else if (axis == "btb_assoc") {
        sim.btbAssociativity =
            static_cast<int>(intAxisValue(axis, value, 1));
    } else if (axis == "predictor") {
        sim.predictor = predictorFromName(value.asString());
    } else if (axis == "cache_size_bytes") {
        sim.cacheSizeBytes = intAxisValue(axis, value, 1);
    } else if (axis == "cache_line_bytes") {
        sim.cacheLineBytes = intAxisValue(axis, value, 1);
    } else if (axis == "cache_assoc") {
        sim.cacheAssociativity =
            static_cast<int>(intAxisValue(axis, value, 1));
    } else if (axis == "cache_miss_penalty") {
        sim.cacheMissPenalty =
            static_cast<int>(intAxisValue(axis, value, 0));
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

/** One cell's JSON object: index, axis coordinates, digests, and
 * each benchmark's per-model figures and provenance. */
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

/** Mean of the named speedup leaf across a cell's benchmarks. */
bool
meanSpeedup(const JsonValue &cell, const char *model, double &mean)
{
    double sum = 0;
    std::size_t count = 0;
    for (const JsonValue &bench : cell.at("benchmarks").items()) {
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
 * beats partial predication's. Pure function of the cells array.
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
runSweep(const SweepSpec &spec, const std::string &outPath)
{
    const auto started = std::chrono::steady_clock::now();
    const std::vector<SweepCell> cells = spec.expandGrid();
    std::vector<EvalRequest> requests;
    requests.reserve(cells.size());
    for (const SweepCell &cell : cells)
        requests.push_back(cell.request);

    // One batch over the whole grid: each captured trace is streamed
    // once for every config that replays it.
    SuiteEvaluator evaluator;
    const std::vector<EvalResponse> responses =
        evaluator.evaluateBatch(requests);
    std::vector<JsonValue> rendered;
    rendered.reserve(cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i)
        rendered.push_back(cellToJson(cells[i], responses[i]));

    SweepOutcome outcome;
    outcome.cells = cells.size();
    outcome.threads = evaluator.threadCount();
    outcome.timing = evaluator.stats();
    // The sweep is the whole process, so the armed fault points'
    // counters are this run's: a CI case can prove its point fired.
    outcome.timing.merge(faultpoints::stats());
    outcome.cellsJson = JsonValue::makeArray(rendered).dump();

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
           << "  \"cell_count\": " << cells.size() << ",\n"
           << "  \"timing\": "
           << timingSnapshot(outcome.timing, wallSeconds,
                             outcome.threads)
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
