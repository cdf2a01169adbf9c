#include "driver/evaluator.hh"

#include <algorithm>
#include <chrono>
#include <exception>
#include <map>
#include <sstream>
#include <string_view>
#include <utility>

#include "driver/certified.hh"
#include "driver/reproducer.hh"
#include "emu/decoded.hh"
#include "store/sha256.hh"
#include "support/env.hh"
#include "support/faultpoint.hh"
#include "support/logging.hh"

namespace predilp
{

namespace
{

/**
 * Ablation flags that can affect @p model's compilation, in
 * canonical form (AblationFlags::canonicalFor pins flags the
 * pipeline ignores for a model to their defaults), so e.g. a
 * no-or-tree sweep reuses the Superblock and Full Predication traces
 * of the default configuration.
 */
std::string
flagsKey(const EvalRequest &request, Model model)
{
    return request.ablation.canonicalFor(model).key();
}

/**
 * Identity of a captured trace: the compiled program (workload,
 * scale, model, @p sim's machine, canonical ablation flags) plus
 * @p sim's capture fuel. The machine is named by machineIdentity, as
 * in the certified records.
 *
 * Deliberately machine-only (not the full SimConfig digest): traces
 * depend on what the scheduler emitted and how far emulation ran,
 * never on cache or BTB parameters, so e.g. the real-cache Figure 11
 * replays the perfect-cache Figure 8 traces byte-for-byte.
 */
std::string
traceKey(const Workload &workload, const EvalRequest &request,
         Model model, const SimConfig &sim)
{
    std::ostringstream os;
    os << workload.name << "|s" << request.scale << "|m"
       << static_cast<int>(model) << '|' << machineIdentity(sim.machine)
       << '|' << flagsKey(request, model) << "|f" << sim.maxDynInstrs;
    return os.str();
}

/** @p request's workloads (empty = the whole suite), in order. */
std::vector<const Workload *>
selectWorkloads(const EvalRequest &request)
{
    std::vector<const Workload *> selected;
    if (request.workloads.empty()) {
        for (const Workload &workload : allWorkloads())
            selected.push_back(&workload);
        return selected;
    }
    for (const std::string &name : request.workloads) {
        const Workload *workload = findWorkload(name);
        if (workload == nullptr)
            throw FatalError("unknown workload '" + name + "'");
        selected.push_back(workload);
    }
    return selected;
}

/**
 * The record of a cell that failed with @p error under fault
 * isolation, plus a self-contained reproducer file under
 * @p reproducerDir when that is set.
 */
CellError
cellError(const std::exception_ptr &error, const Workload &workload,
          const EvalRequest &request, Model model, bool baseline,
          std::string_view input, const std::string &reproducerDir)
{
    CellError cell;
    cell.workload = workload.name;
    cell.model = modelName(model);
    cell.baseline = baseline;
    cell.kind = classifyException(error);
    try {
        std::rethrow_exception(error);
    } catch (const std::exception &e) {
        cell.message = e.what();
    } catch (...) {
        cell.message = "non-standard exception";
    }
    if (!reproducerDir.empty()) {
        ReproducerSpec spec;
        spec.title =
            workload.name + "-" + cell.model + (baseline ? "-base" : "");
        spec.model = cell.model;
        spec.ablation = request.ablation;
        spec.scale = request.scale;
        spec.kind = cell.kind;
        spec.message = cell.message;
        spec.input = std::string(input);
        spec.source = workload.source;
        cell.reproducerPath = writeReproducer(reproducerDir, spec);
    }
    return cell;
}

/**
 * One unit of work's stats: a prefix compile, a capture, a reference
 * run, a replay or a batch group. Its handles belong to the thread
 * running the unit, and the whole registry merges into @p into once,
 * on scope exit. That includes unwinding, so a unit that fails
 * part-way still reports the work it finished.
 */
class UnitStats : public StatsRegistry
{
  public:
    explicit UnitStats(StatsRegistry &into) : into_(into) {}
    ~UnitStats() { into_.merge(*this); }

  private:
    StatsRegistry &into_;
};

} // namespace

SuiteEvaluator::SuiteEvaluator(int threads) : pool_(threads)
{
    // Every stats() leaf exists from the start, so one that no work
    // reaches (emulate seconds on a warm run) still prints as zero.
    // The trace tier's store.* leaves stay zero here (stats() adds
    // the store's); the result tier's store.result_* count here.
    for (const char *name :
         {"counters.compiles", "counters.formations",
          "counters.prefix_compiles",
          "counters.prefix_cache_hits", "counters.captures",
          "counters.replays", "counters.result_cache_hits",
          "counters.reference_cache_hits", "counters.captured_bytes",
          "counters.captured_records", "counters.replayed_records",
          "counters.batch_fallbacks", "counters.inputs", "emu.decodes",
          "emu.decoded_bytes", "emu.records.threaded", "store.hit",
          "store.miss", "store.repair", "store.write",
          "store.bytes_mapped",
          "store.result_hit", "store.result_miss",
          "store.result_repair", "store.result_write"})
        stats_.counter(name);
    for (const char *name :
         {"phases.compile_seconds", "phases.emulate_seconds",
          "phases.simulate_seconds", "phases.wait_seconds",
          "emu.decode_seconds"})
        stats_.timer(name);
    // Opt-in persistence without code changes, via the one
    // documented reader of PREDILP_STORE (EnvConfig). setPolicy can
    // still override it.
    EnvConfig env = EnvConfig::fromEnvironment();
    if (!env.storeDir.empty()) {
        policy_.storeDir = env.storeDir;
        policy_.storeMode = StoreMode::ReadWrite;
    }
    // PREDILP_FAULTS arms here too, so every evaluator-driven binary
    // honours it. The arm is latched once per process, so a second
    // evaluator does not reset the counters of the first.
    faultpoints::armFromEnv();
    openStore();
}

void
SuiteEvaluator::setPolicy(EvalPolicy policy)
{
    policy_ = std::move(policy);
    openStore();
}

void
SuiteEvaluator::openStore()
{
    if (policy_.storeMode == StoreMode::Off ||
        policy_.storeDir.empty()) {
        store_.reset();
        return;
    }
    store_ = std::make_unique<ArtifactStore>(policy_.storeDir,
                                             policy_.storeMode);
}

namespace
{

/**
 * Future-based once-per-key cache: the first requester computes
 * inline (so a running pool task never blocks on a queued one);
 * concurrent requesters block on the owner's shared_future, and the
 * seconds they block add to phases.wait_seconds of @p stats.
 * Exceptions propagate to every waiter already attached, but the
 * failed entry is evicted first, so the cache is never poisoned: a
 * later request for the same key recomputes instead of replaying a
 * stale failure forever. A request that finds the key present adds
 * one to counter @p hitCounter of @p stats, when one is named.
 */
template <typename T, typename Fn>
T
cachedCompute(
    std::mutex &mutex,
    std::unordered_map<std::string, std::shared_future<T>> &cache,
    const std::string &key, StatsRegistry &stats,
    const char *hitCounter, Fn &&compute)
{
    std::promise<T> promise;
    std::shared_future<T> future;
    bool owner = false;
    {
        std::lock_guard<std::mutex> lock(mutex);
        auto it = cache.find(key);
        if (it == cache.end()) {
            future = promise.get_future().share();
            cache.emplace(key, future);
            owner = true;
        } else {
            future = it->second;
        }
    }
    if (owner) {
        try {
            promise.set_value(compute());
        } catch (...) {
            // Evict before publishing the failure: waiters holding
            // this future still observe the exception, but the key
            // is free for a clean retry.
            {
                std::lock_guard<std::mutex> lock(mutex);
                cache.erase(key);
            }
            promise.set_exception(std::current_exception());
        }
    } else {
        const bool blocked = future.wait_for(std::chrono::seconds(0)) !=
                             std::future_status::ready;
        if (blocked || hitCounter != nullptr) {
            UnitStats unit(stats);
            if (hitCounter != nullptr)
                unit.counter(hitCounter).add();
            if (blocked) {
                ScopedTimer timer(unit.timer("phases.wait_seconds"));
                future.wait();
            }
        }
    }
    return future.get();
}

} // namespace

SuiteEvaluator::SnapshotPtr
SuiteEvaluator::snapshotFor(const Workload &workload,
                            const std::string &input, int scale,
                            std::uint64_t profileFuel)
{
    std::string key =
        workload.name + "|prefix|s" + std::to_string(scale);
    return cachedCompute(
        mutex_, snapshots_, key, stats_, "counters.prefix_cache_hits",
        [&]() -> SnapshotPtr {
            UnitStats unit(stats_);
            ScopedTimer timer(unit.timer("phases.compile_seconds"));
            StatsRegistry perPrefix;
            auto snapshot = std::make_shared<FrontendSnapshot>(
                compilePrefix(workload.source, input, profileFuel,
                              &perPrefix));
            compileStats_.merge(perPrefix);
            unit.counter("counters.prefix_compiles").add();
            return snapshot;
        });
}

SuiteEvaluator::FormedPtr
SuiteEvaluator::formedFor(const Workload &workload,
                          const EvalRequest &request, Model model,
                          const std::string &input)
{
    // The trace key minus machine and fuel: traces that differ only
    // by those share one formation.
    std::ostringstream key;
    key << workload.name << "|s" << request.scale << "|m"
        << static_cast<int>(model) << '|' << flagsKey(request, model);
    return cachedCompute(
        mutex_, formations_, key.str(), stats_, nullptr,
        [&]() -> FormedPtr {
            FormOptions opts;
            opts.model = model;
            opts.ablation = request.ablation;
            opts.profileInput = input;
            // Outside the timer: a snapshot's owner times its own
            // compile, and waiting for it is not formation time.
            SnapshotPtr snapshot =
                snapshotFor(workload, input, request.scale,
                            opts.maxProfileInstrs);
            UnitStats unit(stats_);
            ScopedTimer timer(unit.timer("phases.compile_seconds"));
            FAULT_POINT("eval.form");
            StatsRegistry perFormation;
            FormedPtr formed =
                formFromSnapshot(*snapshot, opts, &perFormation);
            compileStats_.merge(perFormation);
            unit.counter("counters.formations").add();
            return formed;
        });
}

SuiteEvaluator::InputPtr
SuiteEvaluator::inputFor(const Workload &workload, int scale)
{
    std::string key =
        workload.name + "|input|s" + std::to_string(scale);
    return cachedCompute(mutex_, inputs_, key, stats_, nullptr,
                         [&]() -> InputPtr {
                             UnitStats unit(stats_);
                             unit.counter("counters.inputs").add();
                             return std::make_shared<const std::string>(
                                 workload.makeInput(
                                     workload.defaultScale * scale));
                         });
}

RunResult
SuiteEvaluator::referenceFor(const Workload &workload,
                             const std::string &input, int scale)
{
    std::string key =
        workload.name + "|ref|s" + std::to_string(scale);
    return cachedCompute(
        mutex_, references_, key, stats_,
        "counters.reference_cache_hits", [&] {
            UnitStats unit(stats_);
            ScopedTimer timer(unit.timer("phases.emulate_seconds"));
            unit.counter("counters.captures").add();
            RunResult ref = runReference(workload.source, input);
            unit.counter("emu.records.threaded").add(ref.dynInstrs);
            return ref;
        });
}

SuiteEvaluator::TracePtr
SuiteEvaluator::traceFor(const Workload &workload,
                         const EvalRequest &request, Model model,
                         const SimConfig &sim, const std::string &key,
                         const CellProvenance &prov)
{
    // The persistent artifact store first. A hit skips compile,
    // capture, and the reference-divergence check entirely —
    // artifacts were verified against the oracle before they were
    // published, and the checksum guards the bytes — so warm runs
    // pay zero emulation, and make no input.
    if (store_ != nullptr) {
        if (TracePtr fromDisk = store_->load(prov.traceDigest))
            return fromDisk;
    }
    const InputPtr input = inputFor(workload, request.scale);
    // Every machine's compile of this model clones one shared formed
    // program; only the scheduler runs per compile. Waiting for the
    // formation is not compile time: its owner times it.
    FormedPtr formed = formedFor(workload, request, model, *input);
    CompileOptions opts;
    opts.model = model;
    opts.ablation = request.ablation;
    opts.machine = sim.machine;
    UnitStats unit(stats_);
    std::unique_ptr<Program> prog;
    {
        ScopedTimer timer(unit.timer("phases.compile_seconds"));
        FAULT_POINT("eval.compile");
        // Each compile records into its own registry (the worker
        // owns it, unsynchronized); the additive merge below makes
        // the aggregate independent of thread count and completion
        // order.
        StatsRegistry perCompile;
        prog = scheduleFormed(*formed, opts, &perCompile);
        compileStats_.merge(perCompile);
        unit.counter("counters.compiles").add();
    }
    // Capture splits into a decode and the engine run; only the
    // latter counts as emulation time. The decoded form dies with
    // this capture.
    std::unique_ptr<DecodedProgram> decoded;
    {
        ScopedTimer timer(unit.timer("emu.decode_seconds"));
        decoded = std::make_unique<DecodedProgram>(*prog);
        unit.counter("emu.decodes").add();
        unit.counter("emu.decoded_bytes").add(decoded->memoryBytes());
    }
    std::unique_ptr<TraceBuffer> buffer;
    {
        ScopedTimer timer(unit.timer("phases.emulate_seconds"));
        buffer = captureDecoded(*decoded, *input, sim.maxDynInstrs);
        unit.counter("counters.captures").add();
    }
    unit.counter("emu.records.threaded").add(buffer->size());
    checkReference(buffer->run(),
                   referenceFor(workload, *input, request.scale),
                   modelName(model) + " on " + workload.name);
    if (store_ != nullptr) {
        // Provenance section of the artifact: where this trace came
        // from and under which config it was first captured (the
        // trace itself is shared by every config with the same
        // machine and fuel).
        JsonValue section = JsonValue::makeObject({
            {"format_version",
             JsonValue::makeInt(ArtifactStore::formatVersion)},
            {"store_key", JsonValue::makeString(prov.traceDigest)},
            {"cell_key", JsonValue::makeString(key)},
            {"workload", JsonValue::makeString(prov.workload)},
            {"model", JsonValue::makeString(prov.model)},
            {"scale", JsonValue::makeInt(prov.scale)},
            {"ablation", JsonValue::makeString(prov.ablation)},
            {"fuel",
             JsonValue::makeInt(static_cast<std::int64_t>(prov.fuel))},
            {"emu_backend",
             JsonValue::makeString(emuBackendName(defaultEmuBackend()))},
            {"config_digest", JsonValue::makeString(prov.configDigest)},
            {"source_sha256", JsonValue::makeString(prov.sourceSha256)},
            {"pipeline_digest",
             JsonValue::makeString(prov.pipelineDigest)},
            {"records", JsonValue::makeInt(
                            static_cast<std::int64_t>(buffer->size()))},
        });
        store_->save(prov.traceDigest, *buffer, section.dump() + "\n");
    }
    unit.counter("counters.captured_bytes").add(buffer->memoryBytes());
    unit.counter("counters.captured_records").add(buffer->size());
    return TracePtr(std::move(buffer));
}

std::optional<SimResult>
SuiteEvaluator::servedResult(const CellProvenance &prov)
{
    UnitStats unit(stats_);
    bool present = false;
    if (std::optional<JsonValue> record =
            store_->loadResult(certifiedResultKey(prov), &present)) {
        std::optional<CertifiedCell> cell =
            decodeCertifiedRecord(*record);
        if (cell && cell->provenance == prov) {
            unit.counter("store.result_hit").add();
            return std::move(cell->result);
        }
    }
    unit.counter("store.result_miss").add();
    if (present)
        unit.counter("store.result_repair").add();
    return std::nullopt;
}

void
SuiteEvaluator::publishCertified(const CellProvenance &prov,
                                 const SimResult &result)
{
    // Best-effort like save(): a refusal degrades to a thinner
    // result tier, never a failed evaluation.
    if (store_->saveResult(certifiedResultKey(prov),
                           certifiedRecord(prov, result))) {
        UnitStats unit(stats_);
        unit.counter("store.result_write").add();
    }
}

EvalResponse
SuiteEvaluator::evaluate(const EvalRequest &request)
{
    return std::move(evaluateBatch({request}).front());
}

namespace
{

/** A slot's cell index when results_ already held its result. */
constexpr std::size_t noCell = static_cast<std::size_t>(-1);

/** One cell position of a row: its config, keys and provenance. */
struct Slot
{
    Model model = Model::Superblock;
    SimConfig sim;
    std::string tkey;
    std::string rkey;
    CellProvenance prov;
    /** The cell this call prices for the slot, or noCell. */
    std::size_t cell = noCell;
};

/**
 * The digests every row of one request shares, computed once per
 * request: its machine's and the 1-issue baseline's config digest,
 * and the pipeline digest of each model a slot names.
 */
struct RequestDigests
{
    std::string config;
    std::string baseConfig;
    std::map<Model, std::string> pipeline;
};

/**
 * One (request, workload) row. Slot 0 is the 1-issue Superblock
 * baseline denominator (paper §4.1), sharing every non-machine axis
 * of the request's config; slots 1..n are the requested models at
 * the request's machine.
 */
struct Row
{
    std::size_t request = 0;
    const Workload *workload = nullptr;
    std::vector<Slot> slots;
};

/** One distinct result key this call prices, keyed by its first slot. */
struct Cell
{
    const Row *row = nullptr;
    const Slot *slot = nullptr;
    SimResult result;
    std::exception_ptr error;
};

/**
 * The cells that share one trace key. Round k holds the k-th group
 * of each (workload, scale) in first-appearance order.
 */
struct Group
{
    std::size_t round = 0;
    std::vector<std::size_t> cells;
};

} // namespace

std::vector<EvalResponse>
SuiteEvaluator::evaluateBatch(const std::vector<EvalRequest> &requests)
{
    // --- plan: rows first, so an unknown workload costs no work ---
    std::vector<Row> rows;
    for (std::size_t r = 0; r < requests.size(); ++r) {
        for (const Workload *workload : selectWorkloads(requests[r]))
            rows.push_back(Row{r, workload, {}});
    }
    std::vector<RequestDigests> digests(requests.size());
    pool_.parallelFor(requests.size(), [&](std::size_t r) {
        const EvalRequest &request = requests[r];
        RequestDigests &digest = digests[r];
        SimConfig base = request.sim;
        base.machine = issue1();
        digest.config = request.sim.configDigest();
        digest.baseConfig = base.configDigest();
        std::vector<Model> models = request.effectiveModels();
        models.push_back(Model::Superblock);
        for (Model model : models) {
            if (digest.pipeline.count(model) == 0) {
                digest.pipeline.emplace(
                    model, passPipelineDigest(model, request.ablation));
            }
        }
    });
    pool_.parallelFor(rows.size(), [&](std::size_t i) {
        Row &row = rows[i];
        const EvalRequest &request = requests[row.request];
        const RequestDigests &digest = digests[row.request];
        const Workload &workload = *row.workload;
        // Per row, the source is hashed twice: its own digest, and
        // the store key's source field, which every slot's key
        // finishes from.
        const std::string sourceSha256 = sha256Hex(workload.source);
        const Sha256 keyPrefix = ArtifactStore::keyPrefix(workload.source);
        const std::vector<Model> models = request.effectiveModels();
        row.slots.resize(models.size() + 1);
        for (std::size_t s = 0; s < row.slots.size(); ++s) {
            Slot &slot = row.slots[s];
            const bool baseline = s == 0;
            slot.model = baseline ? Model::Superblock : models[s - 1];
            slot.sim = request.sim;
            if (baseline)
                slot.sim.machine = issue1();
            const std::string &configDigest =
                baseline ? digest.baseConfig : digest.config;
            slot.tkey = traceKey(workload, request, slot.model, slot.sim);
            // The priced-result key extends the trace identity with
            // the full SimConfig digest: any config axis (cache
            // geometry, BTB shape, predictor, penalties) forces a
            // fresh replay, while the trace is still shared.
            slot.rkey = slot.tkey + "##" + configDigest;
            // The full provenance, a pure function of (workload,
            // request, model, sim), so the BENCH/sweep emitters and
            // the certified records in the store agree on every
            // digest. It is computed once and reused to serve, to
            // publish, to key the trace and to answer.
            CellProvenance &prov = slot.prov;
            prov.workload = workload.name;
            prov.model = modelKey(slot.model);
            prov.scale = request.scale;
            prov.ablation = flagsKey(request, slot.model);
            prov.fuel = slot.sim.maxDynInstrs;
            prov.machine = machineIdentity(slot.sim.machine);
            prov.sourceSha256 = sourceSha256;
            prov.pipelineDigest = digest.pipeline.at(slot.model);
            prov.configDigest = configDigest;
            prov.traceDigest = ArtifactStore::keyFinish(keyPrefix, slot.tkey);
        }
    });

    // Dedup slots into cells by result key, then group the cells by
    // trace key in first-appearance order.
    std::vector<Cell> cells;
    std::vector<Group> groups;
    std::uint64_t hits = 0;
    {
        std::unordered_map<std::string_view, std::size_t> cellOf;
        std::unordered_map<std::string_view, std::size_t> groupOf;
        std::map<std::pair<const Workload *, int>, std::size_t> rounds;
        std::lock_guard<std::mutex> lock(mutex_);
        for (Row &row : rows) {
            for (Slot &slot : row.slots) {
                auto [cell, fresh] = cellOf.emplace(slot.rkey, noCell);
                if (fresh && results_.count(slot.rkey) == 0) {
                    cell->second = cells.size();
                    cells.push_back(Cell{&row, &slot, {}, {}});
                    auto [group, added] =
                        groupOf.emplace(slot.tkey, groups.size());
                    if (added) {
                        groups.push_back(Group{
                            rounds[{row.workload,
                                    requests[row.request].scale}]++,
                            {}});
                    }
                    groups[group->second].cells.push_back(cell->second);
                } else {
                    hits += 1;
                }
                slot.cell = cell->second;
            }
        }
    }
    {
        UnitStats unit(stats_);
        unit.counter("counters.result_cache_hits").add(hits);
    }
    // Queue the groups in rounds, so groups that share a snapshot,
    // formation, reference run or input sit a whole round apart, and
    // the traces in flight at once belong to different workloads.
    std::stable_sort(groups.begin(), groups.end(),
                     [](const Group &a, const Group &b) {
                         return a.round < b.round;
                     });

    // --- execute: each group obtains its trace once, prices every
    // pending config against it and drops it when the group ends ---
    auto obtain = [&](const Cell &cell) {
        const Slot &slot = *cell.slot;
        return traceFor(*cell.row->workload, requests[cell.row->request],
                        slot.model, slot.sim, slot.tkey, slot.prov);
    };
    auto price = [&](const TraceBuffer &trace,
                     const std::vector<Cell *> &batch,
                     ThreadPool *lanePool) {
        std::vector<SimConfig> configs;
        configs.reserve(batch.size());
        for (const Cell *cell : batch)
            configs.push_back(cell->slot->sim);
        std::vector<SimResult> priced;
        {
            UnitStats unit(stats_);
            ScopedTimer timer(unit.timer("phases.simulate_seconds"));
            priced = replayBatch(trace, configs, lanePool);
            unit.counter("counters.replays").add(priced.size());
            unit.counter("counters.replayed_records")
                .add(trace.size() * priced.size());
        }
        for (std::size_t i = 0; i < batch.size(); ++i) {
            if (store_ != nullptr)
                publishCertified(batch[i]->slot->prov, priced[i]);
            batch[i]->result = std::move(priced[i]);
        }
    };
    auto runGroup = [&](const std::vector<std::size_t> &group,
                        ThreadPool *lanePool) {
        // A served cell maps no trace, replays nothing and is not
        // republished.
        std::vector<Cell *> pending;
        for (std::size_t index : group) {
            Cell &cell = cells[index];
            if (store_ != nullptr) {
                if (std::optional<SimResult> served =
                        servedResult(cell.slot->prov)) {
                    cell.result = std::move(*served);
                    continue;
                }
            }
            pending.push_back(&cell);
        }
        if (pending.empty())
            return;
        TracePtr trace;
        try {
            FAULT_POINT("eval.replay.batch");
            trace = obtain(*pending.front());
            price(*trace, pending, lanePool);
        } catch (...) {
            // Retry each cell alone, once, against the group's trace;
            // if obtaining it threw, the first cell to retry obtains it
            // again and the rest share it. The caches evicted whatever
            // failed, so the retry recomputes it; a cell that fails
            // again keeps its own exception for the assembly's failure
            // policy.
            {
                UnitStats unit(stats_);
                unit.counter("counters.batch_fallbacks").add();
            }
            warn(detail::formatMessage(
                "batch group for trace '", pending.front()->slot->tkey,
                "' failed (", classifyException(std::current_exception()),
                "); retrying its cells one at a time"));
            for (Cell *cell : pending) {
                try {
                    if (trace == nullptr)
                        trace = obtain(*cell);
                    price(*trace, {cell}, nullptr);
                } catch (...) {
                    cell->error = std::current_exception();
                }
            }
        }
    };
    if (groups.size() == 1) {
        // A single trace group: parallelism comes from spreading
        // the batch's lanes across the pool instead.
        runGroup(groups.front().cells, &pool_);
    } else {
        pool_.parallelFor(groups.size(), [&](std::size_t i) {
            runGroup(groups[i].cells, nullptr);
        });
    }

    // --- assemble: cache what was priced, then read every slot back
    // in request order under the failure policy ---
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (Cell &cell : cells) {
            if (!cell.error)
                results_.emplace(cell.slot->rkey, std::move(cell.result));
        }
    }
    // results_ only grows and never changes an entry, so a reference
    // taken under the lock stays valid after it.
    auto cached = [&](const std::string &rkey) -> const SimResult & {
        std::lock_guard<std::mutex> lock(mutex_);
        return results_.at(rkey);
    };
    std::vector<EvalResponse> responses(requests.size());
    for (std::size_t r = 0; r < requests.size(); ++r)
        responses[r].requestDigest = requests[r].requestDigest();
    for (Row &row : rows) {
        const EvalRequest &request = requests[row.request];
        BenchmarkResult &result =
            responses[row.request].results.emplace_back();
        result.name = row.workload->name;
        for (Slot &slot : row.slots) {
            const bool baseline = &slot == &row.slots.front();
            const std::exception_ptr error =
                slot.cell == noCell ? nullptr : cells[slot.cell].error;
            if (error && !policy_.isolateFaults)
                std::rethrow_exception(error);
            if (error) {
                // A reproducer carries its input, made here when no
                // group of the call needed it.
                InputPtr input;
                if (!policy_.reproducerDir.empty())
                    input = inputFor(*row.workload, request.scale);
                result.errors.push_back(cellError(
                    error, *row.workload, request, slot.model, baseline,
                    input ? std::string_view(*input) : std::string_view(),
                    policy_.reproducerDir));
            }
            if (baseline) {
                result.baseCycles = error ? 0 : cached(slot.rkey).cycles;
                continue;
            }
            result.models[slot.model] =
                error ? SimResult{} : cached(slot.rkey);
            result.provenance[slot.model] = std::move(slot.prov);
        }
    }
    return responses;
}

StatsSnapshot
SuiteEvaluator::compileStats() const
{
    return compileStats_.snapshot();
}

StatsSnapshot
SuiteEvaluator::stats() const
{
    StatsSnapshot s = stats_.snapshot();
    if (store_ != nullptr)
        s.merge(store_->stats());
    return s;
}

BenchTiming
SuiteEvaluator::timing() const
{
    const StatsSnapshot s = stats();
    BenchTiming timing;
    timing.compiles = s.counter("counters.compiles");
    timing.prefixCompiles = s.counter("counters.prefix_compiles");
    timing.captures = s.counter("counters.captures");
    timing.replays = s.counter("counters.replays");
    timing.capturedRecords = s.counter("counters.captured_records");
    timing.replayedRecords = s.counter("counters.replayed_records");
    timing.storeHits = s.counter("store.hit");
    timing.storeWrites = s.counter("store.write");
    timing.resultCacheHits = s.counter("counters.result_cache_hits");
    return timing;
}

} // namespace predilp
