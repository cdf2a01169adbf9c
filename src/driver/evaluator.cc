#include "driver/evaluator.hh"

#include <algorithm>
#include <sstream>
#include <unordered_set>

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

CompileOptions
makeCompileOptions(const EvalRequest &request, Model model,
                   const MachineConfig &machine,
                   const std::string &input, bool verifyEachPass)
{
    CompileOptions opts;
    opts.model = model;
    opts.machine = machine;
    opts.profileInput = input;
    opts.ablation = request.ablation;
    opts.verifyEachPass = verifyEachPass;
    return opts;
}

std::string
machineKey(const MachineConfig &m)
{
    // Shared with the certified records' machine identity so a cell
    // in the store and a cell in a cache key name the same machine
    // by the same string.
    return machineIdentity(m);
}

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
 * scale, model, machine, canonical ablation flags) plus the capture
 * fuel.
 *
 * Deliberately machine-only (not the full SimConfig digest): traces
 * depend on what the scheduler emitted and how far emulation ran,
 * never on cache or BTB parameters, so e.g. the real-cache Figure 11
 * replays the perfect-cache Figure 8 traces byte-for-byte.
 */
std::string
traceKey(const Workload &workload, const EvalRequest &request,
         Model model, const MachineConfig &machine,
         std::uint64_t fuel)
{
    std::ostringstream os;
    os << workload.name << "|s" << request.scale << "|m"
       << static_cast<int>(model) << '|' << machineKey(machine)
       << '|' << flagsKey(request, model) << "|f" << fuel;
    return os.str();
}

/**
 * Full provenance of one priced cell. A pure function of
 * (workload, request, model, sim), so the BENCH/sweep emitters and
 * the certified records in the store agree on every digest.
 */
CellProvenance
cellProvenance(const Workload &workload, const EvalRequest &request,
               Model model, const SimConfig &sim)
{
    CellProvenance prov;
    prov.workload = workload.name;
    prov.model = modelKey(model);
    prov.scale = request.scale;
    prov.ablation = flagsKey(request, model);
    prov.fuel = sim.maxDynInstrs;
    prov.machine = machineIdentity(sim.machine);
    prov.sourceSha256 = sha256Hex(workload.source);
    prov.pipelineDigest = passPipelineDigest(model, request.ablation);
    prov.configDigest = sim.configDigest();
    prov.traceDigest = ArtifactStore::keyFor(
        workload.source, traceKey(workload, request, model,
                                  sim.machine, sim.maxDynInstrs));
    return prov;
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
          "counters.replays", "counters.trace_cache_hits",
          "counters.result_cache_hits",
          "counters.reference_cache_hits", "counters.captured_bytes",
          "counters.captured_records", "counters.replayed_records",
          "counters.batch_fallbacks", "emu.decodes",
          "emu.decoded_bytes", "emu.records.threaded",
          "emu.records.interp", "emu.backend_fallbacks", "store.hit",
          "store.miss", "store.repair", "store.write",
          "store.bytes_mapped", "store.result_hit", "store.result_miss",
          "store.result_repair", "store.result_write"})
        stats_.counter(name);
    for (const char *name :
         {"phases.compile_seconds", "phases.emulate_seconds",
          "phases.simulate_seconds", "emu.decode_seconds"})
        stats_.timer(name);
    // Opt-in persistence without code changes, via the one
    // documented reader of PREDILP_STORE / PREDILP_STORE_MODE
    // (EnvConfig). setPolicy can still override both.
    EnvConfig env = EnvConfig::fromEnvironment();
    if (!env.storeDir.empty()) {
        policy_.storeDir = env.storeDir;
        policy_.storeMode = env.storeReadOnly ? StoreMode::ReadOnly
                                              : StoreMode::ReadWrite;
    }
    // PREDILP_FAULTS arms here too, so every evaluator-driven binary
    // honours it. The arm is latched once per process: a sweep that
    // armed before forking its workers is not re-armed.
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
 * concurrent requesters block on the owner's shared_future.
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
    } else if (hitCounter != nullptr) {
        UnitStats hit(stats);
        hit.counter(hitCounter).add();
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
                              &perPrefix, policy_.verifyEachPass));
            compileStats_.merge(perPrefix);
            unit.counter("counters.prefix_compiles").add();
            return snapshot;
        });
}

SuiteEvaluator::FormedPtr
SuiteEvaluator::formedFor(const Workload &workload,
                          const EvalRequest &request,
                          const FormOptions &opts)
{
    // The trace key minus machine and fuel: traces that differ only
    // by those share one formation.
    std::ostringstream key;
    key << workload.name << "|s" << request.scale << "|m"
        << static_cast<int>(opts.model) << '|'
        << flagsKey(request, opts.model);
    return cachedCompute(
        mutex_, formations_, key.str(), stats_, nullptr,
        [&]() -> FormedPtr {
            // Outside the timer: a snapshot's owner times its own
            // compile, and waiting for it is not formation time.
            SnapshotPtr snapshot =
                snapshotFor(workload, opts.profileInput,
                            request.scale, opts.maxProfileInstrs);
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
            unit.counter(defaultEmuBackend() == EmuBackend::Threaded
                             ? "emu.records.threaded"
                             : "emu.records.interp")
                .add(ref.dynInstrs);
            return ref;
        });
}

SuiteEvaluator::TracePtr
SuiteEvaluator::traceFor(const Workload &workload,
                         const EvalRequest &request, Model model,
                         const MachineConfig &machine,
                         const std::string &input,
                         std::uint64_t fuel,
                         const std::string &key)
{
    return cachedCompute(
        mutex_, traces_, key, stats_, "counters.trace_cache_hits",
        [&]() -> TracePtr {
            // Second tier: the persistent artifact store. A hit
            // skips compile, capture, and the reference-divergence
            // check entirely — artifacts were verified against the
            // oracle before they were published, and the checksum
            // guards the bytes — so warm runs pay zero emulation.
            std::string storeKey;
            if (store_ != nullptr) {
                storeKey =
                    ArtifactStore::keyFor(workload.source, key);
                if (TracePtr fromDisk = store_->load(storeKey))
                    return fromDisk;
            }
            CompileOptions opts =
                makeCompileOptions(request, model, machine, input,
                                   policy_.verifyEachPass);
            // Every machine's compile of this model clones one
            // shared formed program; only the scheduler runs per
            // compile. Waiting for the formation is not compile
            // time: its owner times it.
            FormedPtr formed = formedFor(workload, request, opts);
            UnitStats unit(stats_);
            std::unique_ptr<Program> prog;
            {
                ScopedTimer timer(unit.timer("phases.compile_seconds"));
                FAULT_POINT("eval.compile");
                // Each compile records into its own registry (the
                // worker owns it, unsynchronized); the additive
                // merge below makes the aggregate independent of
                // thread count and completion order.
                StatsRegistry perCompile;
                prog = scheduleFormed(*formed, opts, &perCompile);
                compileStats_.merge(perCompile);
                unit.counter("counters.compiles").add();
            }
            // The threaded backend splits capture into a decode and
            // the engine run; only the latter counts as emulation
            // time. Each trace key is captured once, so the decoded
            // form dies with this capture.
            const bool threaded =
                defaultEmuBackend() == EmuBackend::Threaded;
            std::unique_ptr<DecodedProgram> decoded;
            if (threaded) {
                ScopedTimer timer(unit.timer("emu.decode_seconds"));
                decoded = std::make_unique<DecodedProgram>(*prog);
                unit.counter("emu.decodes").add();
                unit.counter("emu.decoded_bytes")
                    .add(decoded->memoryBytes());
            }
            std::unique_ptr<TraceBuffer> buffer;
            bool capturedThreaded = threaded;
            {
                ScopedTimer timer(unit.timer("phases.emulate_seconds"));
                if (threaded) {
                    try {
                        buffer = captureDecoded(*decoded, input,
                                                fuel);
                    } catch (const Error &e) {
                        // Degradation ladder, rung 1: a trap in the
                        // threaded engine retries on the interpreter
                        // oracle — slower, architecturally
                        // identical, so the published trace (and
                        // every cell priced from it) is unchanged.
                        warn(detail::formatMessage(
                            "threaded capture failed for ",
                            workload.name, " (",
                            classifyException(
                                std::current_exception()),
                            ": ", e.what(),
                            "); retrying on the interpreter"));
                        unit.counter("emu.backend_fallbacks").add();
                        capturedThreaded = false;
                        buffer = capture(*prog, input, fuel,
                                         EmuBackend::Interp);
                    }
                } else {
                    buffer = capture(*prog, input, fuel,
                                     EmuBackend::Interp);
                }
                unit.counter("counters.captures").add();
            }
            unit.counter(capturedThreaded ? "emu.records.threaded"
                                          : "emu.records.interp")
                .add(buffer->size());
            RunResult reference = referenceFor(
                workload, input, request.scale);
            const RunResult &run = buffer->run();
            if (run.output != reference.output ||
                run.exitValue != reference.exitValue ||
                run.memHash != reference.memHash) {
                throw DivergenceError(detail::formatMessage(
                    modelName(model), " diverged from reference on ",
                    workload.name, ": exit ", run.exitValue, " vs ",
                    reference.exitValue, ", output ",
                    run.output.size(), " vs ",
                    reference.output.size(), " bytes",
                    run.output == reference.output ? " (equal)"
                                                   : " (differ)",
                    ", memHash ", run.memHash, " vs ",
                    reference.memHash));
            }
            if (store_ != nullptr) {
                // Provenance section of the artifact: where this
                // trace came from and under which config it was
                // first captured (the trace itself is shared by
                // every config with the same machine and fuel).
                SimConfig captureSim = request.sim;
                captureSim.machine = machine;
                JsonValue prov = JsonValue::makeObject({
                    {"format_version",
                     JsonValue::makeInt(ArtifactStore::formatVersion)},
                    {"store_key", JsonValue::makeString(storeKey)},
                    {"cell_key", JsonValue::makeString(key)},
                    {"workload",
                     JsonValue::makeString(workload.name)},
                    {"model", JsonValue::makeString(modelKey(model))},
                    {"scale", JsonValue::makeInt(request.scale)},
                    {"ablation",
                     JsonValue::makeString(flagsKey(request, model))},
                    {"fuel", JsonValue::makeInt(
                                 static_cast<std::int64_t>(fuel))},
                    {"emu_backend",
                     JsonValue::makeString(
                         emuBackendName(defaultEmuBackend()))},
                    {"config_digest",
                     JsonValue::makeString(
                         captureSim.configDigest())},
                    {"source_sha256",
                     JsonValue::makeString(
                         sha256Hex(workload.source))},
                    {"pipeline_digest",
                     JsonValue::makeString(passPipelineDigest(
                         model, request.ablation))},
                    {"records",
                     JsonValue::makeInt(static_cast<std::int64_t>(
                         buffer->size()))},
                });
                store_->save(storeKey, *buffer, prov.dump() + "\n");
            }
            const std::uint64_t bytes = buffer->memoryBytes();
            unit.counter("counters.captured_bytes").add(bytes);
            unit.counter("counters.captured_records")
                .add(buffer->size());
            {
                std::lock_guard<std::mutex> lock(mutex_);
                traceBytes_ += bytes;
                tracePeakBytes_ = std::max(tracePeakBytes_, traceBytes_);
            }
            return TracePtr(std::move(buffer));
        });
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
    if (store_->mode() != StoreMode::ReadWrite)
        return;
    // Best-effort like save(): a refusal degrades to a thinner
    // result tier, never a failed evaluation.
    if (store_->saveResult(certifiedResultKey(prov),
                           certifiedRecord(prov, result))) {
        UnitStats unit(stats_);
        unit.counter("store.result_write").add();
    }
}

SimResult
SuiteEvaluator::cellResult(const Workload &workload,
                           const EvalRequest &request, Model model,
                           const MachineConfig &machine,
                           const SimConfig &sim,
                           const std::string &input)
{
    std::string tkey = traceKey(workload, request, model, machine,
                                sim.maxDynInstrs);
    // The priced-result key extends the trace identity with the full
    // SimConfig digest: any config axis (cache geometry, BTB shape,
    // predictor, penalties) forces a fresh replay, while the trace
    // above is still shared.
    std::string rkey = tkey + "##" + sim.configDigest();
    return cachedCompute(
        mutex_, results_, rkey, stats_, "counters.result_cache_hits",
        [&] {
            // Second tier: the cell's certified record. A served
            // cell maps no trace, replays nothing and is not
            // republished.
            std::optional<CellProvenance> prov;
            if (store_ != nullptr) {
                prov = cellProvenance(workload, request, model, sim);
                if (std::optional<SimResult> served = servedResult(*prov))
                    return std::move(*served);
            }
            TracePtr trace =
                traceFor(workload, request, model, machine, input,
                         sim.maxDynInstrs, tkey);
            FAULT_POINT("eval.replay");
            SimResult priced;
            {
                UnitStats unit(stats_);
                ScopedTimer timer(unit.timer("phases.simulate_seconds"));
                unit.counter("counters.replays").add();
                unit.counter("counters.replayed_records")
                    .add(trace->size());
                priced = replay(*trace, sim);
            }
            if (prov)
                publishCertified(*prov, priced);
            return priced;
        });
}

BenchmarkResult
SuiteEvaluator::evaluateCells(const Workload &workload,
                              const EvalRequest &request)
{
    BenchmarkResult result;
    result.name = workload.name;
    const std::vector<Model> models = request.effectiveModels();
    std::string input = workload.makeInput(
        workload.defaultScale * request.scale);

    // Cell 0: the 1-issue Superblock baseline denominator (paper
    // §4.1), sharing every non-machine axis of the request's config;
    // cells 1..n: the requested models at the request's machine.
    std::vector<SimResult> cells(models.size() + 1);
    std::vector<CellError> errors;
    std::mutex errorMutex;
    pool_.parallelFor(models.size() + 1, [&](std::size_t i) {
        const bool baseline = i == 0;
        const Model model =
            baseline ? Model::Superblock : models[i - 1];
        SimConfig sim = request.sim;
        if (baseline)
            sim.machine = issue1();
        try {
            cells[i] = cellResult(workload, request, model,
                                  sim.machine, sim, input);
        } catch (...) {
            // Strict policy: let the pool rethrow the first failure.
            if (!policy_.isolateFaults)
                throw;
            // Isolated policy: degrade this cell to a structured
            // error record (plus a reproducer file when configured)
            // and let the rest of the suite complete.
            std::exception_ptr ep = std::current_exception();
            CellError error;
            error.workload = workload.name;
            error.model = modelName(model);
            error.baseline = baseline;
            error.kind = classifyException(ep);
            try {
                std::rethrow_exception(ep);
            } catch (const std::exception &e) {
                error.message = e.what();
            } catch (...) {
                error.message = "non-standard exception";
            }
            if (!policy_.reproducerDir.empty()) {
                ReproducerSpec spec;
                spec.title = workload.name + "-" + error.model +
                             (baseline ? "-base" : "");
                spec.model = error.model;
                spec.ablation = request.ablation;
                spec.scale = request.scale;
                spec.kind = error.kind;
                spec.message = error.message;
                spec.input = input;
                spec.source = workload.source;
                error.reproducerPath =
                    writeReproducer(policy_.reproducerDir, spec);
            }
            std::lock_guard<std::mutex> lock(errorMutex);
            errors.push_back(std::move(error));
        }
    });

    result.baseCycles = cells[0].cycles;
    for (std::size_t i = 0; i < models.size(); ++i) {
        result.models[models[i]] = std::move(cells[i + 1]);
        result.provenance[models[i]] =
            cellProvenance(workload, request, models[i],
                           request.sim);
    }
    result.errors = std::move(errors);
    return result;
}

EvalResponse
SuiteEvaluator::evaluate(const EvalRequest &request)
{
    std::vector<const Workload *> selected;
    if (request.workloads.empty()) {
        for (const Workload &workload : allWorkloads())
            selected.push_back(&workload);
    } else {
        for (const std::string &name : request.workloads) {
            const Workload *workload = findWorkload(name);
            if (workload == nullptr)
                throw FatalError("unknown workload '" + name + "'");
            selected.push_back(workload);
        }
    }
    EvalResponse response;
    response.requestDigest = request.requestDigest();
    response.results.resize(selected.size());
    pool_.parallelFor(selected.size(), [&](std::size_t i) {
        response.results[i] = evaluateCells(*selected[i], request);
    });
    return response;
}

void
SuiteEvaluator::seedResult(const std::string &rkey, SimResult result)
{
    std::promise<SimResult> promise;
    std::shared_future<SimResult> future =
        promise.get_future().share();
    {
        std::lock_guard<std::mutex> lock(mutex_);
        // Never overwrite: a concurrent evaluate() may already own
        // (or have finished) this key; its value is equally valid.
        if (!results_.emplace(rkey, future).second)
            return;
    }
    promise.set_value(std::move(result));
}

std::vector<EvalResponse>
SuiteEvaluator::evaluateBatch(const std::vector<EvalRequest> &requests)
{
    /**
     * One trace's worth of pending work: every not-yet-priced
     * SimConfig whose cell maps to the same trace key, plus the
     * identity needed to produce that trace. Configs within a group
     * differ only in non-machine axes (or belong to different
     * requests sharing a machine) — trace keys are machine-only.
     */
    struct BatchGroup
    {
        const Workload *workload = nullptr;
        const EvalRequest *request = nullptr;
        Model model = Model::Superblock;
        MachineConfig machine;
        std::string input;
        std::string tkey;
        std::vector<std::string> rkeys;
        std::vector<SimConfig> configs;
        /** Each config's cell provenance (store on only). */
        std::vector<CellProvenance> provs;
    };

    // --- plan: enumerate cells, dedup by result key, group by
    // trace key (deterministic first-appearance order) ---
    std::vector<BatchGroup> groups;
    std::unordered_map<std::string, std::size_t> groupIndex;
    std::unordered_set<std::string> plannedRkeys;
    for (const EvalRequest &request : requests) {
        std::vector<const Workload *> selected;
        if (request.workloads.empty()) {
            for (const Workload &workload : allWorkloads())
                selected.push_back(&workload);
        } else {
            for (const std::string &name : request.workloads) {
                // Unknown names throw from the assembly-phase
                // evaluate() below, where the error is attributable
                // to its request; the planner just skips them.
                if (const Workload *workload = findWorkload(name))
                    selected.push_back(workload);
            }
        }
        const std::vector<Model> models = request.effectiveModels();
        for (const Workload *workload : selected) {
            std::string input = workload->makeInput(
                workload->defaultScale * request.scale);
            for (std::size_t i = 0; i < models.size() + 1; ++i) {
                const bool baseline = i == 0;
                const Model model =
                    baseline ? Model::Superblock : models[i - 1];
                SimConfig sim = request.sim;
                if (baseline)
                    sim.machine = issue1();
                std::string tkey =
                    traceKey(*workload, request, model, sim.machine,
                             sim.maxDynInstrs);
                std::string rkey = tkey + "##" + sim.configDigest();
                if (!plannedRkeys.insert(rkey).second)
                    continue;
                {
                    std::lock_guard<std::mutex> lock(mutex_);
                    if (results_.find(rkey) != results_.end())
                        continue;
                }
                std::optional<CellProvenance> prov;
                if (store_ != nullptr) {
                    prov =
                        cellProvenance(*workload, request, model, sim);
                    if (std::optional<SimResult> served =
                            servedResult(*prov)) {
                        seedResult(rkey, std::move(*served));
                        continue;
                    }
                }
                auto [it, inserted] =
                    groupIndex.emplace(tkey, groups.size());
                if (inserted) {
                    groups.push_back(BatchGroup{
                        workload, &request, model, sim.machine,
                        input, std::move(tkey), {}, {}, {}});
                }
                BatchGroup &group = groups[it->second];
                group.rkeys.push_back(std::move(rkey));
                group.configs.push_back(sim);
                if (prov)
                    group.provs.push_back(std::move(*prov));
            }
        }
    }

    // --- execute: trace-major batch passes. Each group maps its
    // trace once and prices every pending config against it. ---
    auto runGroup = [&](const BatchGroup &group,
                        ThreadPool *lanePool) {
        UnitStats unit(stats_);
        try {
            FAULT_POINT("eval.replay.batch");
            TracePtr trace = traceFor(
                *group.workload, *group.request, group.model,
                group.machine, group.input,
                group.configs.front().maxDynInstrs, group.tkey);
            std::vector<SimResult> priced;
            {
                ScopedTimer timer(unit.timer("phases.simulate_seconds"));
                priced = replayBatch(*trace, group.configs, lanePool);
            }
            unit.counter("counters.replays").add(priced.size());
            unit.counter("counters.replayed_records")
                .add(trace->size() * priced.size());
            for (std::size_t i = 0; i < priced.size(); ++i) {
                // Batched cells certify exactly like unbatched ones:
                // the record's provenance comes from the config that
                // keyed the cell, not from the group.
                if (store_ != nullptr)
                    publishCertified(group.provs[i], priced[i]);
                seedResult(group.rkeys[i], std::move(priced[i]));
            }
        } catch (...) {
            // Degradation ladder, rung 2: leave the group unseeded.
            // The assembly pass below recomputes these cells
            // sequentially through cellResult() and applies the
            // failure policy (strict rethrow or CellError isolation)
            // exactly as the unbatched path would. Counted and
            // warned so a batch that silently lost its amortization
            // is visible in the merged timing.
            unit.counter("counters.batch_fallbacks").add();
            warn(detail::formatMessage(
                "batch group for trace '", group.tkey, "' failed (",
                classifyException(std::current_exception()),
                "); falling back to sequential recompute"));
        }
    };
    if (groups.size() == 1) {
        // A single trace group: parallelism comes from spreading
        // the batch's lanes across the pool instead.
        runGroup(groups.front(), &pool_);
    } else {
        pool_.parallelFor(groups.size(), [&](std::size_t i) {
            runGroup(groups[i], nullptr);
        });
    }

    // --- assemble: through THE entry point, so ordering, fault
    // isolation, and response shape are exactly evaluate()'s; every
    // seeded cell is a result-cache hit. ---
    std::vector<EvalResponse> responses;
    responses.reserve(requests.size());
    for (const EvalRequest &request : requests)
        responses.push_back(evaluate(request));
    return responses;
}

void
SuiteEvaluator::releaseTraces()
{
    std::lock_guard<std::mutex> lock(mutex_);
    traces_.clear();
    traceBytes_ = 0;
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
    std::lock_guard<std::mutex> lock(mutex_);
    s.setCounter("counters.trace_bytes", traceBytes_);
    s.setCounter("counters.trace_peak_bytes", tracePeakBytes_);
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
