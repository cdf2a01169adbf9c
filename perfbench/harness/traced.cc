#include "traced.hh"

#include <filesystem>
#include <sstream>
#include <unordered_set>

#include "driver/certified.hh"
#include "emu/decoded.hh"
#include "frontend/irgen.hh"
#include "ir/verifier.hh"
#include "opt/pass.hh"
#include "store/sha256.hh"
#include "support/diag.hh"
#include "trace/replay.hh"

namespace perfbench
{

using namespace predilp;

namespace
{

// The key builders below restate SuiteEvaluator's private ones
// (driver/evaluator.cc). They must agree byte for byte: the traced
// warm run finds its store artifacts through them, and the
// faithfulness table shows any drift as missing store hits.

std::string
decodedKey(const Workload &workload, const EvalRequest &request,
           Model model, const MachineConfig &machine)
{
    std::ostringstream os;
    os << workload.name << "|s" << request.scale << "|m"
       << static_cast<int>(model) << '|' << machineIdentity(machine)
       << '|' << request.ablation.canonicalFor(model).key();
    return os.str();
}

std::string
traceKey(const Workload &workload, const EvalRequest &request,
         Model model, const MachineConfig &machine, std::uint64_t fuel)
{
    return decodedKey(workload, request, model, machine) + "|f" +
           std::to_string(fuel);
}

CellProvenance
cellProvenance(const Workload &workload, const EvalRequest &request,
               Model model, const SimConfig &sim)
{
    CellProvenance prov;
    prov.workload = workload.name;
    prov.model = modelKey(model);
    prov.scale = request.scale;
    prov.ablation = request.ablation.canonicalFor(model).key();
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

} // namespace

TracedEvaluator::TracedEvaluator(SpanRecorder &spans,
                                 ArtifactStore *store)
    : spans_(spans), store_(store)
{}

std::string
TracedEvaluator::makeInput(const Workload &workload, int scale)
{
    SpanRecorder::Scope span(spans_, "workloads.input");
    counts_.layers["workloads.input"].calls += 1;
    return workload.makeInput(workload.defaultScale * scale);
}

TracedEvaluator::SnapshotPtr
TracedEvaluator::snapshotFor(const Workload &workload,
                             const std::string &input, int scale,
                             std::uint64_t profileFuel)
{
    const std::string key =
        workload.name + "|prefix|s" + std::to_string(scale);
    if (auto it = snapshots_.find(key); it != snapshots_.end())
        return it->second;

    // compilePrefix() split at its frontend/prefix-pipeline seam.
    std::unique_ptr<Program> prog;
    {
        SpanRecorder::Scope span(spans_, "frontend");
        prog = compileSource(workload.source);
        std::string err = verifyProgram(*prog);
        if (!err.empty())
            throw VerifyError("frontend", err);
    }
    LayerWork &frontend = counts_.layers["frontend"];
    frontend.calls += 1;
    frontend.irInstrs += programInstrCount(*prog);

    StatsRegistry stats;
    PassContext ctx(stats);
    ctx.profileInput = input;
    ctx.profileFuel = profileFuel;
    {
        SpanRecorder::Scope span(spans_, "opt.prefix");
        PassManager prefix = buildPrefixPipeline();
        prefix.run(*prog, ctx);
    }
    panicIf(ctx.profile == nullptr,
            "prefix pipeline produced no profile");
    LayerWork &opt = counts_.layers["opt.prefix"];
    opt.calls += 1;
    opt.irInstrs += programInstrCount(*prog);

    auto snapshot = std::make_shared<FrontendSnapshot>();
    snapshot->prog = std::move(prog);
    snapshot->profile = std::move(*ctx.profile);
    counts_.prefixCompiles += 1;
    snapshots_.emplace(key, snapshot);
    return snapshot;
}

RunResult
TracedEvaluator::referenceFor(const Workload &workload,
                              const std::string &input, int scale)
{
    const std::string key =
        workload.name + "|ref|s" + std::to_string(scale);
    if (auto it = references_.find(key); it != references_.end())
        return it->second;
    RunResult ref;
    {
        SpanRecorder::Scope span(spans_, "reference");
        ref = runReference(workload.source, input);
    }
    counts_.layers["reference"].calls += 1;
    counts_.captures += 1;
    references_.emplace(key, ref);
    return ref;
}

void
TracedEvaluator::noteTrace(const TraceBuffer &trace)
{
    counts_.traceBytes += trace.memoryBytes();
    counts_.traceRecords += trace.size();
}

TracedEvaluator::TracePtr
TracedEvaluator::traceFor(const Workload &workload,
                          const EvalRequest &request, Model model,
                          const MachineConfig &machine,
                          const std::string &input, std::uint64_t fuel,
                          const std::string &key)
{
    if (auto it = traces_.find(key); it != traces_.end())
        return it->second;

    std::string storeKey;
    if (store_ != nullptr) {
        storeKey = ArtifactStore::keyFor(workload.source, key);
        const std::uint64_t mappedBefore = store_->bytesMapped();
        TracePtr fromDisk;
        {
            SpanRecorder::Scope span(spans_, "store.load");
            fromDisk = store_->load(storeKey);
        }
        LayerWork &load = counts_.layers["store.load"];
        load.calls += 1;
        load.bytes += store_->bytesMapped() - mappedBefore;
        if (fromDisk) {
            counts_.storeHits += 1;
            noteTrace(*fromDisk);
            traces_.emplace(key, fromDisk);
            return fromDisk;
        }
    }

    CompileOptions opts;
    opts.model = model;
    opts.machine = machine;
    opts.profileInput = input;
    opts.ablation = request.ablation;
    SnapshotPtr snapshot =
        snapshotFor(workload, input, request.scale,
                    opts.maxProfileInstrs);
    std::unique_ptr<Program> prog;
    {
        SpanRecorder::Scope span(spans_,
                                 std::string("compile.") +
                                     modelKey(model));
        StatsRegistry perCompile;
        prog = compileFromSnapshot(*snapshot, opts, &perCompile);
    }
    LayerWork &compile =
        counts_.layers[std::string("compile.") + modelKey(model)];
    compile.calls += 1;
    compile.irInstrs += programInstrCount(*prog);
    counts_.compiles += 1;

    std::unique_ptr<TraceBuffer> buffer;
    if (defaultEmuBackend() == EmuBackend::Threaded) {
        std::unique_ptr<DecodedProgram> decoded;
        {
            SpanRecorder::Scope span(spans_, "emu.decode");
            decoded = std::make_unique<DecodedProgram>(*prog);
        }
        counts_.layers["emu.decode"].calls += 1;
        SpanRecorder::Scope span(spans_, "emu.capture");
        buffer = captureDecoded(*decoded, input, fuel);
    } else {
        SpanRecorder::Scope span(spans_, "emu.capture");
        buffer = capture(*prog, input, fuel, EmuBackend::Interp);
    }
    LayerWork &capture = counts_.layers["emu.capture"];
    capture.calls += 1;
    capture.records += buffer->size();
    counts_.captures += 1;

    RunResult reference = referenceFor(workload, input, request.scale);
    const RunResult &run = buffer->run();
    if (run.output != reference.output ||
        run.exitValue != reference.exitValue ||
        run.memHash != reference.memHash) {
        throw DivergenceError(modelName(model) +
                              " diverged from reference on " +
                              workload.name);
    }

    if (store_ != nullptr) {
        // The evaluator's provenance sidecar, field for field, so the
        // store writes the same bytes.
        SimConfig captureSim = request.sim;
        captureSim.machine = machine;
        JsonValue prov = JsonValue::makeObject({
            {"format_version",
             JsonValue::makeInt(ArtifactStore::formatVersion)},
            {"store_key", JsonValue::makeString(storeKey)},
            {"cell_key", JsonValue::makeString(key)},
            {"workload", JsonValue::makeString(workload.name)},
            {"model", JsonValue::makeString(modelKey(model))},
            {"scale", JsonValue::makeInt(request.scale)},
            {"ablation",
             JsonValue::makeString(
                 request.ablation.canonicalFor(model).key())},
            {"fuel",
             JsonValue::makeInt(static_cast<std::int64_t>(fuel))},
            {"emu_backend",
             JsonValue::makeString(
                 emuBackendName(defaultEmuBackend()))},
            {"config_digest",
             JsonValue::makeString(captureSim.configDigest())},
            {"source_sha256",
             JsonValue::makeString(sha256Hex(workload.source))},
            {"pipeline_digest",
             JsonValue::makeString(
                 passPipelineDigest(model, request.ablation))},
            {"records", JsonValue::makeInt(static_cast<std::int64_t>(
                            buffer->size()))},
        });
        bool saved = false;
        {
            SpanRecorder::Scope span(spans_, "store.save");
            saved = store_->save(storeKey, *buffer, prov.dump() + "\n");
        }
        LayerWork &save = counts_.layers["store.save"];
        save.calls += 1;
        if (saved) {
            counts_.storeWrites += 1;
            std::error_code ec;
            std::uintmax_t size =
                std::filesystem::file_size(store_->objectPath(storeKey),
                                           ec);
            save.bytes += ec ? 0 : size;
        }
    }
    counts_.capturedRecords += buffer->size();
    noteTrace(*buffer);
    TracePtr trace(std::move(buffer));
    traces_.emplace(key, trace);
    return trace;
}

void
TracedEvaluator::publishCertified(const Workload &workload,
                                  const EvalRequest &request,
                                  Model model, const SimConfig &sim,
                                  const SimResult &result)
{
    if (store_ == nullptr || store_->mode() != StoreMode::ReadWrite)
        return;
    CellProvenance prov = cellProvenance(workload, request, model, sim);
    const std::string key = certifiedResultKey(prov);
    JsonValue record = certifiedRecord(prov, result);
    {
        SpanRecorder::Scope span(spans_, "store.save_result");
        store_->saveResult(key, record);
    }
    counts_.layers["store.save_result"].calls += 1;
}

SimResult
TracedEvaluator::cellResult(const Workload &workload,
                            const EvalRequest &request, Model model,
                            const SimConfig &sim,
                            const std::string &input)
{
    const std::string tkey = traceKey(workload, request, model,
                                      sim.machine, sim.maxDynInstrs);
    const std::string rkey = tkey + "##" + sim.configDigest();
    if (auto it = results_.find(rkey); it != results_.end()) {
        counts_.resultCacheHits += 1;
        return it->second;
    }
    TracePtr trace = traceFor(workload, request, model, sim.machine,
                              input, sim.maxDynInstrs, tkey);
    const char *layer = sim.perfectCaches ? "sim.replay.perfect"
                                          : "sim.replay.realcache";
    SimResult priced;
    {
        SpanRecorder::Scope span(spans_, layer);
        priced = replay(*trace, sim);
    }
    LayerWork &replayed = counts_.layers[layer];
    replayed.calls += 1;
    replayed.records += trace->size();
    counts_.replays += 1;
    counts_.replayedRecords += trace->size();
    publishCertified(workload, request, model, sim, priced);
    results_.emplace(rkey, priced);
    return priced;
}

BenchmarkResult
TracedEvaluator::evaluateCells(const Workload &workload,
                               const EvalRequest &request)
{
    BenchmarkResult result;
    result.name = workload.name;
    const std::vector<Model> models = request.effectiveModels();
    const std::string input = makeInput(workload, request.scale);

    std::vector<SimResult> cells(models.size() + 1);
    for (std::size_t i = 0; i < models.size() + 1; ++i) {
        const bool baseline = i == 0;
        const Model model = baseline ? Model::Superblock : models[i - 1];
        SimConfig sim = request.sim;
        if (baseline)
            sim.machine = issue1();
        SpanRecorder::Scope span(spans_, "driver.cell", spans_.newCell());
        try {
            cells[i] = cellResult(workload, request, model, sim, input);
        } catch (...) {
            // Fault isolation, as the benchmark's untraced passes run
            // it: the cell becomes a CellError and the walk goes on.
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
            result.errors.push_back(std::move(error));
        }
    }
    result.baseCycles = cells[0].cycles;
    for (std::size_t i = 0; i < models.size(); ++i) {
        result.models[models[i]] = std::move(cells[i + 1]);
        result.provenance[models[i]] =
            cellProvenance(workload, request, models[i], request.sim);
    }
    return result;
}

EvalResponse
TracedEvaluator::evaluate(const EvalRequest &request)
{
    SpanRecorder::Scope span(spans_, "driver.request");
    EvalResponse response;
    response.requestDigest = request.requestDigest();
    for (const Workload *workload : selectWorkloads(request))
        response.results.push_back(evaluateCells(*workload, request));
    return response;
}

std::vector<EvalResponse>
TracedEvaluator::evaluateBatch(const std::vector<EvalRequest> &requests)
{
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
    };

    // Plan: enumerate cells, drop priced and duplicate result keys,
    // group the rest by trace key in first-appearance order.
    std::vector<BatchGroup> groups;
    {
        SpanRecorder::Scope span(spans_, "driver.batch_plan");
        std::unordered_map<std::string, std::size_t> groupIndex;
        std::unordered_set<std::string> plannedRkeys;
        for (const EvalRequest &request : requests) {
            const std::vector<Model> models = request.effectiveModels();
            for (const Workload *workload : selectWorkloads(request)) {
                const std::string input =
                    makeInput(*workload, request.scale);
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
                    if (!plannedRkeys.insert(rkey).second ||
                        results_.count(rkey) != 0)
                        continue;
                    auto [it, inserted] =
                        groupIndex.emplace(tkey, groups.size());
                    if (inserted) {
                        groups.push_back(BatchGroup{
                            workload, &request, model, sim.machine,
                            input, std::move(tkey), {}, {}});
                    }
                    BatchGroup &group = groups[it->second];
                    group.rkeys.push_back(std::move(rkey));
                    group.configs.push_back(sim);
                }
            }
        }
    }

    // Execute: one single-lane replayBatch per trace. A failing group
    // stays unpriced; the assembly below recomputes its cells one by
    // one and isolates the failure, as the evaluator does.
    for (const BatchGroup &group : groups) {
        SpanRecorder::Scope span(spans_, "driver.batch_group",
                                 spans_.newCell());
        try {
            TracePtr trace = traceFor(
                *group.workload, *group.request, group.model,
                group.machine, group.input,
                group.configs.front().maxDynInstrs, group.tkey);
            std::vector<SimResult> priced;
            {
                SpanRecorder::Scope replaySpan(spans_,
                                               "sim.replay_batch");
                priced = replayBatch(*trace, group.configs, nullptr);
            }
            LayerWork &batch = counts_.layers["sim.replay_batch"];
            batch.calls += 1;
            batch.configs += priced.size();
            batch.records += trace->size() * priced.size();
            counts_.replays += priced.size();
            counts_.replayedRecords += trace->size() * priced.size();
            for (std::size_t i = 0; i < priced.size(); ++i) {
                publishCertified(*group.workload, *group.request,
                                 group.model, group.configs[i],
                                 priced[i]);
                results_.emplace(group.rkeys[i], std::move(priced[i]));
            }
        } catch (...) {
        }
    }

    std::vector<EvalResponse> responses;
    for (const EvalRequest &request : requests)
        responses.push_back(evaluate(request));
    return responses;
}

} // namespace perfbench
