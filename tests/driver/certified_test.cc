/**
 * @file
 * Certified-record tests: the record decodes back to the exact
 * SimResult it was made from, the decoder refuses every malformed
 * shape, and the staleness pin — figures whose only inputs are the
 * emulator and CycleModel, hashed and compared against the digest
 * committed beside certSchemaTag. Then the records as the store's
 * result tier: a warm evaluator serves every cell from them without
 * a replay (through evaluate and evaluateBatch), and refuses and
 * heals torn, misfiled, stale and malformed records.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "driver/certified.hh"
#include "driver/evaluator.hh"
#include "driver/pipeline.hh"
#include "frontend/irgen.hh"
#include "store/sha256.hh"
#include "store/store.hh"
#include "trace/replay.hh"
#include "workloads/workloads.hh"

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

/** Every field of two SimResults, stats and program output included. */
void
expectSameResult(const SimResult &a, const SimResult &b)
{
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.dynInstrs, b.dynInstrs);
    EXPECT_EQ(a.nullified, b.nullified);
    EXPECT_EQ(a.branches, b.branches);
    EXPECT_EQ(a.condBranches, b.condBranches);
    EXPECT_EQ(a.mispredicts, b.mispredicts);
    EXPECT_EQ(a.loads, b.loads);
    EXPECT_EQ(a.stores, b.stores);
    EXPECT_EQ(a.icacheMisses, b.icacheMisses);
    EXPECT_EQ(a.dcacheMisses, b.dcacheMisses);
    EXPECT_EQ(a.exitValue, b.exitValue);
    EXPECT_EQ(a.output, b.output);
    EXPECT_TRUE(a.stats == b.stats);
}

/** A provenance with every member set. */
CellProvenance
sampleProvenance()
{
    CellProvenance prov;
    prov.workload = "cmp";
    prov.model = "full_pred";
    prov.scale = 1;
    prov.ablation = AblationFlags().key();
    prov.fuel = 1000;
    prov.machine = machineIdentity(issue8Branch1());
    prov.sourceSha256 = "s";
    prov.pipelineDigest = "p";
    prov.configDigest = "c";
    prov.traceDigest = "t";
    return prov;
}

/** @p object with member @p key replaced by @p value, or dropped
 * when @p value is nullopt. */
JsonValue
withMember(const JsonValue &object, const std::string &key,
           std::optional<JsonValue> value)
{
    std::vector<std::pair<std::string, JsonValue>> members;
    for (const auto &[name, member] : object.members()) {
        if (name != key)
            members.emplace_back(name, member);
        else if (value)
            members.emplace_back(name, *value);
    }
    return JsonValue::makeObject(std::move(members));
}

/** Every cell of two responses, field for field. */
void
expectSameResponse(const EvalResponse &a, const EvalResponse &b)
{
    ASSERT_EQ(a.results.size(), b.results.size());
    for (std::size_t i = 0; i < a.results.size(); ++i) {
        const BenchmarkResult &x = a.results[i];
        const BenchmarkResult &y = b.results[i];
        SCOPED_TRACE(x.name);
        EXPECT_EQ(x.baseCycles, y.baseCycles);
        ASSERT_EQ(x.models.size(), y.models.size());
        for (const auto &[model, sim] : x.models) {
            SCOPED_TRACE(modelName(model));
            expectSameResult(sim, y.models.at(model));
        }
    }
}

/** A store-backed policy rooted at @p dir. */
EvalPolicy
storePolicy(const std::string &dir)
{
    EvalPolicy policy;
    policy.storeMode = StoreMode::ReadWrite;
    policy.storeDir = dir;
    return policy;
}

/** The paper machine over cmp alone: four priced cells. */
EvalRequest
cmpRequest(bool perfectCaches = true)
{
    EvalRequest request;
    request.sim.machine = issue8Branch1();
    request.sim.perfectCaches = perfectCaches;
    request.workloads = {"cmp"};
    return request;
}

TEST(Certified, RecordDecodesToTheReplayedResult)
{
    // Through the store and back, as a warm evaluator reads it.
    ArtifactStore store(freshDir("certified-roundtrip"),
                        StoreMode::ReadWrite);
    for (const char *name : {"cmp", "wc", "compress"}) {
        const Workload *workload = findWorkload(name);
        ASSERT_NE(workload, nullptr);
        const std::string input = workload->makeInput(1);
        for (Model model :
             {Model::Superblock, Model::CondMove, Model::FullPred}) {
            CompileOptions opts;
            opts.model = model;
            opts.machine = issue8Branch1();
            opts.profileInput = input;
            auto trace = capture(
                *compileForModel(workload->source, opts), input);
            for (bool perfect : {true, false}) {
                SCOPED_TRACE(std::string(name) + "/" +
                             modelKey(model) +
                             (perfect ? "/perfect" : "/real"));
                SimConfig sim;
                sim.perfectCaches = perfect;
                const SimResult replayed = replay(*trace, sim);
                CellProvenance prov = sampleProvenance();
                prov.workload = name;
                prov.model = modelKey(model);
                prov.configDigest = sim.configDigest();
                const std::string key = certifiedResultKey(prov);
                ASSERT_TRUE(store.saveResult(
                    key, certifiedRecord(prov, replayed)));
                std::optional<JsonValue> sealed = store.loadResult(key);
                ASSERT_TRUE(sealed.has_value());
                std::optional<CertifiedCell> cell =
                    decodeCertifiedRecord(*sealed);
                ASSERT_TRUE(cell.has_value());
                EXPECT_TRUE(cell->provenance == prov);
                expectSameResult(cell->result, replayed);
            }
        }
    }
}

TEST(Certified, DecoderRefusesEveryMalformedShape)
{
    SimResult sim;
    sim.cycles = 10;
    sim.exitValue = -3; // exit values may be negative; counts may not.
    sim.output = "out\n";
    sim.stats.setCounter("sim.btb.lookups", 4);
    const JsonValue record = certifiedRecord(sampleProvenance(), sim);
    ASSERT_TRUE(decodeCertifiedRecord(record).has_value());
    EXPECT_EQ(decodeCertifiedRecord(record)->result.exitValue, -3);

    const JsonValue &figures = record.at("figures");
    const JsonValue &run = record.at("run");
    const JsonValue &prov = record.at("provenance");
    const JsonValue refused[] = {
        withMember(record, "schema",
                   JsonValue::makeString("predilp-cert-v1")),
        withMember(record, "run", std::nullopt),
        withMember(record, "figures",
                   withMember(figures, "cycles", std::nullopt)),
        withMember(record, "figures",
                   withMember(figures, "mispredicts",
                              JsonValue::makeInt(-1))),
        withMember(record, "figures",
                   withMember(figures, "sim.btb.lookups",
                              JsonValue::makeDouble(4.5))),
        withMember(record, "run",
                   withMember(run, "output", JsonValue::makeInt(1))),
        withMember(record, "run",
                   withMember(run, "exit_value", std::nullopt)),
        withMember(record, "provenance",
                   withMember(prov, "trace_digest", std::nullopt)),
        withMember(record, "provenance",
                   withMember(prov, "fuel", JsonValue::makeInt(-1))),
        withMember(record, "provenance",
                   withMember(prov, "scale", JsonValue::makeInt(0))),
        withMember(record, "provenance",
                   withMember(prov, "scale", JsonValue::makeInt(-1))),
        withMember(record, "provenance",
                   withMember(prov, "scale",
                              JsonValue::makeInt(4294967297))),
        JsonValue::makeString("not a record"),
    };
    for (const JsonValue &bad : refused) {
        SCOPED_TRACE(bad.dump());
        EXPECT_FALSE(decodeCertifiedRecord(bad).has_value());
    }
}

TEST(Certified, FiguresPinnedToSchemaTag)
{
    // Frontend-only programs: no optimizer tie-breaks that another
    // standard library could order differently, so these figures
    // move only when the emulator or CycleModel does.
    std::vector<SimConfig> configs;
    for (bool perfect : {true, false}) {
        for (int width : {1, 4, 8}) {
            for (int branches : {1, 2}) {
                for (BranchPredictor predictor :
                     {BranchPredictor::TwoBit,
                      BranchPredictor::OneBit}) {
                    SimConfig sim;
                    sim.perfectCaches = perfect;
                    sim.machine.issueWidth = width;
                    sim.machine.branchesPerCycle = branches;
                    sim.predictor = predictor;
                    configs.push_back(sim);
                }
            }
        }
    }
    // Real caches at every value of the sweep grid's pricing axes
    // (perfbench's sweep_cache_grid), so the pin also covers
    // set-associative caches, short lines, small and large caches,
    // the long miss penalty, tagged BTBs and the static predictors.
    struct Geometry
    {
        int ways;
        std::int64_t lineBytes;
        std::int64_t sizeBytes;
        int missPenalty;
        std::size_t btbEntries;
        int btbWays;
        BranchPredictor predictor;
    };
    const Geometry geometries[] = {
        {2, 64, 64 * 1024, 12, 1024, 1, BranchPredictor::TwoBit},
        {4, 64, 64 * 1024, 12, 1024, 1, BranchPredictor::TwoBit},
        {1, 32, 64 * 1024, 12, 1024, 1, BranchPredictor::TwoBit},
        {1, 64, 16 * 1024, 12, 1024, 1, BranchPredictor::TwoBit},
        {1, 64, 32 * 1024, 12, 1024, 1, BranchPredictor::TwoBit},
        {1, 64, 128 * 1024, 12, 1024, 1, BranchPredictor::TwoBit},
        {1, 64, 64 * 1024, 24, 1024, 1, BranchPredictor::TwoBit},
        {1, 64, 64 * 1024, 12, 256, 1, BranchPredictor::TwoBit},
        {1, 64, 64 * 1024, 12, 4096, 1, BranchPredictor::OneBit},
        {1, 64, 64 * 1024, 12, 256, 2, BranchPredictor::TwoBit},
        {1, 64, 64 * 1024, 12, 4096, 2, BranchPredictor::OneBit},
        {4, 32, 16 * 1024, 24, 1024, 2, BranchPredictor::StaticTaken},
        {2, 32, 128 * 1024, 12, 1024, 1,
         BranchPredictor::StaticNotTaken},
    };
    for (const Geometry &g : geometries) {
        SimConfig sim;
        sim.perfectCaches = false;
        sim.cacheAssociativity = g.ways;
        sim.cacheLineBytes = g.lineBytes;
        sim.cacheSizeBytes = g.sizeBytes;
        sim.cacheMissPenalty = g.missPenalty;
        sim.btbEntries = g.btbEntries;
        sim.btbAssociativity = g.btbWays;
        sim.predictor = g.predictor;
        configs.push_back(sim);
    }
    Sha256 digest;
    for (const char *name : {"cmp", "wc", "compress", "grep"}) {
        const Workload *workload = findWorkload(name);
        ASSERT_NE(workload, nullptr);
        auto trace = capture(*compileSource(workload->source),
                             workload->makeInput(1));
        for (const SimConfig &sim : configs)
            digest.update(certifiedFigures(replay(*trace, sim)).dump() +
                          "\n");
    }
    EXPECT_EQ(digest.hex(), certFiguresPin)
        << "priced figures moved: bump certSchemaTag and re-pin "
           "certFiguresPin (src/driver/certified.hh)";
}

/** Counters of one evaluator's result tier and replay work. */
struct TierCounts
{
    std::uint64_t hit, miss, repair, write, replays, traceHits;
};

TierCounts
tierCounts(const SuiteEvaluator &evaluator)
{
    const StatsSnapshot s = evaluator.stats();
    return {s.counter("store.result_hit"),
            s.counter("store.result_miss"),
            s.counter("store.result_repair"),
            s.counter("store.result_write"),
            s.counter("counters.replays"),
            s.counter("store.hit")};
}

TEST(ResultTier, WarmEvaluatorServesEveryCellFromItsRecord)
{
    const std::string dir = freshDir("result-tier-warm");
    const std::vector<EvalRequest> batch = {cmpRequest(true),
                                            cmpRequest(false)};
    SuiteEvaluator cold(2);
    cold.setPolicy(storePolicy(dir));
    const EvalResponse coldSingle = cold.evaluate(batch[0]);
    const std::vector<EvalResponse> coldBatch =
        cold.evaluateBatch(batch);
    // Eight distinct cells: three models plus the 1-issue baseline,
    // under perfect and under real caches. The batch's perfect half
    // is already in the result cache.
    const TierCounts c = tierCounts(cold);
    EXPECT_EQ(c.hit, 0u);
    EXPECT_EQ(c.miss, 8u);
    EXPECT_EQ(c.repair, 0u);
    EXPECT_EQ(c.write, 8u);
    EXPECT_EQ(c.replays, 8u);

    // Through evaluate(): four cells, all served.
    SuiteEvaluator warm(2);
    warm.setPolicy(storePolicy(dir));
    expectSameResponse(warm.evaluate(batch[0]), coldSingle);
    TierCounts w = tierCounts(warm);
    EXPECT_EQ(w.hit, 4u);
    EXPECT_EQ(w.miss, 0u);
    EXPECT_EQ(w.write, 0u);
    EXPECT_EQ(w.replays, 0u);
    EXPECT_EQ(w.traceHits, 0u);
    const StatsSnapshot ws = warm.stats();
    EXPECT_EQ(ws.counter("counters.compiles"), 0u);
    EXPECT_EQ(ws.counter("counters.captures"), 0u);
    EXPECT_EQ(ws.counter("store.miss"), 0u);

    // Through evaluateBatch(): the planner serves all eight.
    SuiteEvaluator warmBatch(2);
    warmBatch.setPolicy(storePolicy(dir));
    const std::vector<EvalResponse> served =
        warmBatch.evaluateBatch(batch);
    ASSERT_EQ(served.size(), coldBatch.size());
    for (std::size_t i = 0; i < served.size(); ++i)
        expectSameResponse(served[i], coldBatch[i]);
    w = tierCounts(warmBatch);
    EXPECT_EQ(w.hit, 8u);
    EXPECT_EQ(w.miss, 0u);
    EXPECT_EQ(w.write, 0u);
    EXPECT_EQ(w.replays, 0u);
    EXPECT_EQ(w.traceHits, 0u);
}

/** Rewrite the sealed record at @p path with @p edit applied, then
 * reseal it: a well-formed record whose contents are wrong. */
template <typename Edit>
void
resealRecord(const std::string &path, Edit edit)
{
    std::optional<JsonValue> record = readSealedJson(path);
    ASSERT_TRUE(record.has_value()) << path;
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << sealRecord(edit(*record)).dump() << "\n";
    ASSERT_TRUE(out.good());
}

TEST(ResultTier, RefusedRecordsAreReplayedAndRepublished)
{
    const std::string dir = freshDir("result-tier-refused");
    const EvalRequest request = cmpRequest();
    SuiteEvaluator cold(1);
    cold.setPolicy(storePolicy(dir));
    const EvalResponse expected = cold.evaluate(request);
    const auto &provs = expected.results.at(0).provenance;
    ArtifactStore store(dir, StoreMode::ReadWrite);
    const std::string target =
        store.resultPath(certifiedResultKey(provs.at(Model::FullPred)));
    const std::string other =
        store.resultPath(certifiedResultKey(provs.at(Model::CondMove)));

    const std::vector<std::pair<const char *, std::function<void()>>>
        damages = {
            {"torn",
             [&] { fs::resize_file(target, fs::file_size(target) / 2); }},
            {"copied from another cell",
             [&] {
                 fs::copy_file(other, target,
                               fs::copy_options::overwrite_existing);
             }},
            {"stale schema",
             [&] {
                 resealRecord(target, [](const JsonValue &r) {
                     return withMember(
                         r, "schema",
                         JsonValue::makeString("predilp-cert-v1"));
                 });
             }},
            {"missing headline figure",
             [&] {
                 resealRecord(target, [](const JsonValue &r) {
                     return withMember(
                         r, "figures",
                         withMember(r.at("figures"), "cycles",
                                    std::nullopt));
                 });
             }},
            {"negative count",
             [&] {
                 resealRecord(target, [](const JsonValue &r) {
                     return withMember(
                         r, "figures",
                         withMember(r.at("figures"), "loads",
                                    JsonValue::makeInt(-1)));
                 });
             }},
        };
    for (const auto &[name, damage] : damages) {
        SCOPED_TRACE(name);
        damage();
        SuiteEvaluator warm(1);
        warm.setPolicy(storePolicy(dir));
        expectSameResponse(warm.evaluate(request), expected);
        const TierCounts w = tierCounts(warm);
        EXPECT_EQ(w.hit, 3u);
        EXPECT_EQ(w.miss, 1u);
        EXPECT_EQ(w.repair, 1u);
        EXPECT_EQ(w.replays, 1u);
        EXPECT_EQ(w.write, 1u);

        // Republished: the record decodes to the cell it names again.
        std::optional<JsonValue> healed = readSealedJson(target);
        ASSERT_TRUE(healed.has_value());
        std::optional<CertifiedCell> cell =
            decodeCertifiedRecord(*healed);
        ASSERT_TRUE(cell.has_value());
        EXPECT_TRUE(cell->provenance == provs.at(Model::FullPred));
    }
}

} // namespace
} // namespace predilp
