/**
 * @file
 * Artifact-store tests: SHA-256 key derivation, save/load round
 * trips that replay bit-identically out of the mmap'd file,
 * byte-level corruption injection in every file region (magic,
 * header, provenance, entry stream, varint stream, checksum) with
 * quarantine + recompute repair, registers and opcodes replay cannot
 * index, the embedded provenance section, format-version rejection,
 * read-only mode, and the SuiteEvaluator's cold/warm trace tier:
 * with the certified records removed, a warm evaluator performs zero
 * compiles and zero emulations yet reproduces the cold results
 * exactly. The result tier is tested in
 * tests/driver/certified_test.cc.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "driver/certified.hh"
#include "driver/evaluator.hh"
#include "driver/pipeline.hh"
#include "store/sha256.hh"
#include "store/store.hh"
#include "store/xxh64.hh"
#include "support/faultpoint.hh"
#include "support/json.hh"
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

/** XOR one byte of @p path at @p offset. */
void
flipByte(const std::string &path, std::size_t offset)
{
    std::fstream f(path, std::ios::in | std::ios::out |
                             std::ios::binary);
    ASSERT_TRUE(f.good()) << path;
    f.seekg(static_cast<std::streamoff>(offset));
    char byte = 0;
    f.read(&byte, 1);
    ASSERT_TRUE(f.good());
    byte = static_cast<char>(byte ^ 0x5A);
    f.seekp(static_cast<std::streamoff>(offset));
    f.write(&byte, 1);
    ASSERT_TRUE(f.good());
}

std::size_t
fileCount(const fs::path &dir)
{
    if (!fs::exists(dir))
        return 0;
    std::size_t n = 0;
    for (const auto &entry : fs::recursive_directory_iterator(dir)) {
        if (entry.is_regular_file())
            n += 1;
    }
    return n;
}

void
expectSimEq(const SimResult &a, const SimResult &b)
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
    EXPECT_EQ(a.stats.counters(), b.stats.counters());
}

/** One captured workload trace for the round-trip tests. */
std::unique_ptr<TraceBuffer>
captureWorkload(const char *name)
{
    const Workload *workload = findWorkload(name);
    EXPECT_NE(workload, nullptr);
    std::string input = workload->makeInput(1);
    CompileOptions opts;
    opts.model = Model::FullPred;
    opts.machine = issue8Branch1();
    opts.profileInput = input;
    auto prog = compileForModel(workload->source, opts);
    return capture(*prog, input);
}

TEST(Sha256, MatchesKnownVectors)
{
    // FIPS 180-4 test vectors.
    EXPECT_EQ(sha256Hex(""),
              "e3b0c44298fc1c149afbf4c8996fb924"
              "27ae41e4649b934ca495991b7852b855");
    EXPECT_EQ(sha256Hex("abc"),
              "ba7816bf8f01cfea414140de5dae2223"
              "b00361a396177a9cb410ff61f20015ad");
    // Multi-block message (>64 bytes) exercises buffering.
    std::string longMsg(1000, 'a');
    Sha256 pieces;
    pieces.update(longMsg.substr(0, 7));
    pieces.update(longMsg.substr(7));
    EXPECT_EQ(pieces.hex(), sha256Hex(longMsg));
}

TEST(Xxh64, MatchesKnownVectors)
{
    // The XXH64 specification's seed-0 answers.
    EXPECT_EQ(xxh64("", 0), 0xef46db3751d8e999ull);
    EXPECT_EQ(xxh64("a", 1), 0xd24ec4f1a98c6e5bull);
    EXPECT_EQ(xxh64("abc", 3), 0x44bc2cf5ad770999ull);
    // A zero-length update may carry a null pointer (an empty
    // vector's data()); it changes nothing.
    Xxh64 empty;
    empty.update(nullptr, 0);
    EXPECT_EQ(empty.digest(), xxh64("", 0));
}

TEST(Xxh64, StreamedEqualsOneShotAtEverySplit)
{
    // 1 KiB of varied bytes: every split point crosses the 32-byte
    // stripe buffer at a different offset.
    std::vector<std::uint8_t> bytes(1024);
    for (std::size_t i = 0; i < bytes.size(); ++i)
        bytes[i] = static_cast<std::uint8_t>(i * 131 + (i >> 3));
    const std::uint64_t whole = xxh64(bytes.data(), bytes.size());
    for (std::size_t split = 0; split <= bytes.size(); ++split) {
        Xxh64 streamed;
        streamed.update(bytes.data(), split);
        streamed.update(bytes.data() + split, bytes.size() - split);
        ASSERT_EQ(streamed.digest(), whole) << "split at " << split;
    }
}

TEST(ArtifactStore, KeysSeparateEveryField)
{
    std::string base = ArtifactStore::keyFor("src", "cell");
    EXPECT_EQ(base.size(), 64u);
    EXPECT_NE(base, ArtifactStore::keyFor("src2", "cell"));
    EXPECT_NE(base, ArtifactStore::keyFor("src", "cell2"));
    // Length prefixes keep the field boundary unambiguous.
    EXPECT_NE(ArtifactStore::keyFor("ab", "c"),
              ArtifactStore::keyFor("a", "bc"));
    EXPECT_EQ(base, ArtifactStore::keyFor("src", "cell"));
}

TEST(ArtifactStore, RoundTripReplaysBitIdentical)
{
    auto buffer = captureWorkload("cmp");
    ASSERT_GT(buffer->size(), 0u);

    ArtifactStore store(freshDir("store-roundtrip"),
                        StoreMode::ReadWrite);
    const std::string key = ArtifactStore::keyFor("cmp-src", "cell");
    EXPECT_EQ(store.load(key), nullptr);
    EXPECT_EQ(store.misses(), 1u);
    ASSERT_TRUE(store.save(key, *buffer));
    EXPECT_EQ(store.writes(), 1u);

    std::shared_ptr<const TraceBuffer> loaded = store.load(key);
    ASSERT_NE(loaded, nullptr);
    EXPECT_EQ(store.hits(), 1u);
    EXPECT_GT(store.bytesMapped(), 0u);
    EXPECT_TRUE(loaded->mapped());
    EXPECT_EQ(loaded->size(), buffer->size());
    EXPECT_EQ(loaded->run().exitValue, buffer->run().exitValue);
    EXPECT_EQ(loaded->run().output, buffer->run().output);
    EXPECT_EQ(loaded->run().memHash, buffer->run().memHash);
    EXPECT_EQ(loaded->index().size(), buffer->index().size());

    // Replay straight out of the mapping, perfect and real caches
    // (the latter decodes the whole varint address stream).
    for (bool perfect : {true, false}) {
        SimConfig sim;
        sim.machine = issue8Branch1();
        sim.perfectCaches = perfect;
        SCOPED_TRACE(perfect ? "perfect" : "real");
        expectSimEq(replay(*buffer, sim), replay(*loaded, sim));
    }

    // The section map agrees with the buffer's own accounting.
    auto info = inspectArtifact(store.objectPath(key));
    ASSERT_TRUE(info.has_value());
    EXPECT_EQ(info->version, ArtifactStore::formatVersion);
    EXPECT_EQ(info->records, buffer->size());
    EXPECT_EQ(info->entriesBytes, buffer->size() * 4);
    EXPECT_GT(info->memBytes, 0u);
}

TEST(ArtifactStore, MappedBufferRefusesAppend)
{
    auto buffer = captureWorkload("cmp");
    ArtifactStore store(freshDir("store-appendguard"),
                        StoreMode::ReadWrite);
    const std::string key = ArtifactStore::keyFor("s", "c");
    ASSERT_TRUE(store.save(key, *buffer));
    std::shared_ptr<const TraceBuffer> loaded = store.load(key);
    ASSERT_NE(loaded, nullptr);
    auto &mutableBuffer = const_cast<TraceBuffer &>(*loaded);
    EXPECT_THROW(mutableBuffer.append(0, 0, 0), PanicError);
}

TEST(ArtifactStore, CorruptionInEveryRegionIsDetectedAndRepaired)
{
    auto buffer = captureWorkload("cmp");
    const std::string dir = freshDir("store-corruption");
    const std::string key =
        ArtifactStore::keyFor("cmp-src", "cell");

    ArtifactStore probe(dir, StoreMode::ReadWrite);
    ASSERT_TRUE(probe.save(key, *buffer));
    auto info = inspectArtifact(probe.objectPath(key));
    ASSERT_TRUE(info.has_value());
    ASSERT_GT(info->entriesBytes, 0u);
    ASSERT_GT(info->memBytes, 0u);

    struct Region
    {
        const char *name;
        std::size_t offset;
    };
    const Region regions[] = {
        {"magic", 0},
        {"header-version", 8},
        {"entry-stream",
         info->entriesOffset + info->entriesBytes / 2},
        {"varint-stream", info->memOffset + info->memBytes / 2},
        {"checksum", info->checksumOffset},
    };
    for (const Region &region : regions) {
        SCOPED_TRACE(region.name);
        ArtifactStore store(dir, StoreMode::ReadWrite);
        ASSERT_TRUE(store.save(key, *buffer));
        const std::string path = store.objectPath(key);
        flipByte(path, region.offset);

        // The flipped artifact must be rejected, counted as a
        // repair, and moved to quarantine...
        EXPECT_EQ(store.load(key), nullptr);
        EXPECT_EQ(store.repairs(), 1u);
        EXPECT_EQ(store.hits(), 0u);
        EXPECT_FALSE(fs::exists(path));
        EXPECT_GT(fileCount(fs::path(dir) / "quarantine"), 0u);
        EXPECT_FALSE(inspectArtifact(path).has_value());

        // ...and the recompute-and-save repair path must restore a
        // loadable artifact under the same key.
        ASSERT_TRUE(store.save(key, *buffer));
        std::shared_ptr<const TraceBuffer> repaired =
            store.load(key);
        ASSERT_NE(repaired, nullptr);
        EXPECT_EQ(repaired->size(), buffer->size());
        StatsSnapshot stats = store.stats();
        EXPECT_EQ(stats.counters().at("store.repair"), 1u);
        EXPECT_EQ(stats.counters().at("store.hit"), 1u);
    }

    // Truncation (a torn write) is detected by the length check.
    ArtifactStore store(dir, StoreMode::ReadWrite);
    ASSERT_TRUE(store.save(key, *buffer));
    const std::string path = store.objectPath(key);
    fs::resize_file(path, info->fileBytes / 2);
    EXPECT_EQ(store.load(key), nullptr);
    EXPECT_EQ(store.repairs(), 1u);
}

TEST(ArtifactStore, WarmEvaluatorSkipsAllCompileAndEmulation)
{
    const std::string dir = freshDir("store-evaluator");
    const Workload *workload = findWorkload("cmp");
    ASSERT_NE(workload, nullptr);

    EvalPolicy policy;
    policy.storeMode = StoreMode::ReadWrite;
    policy.storeDir = dir;

    // Cold process: everything misses, every trace is published.
    SuiteEvaluator cold(1);
    cold.setPolicy(policy);
    EvalRequest request;
    request.sim.machine = issue8Branch1();
    request.workloads = {workload->name};
    BenchmarkResult first = cold.evaluate(request).results.at(0);
    const StatsSnapshot coldStats = cold.stats();
    EXPECT_GT(coldStats.counter("counters.compiles"), 0u);
    EXPECT_GT(coldStats.counter("counters.captures"), 0u);
    EXPECT_EQ(coldStats.counter("store.hit"), 0u);
    EXPECT_EQ(coldStats.counter("store.miss"),
              coldStats.counter("store.write"));
    EXPECT_GT(coldStats.counter("store.write"), 0u);

    // Warm process (a fresh evaluator on the same store): every
    // cell loads from disk — no compiles, no emulation at all (the
    // divergence check was already paid at publish time) — and the
    // results are bit-identical. Without the certified records every
    // trace is mapped, so this exercises the trace tier.
    fs::remove_all(fs::path(dir) / "results");
    SuiteEvaluator warm(1);
    warm.setPolicy(policy);
    BenchmarkResult second =
        warm.evaluate(request).results.at(0);
    const StatsSnapshot warmStats = warm.stats();
    EXPECT_EQ(warmStats.counter("counters.compiles"), 0u);
    EXPECT_EQ(warmStats.counter("counters.prefix_compiles"), 0u);
    EXPECT_EQ(warmStats.counter("counters.captures"), 0u);
    EXPECT_EQ(warmStats.counter("store.miss"), 0u);
    EXPECT_EQ(warmStats.counter("store.hit"),
              coldStats.counter("store.write"));
    EXPECT_GT(warmStats.counter("store.bytes_mapped"), 0u);

    EXPECT_EQ(first.baseCycles, second.baseCycles);
    ASSERT_EQ(first.models.size(), second.models.size());
    for (const auto &[model, sim] : first.models) {
        SCOPED_TRACE(modelName(model));
        expectSimEq(sim, second.models.at(model));
    }
}

TEST(ArtifactStore, DistinctCellKeysDoNotCollide)
{
    auto buffer = captureWorkload("cmp");
    ArtifactStore store(freshDir("store-distinct"),
                        StoreMode::ReadWrite);
    const std::string a = ArtifactStore::keyFor("src", "cell-a");
    const std::string b = ArtifactStore::keyFor("src", "cell-b");
    ASSERT_TRUE(store.save(a, *buffer));
    EXPECT_EQ(store.load(b), nullptr);
    EXPECT_NE(store.load(a), nullptr);
}

/** Minimal provenance payload for the tests below. */
const char *const kProvJson =
    "{\"workload\": \"cmp\", \"config_digest\": \"v1:test\"}";

TEST(SealedRecord, SealRoundTripAndTamperDetection)
{
    JsonValue record = JsonValue::parse(kProvJson);
    JsonValue sealed = sealRecord(record);
    EXPECT_TRUE(sealedRecordValid(sealed));
    // Every member except the seal survives, in order.
    const auto &members = sealed.members();
    ASSERT_EQ(members.size(), 3u);
    EXPECT_EQ(members.back().first, "checksum");

    // Any payload change invalidates the seal...
    std::vector<std::pair<std::string, JsonValue>> tampered;
    for (const auto &[name, value] : members) {
        tampered.emplace_back(
            name, name == "workload" ? JsonValue::makeString("abs")
                                     : value);
    }
    EXPECT_FALSE(sealedRecordValid(
        JsonValue::makeObject(std::move(tampered))));
    // ...and an unsealed record never validates.
    EXPECT_FALSE(sealedRecordValid(record));
}

TEST(ArtifactStore, ProvenanceRoundTripsInsideTheArtifact)
{
    auto buffer = captureWorkload("cmp");
    const std::string dir = freshDir("store-provenance");
    ArtifactStore store(dir, StoreMode::ReadWrite);
    const std::string key = ArtifactStore::keyFor("src", "cell");
    ASSERT_TRUE(store.save(key, *buffer, kProvJson));

    // One file per trace: the provenance lives in the artifact.
    EXPECT_EQ(fileCount(fs::path(dir) / "objects"), 1u);
    EXPECT_EQ(store.loadProvenance(key), kProvJson);
    auto info = inspectArtifact(store.objectPath(key));
    ASSERT_TRUE(info.has_value());
    EXPECT_EQ(info->provenanceBytes, std::string(kProvJson).size());
    EXPECT_LT(info->provenanceOffset, info->entriesOffset);
    EXPECT_NE(store.load(key), nullptr);
}

TEST(ArtifactStore, FlippedProvenanceByteFailsTheChecksum)
{
    auto buffer = captureWorkload("cmp");
    const std::string dir = freshDir("store-provenance-flip");
    ArtifactStore store(dir, StoreMode::ReadWrite);
    const std::string key = ArtifactStore::keyFor("src", "cell");
    ASSERT_TRUE(store.save(key, *buffer, kProvJson));
    auto info = inspectArtifact(store.objectPath(key));
    ASSERT_TRUE(info.has_value());
    flipByte(store.objectPath(key),
             info->provenanceOffset + info->provenanceBytes / 2);

    // Torn provenance is a corrupt artifact: never served, exactly
    // one file quarantined, the lookup reported as a miss.
    EXPECT_EQ(store.loadProvenance(key), "");
    EXPECT_EQ(store.load(key), nullptr);
    EXPECT_EQ(store.misses(), 1u);
    EXPECT_EQ(store.repairs(), 1u);
    EXPECT_FALSE(fs::exists(store.objectPath(key)));
    EXPECT_EQ(fileCount(fs::path(dir) / "quarantine"), 1u);

    // Recompute-and-save restores trace and provenance together.
    ASSERT_TRUE(store.save(key, *buffer, kProvJson));
    EXPECT_NE(store.load(key), nullptr);
    EXPECT_EQ(store.loadProvenance(key), kProvJson);
}

TEST(ArtifactStore, EmptyProvenanceStillLoads)
{
    auto buffer = captureWorkload("cmp");
    ArtifactStore store(freshDir("store-provenance-empty"),
                        StoreMode::ReadWrite);
    const std::string key = ArtifactStore::keyFor("src", "cell");
    ASSERT_TRUE(store.save(key, *buffer));
    EXPECT_NE(store.load(key), nullptr);
    EXPECT_EQ(store.loadProvenance(key), "");
    auto info = inspectArtifact(store.objectPath(key));
    ASSERT_TRUE(info.has_value());
    EXPECT_EQ(info->provenanceBytes, 0u);
}

TEST(ArtifactStore, OpsReplayCannotIndexAreRejected)
{
    // Well-formed, correctly checksummed artifacts whose registers
    // fall outside what replay's scoreboard indexes, or whose opcode
    // lies past the opcode table replay reads latencies from: each
    // load must be a miss that counts one repair, never a trace that
    // replay then indexes out of bounds with.
    StaticOp predDefine;
    predDefine.predDestCount = 1;
    StaticOp readsR5;
    readsR5.srcRegCount = 1;
    StaticOp guarded;
    guarded.guard = predReg(2);
    StaticOp badOpcode;
    badOpcode.op = static_cast<Opcode>(0xFF);
    struct Shape
    {
        const char *name;
        StaticOp op;
        std::vector<Reg> pool;
        std::array<int, 3> bounds;
    };
    const Shape shapes[] = {
        {"pool holds no register", predDefine, {Reg()}, {0, 0, 1}},
        {"negative bound", StaticOp{}, {}, {0, -1, 0}},
        {"guard at its class bound", guarded, {}, {0, 0, 2}},
        {"pool register past its bound", readsR5, {intReg(5)},
         {5, 0, 0}},
        {"opcode past the opcode table", badOpcode, {}, {0, 0, 0}},
    };
    const std::string dir = freshDir("store-register-bounds");
    for (const Shape &shape : shapes) {
        SCOPED_TRACE(shape.name);
        TraceBuffer buffer(
            StaticIndex({shape.op}, shape.pool, shape.bounds));
        buffer.append(0, 0, 0);
        ArtifactStore store(dir, StoreMode::ReadWrite);
        const std::string key =
            ArtifactStore::keyFor("src", shape.name);
        ASSERT_TRUE(store.save(key, buffer));
        EXPECT_EQ(store.load(key), nullptr);
        EXPECT_EQ(store.repairs(), 1u);
        EXPECT_FALSE(fs::exists(store.objectPath(key)));
    }
}

TEST(ArtifactStore, TableCountPastTheFileIsRejectedBeforeAllocating)
{
    // A correctly checksummed header whose register-pool count
    // (payload u64 at file offset 80) claims far more entries than
    // the file holds must be refused as corrupt and quarantined, not
    // sized into a vector: a throw from the allocation would escape
    // load() and fail every later load of the key the same way.
    // 2^62 is past max_size(), so even a loader without the check
    // throws before allocating.
    constexpr std::uint64_t claimed = std::uint64_t{1} << 62;
    ASSERT_GT(claimed, std::vector<Reg>().max_size());
    TraceBuffer buffer(StaticIndex({StaticOp{}}, {}, {0, 0, 0}));
    buffer.append(0, 0, 0);
    const std::string dir = freshDir("store-table-count");
    ArtifactStore store(dir, StoreMode::ReadWrite);
    const std::string key = ArtifactStore::keyFor("src", "cell");
    ASSERT_TRUE(store.save(key, buffer));
    const std::string path = store.objectPath(key);
    auto info = inspectArtifact(path);
    ASSERT_TRUE(info.has_value());

    std::string bytes;
    {
        std::ifstream in(path, std::ios::binary);
        bytes.assign(std::istreambuf_iterator<char>(in), {});
    }
    ASSERT_EQ(bytes.size(), info->fileBytes);
    auto putU64 = [&](std::size_t offset, std::uint64_t value) {
        for (int i = 0; i < 8; ++i)
            bytes[offset + i] = static_cast<char>(value >> (8 * i));
    };
    constexpr std::size_t headerBytes = 32;
    putU64(80, claimed);
    putU64(info->checksumOffset,
           xxh64(bytes.data() + headerBytes, bytes.size() - headerBytes));
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << bytes;
        ASSERT_TRUE(out.good());
    }

    EXPECT_EQ(store.load(key), nullptr);
    EXPECT_EQ(store.repairs(), 1u);
    EXPECT_FALSE(fs::exists(path));
    EXPECT_EQ(fileCount(fs::path(dir) / "quarantine"), 1u);
}

TEST(ArtifactStore, FormatVersionOneHeaderIsRejected)
{
    auto buffer = captureWorkload("cmp");
    const std::string dir = freshDir("store-version-one");
    ArtifactStore store(dir, StoreMode::ReadWrite);
    const std::string key = ArtifactStore::keyFor("src", "cell");
    ASSERT_TRUE(store.save(key, *buffer, kProvJson));

    // Rewrite the header's u32 version (offset 8, little-endian) to
    // 1. The checksum covers only the payload, so the version check
    // alone must refuse the pre-provenance layout.
    {
        std::fstream f(store.objectPath(key), std::ios::in |
                                                  std::ios::out |
                                                  std::ios::binary);
        ASSERT_TRUE(f.good());
        f.seekp(8);
        const char versionOne[4] = {1, 0, 0, 0};
        f.write(versionOne, 4);
        ASSERT_TRUE(f.good());
    }
    EXPECT_FALSE(inspectArtifact(store.objectPath(key)).has_value());
    EXPECT_EQ(store.loadProvenance(key), "");
    EXPECT_EQ(store.load(key), nullptr);
    EXPECT_EQ(store.repairs(), 1u);
}

TEST(ArtifactStore, CertifiedResultRecordsRoundTripSealed)
{
    faultpoints::resetForTest();
    ArtifactStore store(freshDir("store-results"),
                        StoreMode::ReadWrite);
    const std::string key = ArtifactStore::keyFor("src", "cell");
    JsonValue record = JsonValue::parse(
        "{\"schema\": \"predilp-cert-v1\", \"figures\":"
        " {\"cycles\": 42}}");

    bool present = true;
    EXPECT_FALSE(store.loadResult(key, &present).has_value());
    EXPECT_FALSE(present);
    ASSERT_TRUE(store.saveResult(key, record));
    std::optional<JsonValue> loaded = store.loadResult(key, &present);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_TRUE(present);
    auto sealed = readSealedJson(store.resultPath(key));
    ASSERT_TRUE(sealed.has_value());
    EXPECT_EQ(loaded->dump(), sealed->dump());
    EXPECT_TRUE(sealedRecordValid(*loaded));

    // A flipped byte breaks the seal; the record is not served. A
    // republish (idempotent by design) heals it.
    flipByte(store.resultPath(key), 10);
    EXPECT_FALSE(store.loadResult(key, &present).has_value());
    EXPECT_TRUE(present);
    ASSERT_TRUE(store.saveResult(key, record));
    EXPECT_TRUE(store.loadResult(key).has_value());

    // A torn publish (short write at the fault point) is likewise
    // rejected on read and healed by republish.
    faultpoints::armFromSpec(
        "store.publish.result=once:short-write");
    ASSERT_TRUE(store.saveResult(key, record));
    faultpoints::resetForTest();
    EXPECT_FALSE(store.loadResult(key).has_value());
    ASSERT_TRUE(store.saveResult(key, record));
    EXPECT_TRUE(store.loadResult(key).has_value());

    // An injected read fault refuses a perfectly good record once.
    faultpoints::armFromSpec("store.load.result=once");
    EXPECT_FALSE(store.loadResult(key, &present).has_value());
    EXPECT_TRUE(present);
    EXPECT_TRUE(store.loadResult(key).has_value());
    faultpoints::resetForTest();
}

TEST(ArtifactStore, EvaluatorPublishesCertifiedRecords)
{
    const std::string dir = freshDir("store-certified");
    EvalPolicy policy;
    policy.storeMode = StoreMode::ReadWrite;
    policy.storeDir = dir;
    SuiteEvaluator evaluator(1);
    evaluator.setPolicy(policy);
    EvalRequest request;
    request.sim.machine = issue8Branch1();
    request.workloads = {"cmp"};
    BenchmarkResult result =
        evaluator.evaluate(request).results.at(0);

    // One certified record per priced cell — every model plus the
    // shared 1-issue baseline — all sealed, all carrying the schema
    // tag and matching the in-memory provenance.
    ASSERT_FALSE(result.models.empty());
    EXPECT_EQ(result.provenance.size(), result.models.size());
    std::size_t records = 0;
    for (const auto &entry : fs::recursive_directory_iterator(
             fs::path(dir) / "results")) {
        if (!entry.is_regular_file())
            continue;
        records += 1;
        auto sealed = readSealedJson(entry.path().string());
        ASSERT_TRUE(sealed.has_value()) << entry.path();
        const JsonValue *schema = sealed->find("schema");
        ASSERT_NE(schema, nullptr);
        EXPECT_EQ(schema->asString(), certSchemaTag);
        const JsonValue *prov = sealed->find("provenance");
        ASSERT_NE(prov, nullptr);
        EXPECT_TRUE(prov->isObject());
        const JsonValue *figures = sealed->find("figures");
        ASSERT_NE(figures, nullptr);
        EXPECT_TRUE(figures->isObject());
    }
    EXPECT_EQ(records, result.models.size() + 1);

    // The records live where the in-memory provenance says.
    ArtifactStore store(dir, StoreMode::ReadWrite);
    for (const auto &[model, prov] : result.provenance) {
        SCOPED_TRACE(modelName(model));
        std::optional<JsonValue> record =
            store.loadResult(certifiedResultKey(prov));
        ASSERT_TRUE(record.has_value());
        std::optional<CertifiedCell> cell =
            decodeCertifiedRecord(*record);
        ASSERT_TRUE(cell.has_value());
        EXPECT_TRUE(cell->provenance == prov);
        expectSimEq(cell->result, result.models.at(model));
    }
}

} // namespace
} // namespace predilp
