/**
 * @file
 * predilp_diff engine tests: result-set loading from BENCH JSON and
 * certified-record stores, the three-way classification on crafted
 * pairs (identical, explained-by-digest, unexplained drift),
 * added/removed cells, the multi-config sub-match, the JSON report
 * shape, and the store provenance verifier.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "driver/certified.hh"
#include "driver/diff.hh"
#include "driver/evaluator.hh"
#include "driver/pipeline.hh"
#include "store/store.hh"
#include "support/diag.hh"

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

void
writeFile(const std::string &path, const std::string &text)
{
    std::ofstream out(path, std::ios::trunc | std::ios::binary);
    ASSERT_TRUE(out.good()) << path;
    out << text;
}

/** One-cell BENCH document with parameterizable figure and
 * config digest. */
std::string
benchDoc(long cycles, const std::string &configDigest)
{
    std::ostringstream os;
    os << "{\n  \"bench\": \"unit\",\n  \"benchmarks\": [\n"
          "    {\n      \"name\": \"cmp\",\n"
          "      \"base_cycles\": 100,\n"
          "      \"models\": {\n        \"superblock\": "
          "{\"cycles\": "
       << cycles
       << ", \"speedup\": 1.25}\n      },\n"
          "      \"provenance\": {\n        \"superblock\": {\n"
          "          \"workload\": \"cmp\",\n"
          "          \"model\": \"superblock\",\n"
          "          \"source_sha256\": \"s0\",\n"
          "          \"pipeline_digest\": \"p0\",\n"
          "          \"config_digest\": \""
       << configDigest
       << "\",\n          \"trace_digest\": \"t0\"\n"
          "        }\n      }\n    }\n  ]\n}\n";
    return os.str();
}

std::string
benchFile(const std::string &dir, long cycles,
          const std::string &configDigest)
{
    const std::string path = dir + "/BENCH_unit.json";
    writeFile(path, benchDoc(cycles, configDigest));
    return path;
}

TEST(Diff, IdenticalSetsReportZeroDrift)
{
    const std::string dir = freshDir("diff-identical");
    const std::string a = benchFile(dir, 90, "c0");
    ResultSet before = loadResultSet(a);
    ResultSet after = loadResultSet(a);
    ASSERT_EQ(before.cells.size(), 1u);
    EXPECT_EQ(before.cells[0].identity, "unit/cmp/superblock");
    EXPECT_EQ(before.cells[0].figures.at("cycles"), "90");
    EXPECT_EQ(before.cells[0].figures.at("base_cycles"), "100");
    EXPECT_EQ(before.cells[0].evidence.at("config_digest"), "c0");

    DiffReport report = diffResultSets(before, after);
    EXPECT_EQ(report.identical, 1u);
    EXPECT_TRUE(report.entries.empty());
    EXPECT_FALSE(report.hasUnexplainedDrift());
}

TEST(Diff, DigestChangeExplainsAFigureDelta)
{
    const std::string beforeDir = freshDir("diff-explained-b");
    const std::string afterDir = freshDir("diff-explained-a");
    ResultSet before =
        loadResultSet(benchFile(beforeDir, 90, "c0"));
    ResultSet after = loadResultSet(benchFile(afterDir, 95, "c1"));

    DiffReport report = diffResultSets(before, after);
    EXPECT_EQ(report.explained, 1u);
    EXPECT_EQ(report.unexplained, 0u);
    EXPECT_FALSE(report.hasUnexplainedDrift());
    ASSERT_EQ(report.entries.size(), 1u);
    const DiffEntry &entry = report.entries[0];
    EXPECT_EQ(entry.kind, DiffKind::Explained);
    // The changed digest is named as the evidence...
    ASSERT_EQ(entry.digests.size(), 1u);
    EXPECT_EQ(entry.digests[0].name, "config_digest");
    EXPECT_EQ(entry.digests[0].before, "c0");
    EXPECT_EQ(entry.digests[0].after, "c1");
    // ...alongside the figure it explains.
    ASSERT_EQ(entry.figures.size(), 1u);
    EXPECT_EQ(entry.figures[0].name, "cycles");
    EXPECT_EQ(entry.figures[0].before, "90");
    EXPECT_EQ(entry.figures[0].after, "95");
}

TEST(Diff, SameProvenanceDifferentFigureIsUnexplainedDrift)
{
    const std::string beforeDir = freshDir("diff-drift-b");
    const std::string afterDir = freshDir("diff-drift-a");
    ResultSet before =
        loadResultSet(benchFile(beforeDir, 90, "c0"));
    ResultSet after = loadResultSet(benchFile(afterDir, 91, "c0"));

    DiffReport report = diffResultSets(before, after);
    EXPECT_EQ(report.unexplained, 1u);
    EXPECT_TRUE(report.hasUnexplainedDrift());
    ASSERT_EQ(report.entries.size(), 1u);
    EXPECT_EQ(report.entries[0].kind, DiffKind::Unexplained);
    EXPECT_TRUE(report.entries[0].digests.empty());
    ASSERT_EQ(report.entries[0].figures.size(), 1u);
    EXPECT_EQ(report.entries[0].figures[0].name, "cycles");

    // Both renderings carry the full story.
    std::ostringstream text;
    printDiffReport(text, report);
    EXPECT_NE(text.str().find("unexplained drift"),
              std::string::npos);
    EXPECT_NE(text.str().find("cycles: 90 -> 91"),
              std::string::npos);
    JsonValue json = diffReportToJson(report);
    const JsonValue *unexplained = json.find("unexplained");
    ASSERT_NE(unexplained, nullptr);
    EXPECT_EQ(unexplained->asInt(), 1);
    const JsonValue *entries = json.find("entries");
    ASSERT_NE(entries, nullptr);
    ASSERT_EQ(entries->items().size(), 1u);
    const JsonValue *kind = entries->items().at(0).find("kind");
    ASSERT_NE(kind, nullptr);
    EXPECT_EQ(kind->asString(), "unexplained drift");
}

TEST(Diff, UnmatchedCellsAreAddedAndRemoved)
{
    const std::string beforeDir = freshDir("diff-unmatched-b");
    const std::string afterDir = freshDir("diff-unmatched-a");
    writeFile(beforeDir + "/BENCH_a.json",
              "{\"bench\": \"a\", \"benchmarks\": [{\"name\":"
              " \"cmp\", \"models\": {\"superblock\":"
              " {\"cycles\": 1}}}]}");
    writeFile(afterDir + "/BENCH_b.json",
              "{\"bench\": \"b\", \"benchmarks\": [{\"name\":"
              " \"cmp\", \"models\": {\"superblock\":"
              " {\"cycles\": 1}}}]}");

    DiffReport report = diffResultSets(loadResultSet(beforeDir),
                                       loadResultSet(afterDir));
    EXPECT_EQ(report.added, 1u);
    EXPECT_EQ(report.removed, 1u);
    EXPECT_EQ(report.identical, 0u);
    EXPECT_FALSE(report.hasUnexplainedDrift());
}

TEST(Diff, LoadRejectsEmptyDirectoryAndMalformedJson)
{
    const std::string dir = freshDir("diff-empty");
    EXPECT_THROW(loadResultSet(dir), FatalError);
    const std::string bad = dir + "/BENCH_bad.json";
    writeFile(bad, "{not json");
    EXPECT_THROW(loadResultSet(bad), FatalError);
}

/** Evaluate cmp into @p dir's store and return the store dir. */
std::string
evaluateInto(const std::string &dir, bool perfectCaches)
{
    EvalPolicy policy;
    policy.storeMode = StoreMode::ReadWrite;
    policy.storeDir = dir;
    SuiteEvaluator evaluator(1);
    evaluator.setPolicy(policy);
    EvalRequest request;
    request.sim.machine = issue8Branch1();
    request.sim.perfectCaches = perfectCaches;
    request.workloads = {"cmp"};
    evaluator.evaluate(request);
    return dir;
}

TEST(Diff, CertifiedStoreRunsCompareCleanAndConfigFlipExplains)
{
    ResultSet run1 = loadResultSet(
        evaluateInto(freshDir("diff-cert-1"), true));
    ResultSet run2 = loadResultSet(
        evaluateInto(freshDir("diff-cert-2"), true));
    ASSERT_FALSE(run1.cells.empty());
    EXPECT_EQ(run1.invalidRecords, 0u);

    // Back-to-back clean runs: everything identical, zero drift.
    DiffReport clean = diffResultSets(run1, run2);
    EXPECT_EQ(clean.identical, run1.cells.size());
    EXPECT_TRUE(clean.entries.empty());

    // Flipping a SimConfig axis that is not part of cell identity
    // changes configDigest() — every cell pairs up and is explained
    // with the digest named, never reported as drift.
    ResultSet flipped = loadResultSet(
        evaluateInto(freshDir("diff-cert-3"), false));
    DiffReport report = diffResultSets(run1, flipped);
    EXPECT_EQ(report.explained, run1.cells.size());
    EXPECT_EQ(report.unexplained, 0u);
    EXPECT_EQ(report.added, 0u);
    EXPECT_EQ(report.removed, 0u);
    for (const DiffEntry &entry : report.entries) {
        SCOPED_TRACE(entry.identity);
        bool namesConfig = false;
        for (const DiffDelta &delta : entry.digests) {
            EXPECT_EQ(delta.name, "config_digest");
            namesConfig = true;
        }
        EXPECT_TRUE(namesConfig);
    }
}

TEST(Diff, VerifyStoreProvenanceFlagsBadArtifacts)
{
    const std::string dir =
        evaluateInto(freshDir("diff-verify"), true);
    std::ostringstream quiet;
    EXPECT_EQ(verifyStoreProvenance(quiet, dir), 0);

    // Every trace is one .trc file carrying its own provenance.
    std::vector<std::string> artifacts;
    for (const auto &entry : fs::recursive_directory_iterator(
             fs::path(dir) / "objects")) {
        if (entry.is_regular_file()) {
            EXPECT_EQ(entry.path().extension(), ".trc");
            artifacts.push_back(entry.path().string());
        }
    }
    ASSERT_FALSE(artifacts.empty());

    // An artifact saved without provenance breaks the contract...
    ArtifactStore store(dir, StoreMode::ReadWrite);
    auto trace = store.load(fs::path(artifacts[0]).stem().string());
    ASSERT_NE(trace, nullptr);
    ASSERT_TRUE(
        store.save(ArtifactStore::keyFor("bare", "cell"), *trace));
    std::ostringstream out;
    EXPECT_EQ(verifyStoreProvenance(out, dir), 1);
    EXPECT_NE(out.str().find("artifact without provenance"),
              std::string::npos);

    // ...and so does one whose payload no longer matches its
    // checksum.
    trace.reset();
    {
        std::fstream f(artifacts[0], std::ios::in | std::ios::out |
                                         std::ios::binary);
        ASSERT_TRUE(f.good());
        const auto middle = static_cast<std::streamoff>(
            fs::file_size(artifacts[0]) / 2);
        f.seekg(middle);
        const char byte = static_cast<char>(f.get() ^ 0x5a);
        f.seekp(middle);
        f.put(byte);
        ASSERT_TRUE(f.good());
    }
    EXPECT_EQ(verifyStoreProvenance(out, dir), 2);
    EXPECT_NE(out.str().find("corrupt artifact"), std::string::npos);

    // A corrupted certified record is a violation too.
    std::string firstRecord;
    for (const auto &entry : fs::recursive_directory_iterator(
             fs::path(dir) / "results")) {
        if (entry.is_regular_file()) {
            firstRecord = entry.path().string();
            break;
        }
    }
    ASSERT_FALSE(firstRecord.empty());
    writeFile(firstRecord, "{\"schema\": \"predilp-cert-v1\"}\n");
    EXPECT_EQ(verifyStoreProvenance(out, dir), 3);
}

TEST(Certified, ProvenanceDigestsSeparateTheirInputs)
{
    // passPipelineDigest moves with model and ablation axes.
    AblationFlags flags;
    const std::string base =
        passPipelineDigest(Model::Superblock, flags);
    EXPECT_EQ(base,
              passPipelineDigest(Model::Superblock, flags));
    EXPECT_NE(base, passPipelineDigest(Model::FullPred, flags));
    AblationFlags noUnroll = flags;
    noUnroll.unrolling = false;
    EXPECT_NE(base,
              passPipelineDigest(Model::Superblock, noUnroll));

    // identityKey/certifiedResultKey separate every field.
    CellProvenance prov;
    prov.workload = "cmp";
    prov.model = "superblock";
    prov.scale = 1;
    prov.machine = machineIdentity(issue8Branch1());
    const std::string key = certifiedResultKey(prov);
    EXPECT_EQ(key, certifiedResultKey(prov));
    CellProvenance other = prov;
    other.scale = 2;
    EXPECT_NE(key, certifiedResultKey(other));
    EXPECT_NE(prov.identityKey(), other.identityKey());
    other = prov;
    other.machine = machineIdentity(issue4Branch1());
    EXPECT_NE(prov.identityKey(), other.identityKey());
}

} // namespace
} // namespace predilp
