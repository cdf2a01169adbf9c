#include "driver/diff.hh"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "driver/certified.hh"
#include "store/store.hh"
#include "support/diag.hh"
#include "support/logging.hh"

namespace predilp
{

namespace
{

namespace fs = std::filesystem;

/** Evidence digests compared across runs, in report order. */
const char *const kEvidenceKeys[] = {
    "source_sha256",
    "pipeline_digest",
    "config_digest",
    "trace_digest",
};

std::map<std::string, std::string>
evidenceFrom(const JsonValue &prov)
{
    std::map<std::string, std::string> evidence;
    if (!prov.isObject())
        return evidence;
    for (const char *key : kEvidenceKeys) {
        const JsonValue *value = prov.find(key);
        if (value != nullptr &&
            value->kind() == JsonValue::Kind::String)
            evidence[key] = value->asString();
    }
    return evidence;
}

/**
 * Collect every numeric/bool leaf of @p value under dotted keys.
 * Values keep their exact lexical rendering: determinism is the
 * repo-wide contract, so lexical equality is figure equality.
 */
void
flattenFigures(const JsonValue &value, const std::string &prefix,
               std::map<std::string, std::string> &out)
{
    if (value.isObject()) {
        for (const auto &[key, member] : value.members())
            flattenFigures(member,
                           prefix.empty() ? key : prefix + "." + key,
                           out);
    } else if (value.isNumber() ||
               value.kind() == JsonValue::Kind::Bool) {
        out[prefix] = value.dump();
    }
    // Strings are identity/metadata, not figures; arrays do not
    // occur in cell snapshots.
}

/** One BENCH "benchmarks" array: a cell per (benchmark, model). */
void
addBenchmarks(const JsonValue &benchmarks,
              const std::string &identityPrefix,
              const std::string &origin, ResultSet &set)
{
    for (const JsonValue &benchmark : benchmarks.items()) {
        if (!benchmark.isObject())
            continue;
        const JsonValue *name = benchmark.find("name");
        const JsonValue *models = benchmark.find("models");
        if (name == nullptr || models == nullptr ||
            !models->isObject())
            continue;
        const JsonValue *provs = benchmark.find("provenance");
        const JsonValue *base = benchmark.find("base_cycles");
        for (const auto &[modelName, snapshot] :
             models->members()) {
            DiffCell cell;
            cell.identity = identityPrefix + "/" +
                            name->asString() + "/" + modelName;
            cell.origin = origin;
            flattenFigures(snapshot, "", cell.figures);
            if (base != nullptr && base->isNumber()) {
                // The baseline denominator feeds every speedup, so
                // it is a figure of every cell that shares it.
                cell.figures["base_cycles"] = base->dump();
            }
            if (provs != nullptr && provs->isObject()) {
                if (const JsonValue *prov = provs->find(modelName))
                    cell.evidence = evidenceFrom(*prov);
            }
            set.cells.push_back(std::move(cell));
        }
    }
}

/** One BENCH_*.json document — flat (bench_io) or sweep-shaped. */
void
addBenchDoc(const JsonValue &doc, const std::string &origin,
            ResultSet &set)
{
    if (!doc.isObject())
        throw FatalError(origin + ": BENCH document is not an object");
    std::string benchName = origin;
    if (const JsonValue *bench = doc.find("bench");
        bench != nullptr && bench->kind() == JsonValue::Kind::String)
        benchName = bench->asString();
    if (const JsonValue *cells = doc.find("cells")) {
        // Sweep document: one entry per grid cell; degraded cells
        // (no "benchmarks") carry no figures to compare.
        for (const JsonValue &cell : cells->items()) {
            if (!cell.isObject())
                continue;
            const JsonValue *benchmarks = cell.find("benchmarks");
            if (benchmarks == nullptr)
                continue;
            std::string cellId = benchName;
            if (const JsonValue *axes = cell.find("axes"))
                cellId += "/" + axes->dump();
            addBenchmarks(*benchmarks, cellId, origin, set);
        }
        return;
    }
    if (const JsonValue *benchmarks = doc.find("benchmarks"))
        addBenchmarks(*benchmarks, benchName, origin, set);
}

/** One certified record: a cell keyed by its provenance identity.
 * Shape is checked by the decoder the evaluator serves through. */
void
addCertRecord(const std::string &path, ResultSet &set)
{
    std::optional<JsonValue> record = readSealedJson(path);
    std::optional<CertifiedCell> decoded;
    if (record)
        decoded = decodeCertifiedRecord(*record);
    if (!decoded) {
        set.invalidRecords++;
        return;
    }
    DiffCell cell;
    cell.identity = decoded->provenance.identityKey();
    cell.evidence = evidenceFrom(decoded->provenance.toJson());
    cell.origin = path;
    flattenFigures(certifiedFigures(decoded->result), "",
                   cell.figures);
    set.cells.push_back(std::move(cell));
}

std::vector<std::string>
sortedFiles(const std::string &dir, bool recursive,
            const std::string &suffix, const std::string &prefix)
{
    std::vector<std::string> paths;
    std::error_code ec;
    auto matches = [&](const fs::path &p) {
        const std::string name = p.filename().string();
        return name.size() >= suffix.size() &&
               name.compare(name.size() - suffix.size(),
                            suffix.size(), suffix) == 0 &&
               name.compare(0, prefix.size(), prefix) == 0;
    };
    if (recursive) {
        for (auto it = fs::recursive_directory_iterator(dir, ec);
             !ec && it != fs::recursive_directory_iterator(); ++it)
            if (it->is_regular_file(ec) && matches(it->path()))
                paths.push_back(it->path().string());
    } else {
        for (auto it = fs::directory_iterator(dir, ec);
             !ec && it != fs::directory_iterator(); ++it)
            if (it->is_regular_file(ec) && matches(it->path()))
                paths.push_back(it->path().string());
    }
    std::sort(paths.begin(), paths.end());
    return paths;
}

JsonValue
parseFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw FatalError("cannot read '" + path + "'");
    std::ostringstream text;
    text << in.rdbuf();
    try {
        return JsonValue::parse(text.str());
    } catch (const std::exception &e) {
        throw FatalError("malformed JSON in '" + path +
                         "': " + e.what());
    }
}

/** Compare two cells and append the classified entry (or count an
 * identical pair). */
void
classifyPair(const DiffCell &before, const DiffCell &after,
             DiffReport &report)
{
    DiffEntry entry;
    entry.identity = after.identity;
    auto collect = [](const std::map<std::string, std::string> &b,
                      const std::map<std::string, std::string> &a,
                      std::vector<DiffDelta> &out) {
        std::map<std::string, std::pair<std::string, std::string>>
            joined;
        for (const auto &[key, value] : b)
            joined[key].first = value;
        for (const auto &[key, value] : a)
            joined[key].second = value;
        for (const auto &[key, values] : joined)
            if (values.first != values.second)
                out.push_back(
                    {key, values.first, values.second});
    };
    collect(before.evidence, after.evidence, entry.digests);
    collect(before.figures, after.figures, entry.figures);
    if (entry.digests.empty() && entry.figures.empty()) {
        report.identical++;
        return;
    }
    if (!entry.digests.empty()) {
        // Provenance moved: whatever the figures did, the change
        // has a named cause.
        entry.kind = DiffKind::Explained;
        report.explained++;
    } else {
        entry.kind = DiffKind::Unexplained;
        report.unexplained++;
    }
    report.entries.push_back(std::move(entry));
}

void
addUnmatched(const DiffCell &cell, DiffKind kind, DiffReport &report)
{
    DiffEntry entry;
    entry.kind = kind;
    entry.identity = cell.identity;
    if (kind == DiffKind::Added)
        report.added++;
    else
        report.removed++;
    report.entries.push_back(std::move(entry));
}

} // namespace

ResultSet
loadResultSet(const std::string &path)
{
    ResultSet set;
    set.label = path;
    std::error_code ec;
    if (!fs::is_directory(path, ec)) {
        addBenchDoc(parseFile(path), path, set);
        return set;
    }
    // A store root keeps certified records under results/; a bare
    // directory of records (e.g. an archived copy of results/) is
    // recognized by its *.cert.json files. Anything else is a
    // directory of BENCH_*.json documents.
    std::string certRoot;
    if (fs::is_directory(fs::path(path) / "results", ec))
        certRoot = (fs::path(path) / "results").string();
    else if (!sortedFiles(path, true, ".cert.json", "").empty())
        certRoot = path;
    if (!certRoot.empty()) {
        for (const std::string &file :
             sortedFiles(certRoot, true, ".cert.json", ""))
            addCertRecord(file, set);
        return set;
    }
    const std::vector<std::string> files =
        sortedFiles(path, false, ".json", "BENCH_");
    if (files.empty())
        throw FatalError("no BENCH_*.json or *.cert.json under '" +
                         path + "'");
    for (const std::string &file : files)
        addBenchDoc(parseFile(file), file, set);
    return set;
}

const char *
diffKindName(DiffKind kind)
{
    switch (kind) {
      case DiffKind::Identical:
        return "identical";
      case DiffKind::Explained:
        return "explained";
      case DiffKind::Unexplained:
        return "unexplained drift";
      case DiffKind::Added:
        return "added";
      case DiffKind::Removed:
        return "removed";
    }
    return "?";
}

DiffReport
diffResultSets(const ResultSet &before, const ResultSet &after)
{
    // std::map keys the join and fixes the report order.
    std::map<std::string, std::vector<const DiffCell *>> beforeBy;
    std::map<std::string, std::vector<const DiffCell *>> afterBy;
    for (const DiffCell &cell : before.cells)
        beforeBy[cell.identity].push_back(&cell);
    for (const DiffCell &cell : after.cells)
        afterBy[cell.identity].push_back(&cell);

    DiffReport report;
    std::map<std::string, std::pair<bool, bool>> identities;
    for (const auto &[identity, cells] : beforeBy)
        identities[identity].first = true;
    for (const auto &[identity, cells] : afterBy)
        identities[identity].second = true;

    for (const auto &[identity, present] : identities) {
        if (!present.first) {
            for (const DiffCell *cell : afterBy[identity])
                addUnmatched(*cell, DiffKind::Added, report);
            continue;
        }
        if (!present.second) {
            for (const DiffCell *cell : beforeBy[identity])
                addUnmatched(*cell, DiffKind::Removed, report);
            continue;
        }
        std::vector<const DiffCell *> b = beforeBy[identity];
        std::vector<const DiffCell *> a = afterBy[identity];
        if (b.size() == 1 && a.size() == 1) {
            classifyPair(*b.front(), *a.front(), report);
            continue;
        }
        // Several cells share an identity (e.g. one identity priced
        // under several SimConfigs in a store set): sub-match on
        // config_digest first, then pair a single leftover on each
        // side (a config flip of the same cell → explained).
        auto digestOf = [](const DiffCell *cell) {
            auto it = cell->evidence.find("config_digest");
            return it == cell->evidence.end() ? std::string()
                                              : it->second;
        };
        std::vector<const DiffCell *> bLeft;
        for (const DiffCell *bc : b) {
            bool matched = false;
            for (auto it = a.begin(); it != a.end(); ++it) {
                if (digestOf(*it) == digestOf(bc)) {
                    classifyPair(*bc, **it, report);
                    a.erase(it);
                    matched = true;
                    break;
                }
            }
            if (!matched)
                bLeft.push_back(bc);
        }
        if (bLeft.size() == 1 && a.size() == 1) {
            classifyPair(*bLeft.front(), *a.front(), report);
        } else {
            for (const DiffCell *cell : bLeft)
                addUnmatched(*cell, DiffKind::Removed, report);
            for (const DiffCell *cell : a)
                addUnmatched(*cell, DiffKind::Added, report);
        }
    }
    return report;
}

void
printDiffReport(std::ostream &os, const DiffReport &report,
                bool verbose)
{
    constexpr std::size_t figureCap = 6;
    for (const DiffEntry &entry : report.entries) {
        os << diffKindName(entry.kind);
        for (std::size_t pad = std::strlen(diffKindName(entry.kind));
             pad < 18; ++pad)
            os << ' ';
        os << entry.identity << '\n';
        for (const DiffDelta &delta : entry.digests)
            os << "    " << delta.name << ": "
               << (delta.before.empty() ? "(absent)" : delta.before)
               << " -> "
               << (delta.after.empty() ? "(absent)" : delta.after)
               << '\n';
        std::size_t shown = 0;
        for (const DiffDelta &delta : entry.figures) {
            if (!verbose && shown == figureCap) {
                os << "    ... and "
                   << entry.figures.size() - shown
                   << " more figure(s)\n";
                break;
            }
            os << "    " << delta.name << ": "
               << (delta.before.empty() ? "(absent)" : delta.before)
               << " -> "
               << (delta.after.empty() ? "(absent)" : delta.after)
               << '\n';
            ++shown;
        }
    }
    os << "diff: " << report.identical << " identical, "
       << report.explained << " explained, " << report.unexplained
       << " unexplained drift, " << report.added << " added, "
       << report.removed << " removed\n";
}

JsonValue
diffReportToJson(const DiffReport &report)
{
    auto deltas = [](const std::vector<DiffDelta> &list) {
        std::vector<JsonValue> items;
        items.reserve(list.size());
        for (const DiffDelta &delta : list)
            items.push_back(JsonValue::makeObject({
                {"name", JsonValue::makeString(delta.name)},
                {"before", JsonValue::makeString(delta.before)},
                {"after", JsonValue::makeString(delta.after)},
            }));
        return JsonValue::makeArray(std::move(items));
    };
    std::vector<JsonValue> entries;
    entries.reserve(report.entries.size());
    for (const DiffEntry &entry : report.entries)
        entries.push_back(JsonValue::makeObject({
            {"kind",
             JsonValue::makeString(diffKindName(entry.kind))},
            {"identity", JsonValue::makeString(entry.identity)},
            {"digests", deltas(entry.digests)},
            {"figures", deltas(entry.figures)},
        }));
    return JsonValue::makeObject({
        {"identical", JsonValue::makeInt(
                          static_cast<std::int64_t>(
                              report.identical))},
        {"explained", JsonValue::makeInt(
                          static_cast<std::int64_t>(
                              report.explained))},
        {"unexplained", JsonValue::makeInt(
                            static_cast<std::int64_t>(
                                report.unexplained))},
        {"added", JsonValue::makeInt(
                      static_cast<std::int64_t>(report.added))},
        {"removed", JsonValue::makeInt(
                        static_cast<std::int64_t>(report.removed))},
        {"entries", JsonValue::makeArray(std::move(entries))},
    });
}

int
verifyStoreProvenance(std::ostream &os, const std::string &storeDir)
{
    int violations = 0;
    std::error_code ec;
    const fs::path objects = fs::path(storeDir) / "objects";
    if (fs::is_directory(objects, ec)) {
        for (const std::string &path :
             sortedFiles(objects.string(), true, ".trc", "")) {
            std::optional<ArtifactInfo> info =
                inspectArtifact(path);
            if (!info)
                os << "violation: corrupt artifact " << path << '\n';
            else if (info->provenanceBytes == 0)
                os << "violation: artifact without provenance "
                   << path << '\n';
            else
                continue;
            ++violations;
        }
    }
    const fs::path results = fs::path(storeDir) / "results";
    if (fs::is_directory(results, ec)) {
        for (const std::string &path :
             sortedFiles(results.string(), true, ".cert.json",
                         "")) {
            std::optional<JsonValue> record = readSealedJson(path);
            if (!record || !decodeCertifiedRecord(*record)) {
                os << "violation: invalid certified record " << path
                   << '\n';
                ++violations;
            }
        }
    }
    return violations;
}

} // namespace predilp
