/**
 * @file
 * Cross-run drift classification over result sets (DESIGN.md §6k).
 *
 * A result set is either a directory/file of BENCH_*.json documents
 * (bench_io/sweep output) or a store directory of certified records
 * (driver/certified.hh). diffResultSets joins two sets cell by cell
 * on provenance identity and classifies every pair:
 *
 *   identical          same evidence digests, same figures.
 *   explained          a provenance digest differs — the source,
 *                      pass pipeline, SimConfig, or trace changed,
 *                      and the differing digest is named as the
 *                      evidence for any figure delta.
 *   unexplained drift  every digest equal but a figure differs:
 *                      the same computation produced a different
 *                      number. This is the failure the CI drift
 *                      gate exists to catch.
 *   added / removed    cell present in only one set.
 *
 * Figures compare by their exact lexical JSON rendering —
 * determinism is the repo-wide contract (bench_json.sh already
 * requires warm == cold byte-identically), so any lexical change is
 * a real change.
 *
 * The predilp_diff CLI (tools/diff_main.cc) and the CI drift gate
 * are thin wrappers over these entry points.
 */

#ifndef PREDILP_DRIVER_DIFF_HH
#define PREDILP_DRIVER_DIFF_HH

#include <cstddef>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "support/json.hh"

namespace predilp
{

/** One comparable cell extracted from a result set. */
struct DiffCell
{
    /** Join key: which cell this is (never why its figures are what
     * they are). BENCH sets use bench/benchmark/model [+ sweep
     * axes]; certified records use CellProvenance::identityKey(). */
    std::string identity;
    /** Evidence digests (source_sha256, pipeline_digest,
     * config_digest, trace_digest) when the set carries provenance;
     * empty for legacy documents without it. */
    std::map<std::string, std::string> evidence;
    /** Figure leaves, flattened to dotted keys, values in their
     * exact lexical JSON rendering. */
    std::map<std::string, std::string> figures;
    /** Where the cell came from (file path), for evidence output. */
    std::string origin;
};

/** A loaded, comparable result set. */
struct ResultSet
{
    std::string label;
    std::vector<DiffCell> cells;
    /** Sealed records that failed validation and were skipped. */
    std::size_t invalidRecords = 0;
};

/**
 * Load a result set from @p path:
 *  - a store directory (or its results/ subdirectory): every
 *    *.cert.json certified record, seal-validated;
 *  - any other directory: every BENCH_*.json inside it;
 *  - a file: one BENCH JSON document.
 * Throws FatalError on an unreadable path or malformed BENCH JSON.
 */
ResultSet loadResultSet(const std::string &path);

enum class DiffKind
{
    Identical,
    Explained,
    Unexplained,
    Added,
    Removed,
};

const char *diffKindName(DiffKind kind);

/** One before/after value delta (a digest or a figure). */
struct DiffDelta
{
    std::string name;
    std::string before;
    std::string after;
};

/** Classification of one joined cell (identical cells are counted,
 * not materialized). */
struct DiffEntry
{
    DiffKind kind = DiffKind::Identical;
    std::string identity;
    /** Evidence digests that differ (Explained entries name the
     * cause here). */
    std::vector<DiffDelta> digests;
    /** Figure leaves that differ. */
    std::vector<DiffDelta> figures;
};

struct DiffReport
{
    std::vector<DiffEntry> entries; ///< non-identical cells only.
    std::size_t identical = 0;
    std::size_t explained = 0;
    std::size_t unexplained = 0;
    std::size_t added = 0;
    std::size_t removed = 0;

    bool hasUnexplainedDrift() const { return unexplained > 0; }
};

/** Join @p before and @p after by cell identity and classify every
 * pair; deterministic entry order (sorted by identity). */
DiffReport diffResultSets(const ResultSet &before,
                          const ResultSet &after);

/** Human-readable report: per-cell evidence lines, then a summary
 * tally. @p verbose lifts the per-entry figure-delta cap. */
void printDiffReport(std::ostream &os, const DiffReport &report,
                     bool verbose = false);

/** The whole report as one JSON document (for tooling). */
JsonValue diffReportToJson(const DiffReport &report);

/**
 * Verify the provenance contract across a whole store directory:
 * every objects/ artifact validates and carries a non-empty
 * provenance section, and every results/ certified record passes
 * seal validation. @return the number of violations, printing one
 * evidence line each to @p os.
 */
int verifyStoreProvenance(std::ostream &os,
                          const std::string &storeDir);

} // namespace predilp

#endif // PREDILP_DRIVER_DIFF_HH
