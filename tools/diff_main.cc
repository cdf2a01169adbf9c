/**
 * @file
 * predilp_diff: cross-run drift classification over result sets
 * (driver/diff.hh), plus a store provenance verifier.
 *
 *   predilp_diff --before PATH --after PATH [--json] [--verbose]
 *   predilp_diff --verify STORE_DIR
 *
 * PATH is a BENCH_*.json file, a directory of them, or a store /
 * certified-records directory. Exit 0 when no unexplained drift (or
 * the store verifies), 1 on unexplained drift / violations, 2 on
 * usage or I/O errors — so CI can gate on the one failure mode that
 * means "same provenance, different figures".
 */

#include <cstring>
#include <iostream>
#include <string>

#include "driver/diff.hh"

namespace
{

int
usage(int code)
{
    std::cerr
        << "usage: predilp_diff --before PATH --after PATH"
           " [--json] [--verbose]\n"
           "       predilp_diff --verify STORE_DIR\n"
           "\n"
           "Compares two result sets (BENCH_*.json files/dirs or\n"
           "store directories of certified records) and classifies\n"
           "every cell as identical, explained (a provenance digest\n"
           "changed), or unexplained drift (same provenance,\n"
           "different figures). --verify checks instead that every\n"
           "store artifact validates and embeds its provenance, and\n"
           "that every certified record is sealed.\n"
           "\n"
           "exit status: 0 no unexplained drift (or store clean),\n"
           "             1 unexplained drift / violations, 2 usage\n";
    return code;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string before;
    std::string after;
    std::string verifyDir;
    bool json = false;
    bool verbose = false;
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strcmp(arg, "--before") == 0 && i + 1 < argc) {
            before = argv[++i];
        } else if (std::strcmp(arg, "--after") == 0 &&
                   i + 1 < argc) {
            after = argv[++i];
        } else if (std::strcmp(arg, "--verify") == 0 &&
                   i + 1 < argc) {
            verifyDir = argv[++i];
        } else if (std::strcmp(arg, "--json") == 0) {
            json = true;
        } else if (std::strcmp(arg, "--verbose") == 0) {
            verbose = true;
        } else if (std::strcmp(arg, "--help") == 0 ||
                   std::strcmp(arg, "-h") == 0) {
            return usage(0);
        } else {
            std::cerr << "unknown argument '" << arg << "'\n";
            return usage(2);
        }
    }

    try {
        if (!verifyDir.empty()) {
            if (!before.empty() || !after.empty())
                return usage(2);
            int violations = predilp::verifyStoreProvenance(
                std::cout, verifyDir);
            std::cout << "verify: " << verifyDir << ": "
                      << violations << " violation(s)\n";
            return violations > 0 ? 1 : 0;
        }
        if (before.empty() || after.empty())
            return usage(2);

        predilp::ResultSet beforeSet =
            predilp::loadResultSet(before);
        predilp::ResultSet afterSet = predilp::loadResultSet(after);
        for (const predilp::ResultSet *set :
             {&beforeSet, &afterSet}) {
            if (set->invalidRecords > 0)
                std::cerr << "warning: skipped "
                          << set->invalidRecords
                          << " invalid sealed record(s) in "
                          << set->label << "\n";
        }
        predilp::DiffReport report =
            predilp::diffResultSets(beforeSet, afterSet);
        if (json)
            std::cout << predilp::diffReportToJson(report).dump()
                      << "\n";
        else
            predilp::printDiffReport(std::cout, report, verbose);
        return report.hasUnexplainedDrift() ? 1 : 0;
    } catch (const std::exception &e) {
        std::cerr << "predilp_diff: " << e.what() << "\n";
        return 2;
    }
}
