/**
 * @file
 * predilp_sweep: the sharded scenario-sweep grid driver CLI.
 *
 * Usage:
 *   predilp_sweep --spec grid.json [--workers N] [--out FILE]
 *   predilp_sweep --print-spec          # example grid spec
 *
 * Reads a declarative grid spec (see src/driver/sweep.hh and
 * DESIGN.md §6h), expands it into the cross product of cells, shards
 * the cells across N forked worker processes (trace-affine: cells
 * replaying the same captured traces stay on one worker, and each
 * worker prices its shard with one batched replay pass per trace),
 * and writes one consolidated BENCH_sweep.json. Point PREDILP_STORE
 * at a directory to let the workers share captured traces — a warm
 * re-run of the same grid then performs zero compiles and captures.
 */

#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "driver/bench_io.hh"
#include "driver/sweep.hh"
#include "support/diag.hh"
#include "support/faultpoint.hh"

namespace
{

const char *const exampleSpec = R"({
  "workloads": ["cmp", "wc"],
  "models": ["superblock", "cond_move", "full_pred"],
  "scale": 1,
  "base": {"perfect_caches": true},
  "axes": {
    "issue_width": [2, 4, 8],
    "btb_entries": [256, 1024],
    "perfect_caches": [true, false]
  }
})";

int
usage(std::ostream &os, int code)
{
    os << "usage: predilp_sweep --spec FILE [--workers N] "
          "[--out FILE]\n"
          "                     [--retries N] [--watchdog-sec S] "
          "[--no-degrade]\n"
          "       predilp_sweep --print-spec | "
          "--list-fault-points\n"
          "\n"
          "  --spec FILE    grid spec (JSON; see --print-spec)\n"
          "  --workers N    forked worker processes (default 1 = "
          "sequential)\n"
          "  --out FILE     consolidated report path (default "
          "BENCH_sweep.json)\n"
          "  --retries N    retry a failed shard up to N times on "
          "fresh workers\n"
          "                 (default 2; 0 disables retry)\n"
          "  --watchdog-sec S  SIGKILL and retry a worker running "
          "longer than S\n"
          "                 seconds (default: "
          "PREDILP_SWEEP_WATCHDOG_SEC, else off)\n"
          "  --no-degrade   fail the sweep when a shard exhausts "
          "its retries,\n"
          "                 instead of emitting degraded cell "
          "records\n"
          "  --print-spec   print an example grid spec and exit\n"
          "  --list-fault-points  print every PREDILP_FAULTS point "
          "name and exit\n"
          "\n"
          "Environment: PREDILP_STORE, PREDILP_STORE_MODE, "
          "PREDILP_THREADS, PREDILP_EMU,\n"
          "PREDILP_FAULTS, PREDILP_SWEEP_WATCHDOG_SEC (see EnvConfig "
          "in src/support/env.hh)\n"
          "apply to every worker.\n";
    return code;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace predilp;

    std::string specPath;
    std::string outPath = "BENCH_sweep.json";
    int workers = 1;
    SweepHealPolicy heal;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--print-spec") {
            std::cout << exampleSpec << "\n";
            return 0;
        }
        if (arg == "--list-fault-points") {
            for (const std::string &name :
                 faultpoints::knownPoints()) {
                std::cout << name << "\n";
            }
            return 0;
        }
        if (arg == "--help" || arg == "-h")
            return usage(std::cout, 0);
        if (arg == "--spec" && i + 1 < argc) {
            specPath = argv[++i];
        } else if (arg == "--workers" && i + 1 < argc) {
            workers = std::atoi(argv[++i]);
            if (workers < 1) {
                std::cerr << "--workers must be >= 1\n";
                return 2;
            }
        } else if (arg == "--out" && i + 1 < argc) {
            outPath = argv[++i];
        } else if (arg == "--retries" && i + 1 < argc) {
            int retries = std::atoi(argv[++i]);
            if (retries < 0) {
                std::cerr << "--retries must be >= 0\n";
                return 2;
            }
            heal.maxAttempts = retries + 1;
        } else if (arg == "--watchdog-sec" && i + 1 < argc) {
            heal.watchdogSec = std::atof(argv[++i]);
            if (heal.watchdogSec <= 0) {
                std::cerr << "--watchdog-sec must be > 0\n";
                return 2;
            }
        } else if (arg == "--no-degrade") {
            heal.degradeCells = false;
        } else {
            std::cerr << "unknown argument '" << arg << "'\n";
            return usage(std::cerr, 2);
        }
    }
    if (specPath.empty()) {
        std::cerr << "missing --spec\n";
        return usage(std::cerr, 2);
    }

    try {
        WallTimer wall;
        std::ifstream in(specPath, std::ios::binary);
        if (!in) {
            std::cerr << "cannot read spec " << specPath << "\n";
            return 1;
        }
        std::ostringstream text;
        text << in.rdbuf();
        SweepSpec spec =
            SweepSpec::fromJson(JsonValue::parse(text.str()));

        SweepOutcome outcome =
            runSweep(spec, workers, outPath, heal);
        std::cout << "-- sweep: " << outcome.cells << " cells, "
                  << outcome.workers << " workers";
        if (outcome.workerRetries > 0)
            std::cout << ", " << outcome.workerRetries
                      << " retries";
        if (outcome.degradedCells > 0)
            std::cout << ", " << outcome.degradedCells
                      << " degraded";
        std::cout << " -> " << outcome.path << "\n";
        printPhaseTiming(std::cout, outcome.timing, wall.seconds(),
                         outcome.threads);
        return 0;
    } catch (const std::exception &e) {
        std::cerr << "predilp_sweep: " << e.what() << "\n";
        return 1;
    }
}
