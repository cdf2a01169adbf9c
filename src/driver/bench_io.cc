#include "driver/bench_io.hh"

#include <fstream>

#include "support/logging.hh"
#include "support/string_utils.hh"

namespace predilp
{

StatsSnapshot
timingSnapshot(const StatsSnapshot &stats, double wallSeconds,
               int threads)
{
    StatsSnapshot s = stats;
    s.setSeconds("elapsed_seconds", wallSeconds);
    s.setCounter("threads", static_cast<std::uint64_t>(threads));
    const double replaySeconds = s.seconds("phases.simulate_seconds");
    if (replaySeconds > 0) {
        s.setSeconds("throughput.replay_records_per_sec",
                     static_cast<double>(
                         s.counter("counters.replayed_records")) /
                         replaySeconds);
    }
    const double captureSeconds = s.seconds("phases.emulate_seconds");
    if (captureSeconds > 0) {
        s.setSeconds("throughput.emulate_records_per_sec",
                     static_cast<double>(
                         s.counter("emu.records.threaded")) /
                         captureSeconds);
    }
    if (const std::uint64_t records =
            s.counter("counters.captured_records")) {
        s.setSeconds("throughput.trace_bytes_per_entry",
                     static_cast<double>(
                         s.counter("counters.captured_bytes")) /
                         static_cast<double>(records));
    }
    return s;
}

StatsSnapshot
cellSnapshot(const BenchmarkResult &result, Model model,
             const SimResult &sim)
{
    // Start from the simulator's detailed sim.* counters and add the
    // headline numbers as top-level leaves of the same snapshot.
    StatsSnapshot s = sim.stats;
    s.setCounter("cycles", sim.cycles);
    s.setCounter("dyn_instrs", sim.dynInstrs);
    s.setCounter("nullified", sim.nullified);
    s.setCounter("branches", sim.branches);
    s.setCounter("cond_branches", sim.condBranches);
    s.setCounter("mispredicts", sim.mispredicts);
    s.setCounter("loads", sim.loads);
    s.setCounter("stores", sim.stores);
    s.setSeconds("speedup", result.speedup(model));
    return s;
}

void
printPhaseTiming(std::ostream &os, const StatsSnapshot &stats,
                 double wallSeconds, int threads)
{
    auto n = [&stats](const char *name) { return stats.counter(name); };
    auto seconds = [&stats](const char *name) {
        return formatFixed(stats.seconds(name), 2);
    };
    os << "-- timing: wall " << formatFixed(wallSeconds, 2)
       << "s (threads=" << threads << ") | compile "
       << seconds("phases.compile_seconds") << "s | emulate "
       << seconds("phases.emulate_seconds") << "s | simulate "
       << seconds("phases.simulate_seconds") << "s | wait "
       << seconds("phases.wait_seconds") << "s\n"
       << "-- cache: " << n("counters.compiles") << " compiles ("
       << n("counters.formations") << " formations, +"
       << n("counters.prefix_compiles") << " prefix), "
       << n("counters.captures") << " emulations, "
       << n("counters.replays") << " replays, "
       << n("counters.result_cache_hits") << " result hits\n";
    if (n("emu.decodes") + n("emu.records.threaded") > 0) {
        os << "-- emu: decode " << seconds("emu.decode_seconds")
           << "s (" << n("emu.decodes") << " decodes, "
           << n("emu.decoded_bytes") / 1024 << " KiB) | records "
           << n("emu.records.threaded") << " threaded\n";
    }
    // A fully served warm run touches only the result tier, so
    // either tier's traffic prints the line.
    if (n("store.hit") + n("store.miss") + n("store.write") +
            n("store.result_hit") + n("store.result_miss") +
            n("store.result_write") >
        0) {
        os << "-- store: traces " << n("store.hit") << " hits, "
           << n("store.miss") << " misses, " << n("store.write")
           << " writes, " << n("store.repair") << " repairs, "
           << n("store.bytes_mapped") / (1024 * 1024)
           << " MiB mapped | results " << n("store.result_hit")
           << " hits, " << n("store.result_miss") << " misses, "
           << n("store.result_write") << " writes, "
           << n("store.result_repair") << " repairs\n";
    }
}

std::string
writeBenchJson(const std::string &benchName,
               const std::vector<BenchmarkResult> &results,
               const StatsSnapshot &stats, double wallSeconds,
               int threads, const StatsSnapshot &compilerStats)
{
    std::string path = "BENCH_" + benchName + ".json";
    std::ofstream os(path);
    panicIf(!os, "cannot write ", path);
    os << "{\n  \"bench\": \"" << benchName << "\",\n"
       << "  \"timing\": "
       << timingSnapshot(stats, wallSeconds, threads).toJson(2)
       << ",\n"
       << "  \"compiler\": " << compilerStats.toJson(2) << ",\n"
       << "  \"benchmarks\": [\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
        const BenchmarkResult &r = results[i];
        os << "    {\n      \"name\": \"" << r.name << "\",\n"
           << "      \"base_cycles\": " << r.baseCycles << ",\n"
           << "      \"models\": {\n";
        std::size_t m = 0;
        for (const auto &[model, sim] : r.models) {
            os << "        \"" << modelKey(model) << "\": "
               << cellSnapshot(r, model, sim).toJson(8)
               << (++m == r.models.size() ? "\n" : ",\n");
        }
        // Per-cell provenance digests: what predilp_diff joins on
        // and cites as evidence when classifying figure drift.
        std::vector<std::pair<std::string, JsonValue>> provs;
        for (const auto &[model, prov] : r.provenance)
            provs.emplace_back(modelKey(model), prov.toJson());
        os << "      },\n      \"provenance\": "
           << JsonValue::makeObject(std::move(provs)).dump()
           << "\n    }"
           << (i + 1 == results.size() ? "\n" : ",\n");
    }
    os << "  ]\n}\n";
    return path;
}

} // namespace predilp
