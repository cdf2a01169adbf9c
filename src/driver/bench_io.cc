#include "driver/bench_io.hh"

#include <fstream>

#include "support/logging.hh"
#include "support/string_utils.hh"

namespace predilp
{

StatsSnapshot
timingSnapshot(const BenchTiming &timing, double wallSeconds,
               int threads)
{
    StatsSnapshot s;
    s.setSeconds("elapsed_seconds", wallSeconds);
    s.setCounter("threads", static_cast<std::uint64_t>(threads));
    s.setSeconds("phases.compile_seconds", timing.compileSeconds);
    s.setSeconds("phases.emulate_seconds", timing.captureSeconds);
    s.setSeconds("phases.simulate_seconds", timing.replaySeconds);
    s.setCounter("counters.compiles", timing.compiles);
    s.setCounter("counters.prefix_compiles", timing.prefixCompiles);
    s.setCounter("counters.prefix_cache_hits",
                 timing.prefixCacheHits);
    s.setCounter("counters.captures", timing.captures);
    s.setCounter("counters.replays", timing.replays);
    s.setCounter("counters.trace_cache_hits", timing.traceCacheHits);
    s.setCounter("counters.result_cache_hits",
                 timing.resultCacheHits);
    s.setCounter("counters.trace_bytes", timing.traceBytes);
    s.setCounter("counters.trace_peak_bytes", timing.tracePeakBytes);
    s.setCounter("counters.captured_bytes", timing.capturedBytes);
    s.setCounter("counters.captured_records",
                 timing.capturedRecords);
    s.setCounter("counters.replayed_records",
                 timing.replayedRecords);
    s.setCounter("emu.backend.threaded",
                 defaultEmuBackend() == EmuBackend::Threaded ? 1
                                                             : 0);
    s.setSeconds("emu.decode_seconds", timing.decodeSeconds);
    s.setCounter("emu.decodes", timing.decodes);
    s.setCounter("emu.decoded_bytes", timing.decodedBytes);
    s.setCounter("emu.records.threaded", timing.threadedRecords);
    s.setCounter("emu.records.interp", timing.interpRecords);
    s.setCounter("emu.backend_fallbacks", timing.backendFallbacks);
    s.setCounter("counters.batch_fallbacks", timing.batchFallbacks);
    s.setCounter("store.hit", timing.storeHits);
    s.setCounter("store.miss", timing.storeMisses);
    s.setCounter("store.repair", timing.storeRepairs);
    s.setCounter("store.write", timing.storeWrites);
    s.setCounter("store.bytes_mapped", timing.storeBytesMapped);
    if (timing.replaySeconds > 0) {
        s.setSeconds("throughput.replay_records_per_sec",
                     static_cast<double>(timing.replayedRecords) /
                         timing.replaySeconds);
    }
    if (timing.captureSeconds > 0) {
        s.setSeconds(
            "throughput.emulate_records_per_sec",
            static_cast<double>(timing.threadedRecords +
                                timing.interpRecords) /
                timing.captureSeconds);
    }
    if (timing.capturedRecords > 0) {
        s.setSeconds("throughput.trace_bytes_per_entry",
                     static_cast<double>(timing.capturedBytes) /
                         static_cast<double>(
                             timing.capturedRecords));
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
printPhaseTiming(std::ostream &os, const BenchTiming &timing,
                 double wallSeconds, int threads)
{
    os << "-- timing: wall " << formatFixed(wallSeconds, 2)
       << "s (threads=" << threads << ") | compile "
       << formatFixed(timing.compileSeconds, 2) << "s | emulate "
       << formatFixed(timing.captureSeconds, 2) << "s | simulate "
       << formatFixed(timing.replaySeconds, 2) << "s\n"
       << "-- cache: " << timing.compiles << " compiles (+"
       << timing.prefixCompiles << " prefix), "
       << timing.captures << " emulations, " << timing.replays
       << " replays, " << timing.traceCacheHits
       << " trace hits, " << timing.resultCacheHits
       << " result hits, "
       << timing.tracePeakBytes / (1024 * 1024)
       << " MiB traces peak\n";
    if (timing.decodes + timing.threadedRecords +
            timing.interpRecords >
        0) {
        os << "-- emu: " << emuBackendName(defaultEmuBackend())
           << " backend | decode "
           << formatFixed(timing.decodeSeconds, 2) << "s ("
           << timing.decodes << " decodes, "
           << timing.decodedBytes / 1024 << " KiB) | records "
           << timing.threadedRecords << " threaded, "
           << timing.interpRecords << " interp\n";
    }
    if (timing.storeHits + timing.storeMisses +
            timing.storeWrites >
        0) {
        os << "-- store: " << timing.storeHits << " hits, "
           << timing.storeMisses << " misses, "
           << timing.storeWrites << " writes, "
           << timing.storeRepairs << " repairs, "
           << timing.storeBytesMapped / (1024 * 1024)
           << " MiB mapped\n";
    }
}

std::string
writeBenchJson(const std::string &benchName,
               const std::vector<BenchmarkResult> &results,
               const BenchTiming &timing, double wallSeconds,
               int threads, const StatsSnapshot &compilerStats)
{
    std::string path = "BENCH_" + benchName + ".json";
    std::ofstream os(path);
    panicIf(!os, "cannot write ", path);
    os << "{\n  \"bench\": \"" << benchName << "\",\n"
       << "  \"timing\": "
       << timingSnapshot(timing, wallSeconds, threads).toJson(2)
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
