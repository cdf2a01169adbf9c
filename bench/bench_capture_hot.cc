/**
 * @file
 * Capture-kernel microbenchmark: compile the largest workload
 * (espresso) once for Full Predication, then hammer trace capture —
 * the cold-path cost the pre-decoded threaded backend
 * (emu/decoded.hh) attacks. One timed interpreter pass anchors the
 * baseline; the decode is timed separately (it is paid once and
 * cached by the evaluator); then repeated threaded passes measure
 * the steady-state capture kernel. Every threaded pass must remain
 * bit-identical to the interpreter's trace. Reports
 * emulate_records_per_sec and decode_ms into BENCH_capture_hot.json,
 * which CI tracks (scripts/bench_json.sh).
 */

#include <cstring>
#include <fstream>
#include <iostream>

#include "driver/pipeline.hh"
#include "emu/decoded.hh"
#include "sched/machine.hh"
#include "support/logging.hh"
#include "support/stats_registry.hh"
#include "support/timer.hh"
#include "trace/trace.hh"
#include "workloads/workloads.hh"

namespace
{

/** Byte-level equality of the two packed streams + run results. */
void
checkIdentical(const predilp::TraceBuffer &a,
               const predilp::TraceBuffer &b)
{
    using predilp::panicIf;
    panicIf(a.size() != b.size() || a.chunkCount() != b.chunkCount(),
            "backend divergence: record/chunk counts differ");
    for (std::size_t i = 0; i < a.chunkCount(); ++i) {
        auto x = a.chunk(i);
        auto y = b.chunk(i);
        panicIf(x.entryCount != y.entryCount ||
                    std::memcmp(x.entries, y.entries,
                                x.entryCount *
                                    sizeof(predilp::TraceEntry)) !=
                        0,
                "backend divergence: entry stream differs in chunk ",
                i);
        panicIf(x.memSize != y.memSize ||
                    std::memcmp(x.memBytes, y.memBytes, x.memSize) !=
                        0,
                "backend divergence: memory stream differs in chunk ",
                i);
    }
    panicIf(a.run().exitValue != b.run().exitValue ||
                a.run().memHash != b.run().memHash ||
                a.run().output != b.run().output,
            "backend divergence: run results differ");
}

} // namespace

int
main()
{
    using namespace predilp;
    WallTimer wall;

    const Workload *workload = findWorkload("espresso");
    panicIf(workload == nullptr, "espresso workload missing");
    std::string input = workload->input();

    CompileOptions opts;
    opts.model = Model::FullPred;
    opts.machine = issue8Branch1();
    opts.profileInput = input;
    std::unique_ptr<Program> prog =
        compileForModel(workload->source, opts);

    // Baseline: one interpreter capture (also the bit-identity
    // oracle for every threaded pass below).
    WallTimer interpTimer;
    std::unique_ptr<TraceBuffer> reference =
        capture(*prog, input, 2'000'000'000ull, EmuBackend::Interp);
    double interpSeconds = interpTimer.seconds();
    const std::uint64_t records = reference->size();
    const std::uint64_t bytes = reference->memoryBytes();
    panicIf(records == 0, "empty trace");

    // The one-time lowering cost each threaded capture pays.
    WallTimer decodeTimer;
    DecodedProgram decoded(*prog);
    double decodeSeconds = decodeTimer.seconds();

    // One warm-up threaded pass, then timed passes.
    checkIdentical(*reference,
                   *captureDecoded(decoded, input));
    constexpr int passes = 8;
    WallTimer captureTimer;
    for (int i = 0; i < passes; ++i) {
        std::unique_ptr<TraceBuffer> trace =
            captureDecoded(decoded, input);
        checkIdentical(*reference, *trace);
    }
    double captureSeconds = captureTimer.seconds();

    double threadedRate =
        static_cast<double>(records) * passes / captureSeconds;
    double interpRate = static_cast<double>(records) / interpSeconds;

    StatsSnapshot s;
    s.setSeconds("elapsed_seconds", wall.seconds());
    s.setSeconds("phases.capture_seconds", captureSeconds);
    s.setSeconds("phases.interp_seconds", interpSeconds);
    s.setSeconds("emu.decode_seconds", decodeSeconds);
    s.setSeconds("emu.decode_ms", decodeSeconds * 1e3);
    s.setCounter("emu.decoded_bytes", decoded.memoryBytes());
    s.setCounter("counters.capture_passes", passes);
    s.setCounter("counters.trace_records", records);
    s.setCounter("counters.trace_bytes", bytes);
    s.setSeconds("throughput.emulate_records_per_sec", threadedRate);
    s.setSeconds("throughput.interp_records_per_sec", interpRate);
    s.setSeconds("throughput.speedup_vs_interp",
                 threadedRate / interpRate);
    s.setSeconds("throughput.trace_bytes_per_entry",
                 static_cast<double>(bytes) /
                     static_cast<double>(records));

    std::cout << "capture_hot: " << records << " records, decode "
              << decodeSeconds * 1e3 << " ms, " << passes
              << " threaded passes in " << captureSeconds << "s = "
              << threadedRate / 1e6 << " Mrec/s vs interp "
              << interpRate / 1e6 << " Mrec/s ("
              << threadedRate / interpRate << "x)\n";

    std::ofstream os("BENCH_capture_hot.json");
    panicIf(!os, "cannot write BENCH_capture_hot.json");
    os << "{\n  \"bench\": \"capture_hot\",\n  \"timing\": "
       << s.toJson(2) << "\n}\n";
    return 0;
}
