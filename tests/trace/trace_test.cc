/**
 * @file
 * Trace capture/replay tests: capture() under either backend must
 * record exactly what the interpreter streams — fetch address,
 * dynamic flags, and memory address, record for record — for every
 * model; replaying one buffer must be repeatable and must not touch
 * the IR; and the chunked storage must survive chunk-boundary
 * rollover in both streams. The packed 4-byte entry format and the
 * zigzag-varint memory side stream get direct edge-case coverage:
 * negative deltas, >32-bit addresses, and static ids beyond the
 * 29-bit packing limit or outside the trace's own index.
 */

#include <gtest/gtest.h>

#include "driver/pipeline.hh"
#include "sim/timing.hh"
#include "support/logging.hh"
#include "trace/replay.hh"
#include "trace/trace.hh"
#include "workloads/workloads.hh"

namespace predilp
{
namespace
{

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
    // The detailed sim.* machine counters must agree leaf for leaf.
    EXPECT_EQ(a.stats.counters(), b.stats.counters());
}

std::unique_ptr<Program>
compiledWorkload(const Workload &workload, Model model,
                 const std::string &input)
{
    CompileOptions opts;
    opts.model = model;
    opts.machine = issue8Branch1();
    opts.profileInput = input;
    return compileForModel(workload.source, opts);
}

/** One interpreter record, expressed the way a trace stores it. */
struct ExpectedRecord
{
    std::int64_t addr = 0;
    std::uint32_t flags = 0;
    std::int64_t memAddr = 0;
};

/** Records every interpreter record as an ExpectedRecord. */
class RecordingSink : public TraceSink
{
  public:
    explicit RecordingSink(const Program &prog) : addresses_(prog) {}

    void
    onInstr(const DynRecord &record) override
    {
        records.push_back(
            {addresses_.addressOf(record.fn, record.instr),
             traceFlagsOf(record), record.memAddr});
    }

    std::vector<ExpectedRecord> records;

  private:
    AddressMap addresses_;
};

TEST(Capture, MatchesInterpreterRecordForRecord)
{
    // The trace is all pricing ever sees, so each record must carry
    // what the interpreter streamed for it: the instruction's fetch
    // address (the I-cache and BTB key), the dynamic flags, and the
    // memory address (the D-cache key).
    for (const char *name : {"cmp", "wc"}) {
        const Workload *workload = findWorkload(name);
        ASSERT_NE(workload, nullptr);
        std::string input = workload->makeInput(1);
        for (Model model : {Model::Superblock, Model::CondMove,
                            Model::FullPred}) {
            auto prog = compiledWorkload(*workload, model, input);
            RecordingSink sink(*prog);
            EmuOptions opts;
            opts.sink = &sink;
            opts.backend = EmuBackend::Interp;
            RunResult run = Emulator(*prog).run(input, opts);
            for (EmuBackend backend :
                 {EmuBackend::Interp, EmuBackend::Threaded}) {
                SCOPED_TRACE(workload->name + "/" + modelName(model) +
                             "/" + emuBackendName(backend));
                auto buffer =
                    capture(*prog, input, opts.maxDynInstrs, backend);
                EXPECT_EQ(buffer->run().exitValue, run.exitValue);
                EXPECT_EQ(buffer->run().output, run.output);
                ASSERT_EQ(buffer->size(), sink.records.size());
                const StaticIndex &index = buffer->index();
                TraceBuffer::Cursor cursor(*buffer);
                TraceEntry entry;
                std::int64_t memAddr = 0;
                for (std::size_t i = 0; i < sink.records.size(); ++i) {
                    const ExpectedRecord &want = sink.records[i];
                    ASSERT_TRUE(cursor.next(entry, memAddr));
                    ASSERT_LT(entry.staticId(), index.size());
                    ASSERT_EQ(index.op(entry.staticId()).addr,
                              want.addr)
                        << "record " << i;
                    ASSERT_EQ(entry.flags(), want.flags)
                        << "record " << i;
                    if ((want.flags & traceHasMemAddr) != 0) {
                        ASSERT_EQ(memAddr, want.memAddr)
                            << "record " << i;
                    }
                }
                EXPECT_FALSE(cursor.next(entry, memAddr));
            }
        }
    }
}

TEST(Replay, BufferIsSelfContained)
{
    const Workload *workload = findWorkload("cmp");
    ASSERT_NE(workload, nullptr);
    std::string input = workload->makeInput(1);
    auto prog =
        compiledWorkload(*workload, Model::Superblock, input);
    SimConfig sim;
    sim.machine = issue8Branch1();
    sim.perfectCaches = false; // price the address stream too.
    auto buffer = capture(*prog, input);
    SimResult before = replay(*buffer, sim);
    prog.reset(); // replay must not touch the IR.
    expectSimEq(before, replay(*buffer, sim));
}

TEST(Replay, RejectsStaticIdOutsideIndex)
{
    // A trace loaded from the store is outside input: an entry whose
    // id lies past the trace's own ops table must panic instead of
    // reading past the row table, for single and batched replay.
    Program prog;
    TraceBuffer buffer(prog);
    buffer.append(7, 0, 0);
    EXPECT_THROW(replay(buffer, SimConfig{}), PanicError);
    SimConfig configs[2];
    configs[1].perfectCaches = false;
    EXPECT_THROW(replayBatch(buffer, configs), PanicError);
}

TEST(TraceEntryPacking, RoundTripsIdAndFlags)
{
    const std::uint32_t allFlags =
        traceNullified | traceTaken | traceHasMemAddr;
    for (std::uint32_t id : {0u, 1u, 976u, traceMaxStaticId}) {
        for (std::uint32_t flags :
             {0u, traceNullified, traceTaken, traceHasMemAddr,
              allFlags}) {
            TraceEntry entry = makeTraceEntry(id, flags);
            EXPECT_EQ(entry.staticId(), id);
            EXPECT_EQ(entry.flags(), flags);
        }
    }
    EXPECT_EQ(sizeof(TraceEntry), 4u);
}

TEST(TraceEntryPacking, RejectsIdBeyond29Bits)
{
    // Ids at the 29-bit boundary must be rejected with a clear
    // error, never silently truncated into the flag bits.
    EXPECT_NO_THROW(makeTraceEntry(traceMaxStaticId, traceTaken));
    EXPECT_THROW(makeTraceEntry(traceMaxStaticId + 1, 0),
                 PanicError);
    EXPECT_THROW(makeTraceEntry(0xFFFFFFFFu, 0), PanicError);

    Program prog;
    TraceBuffer buffer(prog);
    EXPECT_THROW(buffer.append(traceMaxStaticId + 1, 0, 0),
                 PanicError);
}

TEST(Varint, ZigzagRoundTripsExtremes)
{
    const std::int64_t cases[] = {
        0,
        1,
        -1,
        63,
        -64,
        // Deltas beyond 32 bits in both directions.
        (std::int64_t{1} << 40) + 123,
        -((std::int64_t{1} << 40) + 123),
        std::numeric_limits<std::int64_t>::max(),
        std::numeric_limits<std::int64_t>::min(),
    };
    for (std::int64_t v : cases) {
        EXPECT_EQ(zigzagDecode(zigzagEncode(v)), v) << v;
        std::vector<std::uint8_t> bytes;
        appendVarint(bytes, zigzagEncode(v));
        EXPECT_LE(bytes.size(), 10u);
        const std::uint8_t *p = bytes.data();
        EXPECT_EQ(zigzagDecode(
                      decodeVarint(p, bytes.data() + bytes.size())),
                  v)
            << v;
        EXPECT_EQ(p, bytes.data() + bytes.size());
    }
    // Small magnitudes must stay small on the wire.
    std::vector<std::uint8_t> small;
    appendVarint(small, zigzagEncode(-3));
    EXPECT_EQ(small.size(), 1u);
}

TEST(Varint, MalformedStreamsThrowInsteadOfOverrunning)
{
    // Every proper prefix of a valid encoding ends mid-value and
    // must throw, with the cursor never advanced past `end`.
    std::vector<std::uint8_t> bytes;
    appendVarint(bytes,
                 zigzagEncode((std::int64_t{1} << 40) + 12345));
    ASSERT_GT(bytes.size(), 1u);
    for (std::size_t len = 0; len < bytes.size(); ++len) {
        const std::uint8_t *p = bytes.data();
        const std::uint8_t *end = bytes.data() + len;
        EXPECT_THROW(decodeVarint(p, end), TraceCorruptError)
            << "prefix length " << len;
        EXPECT_LE(p, end);
    }

    // A runaway stream of continuation bytes must be rejected once
    // its bits exceed the 64-bit range, not decoded forever.
    std::vector<std::uint8_t> runaway(16, 0x80);
    const std::uint8_t *p = runaway.data();
    EXPECT_THROW(
        decodeVarint(p, runaway.data() + runaway.size()),
        TraceCorruptError);
}

TEST(TraceBuffer, MemStreamHandlesNegativeAndWideDeltas)
{
    Program prog;
    TraceBuffer buffer(prog);
    // Address sequence exercising negative deltas, >32-bit jumps,
    // and a return to small addresses.
    const std::int64_t addrs[] = {
        0x1000,
        0x0008,                      // negative delta.
        (std::int64_t{1} << 41) + 5, // >32-bit address.
        (std::int64_t{1} << 41) - 3, // negative delta at altitude.
        16,                          // huge negative delta.
        16,                          // zero delta.
    };
    for (std::int64_t addr : addrs)
        buffer.append(7, traceHasMemAddr, addr);

    TraceBuffer::Cursor cursor(buffer);
    TraceEntry entry;
    std::int64_t memAddr = 0;
    for (std::int64_t addr : addrs) {
        ASSERT_TRUE(cursor.next(entry, memAddr));
        EXPECT_EQ(entry.staticId(), 7u);
        EXPECT_EQ(memAddr, addr);
    }
    EXPECT_FALSE(cursor.next(entry, memAddr));
}

TEST(TraceBuffer, CursorSurvivesChunkRollover)
{
    Program prog;
    TraceBuffer buffer(prog);
    // Enough records to roll both streams over several chunks; every
    // third record carries a memory address.
    const std::uint64_t n = 3 * TraceBuffer::chunkEntries + 17;
    for (std::uint64_t i = 0; i < n; ++i) {
        std::uint32_t flags =
            (i % 3 == 0) ? traceHasMemAddr : traceTaken;
        buffer.append(static_cast<std::uint32_t>(i % 977), flags,
                      static_cast<std::int64_t>(i * 8));
    }
    EXPECT_EQ(buffer.size(), n);

    TraceBuffer::Cursor cursor(buffer);
    TraceEntry entry;
    std::int64_t memAddr = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
        ASSERT_TRUE(cursor.next(entry, memAddr));
        EXPECT_EQ(entry.staticId(), i % 977);
        if (i % 3 == 0) {
            EXPECT_EQ(entry.flags(), traceHasMemAddr);
            EXPECT_EQ(memAddr, static_cast<std::int64_t>(i * 8));
        } else {
            EXPECT_EQ(entry.flags(), traceTaken);
        }
    }
    EXPECT_FALSE(cursor.next(entry, memAddr));
}

TEST(TraceBuffer, ChunkCursorMatchesRecordCursor)
{
    Program prog;
    TraceBuffer buffer(prog);
    const std::uint64_t n = 2 * TraceBuffer::chunkEntries + 311;
    for (std::uint64_t i = 0; i < n; ++i) {
        std::uint32_t flags = (i % 5 == 0) ? traceHasMemAddr : 0;
        // Alternate small and large strides so deltas change sign
        // and width across chunk boundaries.
        std::int64_t addr = (i % 2 == 0)
                                ? static_cast<std::int64_t>(i * 8)
                                : (std::int64_t{1} << 36) -
                                      static_cast<std::int64_t>(i);
        buffer.append(static_cast<std::uint32_t>(i % 131), flags,
                      addr);
    }

    TraceBuffer::Cursor record(buffer);
    TraceBuffer::ChunkCursor chunks(buffer);
    const TraceEntry *entries = nullptr;
    std::size_t count = 0;
    const std::int64_t *addrs = nullptr;
    std::uint64_t seen = 0;
    while (chunks.next(entries, count, addrs)) {
        for (std::size_t i = 0; i < count; ++i, ++seen) {
            TraceEntry expected;
            std::int64_t expectedAddr = 0;
            ASSERT_TRUE(record.next(expected, expectedAddr));
            EXPECT_EQ(entries[i].packed, expected.packed);
            if ((entries[i].flags() & traceHasMemAddr) != 0) {
                EXPECT_EQ(*addrs++, expectedAddr);
            }
        }
    }
    EXPECT_EQ(seen, n);
    TraceEntry tail;
    std::int64_t tailAddr = 0;
    EXPECT_FALSE(record.next(tail, tailAddr));
}

TEST(TraceBuffer, PackedFormatShrinksFootprint)
{
    const Workload *workload = findWorkload("wc");
    ASSERT_NE(workload, nullptr);
    std::string input = workload->makeInput(1);
    auto prog =
        compiledWorkload(*workload, Model::Superblock, input);
    auto buffer = capture(*prog, input);
    ASSERT_GT(buffer->size(), 0u);
    // 4 bytes per entry plus the varint side stream: well under the
    // 8 bytes per entry + 8 bytes per address of the old format.
    EXPECT_LT(buffer->memoryBytes(), buffer->size() * 6);
}

TEST(TraceBuffer, RecordsFunctionalRun)
{
    const Workload *workload = findWorkload("wc");
    ASSERT_NE(workload, nullptr);
    std::string input = workload->makeInput(1);
    auto prog =
        compiledWorkload(*workload, Model::Superblock, input);
    auto buffer = capture(*prog, input);
    RunResult reference = runReference(workload->source, input);
    EXPECT_EQ(buffer->run().output, reference.output);
    EXPECT_EQ(buffer->run().exitValue, reference.exitValue);
    EXPECT_GT(buffer->size(), 0u);
    EXPECT_GT(buffer->memoryBytes(), 0u);
}

} // namespace
} // namespace predilp
