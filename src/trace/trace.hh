/**
 * @file
 * Trace capture for trace-once/replay-many simulation.
 *
 * The paper's methodology (§4.1) decouples functional execution from
 * timing: benchmarks were traced once on PA-RISC hardware and the
 * trace drove the cycle-level simulator. This module is that
 * decoupling for PredILP: capture() runs the functional emulator once
 * per compiled program and records the dynamic instruction stream in
 * a compact TraceBuffer; replay() (declared in trace/replay.hh,
 * implemented next to the cycle model in src/sim/timing.cc) then
 * prices the same buffer under any number of SimConfigs — issue
 * widths, branch slots, perfect vs. real caches, BTB sizes — without
 * re-emulating.
 *
 * Buffer format: one packed 4-byte TraceEntry per dynamic
 * instruction — the interned static-instruction id in the low 29
 * bits, the nullified/taken/has-memory flags in the top 3. Memory
 * addresses, present for only a fraction of records, live in a
 * parallel side stream of zigzag-varint *deltas* (consecutive
 * accesses are usually nearby, so most deltas fit in one or two
 * bytes). Both streams use chunked storage, split at the same entry
 * boundaries, so multi-million-instruction captures never reallocate
 * or copy and replay can consume whole chunks at a time
 * (ChunkCursor).
 *
 * Interning: a StaticIndex maps each (function, instruction) pair to
 * a dense uint32 id on first dynamic appearance, using per-function
 * vectors indexed by instruction id (no per-record map lookups), and
 * precomputes everything the timing model needs per static
 * instruction — fetch address, opcode, guard/source/destination
 * registers, and branch classification — exactly once. It also
 * publishes per-class register-index bounds, from which replay lays
 * out its flat scoreboard once (sim/scoreboard.hh).
 */

#ifndef PREDILP_TRACE_TRACE_HH
#define PREDILP_TRACE_TRACE_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "emu/emulator.hh"
#include "ir/program.hh"
#include "support/diag.hh"
#include "support/logging.hh"

namespace predilp
{

/**
 * Instruction address assignment: 4 bytes per instruction, functions
 * and blocks laid out in program/layout order. Used by the I-cache
 * and BTB models. Lookup is a per-function ordinal plus a dense
 * per-function vector indexed by instruction id; the StaticIndex
 * calls it once per *static* instruction, never per record.
 */
class AddressMap
{
  public:
    /** Empty map, for indexes rebuilt from a serialized artifact. */
    AddressMap() = default;

    explicit AddressMap(const Program &prog);

    /** Address of @p instr inside @p fn. */
    std::int64_t
    addressOf(const Function *fn, const Instruction *instr) const
    {
        const auto &table = tables_[fnOrdinals_.at(fn)];
        return table[static_cast<std::size_t>(instr->id())];
    }

  private:
    std::unordered_map<const Function *, std::size_t> fnOrdinals_;
    std::vector<std::vector<std::int64_t>> tables_;
};

/**
 * Machine-independent decode summary of one static instruction,
 * precomputed at interning time so the cycle model never touches IR
 * data structures on the per-record path. Latency is *not* stored
 * here: it depends on the MachineConfig, so each replay prices
 * opcodes against its own machine (see CycleModel).
 */
struct StaticOp
{
    /** Control-flow classification used by the timing model. */
    enum class Kind : std::uint8_t
    {
        Plain,      ///< no control transfer.
        CondBranch, ///< conditional branch (BTB-predicted).
        Jump,       ///< unconditional jump.
        CallRet,    ///< call or return (drains interlocks).
    };

    std::int64_t addr = 0;   ///< fetch address (AddressMap).
    Opcode op = Opcode::Nop; ///< for per-machine latency pricing.
    Reg guard;               ///< invalid when unguarded.
    Reg dest;                ///< invalid when no register result.
    std::uint32_t regBegin = 0;      ///< offset into the reg pool.
    std::uint16_t srcRegCount = 0;   ///< register sources.
    std::uint16_t predDestCount = 0; ///< pred dests (after sources).
    Kind kind = Kind::Plain;
    bool isBranch = false; ///< consumes a branch issue slot.
    bool isLoad = false;
    bool isStore = false;
    bool isPredAll = false; ///< pred_clear / pred_set.
};

/**
 * The StaticOp summary of @p instr in @p fn, every field but
 * regBegin, which the interner assigns (StaticIndex::internDecoded).
 * The one derivation both capture backends intern.
 */
StaticOp staticOpOf(const Function &fn, const Instruction &instr,
                    const AddressMap &addresses);

/**
 * Append @p instr's pooled register operands to @p out, in the order
 * staticOpOf counts them: register sources, then predicate
 * destinations.
 */
void appendStaticOperands(const Instruction &instr,
                          std::vector<Reg> &out);

/**
 * Per-class exclusive register-index bounds of @p prog (Int, Float,
 * Pred), the maxima of its functions' virtual-register counters.
 */
std::array<int, 3> registerBounds(const Program &prog);

/**
 * Dense interner of (function, instruction) pairs. Mutable only
 * while a capture is producing records; read-only — and therefore
 * safely shareable across threads — once the trace is complete.
 */
class StaticIndex
{
  public:
    /** Marker for "not interned yet". */
    static constexpr std::uint32_t invalidId = 0xFFFFFFFFu;

    explicit StaticIndex(const Program &prog);

    /**
     * Rebuild a read-only index from deserialized state (the on-disk
     * artifact store). The result supports every replay-side query
     * (op/regs/size/regBound) but must never be asked to intern():
     * the per-function id tables only exist on the capture path.
     */
    StaticIndex(std::vector<StaticOp> ops, std::vector<Reg> regPool,
                std::array<int, 3> regBounds)
        : ops_(std::move(ops)), regPool_(std::move(regPool)),
          regBounds_(regBounds)
    {}

    /**
     * Empty capture-side index for the pre-decoded backend, which
     * brings its own prototypes: only internDecoded() may add ops
     * (intern() has no id tables to consult). @p regBounds must be
     * the program's registerBounds().
     */
    explicit StaticIndex(std::array<int, 3> regBounds)
        : regBounds_(regBounds)
    {}

    /**
     * Append a static op: @p proto is staticOpOf()'s summary, whose
     * regBegin this assigns, and @p regs points at its srcRegCount +
     * predDestCount register operands, which this pools. The caller
     * tracks first appearance itself — every call appends.
     * @return the new op's id.
     */
    std::uint32_t internDecoded(const StaticOp &proto,
                                const Reg *regs);

    /** Id of @p instr, interning it on first use. */
    std::uint32_t
    intern(const Function *fn, const Instruction *instr)
    {
        // Consecutive records overwhelmingly share a function; cache
        // the last table so the hot path is one vector index.
        if (fn != lastFn_) {
            lastFn_ = fn;
            lastTable_ = &idTables_[fnOrdinals_.at(fn)];
        }
        std::uint32_t &slot =
            (*lastTable_)[static_cast<std::size_t>(instr->id())];
        if (slot == invalidId)
            slot = addOp(fn, instr);
        return slot;
    }

    const StaticOp &
    op(std::uint32_t id) const
    {
        return ops_[id];
    }

    /**
     * Pooled register operands of @p op: srcRegCount source
     * registers followed by predDestCount predicate destinations.
     */
    const Reg *
    regs(const StaticOp &op) const
    {
        return regPool_.data() + op.regBegin;
    }

    /** Number of interned static instructions. */
    std::uint32_t
    size() const
    {
        return static_cast<std::uint32_t>(ops_.size());
    }

    /** All interned ops, for serialization (artifact store). */
    const std::vector<StaticOp> &ops() const { return ops_; }

    /** The shared register pool, for serialization. */
    const std::vector<Reg> &regPool() const { return regPool_; }

    /**
     * Exclusive upper bound on register indices of class @p cls
     * anywhere in the program (computed once from the per-function
     * virtual-register counters). Sizes the cycle model's flat
     * scoreboard, which indexes no register at or past it.
     */
    int
    regBound(RegClass cls) const
    {
        return regBounds_[static_cast<std::size_t>(cls)];
    }

  private:
    std::uint32_t addOp(const Function *fn, const Instruction *instr);

    AddressMap addresses_;
    std::unordered_map<const Function *, std::size_t> fnOrdinals_;
    std::vector<std::vector<std::uint32_t>> idTables_;
    std::vector<StaticOp> ops_;
    std::vector<Reg> regPool_;
    std::array<int, 3> regBounds_{};
    const Function *lastFn_ = nullptr;
    std::vector<std::uint32_t> *lastTable_ = nullptr;
};

/** TraceEntry flag bits (mirroring DynRecord). */
constexpr std::uint32_t traceNullified = 1u << 0;
constexpr std::uint32_t traceTaken = 1u << 1;
constexpr std::uint32_t traceHasMemAddr = 1u << 2;

/** Bits of a packed TraceEntry holding the static id. */
constexpr std::uint32_t traceIdBits = 29;

/** Largest static-instruction id a packed TraceEntry can hold. */
constexpr std::uint32_t traceMaxStaticId =
    (1u << traceIdBits) - 1;

inline std::uint32_t
StaticIndex::internDecoded(const StaticOp &proto, const Reg *regs)
{
    panicIf(ops_.size() > traceMaxStaticId,
            "static index overflow: more than ", traceMaxStaticId + 1,
            " static instructions cannot be packed into ",
            traceIdBits, "-bit trace entries");
    StaticOp op = proto;
    op.regBegin = static_cast<std::uint32_t>(regPool_.size());
    regPool_.insert(regPool_.end(), regs,
                    regs + op.srcRegCount + op.predDestCount);
    auto id = static_cast<std::uint32_t>(ops_.size());
    ops_.push_back(op);
    return id;
}

/**
 * One captured dynamic instruction, packed into 4 bytes: the
 * interned static id in the low 29 bits, the three dynamic flags in
 * the top 3. Construct via makeTraceEntry so out-of-range ids are
 * rejected instead of silently corrupting the flag bits.
 */
struct TraceEntry
{
    std::uint32_t packed = 0;

    /** Interned static-instruction id (low 29 bits). */
    std::uint32_t staticId() const { return packed & traceMaxStaticId; }

    /** Dynamic flags (traceNullified / traceTaken / traceHasMemAddr). */
    std::uint32_t flags() const { return packed >> traceIdBits; }
};

static_assert(std::is_trivially_copyable_v<TraceEntry> &&
                  sizeof(TraceEntry) == 4,
              "TraceEntry must stay a packed 4-byte POD");

/** Pack @p staticId and @p flags; panics when the id does not fit. */
inline TraceEntry
makeTraceEntry(std::uint32_t staticId, std::uint32_t flags)
{
    panicIf(staticId > traceMaxStaticId, "static id ", staticId,
            " exceeds the ", traceIdBits,
            "-bit packed TraceEntry limit");
    return TraceEntry{(flags << traceIdBits) | staticId};
}

// --- zigzag varint coding (memory-address side stream) ---

/** Map a signed delta to an unsigned value with small magnitudes. */
inline std::uint64_t
zigzagEncode(std::int64_t v)
{
    return (static_cast<std::uint64_t>(v) << 1) ^
           static_cast<std::uint64_t>(v >> 63);
}

/** Inverse of zigzagEncode. */
inline std::int64_t
zigzagDecode(std::uint64_t u)
{
    return static_cast<std::int64_t>(u >> 1) ^
           -static_cast<std::int64_t>(u & 1);
}

/** Append @p v to @p out as a little-endian base-128 varint. */
inline void
appendVarint(std::vector<std::uint8_t> &out, std::uint64_t v)
{
    while (v >= 0x80) {
        out.push_back(static_cast<std::uint8_t>(v) | 0x80);
        v >>= 7;
    }
    out.push_back(static_cast<std::uint8_t>(v));
}

/**
 * Decode one varint at @p p, advancing it past the last byte. Never
 * reads at or past @p end: a stream that ends mid-varint, or one
 * whose continuation bits run past the 64-bit value range, throws
 * TraceCorruptError instead of overrunning the buffer. (Trace bytes
 * can now arrive from disk, so truncation is a reachable input, not
 * an internal invariant.)
 */
inline std::uint64_t
decodeVarint(const std::uint8_t *&p, const std::uint8_t *end)
{
    std::uint64_t v = 0;
    for (int shift = 0;; shift += 7) {
        if (p == end)
            throw TraceCorruptError(
                "truncated varint: side stream ends mid-value");
        if (shift >= 64)
            throw TraceCorruptError(
                "overlong varint: continuation bits exceed 64-bit "
                "range");
        std::uint8_t byte = *p++;
        v |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
        if ((byte & 0x80) == 0)
            return v;
    }
}

/**
 * A captured dynamic trace: the interner, the packed entry stream,
 * the varint-delta memory side stream, and the functional run's
 * result. Append-only during capture; immutable afterwards.
 *
 * The side stream is split at the same boundaries as the entry
 * chunks: memory bytes of the addresses flagged inside entry chunk i
 * live in mem chunk i, so a chunk-at-a-time consumer can pre-decode
 * exactly the address run its entry span needs. Deltas chain across
 * chunk boundaries (decoding is sequential either way).
 */
class TraceBuffer
{
  public:
    /** Entries per storage chunk (64K entries = 256KiB packed). */
    static constexpr std::size_t chunkEntries = std::size_t{1} << 16;

    /**
     * One chunk of the two streams, by reference: a raw TraceEntry
     * span plus the varint bytes (and address count) of the entries
     * flagged inside it. The owned representation materializes these
     * views on demand from its vectors; a buffer adopted from the
     * artifact store points them straight into the mmap'd file, so
     * replay reads the page cache with zero deserialization copies.
     */
    struct ChunkView
    {
        const TraceEntry *entries = nullptr;
        std::size_t entryCount = 0;
        const std::uint8_t *memBytes = nullptr;
        std::size_t memSize = 0;
        std::uint32_t memCount = 0;
    };

    explicit TraceBuffer(const Program &prog) : index_(prog) {}

    /**
     * Empty owned buffer around a prebuilt index (the decoded
     * backend's capture path, which interns through internDecoded()
     * and appends through a Writer).
     */
    explicit TraceBuffer(StaticIndex index) : index_(std::move(index))
    {}

    /**
     * Adopt a deserialized trace (the artifact-store load path):
     * a rebuilt read-only StaticIndex, chunk views into externally
     * owned memory, and the functional run the capture recorded.
     * @p backing keeps that memory (typically a file mapping) alive
     * for the buffer's lifetime. The result is read-only: append()
     * panics.
     */
    TraceBuffer(StaticIndex index, std::vector<ChunkView> views,
                std::uint64_t count, RunResult run,
                std::shared_ptr<const void> backing)
        : index_(std::move(index)), views_(std::move(views)),
          mapped_(true), count_(count), run_(std::move(run)),
          backing_(std::move(backing))
    {}

    StaticIndex &index() { return index_; }
    const StaticIndex &index() const { return index_; }

    /** Append one record. @p memAddr is stored only when flagged. */
    void
    append(std::uint32_t staticId, std::uint32_t flags,
           std::int64_t memAddr)
    {
        panicIf(mapped_, "append to a read-only mapped TraceBuffer");
        if (chunks_.empty() || chunks_.back().size() == chunkEntries) {
            chunks_.emplace_back();
            chunks_.back().reserve(chunkEntries);
            memChunks_.emplace_back();
            memCounts_.push_back(0);
        }
        chunks_.back().push_back(makeTraceEntry(staticId, flags));
        count_ += 1;
        if ((flags & traceHasMemAddr) != 0) {
            appendVarint(memChunks_.back(),
                         zigzagEncode(memAddr - lastMemAddr_));
            lastMemAddr_ = memAddr;
            memCounts_.back() += 1;
        }
    }

    /** Total captured records. */
    std::uint64_t size() const { return count_; }

    /** Number of storage chunks in both streams. */
    std::size_t
    chunkCount() const
    {
        return mapped_ ? views_.size() : chunks_.size();
    }

    /** View of chunk @p i (entry span + varint bytes + count). */
    ChunkView
    chunk(std::size_t i) const
    {
        if (mapped_)
            return views_[i];
        return ChunkView{chunks_[i].data(), chunks_[i].size(),
                         memChunks_[i].data(), memChunks_[i].size(),
                         memCounts_[i]};
    }

    /** @return true when backed by an external (mmap'd) artifact. */
    bool mapped() const { return mapped_; }

    /** Approximate resident bytes of the two streams. */
    std::uint64_t
    memoryBytes() const
    {
        std::uint64_t bytes = 0;
        if (mapped_) {
            for (const ChunkView &view : views_) {
                bytes += view.entryCount * sizeof(TraceEntry) +
                         view.memSize;
            }
            return bytes;
        }
        for (const auto &chunk : chunks_)
            bytes += chunk.capacity() * sizeof(TraceEntry);
        for (const auto &chunk : memChunks_)
            bytes += chunk.capacity();
        return bytes;
    }

    /** Functional result of the capturing emulation run. */
    const RunResult &run() const { return run_; }
    void setRun(RunResult run) { run_ = std::move(run); }

    /**
     * Bulk appender for the capture hot loop. Produces byte-for-byte
     * the stream append() produces, but hands the caller a raw
     * cursor into the active entry chunk, so the per-record cost in
     * the engine is one pointer compare and a 4-byte store — no
     * vector bookkeeping. Protocol: keep `cur`/`end` locals starting
     * at nullptr; when cur == end call rollChunk() for a fresh
     * chunk-sized span; store packed entries through cur; call
     * noteMem(addr) right after storing an entry flagged
     * traceHasMemAddr; call finish(cur) once at the end to seal the
     * trailing chunk and the record count. Use on an empty owned
     * buffer only; do not mix with append().
     */
    class Writer
    {
      public:
        explicit Writer(TraceBuffer &buffer) : buffer_(buffer)
        {
            panicIf(buffer.mapped_ || buffer.count_ != 0,
                    "TraceBuffer::Writer requires an empty owned "
                    "buffer");
        }

        /**
         * Seal the previous chunk (it is exactly full by protocol)
         * and open the next one. @return the new chunk's base;
         * @p endOut gets base + chunkEntries.
         */
        TraceEntry *
        rollChunk(TraceEntry **endOut)
        {
            sealMemChunk();
            auto &chunk = buffer_.chunks_.emplace_back();
            chunk.resize(chunkEntries);
            buffer_.memChunks_.emplace_back();
            base_ = chunk.data();
            *endOut = base_ + chunkEntries;
            return base_;
        }

        /**
         * Record the address of the entry just stored. Encodes the
         * zigzag delta straight through a raw cursor (byte-identical
         * to appendVarint); the per-chunk address count stays in a
         * member until the chunk seals.
         */
        void
        noteMem(std::int64_t memAddr)
        {
            if (mend_ - mcur_ < 10) [[unlikely]]
                growMem();
            std::uint64_t v =
                zigzagEncode(memAddr - lastMemAddr_);
            lastMemAddr_ = memAddr;
            while (v >= 0x80) {
                *mcur_++ = static_cast<std::uint8_t>(v) | 0x80;
                v >>= 7;
            }
            *mcur_++ = static_cast<std::uint8_t>(v);
            memCount_ += 1;
        }

        /**
         * Seal bookkeeping the hot loop defers: shrink the trailing
         * chunk to @p cur and publish the record count.
         */
        void
        finish(TraceEntry *cur)
        {
            sealMemChunk();
            if (!buffer_.chunks_.empty()) {
                buffer_.chunks_.back().resize(
                    static_cast<std::size_t>(cur - base_));
            }
            std::uint64_t total = 0;
            for (const auto &chunk : buffer_.chunks_)
                total += chunk.size();
            buffer_.count_ = total;
            buffer_.lastMemAddr_ = lastMemAddr_;
        }

      private:
        /** Shrink the active mem chunk to its written bytes and
         * publish its address count. */
        void
        sealMemChunk()
        {
            if (!buffer_.memChunks_.empty()) {
                auto &m = buffer_.memChunks_.back();
                m.resize(mcur_ == nullptr
                             ? 0
                             : static_cast<std::size_t>(mcur_ -
                                                        m.data()));
                buffer_.memCounts_.push_back(memCount_);
            }
            mcur_ = nullptr;
            mend_ = nullptr;
            memCount_ = 0;
        }

        /** Grow the active mem chunk's backing (amortized). */
        void
        growMem()
        {
            auto &m = buffer_.memChunks_.back();
            const std::size_t used =
                mcur_ == nullptr
                    ? 0
                    : static_cast<std::size_t>(mcur_ - m.data());
            m.resize(std::max<std::size_t>(m.size() * 2, 256));
            mcur_ = m.data() + used;
            mend_ = m.data() + m.size();
        }

        TraceBuffer &buffer_;
        std::uint8_t *mcur_ = nullptr;
        std::uint8_t *mend_ = nullptr;
        TraceEntry *base_ = nullptr;
        std::int64_t lastMemAddr_ = 0;
        std::uint32_t memCount_ = 0;
    };

    /** Forward iterator over the two streams, record at a time. */
    class Cursor
    {
      public:
        explicit Cursor(const TraceBuffer &buffer) : buffer_(buffer)
        {}

        /**
         * Fetch the next record. @p memAddr is set only when the
         * entry's traceHasMemAddr flag is set.
         * @return false at end of trace.
         */
        bool
        next(TraceEntry &entry, std::int64_t &memAddr)
        {
            if (chunk_ >= buffer_.chunkCount())
                return false;
            const ChunkView view = buffer_.chunk(chunk_);
            entry = view.entries[offset_];
            if ((entry.flags() & traceHasMemAddr) != 0) {
                const std::uint8_t *p = view.memBytes + memOffset_;
                prevAddr_ += zigzagDecode(
                    decodeVarint(p, view.memBytes + view.memSize));
                memOffset_ =
                    static_cast<std::size_t>(p - view.memBytes);
                memAddr = prevAddr_;
            }
            if (++offset_ == view.entryCount) {
                chunk_ += 1;
                offset_ = 0;
                memOffset_ = 0;
            }
            return true;
        }

      private:
        const TraceBuffer &buffer_;
        std::size_t chunk_ = 0;
        std::size_t offset_ = 0;
        std::size_t memOffset_ = 0;
        std::int64_t prevAddr_ = 0;
    };

    /**
     * Chunk-at-a-time iterator for the replay hot loop: each step
     * yields one raw TraceEntry span plus that span's pre-decoded
     * absolute-address run (one address per flagged entry, in entry
     * order). The address buffer is reused between steps and is
     * valid until the next call.
     *
     * Pass decodeAddrs = false when no consumer reads memory
     * addresses (every config in the batch models perfect caches):
     * the varint side stream is skipped entirely — not even scanned —
     * and next() yields addrs == nullptr. Entry flags are untouched,
     * so pricing is bit-identical; the only observable difference is
     * that side-stream corruption goes undiagnosed on such passes.
     */
    class ChunkCursor
    {
      public:
        explicit ChunkCursor(const TraceBuffer &buffer,
                             bool decodeAddrs = true)
            : buffer_(buffer), decodeAddrs_(decodeAddrs)
        {}

        /** @return false at end of trace. */
        bool
        next(const TraceEntry *&entries, std::size_t &count,
             const std::int64_t *&addrs)
        {
            if (chunk_ >= buffer_.chunkCount())
                return false;
            const ChunkView view = buffer_.chunk(chunk_);
            entries = view.entries;
            count = view.entryCount;
            if (!decodeAddrs_) {
                addrs = nullptr;
                chunk_ += 1;
                return true;
            }
            const std::uint32_t n = view.memCount;
            addrBuf_.clear();
            addrBuf_.reserve(n);
            const std::uint8_t *p = view.memBytes;
            const std::uint8_t *end = view.memBytes + view.memSize;
            for (std::uint32_t i = 0; i < n; ++i) {
                prevAddr_ += zigzagDecode(decodeVarint(p, end));
                addrBuf_.push_back(prevAddr_);
            }
            if (p != end)
                throw TraceCorruptError(
                    "varint side stream has trailing bytes after "
                    "the chunk's declared address count");
            addrs = addrBuf_.data();
            chunk_ += 1;
            return true;
        }

      private:
        const TraceBuffer &buffer_;
        std::size_t chunk_ = 0;
        const bool decodeAddrs_;
        std::int64_t prevAddr_ = 0;
        std::vector<std::int64_t> addrBuf_;
    };

  private:
    StaticIndex index_;
    std::vector<std::vector<TraceEntry>> chunks_;
    /** Varint bytes for the addresses flagged in entry chunk i. */
    std::vector<std::vector<std::uint8_t>> memChunks_;
    /** Number of addresses encoded in mem chunk i. */
    std::vector<std::uint32_t> memCounts_;
    /** Mapped representation: chunk views into backing_'s memory. */
    std::vector<ChunkView> views_;
    bool mapped_ = false;
    std::int64_t lastMemAddr_ = 0;
    std::uint64_t count_ = 0;
    RunResult run_;
    /** Keeps externally owned (mmap'd) chunk memory alive. */
    std::shared_ptr<const void> backing_;
};

/** Pack a DynRecord's dynamic bits into TraceEntry flags. */
inline std::uint32_t
traceFlagsOf(const DynRecord &record)
{
    std::uint32_t flags = 0;
    if (record.nullified)
        flags |= traceNullified;
    if (record.taken)
        flags |= traceTaken;
    if (record.hasMemAddr)
        flags |= traceHasMemAddr;
    return flags;
}

/**
 * Emulate @p prog on @p input once, recording the dynamic trace.
 * The returned buffer is self-contained: it does not reference
 * @p prog and may outlive it. The trace bytes are identical under
 * either backend; Threaded decodes the program first (callers that
 * reuse a program across captures should hold a DecodedProgram and
 * call captureDecoded() directly — see emu/decoded.hh).
 *
 * @param maxDynInstrs emulator fuel limit.
 * @param backend functional engine to capture with.
 */
std::unique_ptr<TraceBuffer>
capture(const Program &prog, const std::string &input,
        std::uint64_t maxDynInstrs = 2'000'000'000ull,
        EmuBackend backend = defaultEmuBackend());

} // namespace predilp

#endif // PREDILP_TRACE_TRACE_HH
