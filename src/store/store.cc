#include "store/store.hh"

#include <fcntl.h>
#include <sys/file.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <span>
#include <sstream>
#include <vector>

#include "opt/pass.hh"
#include "store/sha256.hh"
#include "store/xxh64.hh"
#include "support/faultpoint.hh"
#include "support/logging.hh"
#include "support/retry.hh"

namespace predilp
{

namespace
{

namespace fs = std::filesystem;

/**
 * On-disk layout (all integers little-endian):
 *
 *   0   magic "PILPTRC1"
 *   8   u32  format version
 *   12  u32  chunk count
 *   16  u64  total file bytes (truncation check)
 *   24  u64  XXH64 (seed 0) checksum of bytes [32, fileBytes)
 *   32  meta: u64 recordCount, i64 exitValue, u64 memHash,
 *             u64 dynInstrs, u64 outputLen, u64 opsCount,
 *             u64 regPoolCount, i32 regBounds[3], u32 pad
 *   ...  chunk table: per chunk u64 entryCount, u64 memSize,
 *        u32 memCount, u32 pad
 *   ...  ops (29 bytes each), reg pool (5 bytes each), output bytes
 *   ...  u64 provenance length, provenance JSON bytes (may be empty)
 *   ...  zero padding to 8-byte file alignment
 *   ...  packed TraceEntry stream (4-byte aligned, mmap-replayable)
 *   ...  varint memory side stream
 */
constexpr char kMagic[8] = {'P', 'I', 'L', 'P', 'T', 'R', 'C', '1'};
constexpr std::size_t kHeaderBytes = 32;
constexpr std::size_t kChecksumOffset = 24;
constexpr std::size_t kOpBytes = 29;
constexpr std::size_t kRegBytes = 5;

/** A run of bytes to publish, in file order. */
using ByteSpan = std::span<const std::uint8_t>;

// --- little-endian byte writer -------------------------------------

void
putU8(std::vector<std::uint8_t> &out, std::uint8_t v)
{
    out.push_back(v);
}

void
putU16(std::vector<std::uint8_t> &out, std::uint16_t v)
{
    out.push_back(static_cast<std::uint8_t>(v));
    out.push_back(static_cast<std::uint8_t>(v >> 8));
}

void
putU32(std::vector<std::uint8_t> &out, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void
putU64(std::vector<std::uint8_t> &out, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void
putI64(std::vector<std::uint8_t> &out, std::int64_t v)
{
    putU64(out, static_cast<std::uint64_t>(v));
}

void
putI32(std::vector<std::uint8_t> &out, std::int32_t v)
{
    putU32(out, static_cast<std::uint32_t>(v));
}

void
putReg(std::vector<std::uint8_t> &out, Reg reg)
{
    putU8(out, static_cast<std::uint8_t>(reg.cls()));
    putI32(out, reg.idx());
}

// --- bounds-checked little-endian reader ---------------------------

struct Reader
{
    const std::uint8_t *p;
    const std::uint8_t *end;

    std::size_t remaining() const
    {
        return static_cast<std::size_t>(end - p);
    }

    void
    need(std::size_t n) const
    {
        if (n > remaining())
            throw TraceCorruptError(
                "artifact section overruns the file");
    }

    std::uint8_t
    u8()
    {
        need(1);
        return *p++;
    }

    std::uint16_t
    u16()
    {
        need(2);
        std::uint16_t v = static_cast<std::uint16_t>(
            p[0] | (std::uint16_t{p[1]} << 8));
        p += 2;
        return v;
    }

    std::uint32_t
    u32()
    {
        need(4);
        std::uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= std::uint32_t{p[i]} << (8 * i);
        p += 4;
        return v;
    }

    std::uint64_t
    u64()
    {
        need(8);
        std::uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= std::uint64_t{p[i]} << (8 * i);
        p += 8;
        return v;
    }

    std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
    std::int32_t i32() { return static_cast<std::int32_t>(u32()); }

    /**
     * A register below its class's entry in @p bounds (the one range
     * replay's scoreboard can index), or the invalid register.
     */
    Reg
    reg(const std::array<int, 3> &bounds)
    {
        std::uint8_t cls = u8();
        std::int32_t idx = i32();
        if (cls > 2 || idx < -1 || idx >= bounds[cls])
            throw TraceCorruptError("artifact register out of range");
        if (idx < 0)
            return Reg();
        return Reg(static_cast<RegClass>(cls), idx);
    }
};

/** Fully parsed + validated artifact, referencing the mapped bytes. */
struct ParsedArtifact
{
    std::uint64_t recordCount = 0;
    RunResult run;
    std::array<int, 3> regBounds{};
    std::vector<StaticOp> ops;
    std::vector<Reg> regPool;
    std::vector<TraceBuffer::ChunkView> views;
    ArtifactInfo info;
};

/**
 * Validate every byte-level property of the artifact at @p data and
 * decode the metadata sections. Throws TraceCorruptError on any
 * mismatch; the entry/varint streams are left in place (zero-copy).
 */
ParsedArtifact
parseArtifact(const std::uint8_t *data, std::size_t size)
{
    if (size < kHeaderBytes)
        throw TraceCorruptError("artifact shorter than its header");
    if (std::memcmp(data, kMagic, sizeof(kMagic)) != 0)
        throw TraceCorruptError("artifact magic mismatch");

    Reader header{data + sizeof(kMagic), data + kHeaderBytes};
    const std::uint32_t version = header.u32();
    const std::uint32_t chunkCount = header.u32();
    const std::uint64_t fileBytes = header.u64();
    const std::uint64_t checksum = header.u64();
    if (version != ArtifactStore::formatVersion)
        throw TraceCorruptError("artifact format version mismatch");
    if (fileBytes != size)
        throw TraceCorruptError("artifact length mismatch");
    if (chunkCount > (1u << 20))
        throw TraceCorruptError("artifact chunk count implausible");
    if (xxh64(data + kHeaderBytes, size - kHeaderBytes) != checksum)
        throw TraceCorruptError("artifact checksum mismatch");

    ParsedArtifact parsed;
    Reader r{data + kHeaderBytes, data + size};
    parsed.recordCount = r.u64();
    parsed.run.exitValue = r.i64();
    parsed.run.memHash = r.u64();
    parsed.run.dynInstrs = r.u64();
    const std::uint64_t outputLen = r.u64();
    const std::uint64_t opsCount = r.u64();
    const std::uint64_t regPoolCount = r.u64();
    for (int &bound : parsed.regBounds) {
        bound = r.i32();
        if (bound < 0)
            throw TraceCorruptError("artifact register bound negative");
    }
    r.u32(); // pad

    if (opsCount > traceMaxStaticId + 1ull)
        throw TraceCorruptError("artifact ops count implausible");

    struct ChunkMeta
    {
        std::uint64_t entryCount;
        std::uint64_t memSize;
        std::uint32_t memCount;
    };
    std::vector<ChunkMeta> chunkMeta(chunkCount);
    std::uint64_t totalEntries = 0;
    std::uint64_t totalMemBytes = 0;
    for (ChunkMeta &meta : chunkMeta) {
        meta.entryCount = r.u64();
        meta.memSize = r.u64();
        meta.memCount = r.u32();
        r.u32(); // pad
        if (meta.entryCount > TraceBuffer::chunkEntries ||
            meta.memCount > meta.entryCount)
            throw TraceCorruptError(
                "artifact chunk table entry out of range");
        totalEntries += meta.entryCount;
        totalMemBytes += meta.memSize;
    }
    if (totalEntries != parsed.recordCount)
        throw TraceCorruptError(
            "artifact record count disagrees with chunk table");

    // Size each table from the bytes that hold it before allocating:
    // a checksum-valid header may still declare more than the file.
    if (opsCount > r.remaining() / kOpBytes)
        throw TraceCorruptError("artifact ops table overruns the file");
    parsed.ops.resize(opsCount);
    for (StaticOp &op : parsed.ops) {
        op.addr = r.i64();
        op.regBegin = r.u32();
        op.srcRegCount = r.u16();
        op.predDestCount = r.u16();
        // Nop is the last opcode; replay indexes the opcode table.
        std::uint8_t opcode = r.u8();
        if (opcode > static_cast<std::uint8_t>(Opcode::Nop))
            throw TraceCorruptError("artifact opcode out of range");
        op.op = static_cast<Opcode>(opcode);
        std::uint8_t kind = r.u8();
        if (kind > static_cast<std::uint8_t>(
                       StaticOp::Kind::CallRet))
            throw TraceCorruptError("artifact op kind out of range");
        op.kind = static_cast<StaticOp::Kind>(kind);
        std::uint8_t flags = r.u8();
        op.isBranch = (flags & 1) != 0;
        op.isLoad = (flags & 2) != 0;
        op.isStore = (flags & 4) != 0;
        op.isPredAll = (flags & 8) != 0;
        op.guard = r.reg(parsed.regBounds);
        op.dest = r.reg(parsed.regBounds);
        if (std::uint64_t{op.regBegin} + op.srcRegCount +
                op.predDestCount >
            regPoolCount)
            throw TraceCorruptError(
                "artifact op register range overruns the pool");
    }

    if (regPoolCount > r.remaining() / kRegBytes)
        throw TraceCorruptError(
            "artifact register pool overruns the file");
    parsed.regPool.resize(regPoolCount);
    for (Reg &reg : parsed.regPool) {
        reg = r.reg(parsed.regBounds);
        if (!reg.valid())
            throw TraceCorruptError(
                "artifact register pool holds no register");
    }

    r.need(outputLen);
    parsed.run.output.assign(reinterpret_cast<const char *>(r.p),
                             outputLen);
    r.p += outputLen;

    const std::uint64_t provenanceLen = r.u64();
    r.need(provenanceLen);
    const auto provenanceOffset = static_cast<std::size_t>(r.p - data);
    r.p += provenanceLen;

    // Zero padding to the 8-byte-aligned entry stream.
    std::size_t consumed = static_cast<std::size_t>(r.p - data);
    std::size_t entriesOffset = (consumed + 7) & ~std::size_t{7};
    r.need(entriesOffset - consumed);
    r.p = data + entriesOffset;
    r.need(totalEntries * sizeof(TraceEntry));
    r.need(totalEntries * sizeof(TraceEntry) + totalMemBytes);
    if (entriesOffset + totalEntries * sizeof(TraceEntry) +
            totalMemBytes !=
        size)
        throw TraceCorruptError("artifact has trailing bytes");

    const auto *entries =
        reinterpret_cast<const TraceEntry *>(data + entriesOffset);
    const std::uint8_t *mem = data + entriesOffset +
                              totalEntries * sizeof(TraceEntry);
    parsed.views.reserve(chunkCount);
    for (const ChunkMeta &meta : chunkMeta) {
        TraceBuffer::ChunkView view;
        view.entries = entries;
        view.entryCount = static_cast<std::size_t>(meta.entryCount);
        view.memBytes = mem;
        view.memSize = static_cast<std::size_t>(meta.memSize);
        view.memCount = meta.memCount;
        entries += meta.entryCount;
        mem += meta.memSize;
        parsed.views.push_back(view);
    }

    parsed.info.version = version;
    parsed.info.records = parsed.recordCount;
    parsed.info.fileBytes = size;
    parsed.info.checksumOffset = kChecksumOffset;
    parsed.info.provenanceOffset = provenanceOffset;
    parsed.info.provenanceBytes =
        static_cast<std::size_t>(provenanceLen);
    parsed.info.entriesOffset = entriesOffset;
    parsed.info.entriesBytes =
        static_cast<std::size_t>(totalEntries * sizeof(TraceEntry));
    parsed.info.memOffset =
        entriesOffset + parsed.info.entriesBytes;
    parsed.info.memBytes = static_cast<std::size_t>(totalMemBytes);
    return parsed;
}

/**
 * One artifact's on-disk image as a gather list: the serialized
 * head (header through the padding before the entry stream), then
 * the entry and varint streams as spans straight into the buffer's
 * chunks, so publishing copies no trace bytes.
 */
struct ArtifactImage
{
    ArtifactImage() = default;
    ArtifactImage(ArtifactImage &&) = default;
    /** A copy's first span would still point into the original. */
    ArtifactImage(const ArtifactImage &) = delete;

    std::vector<std::uint8_t> head;
    /** head, then every entry chunk, then every varint chunk. */
    std::vector<ByteSpan> spans;
    /** Total bytes of the spans: the file's length. */
    std::size_t fileBytes = 0;
};

/** Serialize @p buffer and its @p provenance section into the
 * on-disk artifact image; the spans borrow @p buffer's chunks. */
ArtifactImage
serializeArtifact(const TraceBuffer &buffer,
                  const std::string &provenance)
{
    const StaticIndex &index = buffer.index();
    ArtifactImage image;
    std::vector<std::uint8_t> &out = image.head;
    const std::size_t chunkCount = buffer.chunkCount();
    out.reserve(kHeaderBytes + 128 + chunkCount * 24 +
                index.ops().size() * kOpBytes +
                index.regPool().size() * kRegBytes +
                buffer.run().output.size() + provenance.size());

    for (char c : kMagic)
        out.push_back(static_cast<std::uint8_t>(c));
    putU32(out, ArtifactStore::formatVersion);
    putU32(out, static_cast<std::uint32_t>(chunkCount));
    putU64(out, 0); // fileBytes, patched below.
    putU64(out, 0); // checksum, patched below.

    putU64(out, buffer.size());
    putI64(out, buffer.run().exitValue);
    putU64(out, buffer.run().memHash);
    putU64(out, buffer.run().dynInstrs);
    putU64(out, buffer.run().output.size());
    putU64(out, index.ops().size());
    putU64(out, index.regPool().size());
    for (RegClass cls :
         {RegClass::Int, RegClass::Float, RegClass::Pred})
        putI32(out, index.regBound(cls));
    putU32(out, 0); // pad

    for (std::size_t i = 0; i < chunkCount; ++i) {
        TraceBuffer::ChunkView view = buffer.chunk(i);
        putU64(out, view.entryCount);
        putU64(out, view.memSize);
        putU32(out, view.memCount);
        putU32(out, 0); // pad
    }

    for (const StaticOp &op : index.ops()) {
        putI64(out, op.addr);
        putU32(out, op.regBegin);
        putU16(out, op.srcRegCount);
        putU16(out, op.predDestCount);
        putU8(out, static_cast<std::uint8_t>(op.op));
        putU8(out, static_cast<std::uint8_t>(op.kind));
        std::uint8_t flags = 0;
        if (op.isBranch)
            flags |= 1;
        if (op.isLoad)
            flags |= 2;
        if (op.isStore)
            flags |= 4;
        if (op.isPredAll)
            flags |= 8;
        putU8(out, flags);
        putReg(out, op.guard);
        putReg(out, op.dest);
    }

    for (Reg reg : index.regPool())
        putReg(out, reg);

    for (char c : buffer.run().output)
        out.push_back(static_cast<std::uint8_t>(c));

    putU64(out, provenance.size());
    for (char c : provenance)
        out.push_back(static_cast<std::uint8_t>(c));

    while (out.size() % 8 != 0)
        out.push_back(0);

    image.spans.emplace_back(out);
    for (std::size_t i = 0; i < chunkCount; ++i) {
        TraceBuffer::ChunkView view = buffer.chunk(i);
        image.spans.emplace_back(
            reinterpret_cast<const std::uint8_t *>(view.entries),
            view.entryCount * sizeof(TraceEntry));
    }
    for (std::size_t i = 0; i < chunkCount; ++i) {
        TraceBuffer::ChunkView view = buffer.chunk(i);
        image.spans.emplace_back(view.memBytes, view.memSize);
    }

    // Patch the length and the payload checksum: the same spans, in
    // file order, from byte kHeaderBytes on.
    for (ByteSpan span : image.spans)
        image.fileBytes += span.size();
    Xxh64 checksum;
    checksum.update(out.data() + kHeaderBytes, out.size() - kHeaderBytes);
    for (ByteSpan span : std::span(image.spans).subspan(1))
        checksum.update(span.data(), span.size());
    std::vector<std::uint8_t> patch;
    putU64(patch, image.fileBytes);
    putU64(patch, checksum.digest());
    std::memcpy(out.data() + 16, patch.data(), 16);
    return image;
}

/** The first @p bytes of the image @p spans lays out. */
std::vector<ByteSpan>
prefixOf(const std::vector<ByteSpan> &spans, std::size_t bytes)
{
    std::vector<ByteSpan> prefix;
    for (ByteSpan span : spans) {
        if (bytes == 0)
            break;
        const std::size_t take = std::min(bytes, span.size());
        prefix.push_back(span.first(take));
        bytes -= take;
    }
    return prefix;
}

/** RAII read-only file mapping: the loaded buffer's backing. */
class MappedFile
{
  public:
    MappedFile(void *data, std::size_t size)
        : data_(data), size_(size)
    {}

    ~MappedFile()
    {
        if (data_ != nullptr)
            ::munmap(data_, size_);
    }

    MappedFile(const MappedFile &) = delete;
    MappedFile &operator=(const MappedFile &) = delete;

    const std::uint8_t *
    bytes() const
    {
        return static_cast<const std::uint8_t *>(data_);
    }

    std::size_t size() const { return size_; }

  private:
    void *data_;
    std::size_t size_;
};

/** Map @p path read-only; nullptr when absent or unmappable. */
std::shared_ptr<MappedFile>
mapFile(const std::string &path, bool &exists)
{
    // EINTR on open is a hiccup, not a cold artifact: retry with
    // backoff before reporting a miss.
    int fd = -1;
    if (!retryIo([&] {
            fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
            return fd >= 0;
        })) {
        exists = errno != ENOENT;
        return nullptr;
    }
    exists = true;
    if (faultpoints::poll("store.load.mmap") !=
        faultpoints::FaultAction::None) {
        // Injected mapping failure: behave exactly as if the kernel
        // rejected the mmap — present-but-unmappable, which the
        // caller quarantines and recomputes.
        ::close(fd);
        return nullptr;
    }
    struct stat st{};
    if (::fstat(fd, &st) != 0 || st.st_size <= 0) {
        ::close(fd);
        return nullptr;
    }
    const auto size = static_cast<std::size_t>(st.st_size);
    void *data = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
    ::close(fd);
    if (data == MAP_FAILED)
        return nullptr;
    return std::make_shared<MappedFile>(data, size);
}

/**
 * Advisory whole-store lock, held only around the final rename (and
 * quarantine moves) so concurrent writers publish one at a time.
 */
class StoreLock
{
  public:
    explicit StoreLock(const std::string &dir)
    {
        std::string path = dir + "/.lock";
        fd_ = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC,
                     0644);
        if (fd_ >= 0 && ::flock(fd_, LOCK_EX) != 0) {
            ::close(fd_);
            fd_ = -1;
        }
    }

    ~StoreLock()
    {
        if (fd_ >= 0) {
            ::flock(fd_, LOCK_UN);
            ::close(fd_);
        }
    }

    StoreLock(const StoreLock &) = delete;
    StoreLock &operator=(const StoreLock &) = delete;

    bool held() const { return fd_ >= 0; }

  private:
    int fd_ = -1;
};

std::atomic<std::uint64_t> tempSeq{0};

/**
 * Write all @p size bytes to @p fd, retrying transient errno
 * (EINTR/EAGAIN) with bounded backoff and resuming after partial
 * writes. @return false (errno set) on a non-transient failure or
 * exhausted retries.
 */
bool
writeAll(int fd, const std::uint8_t *data, std::size_t size)
{
    std::size_t done = 0;
    while (done < size) {
        ssize_t n = -1;
        if (!retryIo([&] {
                n = ::write(fd, data + done, size - done);
                return n >= 0;
            })) {
            return false;
        }
        done += static_cast<std::size_t>(n);
    }
    return true;
}

/**
 * Stage the bytes of @p spans, in order, at a temp sibling of
 * @p path (POSIX write + fsync via retryIo), then atomically rename
 * into place under the store lock of @p dir. The one publish
 * primitive every durable store file — trace artifact, certified
 * record — goes through. A non-null @p renamePoint is polled
 * between staging and rename.
 */
bool
publishBytesAtomically(const std::string &dir,
                       const std::string &path,
                       const std::vector<ByteSpan> &spans,
                       const char *renamePoint = nullptr)
{
    std::error_code ec;
    const std::string temp =
        path + ".tmp." + std::to_string(::getpid()) + "." +
        std::to_string(
            tempSeq.fetch_add(1, std::memory_order_relaxed));
    int fd = -1;
    if (!retryIo([&] {
            fd = ::open(temp.c_str(),
                        O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                        0644);
            return fd >= 0;
        })) {
        return false;
    }
    bool staged = std::all_of(spans.begin(), spans.end(),
                              [fd](ByteSpan span) {
                                  return writeAll(fd, span.data(),
                                                  span.size());
                              });
    // Flush before publish: rename must never expose a file the
    // kernel could still lose the tail of on a crash.
    if (staged)
        staged = retryIo([&] { return ::fsync(fd) == 0; });
    ::close(fd);
    // Crash here (via the fault point) dies with the staged temp on
    // disk but the canonical path untouched — the exact mid-publish
    // window the GC and retrying readers must tolerate.
    if (!staged || (renamePoint != nullptr &&
                    faultpoints::poll(renamePoint) !=
                        faultpoints::FaultAction::None)) {
        fs::remove(temp, ec);
        return false;
    }
    bool renamed = false;
    {
        StoreLock lock(dir);
        renamed = retryIo(
            [&] { return ::rename(temp.c_str(), path.c_str()) == 0; });
    }
    if (!renamed) {
        fs::remove(temp, ec);
        return false;
    }
    return true;
}

} // namespace

JsonValue
sealRecord(const JsonValue &record)
{
    std::vector<std::pair<std::string, JsonValue>> members;
    if (record.isObject()) {
        for (const auto &[key, value] : record.members())
            if (key != "checksum")
                members.emplace_back(key, value);
    }
    const std::string body =
        JsonValue::makeObject(members).dump();
    members.emplace_back(
        "checksum",
        JsonValue::makeString("sha256:" + sha256Hex(body)));
    return JsonValue::makeObject(std::move(members));
}

bool
sealedRecordValid(const JsonValue &record)
{
    if (!record.isObject())
        return false;
    const JsonValue *checksum = record.find("checksum");
    if (checksum == nullptr ||
        checksum->kind() != JsonValue::Kind::String)
        return false;
    std::vector<std::pair<std::string, JsonValue>> members;
    for (const auto &[key, value] : record.members())
        if (key != "checksum")
            members.emplace_back(key, value);
    const std::string body =
        JsonValue::makeObject(std::move(members)).dump();
    return checksum->asString() == "sha256:" + sha256Hex(body);
}

std::optional<JsonValue>
readSealedJson(const std::string &path, bool *present)
{
    std::ifstream in(path, std::ios::binary);
    if (present != nullptr)
        *present = static_cast<bool>(in);
    if (!in)
        return std::nullopt;
    std::ostringstream text;
    text << in.rdbuf();
    try {
        JsonValue doc = JsonValue::parse(text.str());
        if (sealedRecordValid(doc))
            return doc;
    } catch (const std::exception &) {
        // Torn or truncated record: treated as absent, never served.
    }
    return std::nullopt;
}

ArtifactStore::ArtifactStore(std::string dir, StoreMode mode)
    : dir_(std::move(dir))
{
    panicIf(mode == StoreMode::Off,
            "ArtifactStore constructed with StoreMode::Off");
    panicIf(dir_.empty(), "ArtifactStore needs a directory");
    std::error_code ec;
    fs::create_directories(fs::path(dir_) / "objects", ec);
}

std::string
ArtifactStore::keyFor(const std::string &sourceBytes,
                      const std::string &cellKey)
{
    Sha256 h;
    // Length-prefix each field so (ab, c) never collides with
    // (a, bc).
    auto field = [&h](const std::string &bytes) {
        std::uint64_t len = bytes.size();
        std::uint8_t lenBytes[8];
        for (int i = 0; i < 8; ++i)
            lenBytes[i] = static_cast<std::uint8_t>(len >> (8 * i));
        h.update(lenBytes, 8);
        h.update(bytes);
    };
    field(sourceBytes);
    field(cellKey);
    field(std::to_string(formatVersion));
    field(compilerEpoch);
    return h.hex();
}

std::string
ArtifactStore::objectPath(const std::string &key) const
{
    // Two-level fan-out keeps directory listings short.
    return dir_ + "/objects/" + key.substr(0, 2) + "/" + key +
           ".trc";
}

std::shared_ptr<const TraceBuffer>
ArtifactStore::load(const std::string &key)
{
    const std::string path = objectPath(key);
    bool exists = false;
    std::shared_ptr<MappedFile> mapping = mapFile(path, exists);
    if (mapping == nullptr) {
        misses_.fetch_add(1, std::memory_order_relaxed);
        if (exists) {
            // Present but unreadable/empty: corrupt, not cold.
            repairs_.fetch_add(1, std::memory_order_relaxed);
            quarantine(path);
        }
        return nullptr;
    }
    try {
        if (faultpoints::poll("store.load.validate") !=
            faultpoints::FaultAction::None) {
            // Injected validation failure takes the same exit as a
            // checksum mismatch, so quarantine-and-recompute runs
            // against a byte-perfect artifact on demand.
            throw TraceCorruptError(
                "injected fault at store.load.validate");
        }
        ParsedArtifact parsed =
            parseArtifact(mapping->bytes(), mapping->size());
        StaticIndex index(std::move(parsed.ops),
                          std::move(parsed.regPool),
                          parsed.regBounds);
        auto buffer = std::make_shared<TraceBuffer>(
            std::move(index), std::move(parsed.views),
            parsed.recordCount, std::move(parsed.run), mapping);
        hits_.fetch_add(1, std::memory_order_relaxed);
        bytesMapped_.fetch_add(mapping->size(),
                               std::memory_order_relaxed);
        // Touch the artifact so the GC's LRU sweep sees use.
        std::error_code ec;
        fs::last_write_time(path, fs::file_time_type::clock::now(), ec);
        return buffer;
    } catch (const TraceCorruptError &) {
        misses_.fetch_add(1, std::memory_order_relaxed);
        repairs_.fetch_add(1, std::memory_order_relaxed);
        quarantine(path);
        return nullptr;
    }
}

bool
ArtifactStore::save(const std::string &key,
                    const TraceBuffer &buffer,
                    const std::string &provenanceJson)
{
    const std::string path = objectPath(key);
    std::error_code ec;
    fs::create_directories(fs::path(path).parent_path(), ec);
    if (ec)
        return false;

    // The provenance section rides inside the checksummed payload, so
    // one publish makes trace and provenance durable together and a
    // torn write condemns both on load.
    const ArtifactImage image =
        serializeArtifact(buffer, provenanceJson);
    // A torn write publishes the first half of the image, which the
    // loader must catch on length or checksum; a thrown write
    // degrades to a cold cache.
    std::vector<ByteSpan> publish = image.spans;
    switch (faultpoints::poll("store.publish.write")) {
      case faultpoints::FaultAction::ShortWrite:
        publish = prefixOf(image.spans, image.fileBytes / 2);
        break;
      case faultpoints::FaultAction::Throw:
        return false;
      default:
        break;
    }
    if (!publishBytesAtomically(dir_, path, publish,
                                "store.publish.rename"))
        return false;
    writes_.fetch_add(1, std::memory_order_relaxed);
    return true;
}

std::string
ArtifactStore::loadProvenance(const std::string &key) const
{
    bool exists = false;
    std::shared_ptr<MappedFile> mapping =
        mapFile(objectPath(key), exists);
    if (mapping == nullptr)
        return "";
    try {
        const ArtifactInfo info =
            parseArtifact(mapping->bytes(), mapping->size()).info;
        return std::string(reinterpret_cast<const char *>(
                               mapping->bytes() + info.provenanceOffset),
                           info.provenanceBytes);
    } catch (const TraceCorruptError &) {
        return "";
    }
}

void
ArtifactStore::quarantine(const std::string &path) const
{
    // Never trust — and never re-read — a corrupt artifact.
    std::error_code ec;
    fs::path qdir = fs::path(dir_) / "quarantine";
    fs::create_directories(qdir, ec);
    if (ec)
        return;
    std::string name =
        fs::path(path).filename().string() + "." +
        std::to_string(::getpid()) + "." +
        std::to_string(
            tempSeq.fetch_add(1, std::memory_order_relaxed)) +
        ".bad";
    StoreLock lock(dir_);
    fs::rename(path, qdir / name, ec);
    if (ec)
        fs::remove(path, ec); // last resort: drop it.
}

std::string
ArtifactStore::resultPath(const std::string &key) const
{
    // Same two-level fan-out as objects/, separate root so trace GC
    // (which evicts *.trc by size) never competes with the small
    // certified records.
    return dir_ + "/results/" + key.substr(0, 2) + "/" + key +
           ".cert.json";
}

bool
ArtifactStore::saveResult(const std::string &key,
                          const JsonValue &record)
{
    const std::string path = resultPath(key);
    std::error_code ec;
    fs::create_directories(fs::path(path).parent_path(), ec);
    if (ec)
        return false;
    const std::string payload = sealRecord(record).dump() + "\n";
    // A torn record fails its seal on read and is re-published by
    // the next evaluation of the same cell; a thrown publish just
    // skips the record.
    std::size_t publishBytes = payload.size();
    switch (faultpoints::poll("store.publish.result")) {
      case faultpoints::FaultAction::ShortWrite:
        publishBytes /= 2;
        break;
      case faultpoints::FaultAction::Throw:
        return false;
      default:
        break;
    }
    return publishBytesAtomically(
        dir_, path,
        {ByteSpan(reinterpret_cast<const std::uint8_t *>(payload.data()),
                  publishBytes)});
}

std::optional<JsonValue>
ArtifactStore::loadResult(const std::string &key, bool *present) const
{
    bool found = false;
    std::optional<JsonValue> record =
        readSealedJson(resultPath(key), &found);
    if (present != nullptr)
        *present = found;
    // An injected fault refuses a readable record, so the caller's
    // replay-and-republish path runs against a perfect record on
    // demand.
    if (found && faultpoints::poll("store.load.result") !=
                     faultpoints::FaultAction::None)
        return std::nullopt;
    return record;
}

StatsSnapshot
ArtifactStore::stats() const
{
    StatsSnapshot s;
    s.setCounter("store.hit", hits());
    s.setCounter("store.miss", misses());
    s.setCounter("store.repair", repairs());
    s.setCounter("store.write", writes());
    s.setCounter("store.bytes_mapped", bytesMapped());
    return s;
}

std::optional<ArtifactInfo>
inspectArtifact(const std::string &path)
{
    bool exists = false;
    std::shared_ptr<MappedFile> mapping = mapFile(path, exists);
    if (mapping == nullptr)
        return std::nullopt;
    try {
        return parseArtifact(mapping->bytes(), mapping->size())
            .info;
    } catch (const TraceCorruptError &) {
        return std::nullopt;
    }
}

} // namespace predilp
