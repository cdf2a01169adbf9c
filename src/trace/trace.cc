#include "trace/trace.hh"

#include <malloc.h>

#include <algorithm>

#include "emu/decoded.hh"
#include "support/logging.hh"

namespace predilp
{

namespace
{

/**
 * Pin glibc's mmap threshold at one entry chunk, so each owned chunk
 * is its own mapping and freeing a trace unmaps its chunks. Left
 * dynamic, the threshold rises past a chunk's size the first time a
 * mapped chunk is freed; later chunks then come from the malloc
 * arenas, which fragment and keep released traces' memory.
 */
[[maybe_unused]] const bool mmapThresholdPinned =
    ::mallopt(M_MMAP_THRESHOLD,
              static_cast<int>(TraceBuffer::chunkEntries *
                               sizeof(TraceEntry))) == 1;

} // namespace

AddressMap::AddressMap(const Program &prog)
{
    std::int64_t addr = 0x1000;
    tables_.reserve(prog.functions().size());
    for (const auto &fn : prog.functions()) {
        fnOrdinals_.emplace(fn.get(), tables_.size());
        auto &table = tables_.emplace_back();
        table.assign(
            static_cast<std::size_t>(fn->instrIdBound()), -1);
        for (BlockId id : fn->layout()) {
            for (const auto &instr : fn->block(id)->instrs()) {
                table[static_cast<std::size_t>(instr.id())] = addr;
                addr += 4;
            }
        }
        addr = (addr + 63) & ~std::int64_t{63}; // align functions.
    }
}

StaticIndex::StaticIndex(const Program &prog) : addresses_(prog)
{
    idTables_.reserve(prog.functions().size());
    for (const auto &fn : prog.functions()) {
        fnOrdinals_.emplace(fn.get(), idTables_.size());
        idTables_.emplace_back(
            static_cast<std::size_t>(fn->instrIdBound()), invalidId);
        auto bound = [this](RegClass cls, int n) {
            auto i = static_cast<std::size_t>(cls);
            regBounds_[i] = std::max(regBounds_[i], n);
        };
        bound(RegClass::Int, fn->numIntRegs());
        bound(RegClass::Float, fn->numFloatRegs());
        bound(RegClass::Pred, fn->numPredRegs());
    }
}

std::uint32_t
StaticIndex::addOp(const Function *fn, const Instruction *instr)
{
    panicIf(ops_.size() > traceMaxStaticId,
            "static index overflow: more than ", traceMaxStaticId + 1,
            " static instructions cannot be packed into ",
            traceIdBits, "-bit trace entries");
    StaticOp op;
    op.addr = addresses_.addressOf(fn, instr);
    op.op = instr->op();
    op.guard = instr->guard();
    op.dest = instr->dest();
    op.regBegin = static_cast<std::uint32_t>(regPool_.size());
    for (const auto &src : instr->srcs()) {
        if (src.isReg())
            regPool_.push_back(src.reg());
    }
    op.srcRegCount = static_cast<std::uint16_t>(
        regPool_.size() - op.regBegin);
    for (const auto &pd : instr->predDests())
        regPool_.push_back(pd.reg);
    op.predDestCount = static_cast<std::uint16_t>(
        regPool_.size() - op.regBegin - op.srcRegCount);
    op.isBranch = instr->isControlTransfer() || instr->isCall();
    op.isLoad = instr->isLoad();
    op.isStore = instr->isStore();
    op.isPredAll = instr->isPredAll();
    if (instr->isCondBranch())
        op.kind = StaticOp::Kind::CondBranch;
    else if (instr->isJump())
        op.kind = StaticOp::Kind::Jump;
    else if (instr->isCall() || instr->isRet())
        op.kind = StaticOp::Kind::CallRet;
    auto id = static_cast<std::uint32_t>(ops_.size());
    ops_.push_back(op);
    return id;
}

namespace
{

/** TraceSink that interns and appends every record. */
class Recorder : public TraceSink
{
  public:
    explicit Recorder(TraceBuffer &buffer) : buffer_(buffer) {}

    void
    onInstr(const DynRecord &record) override
    {
        std::uint32_t id =
            buffer_.index().intern(record.fn, record.instr);
        buffer_.append(id, traceFlagsOf(record), record.memAddr);
    }

  private:
    TraceBuffer &buffer_;
};

} // namespace

std::unique_ptr<TraceBuffer>
capture(const Program &prog, const std::string &input,
        std::uint64_t maxDynInstrs, EmuBackend backend)
{
    if (backend == EmuBackend::Threaded) {
        DecodedProgram decoded(prog);
        return captureDecoded(decoded, input, maxDynInstrs);
    }
    auto buffer = std::make_unique<TraceBuffer>(prog);
    Recorder recorder(*buffer);
    EmuOptions opts;
    opts.sink = &recorder;
    opts.maxDynInstrs = maxDynInstrs;
    opts.backend = EmuBackend::Interp;
    Emulator emu(prog);
    buffer->setRun(emu.run(input, opts));
    return buffer;
}

} // namespace predilp
