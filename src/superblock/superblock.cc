#include "superblock/superblock.hh"

#include <algorithm>
#include <map>
#include <set>

#include "analysis/cfg.hh"
#include "support/logging.hh"

namespace predilp
{

namespace
{

/** Minimum execution count for a block to seed or join a trace. */
constexpr std::uint64_t minCount = 32;

/** Minimum branch probability to extend a trace along an edge. */
constexpr double minProb = 0.6;

/** Maximum blocks per trace. */
constexpr std::size_t maxTraceBlocks = 24;

/** Maximum instructions per formed superblock. */
constexpr std::size_t maxTraceInstrs = 256;

/** One outgoing edge of a block, with its estimated dynamic count. */
struct EdgeCount
{
    BlockId target = invalidBlock;
    std::uint64_t count = 0;
};

/**
 * Estimate per-edge execution counts of @p bb from the profile: a
 * conditional branch's edge count is its taken count; the terminal
 * edge (unguarded jump or fallthrough) gets the remaining weight.
 */
std::vector<EdgeCount>
edgeCounts(const FunctionProfile &profile, const BasicBlock &bb)
{
    std::vector<EdgeCount> edges;
    std::uint64_t remaining = profile.blockCount(bb.id());
    for (const auto &instr : bb.instrs()) {
        if (instr.isCondBranch() ||
            (instr.isJump() && instr.guarded())) {
            std::uint64_t taken = profile.takenCount(instr.id());
            taken = std::min(taken, remaining);
            edges.push_back(EdgeCount{instr.target(), taken});
            remaining -= taken;
        } else if (instr.isJump()) {
            edges.push_back(EdgeCount{instr.target(), remaining});
            return edges;
        } else if (instr.isRet()) {
            return edges;
        }
    }
    if (bb.fallthrough() != invalidBlock)
        edges.push_back(EdgeCount{bb.fallthrough(), remaining});
    return edges;
}

/** Trace selection and formation for one function. */
class SuperblockFormer
{
  public:
    SuperblockFormer(Function &fn, const FunctionProfile &profile)
        : fn_(fn), profile_(profile)
    {}

    SuperblockStats
    run()
    {
        computeBestEdges();
        std::vector<BlockId> seeds = fn_.layout();
        std::stable_sort(seeds.begin(), seeds.end(),
                         [&](BlockId a, BlockId b) {
                             return profile_.blockCount(a) >
                                    profile_.blockCount(b);
                         });

        std::vector<std::vector<BlockId>> traces;
        for (BlockId seed : seeds) {
            if (visited_.count(seed) != 0)
                continue;
            if (profile_.blockCount(seed) < minCount)
                continue;
            traces.push_back(growTrace(seed));
        }

        for (auto &trace : traces) {
            if (trace.size() >= 2)
                formOne(trace);
        }
        fn_.pruneUnreachable();
        return stats_;
    }

  private:
    void
    computeBestEdges()
    {
        // Most likely successor of each block, and the heaviest
        // predecessor edge of each block (for the mutual-most-likely
        // test that keeps traces from swallowing merge points).
        bestSucc_.assign(fn_.numBlockIds(), invalidBlock);
        bestPred_.assign(fn_.numBlockIds(), invalidBlock);
        std::vector<std::uint64_t> bestPredCount(fn_.numBlockIds(),
                                                 0);

        for (BlockId id : fn_.layout()) {
            const BasicBlock *bb = fn_.block(id);
            std::uint64_t weight = profile_.blockCount(id);
            auto edges = edgeCounts(profile_, *bb);

            EdgeCount best;
            for (const auto &edge : edges) {
                if (edge.count > best.count ||
                    best.target == invalidBlock) {
                    // Prefer higher counts; first edge on ties.
                    if (best.target == invalidBlock ||
                        edge.count > best.count) {
                        best = edge;
                    }
                }
                auto t = static_cast<std::size_t>(edge.target);
                if (edge.count > bestPredCount[t] ||
                    bestPred_[t] == invalidBlock) {
                    if (bestPred_[t] == invalidBlock ||
                        edge.count > bestPredCount[t]) {
                        bestPred_[t] = id;
                        bestPredCount[t] = edge.count;
                    }
                }
            }

            if (best.target != invalidBlock && weight > 0 &&
                weight >= minCount) {
                double prob = static_cast<double>(best.count) /
                              static_cast<double>(weight);
                if (prob >= minProb)
                    bestSucc_[static_cast<std::size_t>(id)] =
                        best.target;
            }
        }
    }

    std::vector<BlockId>
    growTrace(BlockId seed)
    {
        std::vector<BlockId> trace{seed};
        visited_.insert(seed);

        // Grow forward along mutually-most-likely edges.
        while (trace.size() < maxTraceBlocks) {
            BlockId last = trace.back();
            BlockId next =
                bestSucc_[static_cast<std::size_t>(last)];
            if (next == invalidBlock || visited_.count(next) != 0)
                break;
            if (bestPred_[static_cast<std::size_t>(next)] != last)
                break;
            if (profile_.blockCount(next) < minCount)
                break;
            trace.push_back(next);
            visited_.insert(next);
        }

        // Grow backward from the seed the same way.
        while (trace.size() < maxTraceBlocks) {
            BlockId first = trace.front();
            BlockId prev =
                bestPred_[static_cast<std::size_t>(first)];
            if (prev == invalidBlock || visited_.count(prev) != 0)
                break;
            if (bestSucc_[static_cast<std::size_t>(prev)] != first)
                break;
            if (profile_.blockCount(prev) < minCount)
                break;
            trace.insert(trace.begin(), prev);
            visited_.insert(prev);
        }
        return trace;
    }

    /** Remove side entrances into trace[i..] by duplicating that
     * suffix and retargeting off-trace predecessors to the copy. */
    void
    removeSideEntrances(std::vector<BlockId> &trace)
    {
        for (std::size_t i = 1; i < trace.size(); ++i) {
            CfgInfo cfg(fn_);
            std::vector<BlockId> offTrace;
            for (BlockId pred : cfg.preds(trace[i])) {
                if (pred != trace[i - 1])
                    offTrace.push_back(pred);
            }
            if (offTrace.empty())
                continue;

            // Clone the suffix trace[i..] once and chain the clones.
            std::vector<BlockId> clones;
            for (std::size_t j = i; j < trace.size(); ++j) {
                clones.push_back(cloneBlock(fn_, trace[j]));
                stats_.blocksDuplicated += 1;
            }
            for (std::size_t j = 0; j + 1 < clones.size(); ++j) {
                retargetEdges(fn_, clones[j], trace[i + j + 1],
                              clones[j + 1]);
            }
            for (BlockId pred : offTrace) {
                retargetEdges(fn_, pred, trace[i], clones[0]);
                // If the predecessor lies inside the duplicated
                // suffix, its clone has the same edge; point that
                // copy at the clone chain too so the chain stays
                // self-contained.
                for (std::size_t j = i; j < trace.size(); ++j) {
                    if (trace[j] == pred) {
                        retargetEdges(fn_, clones[j - i], trace[i],
                                      clones[0]);
                    }
                }
            }
        }
    }

    /** Make A transfer to B by fallthrough so B can be appended. */
    void
    prepareAppend(BasicBlock *a, BlockId b)
    {
        auto &instrs = a->instrs();
        if (a->fallthrough() == b) {
            a->setFallthrough(invalidBlock);
            return;
        }
        panicIf(instrs.empty(), "prepareAppend: empty predecessor");
        Instruction &last = instrs.back();
        if (last.isJump() && !last.guarded() && last.target() == b) {
            instrs.pop_back();
            // A conditional branch to b may remain just before the
            // jump; if so it is now redundant but harmless.
            if (!instrs.empty()) {
                Instruction &prev = instrs.back();
                if (prev.isCondBranch() && !prev.guarded() &&
                    prev.target() == b) {
                    instrs.pop_back();
                }
            }
            return;
        }
        if (last.isCondBranch() && !last.guarded() &&
            last.target() == b) {
            BlockId other = a->fallthrough();
            panicIf(other == invalidBlock,
                    "conditional branch with no fallthrough");
            last.setOp(invertBranch(last.op()));
            last.setTarget(other);
            a->setFallthrough(invalidBlock);
            return;
        }
        if (instrs.size() >= 2 && last.isJump() && !last.guarded()) {
            Instruction &prev = instrs[instrs.size() - 2];
            if (prev.isCondBranch() && !prev.guarded() &&
                prev.target() == b) {
                prev.setOp(invertBranch(prev.op()));
                prev.setTarget(last.target());
                instrs.pop_back();
                return;
            }
        }
        panic("prepareAppend: trace edge is not last transfer of ",
              a->name());
    }

    void
    formOne(std::vector<BlockId> &trace)
    {
        removeSideEntrances(trace);

        BasicBlock *head = fn_.block(trace.front());
        for (std::size_t i = 1; i < trace.size(); ++i) {
            BasicBlock *next = fn_.block(trace[i]);
            if (head->instrs().size() + next->instrs().size() >
                maxTraceInstrs) {
                break;
            }
            prepareAppend(head, trace[i]);
            for (auto &instr : next->instrs())
                head->instrs().push_back(std::move(instr));
            next->instrs().clear();
            head->setFallthrough(next->fallthrough());
            next->setFallthrough(invalidBlock);
            stats_.blocksMerged += 1;
        }
        head->setKind(BlockKind::Superblock);
        stats_.tracesFormed += 1;
    }

    Function &fn_;
    const FunctionProfile &profile_;
    std::vector<BlockId> bestSucc_;
    std::vector<BlockId> bestPred_;
    std::set<BlockId> visited_;
    SuperblockStats stats_;
};

} // namespace

BlockId
cloneBlock(Function &fn, BlockId src)
{
    const BasicBlock *orig = fn.block(src);
    std::string name = orig->name() + ".dup";
    // Copy instructions first: newBlock may invalidate the pointer.
    std::vector<Instruction> copies = orig->instrs();
    BlockId ft = orig->fallthrough();
    BlockKind kind = orig->kind();

    BasicBlock *copy = fn.newBlock(name);
    for (auto &instr : copies) {
        instr.setId(fn.nextInstrId());
        copy->instrs().push_back(std::move(instr));
    }
    copy->setFallthrough(ft);
    copy->setKind(kind);
    return copy->id();
}

void
retargetEdges(Function &fn, BlockId from, BlockId oldTarget,
              BlockId newTarget)
{
    BasicBlock *bb = fn.block(from);
    for (auto &instr : bb->instrs()) {
        if ((instr.isCondBranch() || instr.isJump()) &&
            instr.target() == oldTarget) {
            instr.setTarget(newTarget);
        }
    }
    if (bb->fallthrough() == oldTarget)
        bb->setFallthrough(newTarget);
}

SuperblockStats
formSuperblocks(Function &fn, const FunctionProfile &profile)
{
    return SuperblockFormer(fn, profile).run();
}

SuperblockStats
formSuperblocks(Program &prog, const ProgramProfile &profile)
{
    SuperblockStats total;
    for (auto &fn : prog.functions()) {
        const FunctionProfile *fp = profile.find(fn->name());
        if (fp == nullptr)
            continue;
        SuperblockStats stats = formSuperblocks(*fn, *fp);
        total.tracesFormed += stats.tracesFormed;
        total.blocksMerged += stats.blocksMerged;
        total.blocksDuplicated += stats.blocksDuplicated;
    }
    return total;
}

} // namespace predilp
