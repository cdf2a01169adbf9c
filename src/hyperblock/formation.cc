#include <algorithm>
#include <map>
#include <set>

#include "analysis/cfg.hh"
#include "analysis/dominators.hh"
#include "analysis/loops.hh"
#include "hyperblock/hyperblock.hh"
#include "superblock/superblock.hh" // cloneBlock / retargetEdges.
#include "support/logging.hh"

namespace predilp
{

namespace
{

/** Minimum header execution count to attempt a region. */
constexpr std::uint64_t minHeaderCount = 32;

/**
 * A block joins the region when its execution count is at least
 * this fraction of the header's. Unlikely paths stay as exits.
 */
constexpr double inclusionRatio = 0.01;

/** Maximum blocks per region. */
constexpr std::size_t maxRegionBlocks = 24;

/** Maximum instructions in the formed hyperblock. */
constexpr std::size_t maxRegionInstrs = 256;

/** @return true when @p instr forbids if-converting its block. */
bool
hazardous(const Instruction &instr)
{
    // Calls and returns never join a hyperblock (the paper calls
    // subroutine calls "hazardous"); I/O intrinsics cannot be
    // squashed by the partial-predication lowering, so they are
    // hazardous too. Pre-existing predication means the block was
    // already converted.
    return instr.isCall() || instr.isRet() ||
           instr.op() == Opcode::GetC || instr.op() == Opcode::PutC ||
           instr.op() == Opcode::ReadBlock || instr.guarded() ||
           instr.isPredDefine() || instr.isPredAll();
}

/**
 * Decompose a block's terminator structure. Blocks eligible for
 * if-conversion have all control at the end: [body*, bcc?, jump?] or
 * [body*, bcc?, fallthrough].
 */
struct BlockShape
{
    bool eligible = false;
    int condIndex = -1;          ///< index of trailing cond branch.
    BlockId condTarget = invalidBlock;
    BlockId termTarget = invalidBlock; ///< jump or fallthrough target.
    bool hasTerm = false;        ///< false only for ret blocks.
};

BlockShape
analyzeShape(const BasicBlock &bb)
{
    BlockShape shape;
    const auto &instrs = bb.instrs();
    std::size_t n = instrs.size();

    // Find trailing control instructions.
    std::size_t firstControl = n;
    for (std::size_t i = 0; i < n; ++i) {
        if (instrs[i].isControlTransfer()) {
            firstControl = i;
            break;
        }
    }
    for (std::size_t i = firstControl; i < n; ++i) {
        if (!instrs[i].isControlTransfer())
            return shape; // control in the middle: not eligible.
    }

    std::size_t controls = n - firstControl;
    if (controls > 2)
        return shape;

    if (controls == 2) {
        const Instruction &a = instrs[n - 2];
        const Instruction &b = instrs[n - 1];
        if (!a.isCondBranch() || !b.isJump() || a.guarded() ||
            b.guarded()) {
            return shape;
        }
        shape.condIndex = static_cast<int>(n - 2);
        shape.condTarget = a.target();
        shape.termTarget = b.target();
        shape.hasTerm = true;
    } else if (controls == 1) {
        const Instruction &last = instrs[n - 1];
        if (last.guarded())
            return shape;
        if (last.isCondBranch()) {
            if (bb.fallthrough() == invalidBlock)
                return shape;
            shape.condIndex = static_cast<int>(n - 1);
            shape.condTarget = last.target();
            shape.termTarget = bb.fallthrough();
            shape.hasTerm = true;
        } else if (last.isJump()) {
            shape.termTarget = last.target();
            shape.hasTerm = true;
        } else {
            return shape; // ret: hazardous anyway.
        }
    } else {
        if (bb.fallthrough() == invalidBlock)
            return shape;
        shape.termTarget = bb.fallthrough();
        shape.hasTerm = true;
    }
    shape.eligible = true;
    return shape;
}

/** If-converter for one selected region. */
class IfConverter
{
  public:
    IfConverter(Function &fn, BlockId header,
                const std::vector<BlockId> &region,
                HyperblockStats &stats)
        : fn_(fn), header_(header),
          inRegion_(fn.numBlockIds(), false), stats_(stats)
    {
        for (BlockId id : region)
            inRegion_[static_cast<std::size_t>(id)] = true;
        region_ = region;
    }

    /** @return false when the region turns out non-convertible. */
    bool
    run()
    {
        if (!computeTopoOrder())
            return false;
        computeUnguarded();
        assignPredicates();
        emit();
        return true;
    }

  private:
    bool inRegion(BlockId id) const
    {
        return id != invalidBlock &&
               inRegion_[static_cast<std::size_t>(id)];
    }

    /** In-region successors of @p id, treating edges to the header
     * (back edges) as exits. */
    std::vector<BlockId>
    regionSuccs(BlockId id) const
    {
        std::vector<BlockId> out;
        for (BlockId succ : fn_.block(id)->successors()) {
            if (inRegion(succ) && succ != header_)
                out.push_back(succ);
        }
        return out;
    }

    bool
    computeTopoOrder()
    {
        // Kahn's algorithm over in-region edges (header edges are
        // exits). Also records the in-region in-degree used for
        // predicate type selection.
        std::map<BlockId, int> indegree;
        for (BlockId id : region_)
            indegree[id] = 0;
        for (BlockId id : region_) {
            for (BlockId succ : regionSuccs(id))
                indegree[succ] += 1;
        }
        inEdges_ = indegree;

        std::vector<BlockId> ready;
        for (BlockId id : region_) {
            if (indegree[id] == 0)
                ready.push_back(id);
        }
        // The header must be the unique entry.
        if (ready.size() != 1 || ready.front() != header_)
            return false;

        while (!ready.empty()) {
            // Deterministic: lowest id first.
            std::sort(ready.begin(), ready.end());
            BlockId id = ready.front();
            ready.erase(ready.begin());
            topo_.push_back(id);
            for (BlockId succ : regionSuccs(id)) {
                if (--indegree[succ] == 0)
                    ready.push_back(succ);
            }
        }
        return topo_.size() == region_.size();
    }

    /**
     * A block B may go unguarded when its instructions execute
     * exactly on the dynamic paths that reach B's position in the
     * linear hyperblock. Since exit branches physically leave the
     * block, paths that exit *before* B's position never see B's
     * code; the only dangerous case is an in-region path that
     * bypasses B yet is still alive past B's position (it would be
     * about to execute a block placed after B). So: B is unguarded
     * iff no block placed after B is reachable from the header
     * through in-region edges avoiding B.
     *
     * This is what makes Figure 1's "add i,i,1" and Figure 5's loop
     * induction updates unguarded in the paper's hyperblocks.
     */
    void
    computeUnguarded()
    {
        std::map<BlockId, std::size_t> pos;
        for (std::size_t i = 0; i < topo_.size(); ++i)
            pos[topo_[i]] = i;

        unguarded_.insert(header_);
        for (BlockId candidate : topo_) {
            if (candidate == header_)
                continue;
            std::size_t cpos = pos[candidate];

            // BFS from the header avoiding the candidate.
            std::set<BlockId> seen{header_};
            std::vector<BlockId> work{header_};
            bool bypassed = false;
            while (!work.empty() && !bypassed) {
                BlockId id = work.back();
                work.pop_back();
                for (BlockId succ : regionSuccs(id)) {
                    if (succ == candidate)
                        continue;
                    if (pos[succ] > cpos) {
                        bypassed = true;
                        break;
                    }
                    if (seen.insert(succ).second)
                        work.push_back(succ);
                }
            }
            if (!bypassed)
                unguarded_.insert(candidate);
        }
    }

    bool
    needsGuard(BlockId id) const
    {
        return unguarded_.count(id) == 0;
    }

    /**
     * Assign a predicate register to every guarded block. Single-
     * in-edge blocks reached by an unconditional edge alias their
     * predecessor's predicate; everything else gets a fresh register
     * written by the defines emitted later.
     */
    void
    assignPredicates()
    {
        for (BlockId id : topo_) {
            if (id == header_ || !needsGuard(id))
                continue;
            if (inEdges_[id] == 1) {
                // Find the unique in-region predecessor and edge
                // kind.
                for (BlockId pred : topo_) {
                    const BlockShape shape =
                        analyzeShape(*fn_.block(pred));
                    bool condEdge =
                        shape.condIndex >= 0 &&
                        shape.condTarget == id;
                    bool termEdge =
                        shape.hasTerm && shape.termTarget == id;
                    if (!condEdge && !termEdge)
                        continue;
                    if (condEdge) {
                        predOf_[id] = fn_.newPredReg();
                    } else if (shape.condIndex >= 0 &&
                               inRegion(shape.condTarget) &&
                               shape.condTarget != header_) {
                        // Fallthrough after an in-region branch:
                        // fresh register via the UBar dest.
                        predOf_[id] = fn_.newPredReg();
                    } else {
                        // Unconditional edge (or fallthrough after
                        // an *exit* branch): inherit the
                        // predecessor's predicate.
                        auto it = predOf_.find(pred);
                        if (it != predOf_.end()) {
                            predOf_[id] = it->second;
                        } else if (needsGuard(pred)) {
                            // Unreachable: topo order assigns the
                            // predecessor's register first.
                            panic("predicate assignment order bug");
                        } else {
                            // Predecessor unguarded: this block is
                            // guarded yet reached unconditionally
                            // from an always-executing block — only
                            // possible when the predecessor has an
                            // exit branch; executing past it implies
                            // reaching us, so no guard is needed
                            // dynamically. Use a fresh always-true
                            // predicate... simpler: mark unguarded.
                            unguarded_.insert(id);
                        }
                    }
                    break;
                }
            } else {
                predOf_[id] = fn_.newPredReg();
                orInit_.insert(predOf_[id]);
            }
        }
    }

    Reg
    guardOf(BlockId id) const
    {
        auto it = predOf_.find(id);
        return it == predOf_.end() ? Reg() : it->second;
    }

    /** Append @p instr to the output, guarding it with @p guard. */
    void
    put(Instruction instr, Reg guard)
    {
        if (guard.valid())
            instr.setGuard(guard);
        out_.push_back(std::move(instr));
    }

    /** Emit "pTarget |= (guard)" — define with an always-true cmp. */
    void
    emitTruePredContribution(BlockId target, Reg guard)
    {
        if (!needsGuard(target))
            return;
        Reg pt = guardOf(target);
        // Alias case: target inherits guard directly, no instruction.
        if (pt == guard)
            return;
        panicIf(!pt.valid(), "target predicate not assigned");
        Instruction def = fn_.makeInstr(Opcode::PredEq);
        PredType type =
            inEdges_.at(target) > 1 ? PredType::Or : PredType::U;
        def.addPredDest(pt, type);
        def.addSrc(Operand::imm(0));
        def.addSrc(Operand::imm(0));
        def.setGuard(guard);
        out_.push_back(std::move(def));
        stats_.predDefinesInserted += 1;
    }

    void
    emit()
    {
        // Collect instructions of the new hyperblock.
        for (std::size_t t = 0; t < topo_.size(); ++t) {
            BlockId id = topo_[t];
            BasicBlock *bb = fn_.block(id);
            BlockShape shape = analyzeShape(*bb);
            panicIf(!shape.eligible,
                    "selected block lost eligibility");
            Reg q0 = guardOf(id);

            // Body instructions, guarded.
            std::size_t bodyEnd = shape.condIndex >= 0
                                      ? static_cast<std::size_t>(
                                            shape.condIndex)
                                      : bb->instrs().size();
            // Exclude the trailing jump from the body too.
            if (shape.condIndex < 0 && !bb->instrs().empty() &&
                bb->instrs().back().isJump()) {
                bodyEnd = bb->instrs().size() - 1;
            }
            for (std::size_t i = 0; i < bodyEnd; ++i)
                put(bb->instrs()[i], q0);

            bool condInRegion =
                shape.condIndex >= 0 &&
                inRegion(shape.condTarget) &&
                shape.condTarget != header_;
            bool termInRegion = shape.hasTerm &&
                                inRegion(shape.termTarget) &&
                                shape.termTarget != header_;

            // The conditional branch.
            if (shape.condIndex >= 0) {
                const Instruction &br =
                    bb->instrs()[static_cast<std::size_t>(
                        shape.condIndex)];
                if (condInRegion) {
                    // Becomes a predicate define; the UBar/OrBar
                    // second destination carries the fallthrough
                    // path's contribution when it stays in-region,
                    // or the continuation predicate for an exit.
                    Instruction def = fn_.makeInstr(
                        branchToPredDefine(br.op()));
                    BlockId target = shape.condTarget;
                    if (needsGuard(target)) {
                        Reg pt = guardOf(target);
                        panicIf(!pt.valid(),
                                "missing cond-target predicate");
                        def.addPredDest(pt,
                                        inEdges_.at(target) > 1
                                            ? PredType::Or
                                            : PredType::U);
                    }
                    if (termInRegion) {
                        BlockId tt = shape.termTarget;
                        if (needsGuard(tt)) {
                            Reg pt2 = guardOf(tt);
                            panicIf(!pt2.valid(),
                                    "missing term-target predicate");
                            def.addPredDest(
                                pt2, inEdges_.at(tt) > 1
                                         ? PredType::OrBar
                                         : PredType::UBar);
                        }
                    } else {
                        // Terminal edge exits: continuation
                        // predicate guards the exit jump.
                        Reg qc = fn_.newPredReg();
                        def.addPredDest(qc, PredType::UBar);
                        exitGuard_ = qc;
                        hasExitGuard_ = true;
                    }
                    if (def.predDests().empty()) {
                        // Both targets unguarded: the comparison is
                        // not needed at all.
                    } else {
                        def.addSrc(br.src(0));
                        def.addSrc(br.src(1));
                        def.setGuard(q0);
                        out_.push_back(std::move(def));
                        stats_.predDefinesInserted += 1;
                    }
                    stats_.branchesRemoved += 1;
                } else {
                    // Exit branch (including back edges to the
                    // header): keep it, predicated. The id is kept
                    // so profile taken-counts still describe it
                    // (branch combining relies on that).
                    Instruction exitBr = br;
                    put(std::move(exitBr), q0);
                }
            }

            // The terminal edge.
            if (termInRegion) {
                if (condInRegion) {
                    // Contribution already carried by the define's
                    // second destination (or aliasing).
                } else {
                    emitTruePredContribution(shape.termTarget, q0);
                }
            } else if (shape.hasTerm) {
                // Exit jump (or loop back edge).
                Instruction jump = fn_.makeInstr(Opcode::Jump);
                jump.setTarget(shape.termTarget);
                Reg guard = q0;
                if (condInRegion && hasExitGuard_) {
                    guard = exitGuard_;
                    hasExitGuard_ = false;
                }
                bool isLast = t + 1 == topo_.size();
                put(std::move(jump), isLast ? Reg() : guard);
            }
            stats_.blocksIfConverted += 1;
        }

        // Initialize OR-type predicates.
        std::vector<Instruction> prologue;
        if (!orInit_.empty()) {
            prologue.push_back(fn_.makeInstr(Opcode::PredClear));
        }

        BasicBlock *hb = fn_.block(header_);
        std::vector<Instruction> result;
        result.reserve(prologue.size() + out_.size());
        for (auto &instr : prologue)
            result.push_back(std::move(instr));
        for (auto &instr : out_)
            result.push_back(std::move(instr));
        hb->instrs() = std::move(result);
        hb->setFallthrough(invalidBlock);
        hb->setKind(BlockKind::Hyperblock);
        stats_.hyperblocksFormed += 1;

        // Other region blocks become unreachable; clear them so
        // stale instruction ids don't confuse later passes.
        for (BlockId id : region_) {
            if (id != header_) {
                fn_.block(id)->instrs().clear();
                fn_.block(id)->setFallthrough(invalidBlock);
            }
        }
    }

    Function &fn_;
    BlockId header_;
    std::vector<BlockId> region_;
    std::vector<bool> inRegion_;
    std::vector<BlockId> topo_;
    std::map<BlockId, int> inEdges_;
    std::set<BlockId> unguarded_;
    std::map<BlockId, Reg> predOf_;
    std::set<Reg> orInit_;
    std::vector<Instruction> out_;
    Reg exitGuard_;
    bool hasExitGuard_ = false;
    HyperblockStats &stats_;
};

/** Region selection + conversion driver for one function. */
class HyperblockFormer
{
  public:
    HyperblockFormer(Function &fn, const FunctionProfile &profile,
                     const HyperblockOptions &opts)
        : fn_(fn), profile_(profile), opts_(opts)
    {}

    HyperblockStats
    run()
    {
        CfgInfo cfg(fn_);
        DominatorTree dom(fn_, cfg);
        LoopInfo loops(fn_, cfg, dom);

        // Loop regions, innermost first.
        for (const Loop &loop : loops.loops()) {
            if (convertedAny(loop.body))
                continue;
            std::set<BlockId> candidates;
            for (BlockId id : loop.body) {
                if (loops.depth(id) == loop.depth)
                    candidates.insert(id);
            }
            tryRegion(loop.header, candidates);
        }

        // Acyclic regions seeded at remaining hot branchy blocks.
        CfgInfo cfg2(fn_);
        DominatorTree dom2(fn_, cfg2);
        LoopInfo loops2(fn_, cfg2, dom2);
        std::vector<BlockId> seeds = fn_.layout();
        std::stable_sort(seeds.begin(), seeds.end(),
                         [&](BlockId a, BlockId b) {
                             return profile_.blockCount(a) >
                                    profile_.blockCount(b);
                         });
        for (BlockId seed : seeds) {
            if (converted_.count(seed) != 0)
                continue;
            bool isLoopHeader = false;
            for (const Loop &loop : loops2.loops()) {
                if (loop.header == seed)
                    isLoopHeader = true;
            }
            if (isLoopHeader)
                continue;
            std::set<BlockId> candidates;
            int depth = loops2.depth(seed);
            for (BlockId id : fn_.layout()) {
                if (loops2.depth(id) == depth &&
                    converted_.count(id) == 0) {
                    candidates.insert(id);
                }
            }
            tryRegion(seed, candidates);
        }
        return stats_;
    }

  private:
    bool
    convertedAny(const std::vector<BlockId> &blocks) const
    {
        for (BlockId id : blocks) {
            if (converted_.count(id) != 0)
                return true;
        }
        return false;
    }

    bool
    blockEligible(BlockId id) const
    {
        const BasicBlock *bb = fn_.block(id);
        for (const auto &instr : bb->instrs()) {
            if (hazardous(instr))
                return false;
        }
        return analyzeShape(*bb).eligible;
    }

    void
    tryRegion(BlockId header, const std::set<BlockId> &candidates)
    {
        std::uint64_t headerCount = profile_.blockCount(header);
        if (headerCount < minHeaderCount)
            return;
        if (!blockEligible(header))
            return;

        CfgInfo cfg(fn_);
        std::uint64_t minCount = static_cast<std::uint64_t>(
            static_cast<double>(headerCount) *
            inclusionRatio);

        // Grow: add candidate blocks whose predecessors are all
        // already selected (single-entry growth), heaviest first,
        // subject to the fetch-saturation constraint.
        std::vector<BlockId> ordered(candidates.begin(),
                                     candidates.end());
        std::stable_sort(ordered.begin(), ordered.end(),
                         [&](BlockId a, BlockId b) {
                             return profile_.blockCount(a) >
                                    profile_.blockCount(b);
                         });

        std::set<BlockId> region{header};
        std::size_t instrs = fn_.block(header)->instrs().size();
        double fetchWork = static_cast<double>(instrs);
        double usefulWork = static_cast<double>(instrs);
        bool changed = true;
        while (changed && region.size() < maxRegionBlocks) {
            changed = false;
            for (BlockId id : ordered) {
                if (region.count(id) != 0 || id == header)
                    continue;
                if (profile_.blockCount(id) < minCount)
                    continue;
                if (!blockEligible(id))
                    continue;
                // Growth requires reachability from the region; a
                // predecessor outside the region is tolerated (it
                // becomes a side entrance removed afterwards by
                // tail duplication, as in the hyperblock paper).
                bool anyPredIn = false;
                for (BlockId pred : cfg.preds(id)) {
                    if (region.count(pred) != 0)
                        anyPredIn = true;
                }
                if (!anyPredIn)
                    continue;
                std::size_t size =
                    fn_.block(id)->instrs().size();
                if (instrs + size > maxRegionInstrs)
                    continue;

                // Saturation: every included block is fetched on
                // every entry, but only contributes useful work in
                // proportion to its execution ratio.
                double ratio =
                    static_cast<double>(profile_.blockCount(id)) /
                    static_cast<double>(headerCount);
                ratio = std::min(ratio, 1.0);
                double newFetch =
                    fetchWork + static_cast<double>(size);
                double newUseful =
                    usefulWork + ratio * static_cast<double>(size);
                if (newFetch >
                    opts_.saturationFactor * newUseful) {
                    continue;
                }

                region.insert(id);
                instrs += size;
                fetchWork = newFetch;
                usefulWork = newUseful;
                changed = true;
                if (region.size() >= maxRegionBlocks)
                    break;
            }
        }
        if (region.size() < 2)
            return;
        if (!removeSideEntrances(header, region))
            return;

        std::vector<BlockId> blocks(region.begin(), region.end());
        IfConverter converter(fn_, header, blocks, stats_);
        if (converter.run()) {
            for (BlockId id : blocks)
                converted_.insert(id);
            fn_.pruneUnreachable();
        }
    }

    /**
     * Tail duplication: a non-header region block with an outside
     * predecessor is a side entrance. The entire in-region cone
     * reachable from it (stopping at the header) is cloned; outside
     * predecessors are retargeted to the clone, which lives outside
     * the region. @return false when duplication would explode.
     */
    bool
    removeSideEntrances(BlockId header, std::set<BlockId> &region)
    {
        for (int iter = 0; iter < 32; ++iter) {
            CfgInfo cfg(fn_);
            BlockId entrance = invalidBlock;
            std::vector<BlockId> outsidePreds;
            for (BlockId id : region) {
                if (id == header)
                    continue;
                for (BlockId pred : cfg.preds(id)) {
                    if (region.count(pred) == 0) {
                        entrance = id;
                        outsidePreds.push_back(pred);
                    }
                }
                if (entrance != invalidBlock)
                    break;
            }
            if (entrance == invalidBlock)
                return true;

            // Cone of in-region blocks reachable from the entrance
            // without passing through the header.
            std::set<BlockId> cone{entrance};
            std::vector<BlockId> work{entrance};
            std::size_t coneInstrs = 0;
            while (!work.empty()) {
                BlockId id = work.back();
                work.pop_back();
                coneInstrs += fn_.block(id)->instrs().size();
                for (BlockId succ : fn_.block(id)->successors()) {
                    if (succ == header ||
                        region.count(succ) == 0) {
                        continue;
                    }
                    if (cone.insert(succ).second)
                        work.push_back(succ);
                }
            }
            if (coneInstrs > 96)
                return false; // too much duplication; give up.

            std::map<BlockId, BlockId> clones;
            for (BlockId id : cone)
                clones[id] = cloneBlock(fn_, id);
            for (const auto &[orig, clone] : clones) {
                for (BlockId succ :
                     fn_.block(orig)->successors()) {
                    auto it = clones.find(succ);
                    if (it != clones.end())
                        retargetEdges(fn_, clone, succ, it->second);
                }
            }
            for (BlockId pred : outsidePreds) {
                retargetEdges(fn_, pred, entrance,
                              clones.at(entrance));
            }
        }
        return false;
    }

    Function &fn_;
    const FunctionProfile &profile_;
    const HyperblockOptions &opts_;
    std::set<BlockId> converted_;
    HyperblockStats stats_;
};

} // namespace

HyperblockStats
formHyperblocks(Function &fn, const FunctionProfile &profile,
                const HyperblockOptions &opts)
{
    return HyperblockFormer(fn, profile, opts).run();
}

HyperblockStats
formHyperblocks(Program &prog, const ProgramProfile &profile,
                const HyperblockOptions &opts)
{
    HyperblockStats total;
    for (auto &fn : prog.functions()) {
        const FunctionProfile *fp = profile.find(fn->name());
        if (fp == nullptr)
            continue;
        HyperblockStats stats = formHyperblocks(*fn, *fp, opts);
        total.hyperblocksFormed += stats.hyperblocksFormed;
        total.blocksIfConverted += stats.blocksIfConverted;
        total.branchesRemoved += stats.branchesRemoved;
        total.predDefinesInserted += stats.predDefinesInserted;
    }
    return total;
}

} // namespace predilp
