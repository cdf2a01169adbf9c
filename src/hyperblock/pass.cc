#include "hyperblock/hyperblock.hh"

namespace predilp
{

namespace
{

class HyperblockFormationPass : public Pass
{
  public:
    explicit HyperblockFormationPass(HyperblockOptions opts)
        : opts_(opts)
    {}

    std::string name() const override { return "hyperblock.form"; }

    PassResult
    run(Program &prog, PassContext &ctx) override
    {
        PassResult result;
        if (!ctx.profile)
            return result;
        HyperblockStats stats =
            formHyperblocks(prog, *ctx.profile, opts_);
        ctx.stats.counter("hyperblock.form.formed")
            .add(static_cast<std::uint64_t>(stats.hyperblocksFormed));
        ctx.stats.counter("hyperblock.form.blocks_if_converted")
            .add(static_cast<std::uint64_t>(stats.blocksIfConverted));
        ctx.stats.counter("hyperblock.form.branches_removed")
            .add(static_cast<std::uint64_t>(stats.branchesRemoved));
        ctx.stats.counter("hyperblock.form.pred_defines")
            .add(static_cast<std::uint64_t>(
                stats.predDefinesInserted));
        result.changes =
            static_cast<std::uint64_t>(stats.hyperblocksFormed);
        return result;
    }

  private:
    HyperblockOptions opts_;
};

class PromotionPass : public FunctionPass
{
  public:
    std::string name() const override { return "hyperblock.promote"; }

    std::uint64_t
    runOnFunction(Function &fn, PassContext &ctx) override
    {
        auto promoted =
            static_cast<std::uint64_t>(promotePredicates(fn));
        if (promoted != 0)
            ctx.stats.counter("hyperblock.promote.promoted")
                .add(promoted);
        return promoted;
    }
};

class HeightReductionPass : public FunctionPass
{
  public:
    std::string name() const override { return "hyperblock.height"; }

    std::uint64_t
    runOnFunction(Function &fn, PassContext &ctx) override
    {
        auto chains =
            static_cast<std::uint64_t>(reducePredicateHeight(fn));
        if (chains != 0)
            ctx.stats.counter("hyperblock.height.chains").add(chains);
        return chains;
    }
};

class BranchCombinePass : public Pass
{
  public:
    std::string name() const override { return "hyperblock.combine"; }

    PassResult
    run(Program &prog, PassContext &ctx) override
    {
        PassResult result;
        if (!ctx.regionProfile)
            return result;
        result.changes = static_cast<std::uint64_t>(
            combineExitBranches(prog, *ctx.regionProfile));
        if (result.changed())
            ctx.stats.counter("hyperblock.combine.branches_combined")
                .add(result.changes);
        return result;
    }
};

} // namespace

std::unique_ptr<Pass>
createHyperblockFormationPass(HyperblockOptions opts)
{
    return std::make_unique<HyperblockFormationPass>(opts);
}

std::unique_ptr<Pass>
createPromotionPass()
{
    return std::make_unique<PromotionPass>();
}

std::unique_ptr<Pass>
createHeightReductionPass()
{
    return std::make_unique<HeightReductionPass>();
}

std::unique_ptr<Pass>
createBranchCombinePass()
{
    return std::make_unique<BranchCombinePass>();
}

} // namespace predilp
