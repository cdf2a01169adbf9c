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

} // namespace

std::unique_ptr<Pass>
createHyperblockFormationPass(HyperblockOptions opts)
{
    return std::make_unique<HyperblockFormationPass>(opts);
}

} // namespace predilp
