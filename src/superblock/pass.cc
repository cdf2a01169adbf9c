#include "superblock/superblock.hh"

namespace predilp
{

namespace
{

class SuperblockFormationPass : public Pass
{
  public:
    std::string name() const override { return "superblock.form"; }

    PassResult
    run(Program &prog, PassContext &ctx) override
    {
        PassResult result;
        if (!ctx.profile)
            return result;
        SuperblockStats stats =
            formSuperblocks(prog, *ctx.profile);
        ctx.stats.counter("superblock.form.traces")
            .add(static_cast<std::uint64_t>(stats.tracesFormed));
        ctx.stats.counter("superblock.form.blocks_merged")
            .add(static_cast<std::uint64_t>(stats.blocksMerged));
        ctx.stats.counter("superblock.form.blocks_duplicated")
            .add(static_cast<std::uint64_t>(stats.blocksDuplicated));
        result.changes =
            static_cast<std::uint64_t>(stats.tracesFormed);
        return result;
    }
};

} // namespace

std::unique_ptr<Pass>
createSuperblockFormationPass()
{
    return std::make_unique<SuperblockFormationPass>();
}

} // namespace predilp
