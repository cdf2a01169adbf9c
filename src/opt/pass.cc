#include "opt/pass.hh"

#include "ir/verifier.hh"
#include "support/logging.hh"

namespace predilp
{

std::uint64_t
programInstrCount(const Program &prog)
{
    std::uint64_t count = 0;
    for (const auto &fn : prog.functions()) {
        for (BlockId id : fn->layout())
            count += fn->block(id)->instrs().size();
    }
    return count;
}

namespace
{

/** The pass makePass() builds: a name and a transform. */
class TransformPass : public Pass
{
  public:
    TransformPass(std::string name, ProgramTransform transform)
        : name_(std::move(name)), transform_(std::move(transform))
    {}

    std::string name() const override { return name_; }

    PassResult
    run(Program &prog, PassContext &ctx) override
    {
        PassResult result;
        result.changes = transform_(prog, ctx);
        return result;
    }

  private:
    std::string name_;
    ProgramTransform transform_;
};

/**
 * Run @p pass once behind the uniform instrumentation seam, for
 * PassManager::run and the members of a fixpoint group.
 */
PassResult
runInstrumented(Pass &pass, Program &prog, PassContext &ctx)
{
    const std::string scope = pass.name();
    const std::uint64_t before = programInstrCount(prog);
    PassResult result;
    {
        ScopedTimer timer(ctx.stats.timer(scope + ".seconds"));
        result = pass.run(prog, ctx);
    }
    const std::uint64_t after = programInstrCount(prog);
    if (ctx.verifyAfterEach) {
        std::string err = verifyProgram(prog);
        if (!err.empty())
            throw VerifyError(scope, err);
    }
    ctx.stats.counter(scope + ".runs").add();
    ctx.stats.counter(scope + ".changes").add(result.changes);
    if (result.changed())
        ctx.stats.counter(scope + ".changed_runs").add();
    if (after >= before)
        ctx.stats.counter(scope + ".instrs_added").add(after - before);
    else
        ctx.stats.counter(scope + ".instrs_removed")
            .add(before - after);
    return result;
}

/**
 * A group of passes iterated to a fixpoint: rerun while any member
 * reports changes, up to the iteration cap. Members run behind the
 * same instrumentation seam as top-level passes, so their counters
 * accumulate per iteration.
 */
class FixpointPass : public Pass
{
  public:
    FixpointPass(std::string name,
                 std::vector<std::unique_ptr<Pass>> group,
                 int maxIters)
        : name_(std::move(name)), group_(std::move(group)),
          maxIters_(maxIters)
    {}

    std::string name() const override { return name_; }

    PassResult
    run(Program &prog, PassContext &ctx) override
    {
        PassResult total;
        Counter &iterations =
            ctx.stats.counter(name_ + ".iterations");
        for (int iter = 0; iter < maxIters_; ++iter) {
            iterations.add();
            std::uint64_t changes = 0;
            for (auto &pass : group_)
                changes += runInstrumented(*pass, prog, ctx).changes;
            total.changes += changes;
            if (changes == 0)
                break;
        }
        return total;
    }

  private:
    std::string name_;
    std::vector<std::unique_ptr<Pass>> group_;
    int maxIters_;
};

} // namespace

std::unique_ptr<Pass>
makePass(std::string name, ProgramTransform transform)
{
    return std::make_unique<TransformPass>(std::move(name),
                                           std::move(transform));
}

std::unique_ptr<Pass>
makePass(std::string name, int (*transform)(Function &))
{
    return makePass(std::move(name),
                    [transform](Program &prog, PassContext &) {
                        std::uint64_t changes = 0;
                        for (auto &fn : prog.functions()) {
                            changes += static_cast<std::uint64_t>(
                                transform(*fn));
                        }
                        return changes;
                    });
}

void
PassManager::add(std::unique_ptr<Pass> pass)
{
    panicIf(pass == nullptr, "PassManager::add: null pass");
    passes_.push_back(std::move(pass));
}

void
PassManager::addFixpoint(std::string groupName,
                         std::vector<std::unique_ptr<Pass>> group,
                         int maxIters)
{
    panicIf(group.empty(), "PassManager::addFixpoint: empty group");
    panicIf(maxIters <= 0,
            "PassManager::addFixpoint: nonpositive iteration cap");
    passes_.push_back(std::make_unique<FixpointPass>(
        std::move(groupName), std::move(group), maxIters));
}

std::vector<std::string>
PassManager::passNames() const
{
    std::vector<std::string> names;
    names.reserve(passes_.size());
    for (const auto &pass : passes_)
        names.push_back(pass->name());
    return names;
}

PassResult
PassManager::run(Program &prog, PassContext &ctx)
{
    PassResult total;
    for (auto &pass : passes_)
        total.changes += runInstrumented(*pass, prog, ctx).changes;
    return total;
}

} // namespace predilp
