#include "opt/passes.hh"

namespace predilp
{

std::vector<std::unique_ptr<Pass>>
scalarPassList()
{
    std::vector<std::unique_ptr<Pass>> passes;
    passes.push_back(makePass("opt.fold", constantFold));
    passes.push_back(makePass("opt.copyprop", copyPropagate));
    passes.push_back(makePass("opt.cse", localCSE));
    passes.push_back(makePass("opt.memfwd", forwardMemory));
    passes.push_back(makePass("opt.coalesce", coalesceCopies));
    passes.push_back(makePass("opt.dce", deadCodeElim));
    passes.push_back(makePass("opt.simplifycfg", simplifyCfg));
    return passes;
}

void
optimizeProgram(Program &prog)
{
    StatsRegistry stats;
    PassContext ctx(stats);
    PassManager pm;
    pm.addFixpoint("opt.scalar", scalarPassList());
    pm.run(prog, ctx);
}

} // namespace predilp
