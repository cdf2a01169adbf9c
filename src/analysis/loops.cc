#include "analysis/loops.hh"

#include <algorithm>
#include <map>
#include <set>

namespace predilp
{

bool
Loop::contains(BlockId id) const
{
    return std::find(body.begin(), body.end(), id) != body.end();
}

LoopInfo::LoopInfo(const Function &fn, const CfgInfo &cfg,
                   const DominatorTree &dom)
{
    depth_.assign(fn.numBlockIds(), 0);

    // Collect back edges (tail -> header where header dominates tail)
    // and merge bodies per header.
    std::map<BlockId, std::set<BlockId>> bodies;
    for (BlockId id : cfg.reversePostorder()) {
        for (BlockId succ : cfg.succs(id)) {
            if (dom.dominates(succ, id)) {
                // Natural loop of back edge id -> succ: all blocks
                // that reach `id` without passing through `succ`.
                auto &body = bodies[succ];
                body.insert(succ);
                std::vector<BlockId> work;
                if (body.insert(id).second)
                    work.push_back(id);
                while (!work.empty()) {
                    BlockId cur = work.back();
                    work.pop_back();
                    if (cur == succ)
                        continue;
                    for (BlockId pred : cfg.preds(cur)) {
                        if (!cfg.reachable(pred))
                            continue;
                        if (body.insert(pred).second)
                            work.push_back(pred);
                    }
                }
            }
        }
    }

    for (auto &[header, body] : bodies) {
        Loop loop;
        loop.header = header;
        loop.body.assign(body.begin(), body.end());
        loops_.push_back(std::move(loop));
    }

    // Depth: number of loop bodies containing the block. A loop's
    // depth is its header's depth.
    for (const auto &loop : loops_) {
        for (BlockId id : loop.body)
            depth_[static_cast<std::size_t>(id)] += 1;
    }
    for (auto &loop : loops_)
        loop.depth = depth_[static_cast<std::size_t>(loop.header)];

    // Innermost (deepest) first; tie-break on smaller body, then on
    // discovery order (stable), so the order never depends on the
    // standard library's sort.
    std::stable_sort(loops_.begin(), loops_.end(),
              [](const Loop &a, const Loop &b) {
                  if (a.depth != b.depth)
                      return a.depth > b.depth;
                  return a.body.size() < b.body.size();
              });
}

} // namespace predilp
