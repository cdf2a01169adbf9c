/**
 * @file
 * Dense register-ready scoreboard for the cycle model. Replaces the
 * per-record std::unordered_map<Reg, long> lookup with flat
 * ready-cycle vectors indexed by (register class, register number),
 * sized once from the StaticIndex's per-class register bounds.
 *
 * An epoch/generation trick makes drain() — which the map version
 * implemented by clearing the whole table at every call/return —
 * O(registers touched since the last drain) instead of O(table):
 * a slot's value only counts when its epoch tag matches the current
 * epoch, so "clearing" is a single epoch increment and the arrays
 * are never re-written. A per-class dirty list (one entry per
 * register first touched in the current epoch, i.e. exactly the
 * key set of the old map) drives the drain maximum and the
 * whole-predicate-file writes, preserving the map semantics
 * bit-for-bit.
 */

#ifndef PREDILP_SIM_SCOREBOARD_HH
#define PREDILP_SIM_SCOREBOARD_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "ir/reg.hh"

namespace predilp
{

/** Dense per-class register-ready tracker; see file comment. */
class RegScoreboard
{
  public:
    /**
     * Size every class's table from per-class register bounds (Int,
     * Float, Pred order), as carried by the shared ReplayTable.
     */
    explicit RegScoreboard(const std::array<int, 3> &regBounds)
    {
        for (std::size_t cls = 0; cls < boards_.size(); ++cls)
            boards_[cls].resize(regBounds[cls]);
    }

    /** Cycle @p reg becomes ready; 0 when untouched this epoch. */
    long
    readyAt(Reg reg) const
    {
        const ClassBoard &b = board(reg.cls());
        auto idx = static_cast<std::size_t>(reg.idx());
        if (idx >= b.ready.size() || b.epoch[idx] != epoch_)
            return 0;
        return b.ready[idx];
    }

    /** Destination write: overwrite the ready cycle. */
    void
    setDest(Reg reg, long when)
    {
        touch(board(reg.cls()), reg.idx()) = when;
    }

    /**
     * OR/AND-style accumulation: ready when the *latest*
     * contribution completes.
     */
    void
    accumulate(Reg reg, long when)
    {
        long &ready = touch(board(reg.cls()), reg.idx());
        ready = std::max(ready, when);
    }

    /**
     * Whole-predicate-file write (pred_clear / pred_set):
     * every predicate register touched this epoch becomes ready at
     * @p when.
     */
    void
    setAllPred(long when)
    {
        ClassBoard &b = board(RegClass::Pred);
        for (std::int32_t idx : b.dirty)
            b.ready[static_cast<std::size_t>(idx)] = when;
    }

    /** Max of @p atLeast and every outstanding ready cycle. */
    long
    maxOutstanding(long atLeast) const
    {
        long latest = atLeast;
        for (const ClassBoard &b : boards_) {
            for (std::int32_t idx : b.dirty) {
                latest = std::max(
                    latest, b.ready[static_cast<std::size_t>(idx)]);
            }
        }
        return latest;
    }

    /** Forget every outstanding write (the drain reset). */
    void
    clear()
    {
        for (ClassBoard &b : boards_)
            b.dirty.clear();
        if (++epoch_ == 0) {
            // Epoch wrap (one per 2^32 drains): stale tags could
            // alias the fresh epoch, so do the one-time hard reset.
            for (ClassBoard &b : boards_)
                std::fill(b.epoch.begin(), b.epoch.end(), 0u);
            epoch_ = 1;
        }
    }

    /**
     * Test-only seam: jump to epoch @p epoch as if that many drains
     * had happened (dirty lists empty, tables untouched). Lets the
     * wraparound hard reset in clear() be exercised without 2^32
     * real drains.
     */
    void
    presetEpochForTest(std::uint32_t epoch)
    {
        for (ClassBoard &b : boards_)
            b.dirty.clear();
        epoch_ = epoch;
    }

  private:
    struct ClassBoard
    {
        std::vector<long> ready;
        std::vector<std::uint32_t> epoch;
        /** Registers first touched in the current epoch. */
        std::vector<std::int32_t> dirty;

        void
        resize(int n)
        {
            ready.assign(static_cast<std::size_t>(n), 0);
            epoch.assign(static_cast<std::size_t>(n), 0);
        }
    };

    ClassBoard &
    board(RegClass cls)
    {
        return boards_[static_cast<std::size_t>(cls)];
    }

    const ClassBoard &
    board(RegClass cls) const
    {
        return boards_[static_cast<std::size_t>(cls)];
    }

    /**
     * Validate @p idx's slot for the current epoch (zeroing it on
     * first touch, exactly like the map's operator[] insert) and
     * return it.
     */
    long &
    touch(ClassBoard &b, int idx)
    {
        auto i = static_cast<std::size_t>(idx);
        if (i >= b.ready.size()) {
            // The StaticIndex bounds cover every register the
            // program allocates; growth is a defensive slow path.
            b.ready.resize(i + 1, 0);
            b.epoch.resize(i + 1, 0);
        }
        if (b.epoch[i] != epoch_) {
            b.epoch[i] = epoch_;
            b.ready[i] = 0;
            b.dirty.push_back(static_cast<std::int32_t>(idx));
        }
        return b.ready[i];
    }

    std::array<ClassBoard, 3> boards_;
    std::uint32_t epoch_ = 1;
};

} // namespace predilp

#endif // PREDILP_SIM_SCOREBOARD_HH
