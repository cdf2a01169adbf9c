/**
 * @file
 * Flat register-ready scoreboard for the cycle model. The
 * ReplayTable (sim/timing.cc) bakes every register operand of a
 * trace into one uint32 slot of a single flat array: slot 0 means
 * "no register", then come the Int, Float and Pred registers, in
 * that order. Nothing writes slot 0, so it always reads 0 and an
 * unguarded row reads its guard with no branch. The board indexes
 * a slot directly: there is no class dispatch, no bounds check and
 * no growth path, because the table panics on any operand outside
 * its class's bound.
 *
 * An epoch/generation trick makes clear() — the drain at every call
 * and return — O(registers touched since the last drain) instead of
 * O(board): a slot's value only counts when its epoch tag matches
 * the current epoch, so "clearing" is a single epoch increment and
 * the array is never re-written. One dirty list holds every slot
 * first touched in the current epoch and a second one its predicate
 * slots. They drive the drain maximum and the whole-predicate-file
 * writes, so both see exactly the registers written since the last
 * drain.
 */

#ifndef PREDILP_SIM_SCOREBOARD_HH
#define PREDILP_SIM_SCOREBOARD_HH

#include <algorithm>
#include <cstdint>
#include <vector>

namespace predilp
{

/** Flat register-ready tracker over baked slots; see file comment. */
class RegScoreboard
{
  public:
    /**
     * @param slotCount slots in the board, slot 0 included.
     * @param predBase first predicate slot; every slot from it up is
     *        a predicate register.
     */
    RegScoreboard(std::uint32_t slotCount, std::uint32_t predBase)
        : slots_(slotCount), dirty_(slotCount),
          predDirty_(slotCount - predBase),
          predBase_(predBase)
    {}

    /** Cycle @p slot becomes ready; 0 when untouched this epoch. */
    long
    readyAt(std::uint32_t slot) const
    {
        const Slot &s = slots_[slot];
        return s.epoch == epoch_ ? s.ready : 0;
    }

    /** Destination write: overwrite the ready cycle. */
    void setDest(std::uint32_t slot, long when) { touch(slot) = when; }

    /**
     * OR/AND-style accumulation: ready when the *latest*
     * contribution completes.
     */
    void
    accumulate(std::uint32_t slot, long when)
    {
        long &ready = touch(slot);
        ready = std::max(ready, when);
    }

    /**
     * Whole-predicate-file write (pred_clear / pred_set): every
     * predicate register touched this epoch becomes ready at
     * @p when.
     */
    void
    setAllPred(long when)
    {
        for (std::uint32_t i = 0; i < predDirtyCount_; ++i)
            slots_[predDirty_[i]].ready = when;
    }

    /** Max of @p atLeast and every outstanding ready cycle. */
    long
    maxOutstanding(long atLeast) const
    {
        long latest = atLeast;
        for (std::uint32_t i = 0; i < dirtyCount_; ++i)
            latest = std::max(latest, slots_[dirty_[i]].ready);
        return latest;
    }

    /** Forget every outstanding write (the drain reset). */
    void
    clear()
    {
        dirtyCount_ = 0;
        predDirtyCount_ = 0;
        if (++epoch_ == 0) {
            // Epoch wrap (one per 2^32 drains): stale tags could
            // alias the fresh epoch, so do the one-time hard reset.
            for (Slot &s : slots_)
                s.epoch = 0;
            epoch_ = 1;
        }
    }

    /**
     * Test-only seam: jump to epoch @p epoch as if that many drains
     * had happened (dirty lists empty, board untouched). Lets the
     * wraparound hard reset in clear() be exercised without 2^32
     * real drains.
     */
    void
    presetEpochForTest(std::uint32_t epoch)
    {
        dirtyCount_ = 0;
        predDirtyCount_ = 0;
        epoch_ = epoch;
    }

  private:
    struct Slot
    {
        long ready = 0;
        std::uint32_t epoch = 0;
    };

    /**
     * Validate @p slot for the current epoch (zeroing it on first
     * touch and noting it dirty) and return its ready cycle.
     */
    long &
    touch(std::uint32_t slot)
    {
        Slot &s = slots_[slot];
        if (s.epoch != epoch_) {
            s.epoch = epoch_;
            s.ready = 0;
            dirty_[dirtyCount_++] = slot;
            if (slot >= predBase_)
                predDirty_[predDirtyCount_++] = slot;
        }
        return s.ready;
    }

    std::vector<Slot> slots_;
    /**
     * Slots first touched in the current epoch, then the predicate
     * slots among them; each holds its first *Count_ entries. A slot
     * joins a list at most once per epoch, so neither outgrows its
     * share of the board and neither ever reallocates.
     */
    std::vector<std::uint32_t> dirty_;
    std::vector<std::uint32_t> predDirty_;
    std::uint32_t dirtyCount_ = 0;
    std::uint32_t predDirtyCount_ = 0;
    std::uint32_t predBase_;
    std::uint32_t epoch_ = 1;
};

} // namespace predilp

#endif // PREDILP_SIM_SCOREBOARD_HH
