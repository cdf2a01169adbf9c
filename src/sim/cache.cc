#include "sim/cache.hh"

#include <algorithm>
#include <bit>

#include "support/diag.hh"
#include "support/logging.hh"

namespace predilp
{

const char *
predictorName(BranchPredictor predictor)
{
    switch (predictor) {
      case BranchPredictor::TwoBit:
        return "twobit";
      case BranchPredictor::OneBit:
        return "onebit";
      case BranchPredictor::StaticTaken:
        return "taken";
      case BranchPredictor::StaticNotTaken:
        return "nottaken";
    }
    panic("unreachable predictor value");
}

BranchPredictor
predictorFromName(const std::string &name)
{
    if (name == "twobit")
        return BranchPredictor::TwoBit;
    if (name == "onebit")
        return BranchPredictor::OneBit;
    if (name == "taken")
        return BranchPredictor::StaticTaken;
    if (name == "nottaken")
        return BranchPredictor::StaticNotTaken;
    throw FatalError("unknown branch predictor '" + name +
                     "' (expected twobit, onebit, taken or nottaken)");
}

SetAssocCache::SetAssocCache(std::int64_t sizeBytes,
                             std::int64_t lineBytes, int ways)
    : numWays_(static_cast<std::size_t>(ways))
{
    panicIf(lineBytes <= 0 || !std::has_single_bit(
                                  static_cast<std::uint64_t>(lineBytes)),
            "cache line size must be a power of two");
    panicIf(ways <= 0, "cache associativity must be positive");
    std::size_t numLines =
        static_cast<std::size_t>(sizeBytes / lineBytes);
    panicIf(numLines == 0, "cache has no lines");
    panicIf(numLines % numWays_ != 0,
            "cache associativity must divide the line count");
    const std::size_t numSets = numLines / numWays_;
    panicIf(!std::has_single_bit(numSets),
            "cache set count must be a power of two");
    lineMask_ = lineBytes - 1;
    lineShift_ = std::countr_zero(static_cast<std::uint64_t>(lineBytes));
    setMask_ = numSets - 1;
    setShift_ = std::countr_zero(numSets);
    ways_.assign(numLines, Way{});
}

std::size_t
SetAssocCache::setBase(std::int64_t line) const
{
    return (static_cast<std::uint64_t>(line) & setMask_) * numWays_;
}

std::int64_t
SetAssocCache::tagOf(std::int64_t line) const
{
    return (line + ((line >> 63) &
                    static_cast<std::int64_t>(setMask_))) >>
           setShift_;
}

void
SetAssocCache::touch(Way &way, std::int64_t line)
{
    way.stamp = ++tick_;
    lastLine_ = line;
    haveLastLine_ = true;
}

void
SetAssocCache::countMiss(bool cold)
{
    misses_ += 1;
    if (cold)
        coldMisses_ += 1;
    else
        conflictMisses_ += 1;
}

std::size_t
SetAssocCache::find(std::size_t base, std::int64_t tag) const
{
    for (std::size_t slot = base; slot < base + numWays_; ++slot) {
        if (ways_[slot].stamp != 0 && ways_[slot].tag == tag)
            return slot;
    }
    return absent;
}

bool
SetAssocCache::readLine(std::int64_t line)
{
    const std::size_t base = setBase(line);
    const std::int64_t tag = tagOf(line);
    if (const std::size_t slot = find(base, tag); slot != absent) {
        hits_ += 1;
        touch(ways_[slot], line);
        return true;
    }
    // Fill the first least-stamped way: invalid ways carry stamp 0,
    // so that is the first invalid way when the set has one, else
    // the LRU way.
    Way *set = ways_.data() + base;
    Way *victim = std::min_element(
        set, set + numWays_,
        [](const Way &a, const Way &b) { return a.stamp < b.stamp; });
    countMiss(victim->stamp == 0);
    victim->tag = tag;
    touch(*victim, line);
    return false;
}

bool
SetAssocCache::writeLine(std::int64_t line)
{
    const std::size_t base = setBase(line);
    if (const std::size_t slot = find(base, tagOf(line));
        slot != absent) {
        hits_ += 1;
        touch(ways_[slot], line);
        return true;
    }
    // Write-through, no write-allocate: the line is not filled.
    const Way *set = ways_.data() + base;
    countMiss(std::any_of(set, set + numWays_, [](const Way &way) {
        return way.stamp == 0;
    }));
    return false;
}

bool
SetAssocCache::present(std::int64_t addr) const
{
    const std::int64_t line = lineOf(addr);
    return find(setBase(line), tagOf(line)) != absent;
}

void
SetAssocCache::reset()
{
    std::fill(ways_.begin(), ways_.end(), Way{});
    tick_ = 0;
    haveLastLine_ = false;
    hits_ = 0;
    misses_ = 0;
    coldMisses_ = 0;
    conflictMisses_ = 0;
}

BranchTargetBuffer::BranchTargetBuffer(std::size_t entries, int ways,
                                       BranchPredictor predictor)
    : ways_(static_cast<std::size_t>(ways))
{
    panicIf(entries == 0, "BTB needs at least one entry");
    panicIf(ways <= 0, "BTB associativity must be positive");
    panicIf(entries % ways_ != 0,
            "BTB associativity must divide the entry count");
    const std::size_t numSets = entries / ways_;
    panicIf(!std::has_single_bit(numSets),
            "BTB set count must be a power of two");
    setMask_ = numSets - 1;
    // Bake the policy into tables, so a probe runs no switch. The
    // 2-bit counter saturates and starts weakly not-taken (paper
    // §4.1); the 1-bit predictor keeps the last outcome and starts
    // not-taken; the static policies ignore history.
    initialCounter_ = predictor == BranchPredictor::TwoBit ? 1 : 0;
    tagMissPredicts_ = predictor == BranchPredictor::StaticTaken;
    for (std::uint8_t c = 0; c < 4; ++c) {
        switch (predictor) {
          case BranchPredictor::TwoBit:
            predicts_[c] = c >= 2;
            train_[0][c] = c == 0 ? 0 : c - 1;
            train_[1][c] = c == 3 ? 3 : c + 1;
            break;
          case BranchPredictor::OneBit:
            predicts_[c] = c != 0;
            train_[0][c] = 0;
            train_[1][c] = 1;
            break;
          case BranchPredictor::StaticTaken:
          case BranchPredictor::StaticNotTaken:
            predicts_[c] = tagMissPredicts_;
            train_[0][c] = c;
            train_[1][c] = c;
            break;
        }
    }
    reset();
}

bool
BranchTargetBuffer::predictAndTrain(std::int64_t addr, bool taken)
{
    lookups_ += 1;
    Entry *set = entries_.data() +
                 (static_cast<std::size_t>(addr >> 2) & setMask_) * ways_;
    if (ways_ == 1) {
        // Tagless: the counter is shared between aliasing branches
        // and predicts whatever the last owner trained; the owner
        // tag only feeds the replacements statistic.
        const bool predicted = predicts_[set->counter];
        if (set->stamp != 0 && set->owner != addr)
            replacements_ += 1;
        set->owner = addr;
        set->stamp = 1;
        set->counter = train_[taken][set->counter];
        return predicted;
    }
    Entry *entry = std::find_if(set, set + ways_, [addr](const Entry &e) {
        return e.stamp != 0 && e.owner == addr;
    });
    bool predicted = tagMissPredicts_;
    if (entry != set + ways_) {
        predicted = predicts_[entry->counter];
    } else {
        // Tag miss: predict not-taken (a static-taken policy still
        // says taken), then allocate the first invalid way, else the
        // LRU way. Invalid ways carry stamp 0 and valid stamps are
        // distinct, so that is the first least-stamped way.
        entry = std::min_element(
            set, set + ways_, [](const Entry &a, const Entry &b) {
                return a.stamp < b.stamp;
            });
        if (entry->stamp != 0)
            replacements_ += 1;
        entry->owner = addr;
        entry->counter = initialCounter_;
    }
    entry->counter = train_[taken][entry->counter];
    entry->stamp = ++tick_;
    return predicted;
}

void
BranchTargetBuffer::reset()
{
    Entry fresh;
    fresh.counter = initialCounter_;
    entries_.assign((setMask_ + 1) * ways_, fresh);
    tick_ = 0;
    lookups_ = 0;
    replacements_ = 0;
}

} // namespace predilp
