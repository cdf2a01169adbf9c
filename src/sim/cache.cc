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
    : predictor_(predictor), ways_(static_cast<std::size_t>(ways))
{
    panicIf(entries == 0, "BTB needs at least one entry");
    panicIf(ways <= 0, "BTB associativity must be positive");
    panicIf(entries % ways_ != 0,
            "BTB associativity must divide the entry count");
    const std::size_t numSets = entries / ways_;
    panicIf(!std::has_single_bit(numSets),
            "BTB set count must be a power of two");
    setMask_ = numSets - 1;
    counters_.assign(entries, initialCounter());
    owners_.assign(entries, 0);
    ownerValid_.assign(entries, 0);
    lastUse_.assign(entries, 0);
}

std::uint8_t
BranchTargetBuffer::initialCounter() const
{
    // Weakly not-taken for the 2-bit counter (paper §4.1); the 1-bit
    // predictor starts predicting not-taken.
    return predictor_ == BranchPredictor::TwoBit ? 1 : 0;
}

bool
BranchTargetBuffer::counterPredictsTaken(std::uint8_t counter) const
{
    switch (predictor_) {
      case BranchPredictor::TwoBit:
        return counter >= 2;
      case BranchPredictor::OneBit:
        return counter != 0;
      case BranchPredictor::StaticTaken:
        return true;
      case BranchPredictor::StaticNotTaken:
        return false;
    }
    panic("unreachable predictor value");
}

void
BranchTargetBuffer::train(std::uint8_t &counter, bool taken) const
{
    switch (predictor_) {
      case BranchPredictor::TwoBit:
        if (taken) {
            if (counter < 3)
                counter += 1;
        } else {
            if (counter > 0)
                counter -= 1;
        }
        return;
      case BranchPredictor::OneBit:
        counter = taken ? 1 : 0;
        return;
      case BranchPredictor::StaticTaken:
      case BranchPredictor::StaticNotTaken:
        return; // static policies ignore history.
    }
}

bool
BranchTargetBuffer::predictAndTrain(std::int64_t addr, bool taken)
{
    lookups_ += 1;
    const std::size_t base =
        (static_cast<std::size_t>(addr >> 2) & setMask_) * ways_;
    if (ways_ == 1) {
        // Tagless: the counter is shared between aliasing branches
        // and predicts whatever the last owner trained; the owner
        // tag only feeds the replacements statistic.
        const bool predicted = counterPredictsTaken(counters_[base]);
        if (!ownerValid_[base]) {
            ownerValid_[base] = 1;
            owners_[base] = addr;
        } else if (owners_[base] != addr) {
            replacements_ += 1;
            owners_[base] = addr;
        }
        train(counters_[base], taken);
        return predicted;
    }
    std::size_t victim = 0;
    bool found = false;
    for (std::size_t way = 0; way < ways_; ++way) {
        if (ownerValid_[base + way] && owners_[base + way] == addr) {
            victim = way;
            found = true;
            break;
        }
    }
    bool predicted = false;
    if (found) {
        predicted = counterPredictsTaken(counters_[base + victim]);
    } else {
        // Tag miss: predict not-taken (a static-taken policy still
        // says taken), then allocate an invalid way, else the LRU.
        predicted = predictor_ == BranchPredictor::StaticTaken;
        bool evicting = true;
        for (std::size_t way = 0; way < ways_; ++way) {
            if (!ownerValid_[base + way]) {
                victim = way;
                evicting = false;
                break;
            }
            if (lastUse_[base + way] < lastUse_[base + victim])
                victim = way;
        }
        if (evicting)
            replacements_ += 1;
        ownerValid_[base + victim] = 1;
        owners_[base + victim] = addr;
        counters_[base + victim] = initialCounter();
    }
    train(counters_[base + victim], taken);
    lastUse_[base + victim] = ++tick_;
    return predicted;
}

void
BranchTargetBuffer::reset()
{
    std::fill(counters_.begin(), counters_.end(), initialCounter());
    std::fill(ownerValid_.begin(), ownerValid_.end(), 0);
    std::fill(lastUse_.begin(), lastUse_.end(), 0);
    tick_ = 0;
    lookups_ = 0;
    replacements_ = 0;
}

} // namespace predilp
