/**
 * @file
 * SimConfig serialization tests: canonical JSON round-trips exactly,
 * unknown keys are rejected at both nesting levels, configDigest is
 * stable across producing-field order and default materialization,
 * and the generalized cache/BTB models degenerate to the paper's
 * fixed memory system at associativity 1.
 */

#include <gtest/gtest.h>

#include "sim/cache.hh"
#include "sim/config.hh"
#include "support/diag.hh"

namespace predilp
{
namespace
{

SimConfig
nonDefaultConfig()
{
    SimConfig config;
    config.machine = issue4Branch1();
    config.machine.mispredictPenalty = 5;
    config.perfectCaches = false;
    config.cacheSizeBytes = 16 * 1024;
    config.cacheLineBytes = 32;
    config.cacheAssociativity = 4;
    config.cacheMissPenalty = 20;
    config.btbEntries = 256;
    config.btbAssociativity = 2;
    config.predictor = BranchPredictor::OneBit;
    config.maxDynInstrs = 123456789;
    return config;
}

TEST(SimConfig, JsonRoundTripIsExact)
{
    SimConfig config = nonDefaultConfig();
    SimConfig back =
        SimConfig::fromJson(JsonValue::parse(config.toJson().dump()));
    EXPECT_TRUE(back == config);
    // Canonical form: re-serializing the parsed config is
    // byte-identical.
    EXPECT_EQ(back.toJson().dump(), config.toJson().dump());
}

TEST(SimConfig, AbsentKeysKeepDefaults)
{
    SimConfig parsed =
        SimConfig::fromJson(JsonValue::parse("{\"btb_entries\": 64}"));
    SimConfig expected;
    expected.btbEntries = 64;
    EXPECT_TRUE(parsed == expected);
}

TEST(SimConfig, UnknownKeysRejectedAtBothLevels)
{
    EXPECT_THROW(
        SimConfig::fromJson(JsonValue::parse("{\"btb_size\": 64}")),
        FatalError);
    EXPECT_THROW(SimConfig::fromJson(JsonValue::parse(
                     "{\"machine\": {\"issue\": 8}}")),
                 FatalError);
}

TEST(SimConfig, NonPositiveSizesRejected)
{
    EXPECT_THROW(SimConfig::fromJson(
                     JsonValue::parse("{\"cache_size_bytes\": 0}")),
                 FatalError);
    EXPECT_THROW(SimConfig::fromJson(JsonValue::parse(
                     "{\"machine\": {\"issue_width\": -1}}")),
                 FatalError);
    // Penalties may be 0 but never negative: a negative miss penalty
    // would price a miss below a hit.
    EXPECT_THROW(SimConfig::fromJson(JsonValue::parse(
                     "{\"cache_miss_penalty\": -1}")),
                 FatalError);
    EXPECT_THROW(SimConfig::fromJson(JsonValue::parse(
                     "{\"machine\": {\"mispredict_penalty\": -1}}")),
                 FatalError);
    SimConfig zero = SimConfig::fromJson(JsonValue::parse(
        "{\"cache_miss_penalty\": 0,"
        " \"machine\": {\"mispredict_penalty\": 0}}"));
    EXPECT_EQ(zero.cacheMissPenalty, 0);
    EXPECT_EQ(zero.machine.mispredictPenalty, 0);
}

TEST(SimConfig, DigestIndependentOfSourceKeyOrder)
{
    // Two spellings of the same config — different key order, one
    // relying on defaults — must produce the same digest, because
    // the digest runs over the canonical re-serialization.
    SimConfig a = SimConfig::fromJson(JsonValue::parse(
        "{\"btb_entries\": 256, \"perfect_caches\": false}"));
    SimConfig b = SimConfig::fromJson(JsonValue::parse(
        "{\"perfect_caches\": false, \"btb_entries\": 256,"
        " \"cache_assoc\": 1, \"predictor\": \"twobit\"}"));
    EXPECT_TRUE(a == b);
    EXPECT_EQ(a.configDigest(), b.configDigest());
}

TEST(SimConfig, DigestChangesWithAnyField)
{
    const SimConfig base;
    const std::string baseDigest = base.configDigest();
    EXPECT_EQ(baseDigest.substr(0, 3), "v1:");
    EXPECT_EQ(baseDigest.size(), 3u + 32u);

    SimConfig changed = base;
    changed.predictor = BranchPredictor::OneBit;
    EXPECT_NE(changed.configDigest(), baseDigest);

    changed = base;
    changed.machine.latLoad += 1;
    EXPECT_NE(changed.configDigest(), baseDigest);

    changed = base;
    changed.btbAssociativity = 2;
    EXPECT_NE(changed.configDigest(), baseDigest);
}

TEST(SimConfig, PaperMachineIsTheDefault)
{
    EXPECT_TRUE(SimConfig::paperMachine() == SimConfig{});
    EXPECT_EQ(SimConfig::paperMachine().configDigest(),
              SimConfig{}.configDigest());
}

TEST(SimConfig, PredictorNamesRoundTrip)
{
    for (BranchPredictor p :
         {BranchPredictor::TwoBit, BranchPredictor::OneBit,
          BranchPredictor::StaticTaken,
          BranchPredictor::StaticNotTaken}) {
        EXPECT_EQ(predictorFromName(predictorName(p)), p);
    }
    EXPECT_THROW(predictorFromName("gshare"), FatalError);
}

TEST(SetAssocCache, TwoWaysHoldConflictingLines)
{
    // Two addresses one cache-size apart map to the same set. The
    // direct-mapped cache ping-pongs; a 2-way set holds both.
    const std::int64_t stride = 1024;
    SetAssocCache direct(stride, 64, 1);
    SetAssocCache twoWay(stride, 64, 2);
    for (int round = 0; round < 4; ++round) {
        direct.access(0);
        direct.access(stride);
        twoWay.access(0);
        twoWay.access(stride);
    }
    EXPECT_EQ(direct.hits(), 0u);
    EXPECT_EQ(direct.conflictMisses(), 7u); // all but the cold miss.
    EXPECT_EQ(twoWay.hits(), 6u);
    EXPECT_EQ(twoWay.misses(), 2u);
    EXPECT_EQ(twoWay.conflictMisses(), 0u);
}

TEST(SetAssocCache, WriteMissDoesNotAllocate)
{
    SetAssocCache cache(1024, 64, 2);
    EXPECT_FALSE(cache.writeAccess(0));
    EXPECT_FALSE(cache.present(0));
    EXPECT_TRUE(cache.access(0) == false); // read miss allocates...
    EXPECT_TRUE(cache.writeAccess(0));     // ...then the write hits.
}

TEST(BranchTargetBuffer, TwoBitHysteresisVsOneBit)
{
    BranchTargetBuffer twoBit(16, 1, BranchPredictor::TwoBit);
    BranchTargetBuffer oneBit(16, 1, BranchPredictor::OneBit);
    for (int i = 0; i < 3; ++i) {
        twoBit.predictAndTrain(4, true);
        oneBit.predictAndTrain(4, true);
    }
    // One not-taken blip, predicted taken by both: the saturating
    // counter keeps predicting taken (3 -> 2), the last-outcome
    // predictor flips.
    EXPECT_TRUE(twoBit.predictAndTrain(4, false));
    EXPECT_TRUE(oneBit.predictAndTrain(4, false));
    EXPECT_TRUE(twoBit.predictAndTrain(4, true));
    EXPECT_FALSE(oneBit.predictAndTrain(4, true));
    EXPECT_EQ(twoBit.lookups(), 5u);

    // Statics ignore training entirely.
    BranchTargetBuffer taken(16, 1, BranchPredictor::StaticTaken);
    BranchTargetBuffer notTaken(16, 1,
                                BranchPredictor::StaticNotTaken);
    EXPECT_TRUE(taken.predictAndTrain(4, false));
    EXPECT_FALSE(notTaken.predictAndTrain(4, true));
    EXPECT_TRUE(taken.predictAndTrain(4, false));
    EXPECT_FALSE(notTaken.predictAndTrain(4, true));
}

TEST(BranchTargetBuffer, TaglessTableAliases)
{
    // One-way: two branches one table-length apart share a counter
    // (training leaks across), and the stats-only owner tag counts
    // the aliasing as replacements.
    BranchTargetBuffer btb(16, 1, BranchPredictor::TwoBit);
    for (int i = 0; i < 4; ++i)
        btb.predictAndTrain(4, true);
    EXPECT_EQ(btb.replacements(), 0u);
    // Aliased entry predicts taken; training it is an owner change.
    EXPECT_TRUE(btb.predictAndTrain(4 + 16 * 4, true));
    EXPECT_EQ(btb.replacements(), 1u);

    // Two-way tagged: the second branch gets its own entry and
    // predicts not-taken on its tag miss.
    BranchTargetBuffer tagged(16, 2, BranchPredictor::TwoBit);
    for (int i = 0; i < 4; ++i)
        tagged.predictAndTrain(4, true);
    EXPECT_TRUE(tagged.predictAndTrain(4, true));
    EXPECT_FALSE(tagged.predictAndTrain(4 + 16 * 4, true));
    EXPECT_EQ(tagged.replacements(), 0u);
}

} // namespace
} // namespace predilp
