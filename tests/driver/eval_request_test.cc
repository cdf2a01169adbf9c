/**
 * @file
 * EvalRequest tests: the serializable request surface round-trips
 * through canonical JSON, rejects unknown keys, digests stably, and
 * evaluate(EvalRequest) answers with the request's digest.
 */

#include <gtest/gtest.h>

#include "driver/evaluator.hh"
#include "support/diag.hh"

namespace predilp
{
namespace
{

EvalRequest
nonDefaultRequest()
{
    EvalRequest request;
    request.workloads = {"cmp", "wc"};
    request.models = {Model::FullPred, Model::Superblock};
    request.sim.machine = issue4Branch1();
    request.sim.perfectCaches = false;
    request.sim.btbEntries = 256;
    request.sim.predictor = BranchPredictor::OneBit;
    request.ablation.orTree = false;
    request.scale = 2;
    return request;
}

TEST(EvalRequest, JsonRoundTripIsExact)
{
    EvalRequest request = nonDefaultRequest();
    EvalRequest back = EvalRequest::fromJson(
        JsonValue::parse(request.toJson().dump()));
    EXPECT_TRUE(back == request);
    EXPECT_EQ(back.toJson().dump(), request.toJson().dump());
}

TEST(EvalRequest, UnknownKeysRejected)
{
    EXPECT_THROW(EvalRequest::fromJson(
                     JsonValue::parse("{\"workload\": [\"cmp\"]}")),
                 FatalError);
    EXPECT_THROW(EvalRequest::fromJson(JsonValue::parse(
                     "{\"models\": [\"hyperblock\"]}")),
                 FatalError);
    EXPECT_THROW(
        EvalRequest::fromJson(JsonValue::parse("{\"scale\": 0}")),
        FatalError);
    // Out-of-range integers fail rather than wrap into range.
    for (const char *json :
         {"{\"scale\": 4294967296}", "{\"scale\": 4294967297}",
          "{\"sim\": {\"cache_miss_penalty\": 4294967284}}"}) {
        SCOPED_TRACE(json);
        EXPECT_THROW(EvalRequest::fromJson(JsonValue::parse(json)),
                     FatalError);
    }
}

TEST(EvalRequest, EffectiveModelsExpandsEmptyDefault)
{
    EvalRequest request;
    EXPECT_EQ(request.effectiveModels(),
              (std::vector<Model>{Model::Superblock, Model::CondMove,
                                  Model::FullPred}));
    request.models = {Model::CondMove};
    EXPECT_EQ(request.effectiveModels(),
              std::vector<Model>{Model::CondMove});
}

TEST(EvalRequest, DigestCoversEveryComponent)
{
    const EvalRequest base;
    const std::string baseDigest = base.requestDigest();
    EXPECT_EQ(baseDigest.substr(0, 3), "v1:");
    EXPECT_EQ(base.requestDigest(), EvalRequest{}.requestDigest());

    EvalRequest changed = base;
    changed.workloads = {"cmp"};
    EXPECT_NE(changed.requestDigest(), baseDigest);

    changed = base;
    changed.sim.btbEntries = 512;
    EXPECT_NE(changed.requestDigest(), baseDigest);

    changed = base;
    changed.ablation.unrolling = false;
    EXPECT_NE(changed.requestDigest(), baseDigest);

    changed = base;
    changed.scale = 3;
    EXPECT_NE(changed.requestDigest(), baseDigest);
}

TEST(EvalRequest, ResponseCarriesRequestDigest)
{
    SuiteEvaluator evaluator(1);
    EvalRequest request;
    request.sim.machine = issue8Branch1();
    request.workloads = {"cmp"};
    EvalResponse response = evaluator.evaluate(request);
    EXPECT_EQ(response.requestDigest, request.requestDigest());
}

TEST(EvalRequest, UnknownWorkloadThrows)
{
    SuiteEvaluator evaluator(1);
    EvalRequest request;
    request.workloads = {"no_such_workload"};
    EXPECT_THROW(evaluator.evaluate(request), FatalError);
}

} // namespace
} // namespace predilp
