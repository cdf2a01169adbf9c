/**
 * @file
 * The serializable evaluation-request surface. One EvalRequest
 * describes everything a suite evaluation depends on — workload
 * subset, model subset, the full SimConfig, ablation flags, and
 * input scale — and round-trips through canonical JSON, so the same
 * struct is the in-process API (SuiteEvaluator::evaluate) and a
 * line in a grid spec.
 *
 * requestDigest() extends SimConfig::configDigest() to the whole
 * request: two requests with equal digests produce bit-identical
 * EvalResponses (given the same source tree), which is what lets
 * the sweep report label each cell by its request.
 */

#ifndef PREDILP_DRIVER_EVAL_REQUEST_HH
#define PREDILP_DRIVER_EVAL_REQUEST_HH

#include <string>
#include <vector>

#include "driver/report.hh"
#include "support/json.hh"

namespace predilp
{

/** One complete evaluation request; see file comment. */
struct EvalRequest
{
    /** Workload names to evaluate, in order; empty = whole suite. */
    std::vector<std::string> workloads;

    /** Models per workload; empty = all three paper models. */
    std::vector<Model> models;

    /** Full simulation configuration (machine, caches, BTB, fuel). */
    SimConfig sim;

    /** Optional-optimization switches for every compile. */
    AblationFlags ablation;

    /** Input scale multiplier applied to every workload. */
    int scale = 1;

    /** The model list with the empty default expanded. */
    std::vector<Model> effectiveModels() const;

    /** Canonical JSON object (fixed member order, all fields). */
    JsonValue toJson() const;

    /**
     * Parse a request object. Absent keys keep their defaults;
     * unknown keys throw FatalError (at every nesting level).
     */
    static EvalRequest fromJson(const JsonValue &json);

    /**
     * Parse a "scale" value; FatalError unless it is positive and
     * every workload's input size (defaultScale * scale, passed to
     * makeInput) fits in an int.
     */
    static int scaleFromJson(const JsonValue &json);

    /**
     * Versioned digest over the canonical JSON ("v1:" + 32 hex
     * chars), same construction as SimConfig::configDigest.
     */
    std::string requestDigest() const;

    bool operator==(const EvalRequest &other) const;
};

/** The results of one evaluated EvalRequest. */
struct EvalResponse
{
    /** One entry per requested workload, in request order. */
    std::vector<BenchmarkResult> results;

    /** requestDigest() of the request that produced this. */
    std::string requestDigest;
};

} // namespace predilp

#endif // PREDILP_DRIVER_EVAL_REQUEST_HH
