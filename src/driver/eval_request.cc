#include "driver/eval_request.hh"

#include <algorithm>
#include <limits>

#include "store/sha256.hh"
#include "support/diag.hh"

namespace predilp
{

std::vector<Model>
EvalRequest::effectiveModels() const
{
    if (!models.empty())
        return models;
    return {Model::Superblock, Model::CondMove, Model::FullPred};
}

JsonValue
EvalRequest::toJson() const
{
    std::vector<JsonValue> workloadItems;
    workloadItems.reserve(workloads.size());
    for (const std::string &name : workloads)
        workloadItems.push_back(JsonValue::makeString(name));
    std::vector<JsonValue> modelItems;
    modelItems.reserve(models.size());
    for (Model model : models)
        modelItems.push_back(JsonValue::makeString(modelKey(model)));
    return JsonValue::makeObject({
        {"workloads", JsonValue::makeArray(std::move(workloadItems))},
        {"models", JsonValue::makeArray(std::move(modelItems))},
        {"sim", sim.toJson()},
        {"ablation", ablation.toJson()},
        {"scale", JsonValue::makeInt(scale)},
    });
}

EvalRequest
EvalRequest::fromJson(const JsonValue &json)
{
    EvalRequest request;
    for (const auto &[key, value] : json.members()) {
        if (key == "workloads") {
            for (const JsonValue &item : value.items())
                request.workloads.push_back(item.asString());
        } else if (key == "models") {
            for (const JsonValue &item : value.items())
                request.models.push_back(
                    modelFromKey(item.asString()));
        } else if (key == "sim") {
            request.sim = SimConfig::fromJson(value);
        } else if (key == "ablation") {
            request.ablation = AblationFlags::fromJson(value);
        } else if (key == "scale") {
            request.scale = scaleFromJson(value);
        } else {
            throw FatalError("unknown request key '" + key + "'");
        }
    }
    return request;
}

int
EvalRequest::scaleFromJson(const JsonValue &json)
{
    int maxDefault = 1;
    for (const Workload &w : allWorkloads())
        maxDefault = std::max(maxDefault, w.defaultScale);
    const int max = std::numeric_limits<int>::max() / maxDefault;
    const std::int64_t raw = json.asInt();
    if (raw < 1 || raw > max) {
        throw FatalError("'scale' must be from 1 to " +
                         std::to_string(max));
    }
    return static_cast<int>(raw);
}

std::string
EvalRequest::requestDigest() const
{
    std::string canonical =
        "predilp-evalrequest-v1\n" + toJson().dump();
    return "v1:" + sha256Hex(canonical).substr(0, 32);
}

bool
EvalRequest::operator==(const EvalRequest &other) const
{
    return workloads == other.workloads && models == other.models &&
           sim == other.sim && ablation == other.ablation &&
           scale == other.scale;
}

} // namespace predilp
