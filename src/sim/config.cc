#include "sim/config.hh"

#include <bit>
#include <utility>

#include "store/sha256.hh"
#include "support/diag.hh"

namespace predilp
{

namespace
{

/** Throw FatalError when @p json has a member not in @p allowed. */
void
rejectUnknownKeys(const JsonValue &json,
                  std::initializer_list<const char *> allowed,
                  const char *what)
{
    for (const auto &[key, value] : json.members()) {
        bool known = false;
        for (const char *name : allowed) {
            if (key == name) {
                known = true;
                break;
            }
        }
        if (!known) {
            throw FatalError(std::string("unknown ") + what +
                             " key '" + key + "'");
        }
    }
}

/** Read an optional integer member into @p target, checked > 0. */
template <typename T>
void
readPositive(const JsonValue &json, const char *key, T &target)
{
    if (const JsonValue *v = json.find(key)) {
        std::int64_t raw = v->asInt();
        if (raw <= 0) {
            throw FatalError(std::string("config key '") + key +
                             "' must be positive");
        }
        target = static_cast<T>(raw);
    }
}

} // namespace

JsonValue
machineToJson(const MachineConfig &machine)
{
    return JsonValue::makeObject({
        {"issue_width", JsonValue::makeInt(machine.issueWidth)},
        {"branches_per_cycle",
         JsonValue::makeInt(machine.branchesPerCycle)},
        {"mispredict_penalty",
         JsonValue::makeInt(machine.mispredictPenalty)},
        {"lat_int_alu", JsonValue::makeInt(machine.latIntAlu)},
        {"lat_int_mul", JsonValue::makeInt(machine.latIntMul)},
        {"lat_int_div", JsonValue::makeInt(machine.latIntDiv)},
        {"lat_fp_alu", JsonValue::makeInt(machine.latFpAlu)},
        {"lat_fp_div", JsonValue::makeInt(machine.latFpDiv)},
        {"lat_load", JsonValue::makeInt(machine.latLoad)},
        {"lat_store", JsonValue::makeInt(machine.latStore)},
        {"lat_branch", JsonValue::makeInt(machine.latBranch)},
        {"lat_pred_define",
         JsonValue::makeInt(machine.latPredDefine)},
    });
}

MachineConfig
machineFromJson(const JsonValue &json)
{
    rejectUnknownKeys(json,
                      {"issue_width", "branches_per_cycle",
                       "mispredict_penalty", "lat_int_alu",
                       "lat_int_mul", "lat_int_div", "lat_fp_alu",
                       "lat_fp_div", "lat_load", "lat_store",
                       "lat_branch", "lat_pred_define"},
                      "machine");
    MachineConfig machine;
    readPositive(json, "issue_width", machine.issueWidth);
    readPositive(json, "branches_per_cycle",
                 machine.branchesPerCycle);
    if (const JsonValue *v = json.find("mispredict_penalty"))
        machine.mispredictPenalty = static_cast<int>(v->asInt());
    readPositive(json, "lat_int_alu", machine.latIntAlu);
    readPositive(json, "lat_int_mul", machine.latIntMul);
    readPositive(json, "lat_int_div", machine.latIntDiv);
    readPositive(json, "lat_fp_alu", machine.latFpAlu);
    readPositive(json, "lat_fp_div", machine.latFpDiv);
    readPositive(json, "lat_load", machine.latLoad);
    readPositive(json, "lat_store", machine.latStore);
    readPositive(json, "lat_branch", machine.latBranch);
    readPositive(json, "lat_pred_define", machine.latPredDefine);
    return machine;
}

SimConfig
SimConfig::paperMachine()
{
    return SimConfig{};
}

JsonValue
SimConfig::toJson() const
{
    return JsonValue::makeObject({
        {"machine", machineToJson(machine)},
        {"perfect_caches", JsonValue::makeBool(perfectCaches)},
        {"cache_size_bytes", JsonValue::makeInt(cacheSizeBytes)},
        {"cache_line_bytes", JsonValue::makeInt(cacheLineBytes)},
        {"cache_assoc", JsonValue::makeInt(cacheAssociativity)},
        {"cache_miss_penalty",
         JsonValue::makeInt(cacheMissPenalty)},
        {"btb_entries",
         JsonValue::makeInt(static_cast<std::int64_t>(btbEntries))},
        {"btb_assoc", JsonValue::makeInt(btbAssociativity)},
        {"predictor",
         JsonValue::makeString(predictorName(predictor))},
        {"max_dyn_instrs",
         JsonValue::makeInt(static_cast<std::int64_t>(maxDynInstrs))},
    });
}

SimConfig
SimConfig::fromJson(const JsonValue &json)
{
    rejectUnknownKeys(json,
                      {"machine", "perfect_caches",
                       "cache_size_bytes", "cache_line_bytes",
                       "cache_assoc", "cache_miss_penalty",
                       "btb_entries", "btb_assoc", "predictor",
                       "max_dyn_instrs"},
                      "config");
    SimConfig config;
    if (const JsonValue *v = json.find("machine"))
        config.machine = machineFromJson(*v);
    if (const JsonValue *v = json.find("perfect_caches"))
        config.perfectCaches = v->asBool();
    readPositive(json, "cache_size_bytes", config.cacheSizeBytes);
    readPositive(json, "cache_line_bytes", config.cacheLineBytes);
    readPositive(json, "cache_assoc", config.cacheAssociativity);
    if (const JsonValue *v = json.find("cache_miss_penalty"))
        config.cacheMissPenalty = static_cast<int>(v->asInt());
    readPositive(json, "btb_entries", config.btbEntries);
    readPositive(json, "btb_assoc", config.btbAssociativity);
    if (const JsonValue *v = json.find("predictor"))
        config.predictor = predictorFromName(v->asString());
    readPositive(json, "max_dyn_instrs", config.maxDynInstrs);
    config.checkGeometry();
    return config;
}

void
SimConfig::checkGeometry() const
{
    const std::pair<const char *, std::int64_t> fields[] = {
        {"cache_size_bytes", cacheSizeBytes},
        {"cache_line_bytes", cacheLineBytes},
        {"cache_assoc", cacheAssociativity},
        {"btb_entries", static_cast<std::int64_t>(btbEntries)},
        {"btb_assoc", btbAssociativity},
    };
    for (const auto &[key, value] : fields) {
        if (value <= 0 ||
            !std::has_single_bit(static_cast<std::uint64_t>(value))) {
            throw FatalError(std::string("'") + key +
                             "' must be a power of two");
        }
    }
}

std::string
SimConfig::configDigest() const
{
    // The domain tag versions the digest independently of the JSON
    // schema: bump it (and the "v1:" prefix) together whenever the
    // canonical form changes meaning.
    std::string canonical =
        "predilp-simconfig-v1\n" + toJson().dump();
    return "v1:" + sha256Hex(canonical).substr(0, 32);
}

bool
SimConfig::operator==(const SimConfig &other) const
{
    const MachineConfig &a = machine;
    const MachineConfig &b = other.machine;
    return a.issueWidth == b.issueWidth &&
           a.branchesPerCycle == b.branchesPerCycle &&
           a.mispredictPenalty == b.mispredictPenalty &&
           a.latIntAlu == b.latIntAlu &&
           a.latIntMul == b.latIntMul &&
           a.latIntDiv == b.latIntDiv && a.latFpAlu == b.latFpAlu &&
           a.latFpDiv == b.latFpDiv && a.latLoad == b.latLoad &&
           a.latStore == b.latStore && a.latBranch == b.latBranch &&
           a.latPredDefine == b.latPredDefine &&
           perfectCaches == other.perfectCaches &&
           cacheSizeBytes == other.cacheSizeBytes &&
           cacheLineBytes == other.cacheLineBytes &&
           cacheAssociativity == other.cacheAssociativity &&
           cacheMissPenalty == other.cacheMissPenalty &&
           btbEntries == other.btbEntries &&
           btbAssociativity == other.btbAssociativity &&
           predictor == other.predictor &&
           maxDynInstrs == other.maxDynInstrs;
}

} // namespace predilp
