#include "sim/config.hh"

#include <bit>
#include <limits>
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

/** Read an optional integer member into @p target, checked >= @p min
 * (1 for sizes and latencies, 0 for penalties: a negative miss penalty
 * would make a miss cheaper than a hit) and <= T's maximum (the cast
 * would wrap a larger value, e.g. 2^32 - 12 into -12). */
template <typename T>
void
readAtLeast(const JsonValue &json, const char *key, std::int64_t min,
            T &target)
{
    if (const JsonValue *v = json.find(key)) {
        std::int64_t raw = v->asInt();
        if (raw < min || !std::in_range<T>(raw)) {
            throw FatalError(
                std::string("config key '") + key + "' must be from " +
                std::to_string(min) + " to " +
                std::to_string(std::numeric_limits<T>::max()));
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
    readAtLeast(json, "issue_width", 1, machine.issueWidth);
    readAtLeast(json, "branches_per_cycle", 1, machine.branchesPerCycle);
    readAtLeast(json, "mispredict_penalty", 0, machine.mispredictPenalty);
    readAtLeast(json, "lat_int_alu", 1, machine.latIntAlu);
    readAtLeast(json, "lat_int_mul", 1, machine.latIntMul);
    readAtLeast(json, "lat_int_div", 1, machine.latIntDiv);
    readAtLeast(json, "lat_fp_alu", 1, machine.latFpAlu);
    readAtLeast(json, "lat_fp_div", 1, machine.latFpDiv);
    readAtLeast(json, "lat_load", 1, machine.latLoad);
    readAtLeast(json, "lat_store", 1, machine.latStore);
    readAtLeast(json, "lat_branch", 1, machine.latBranch);
    readAtLeast(json, "lat_pred_define", 1, machine.latPredDefine);
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
    readAtLeast(json, "cache_size_bytes", 1, config.cacheSizeBytes);
    readAtLeast(json, "cache_line_bytes", 1, config.cacheLineBytes);
    readAtLeast(json, "cache_assoc", 1, config.cacheAssociativity);
    readAtLeast(json, "cache_miss_penalty", 0, config.cacheMissPenalty);
    readAtLeast(json, "btb_entries", 1, config.btbEntries);
    readAtLeast(json, "btb_assoc", 1, config.btbAssociativity);
    if (const JsonValue *v = json.find("predictor"))
        config.predictor = predictorFromName(v->asString());
    readAtLeast(json, "max_dyn_instrs", 1, config.maxDynInstrs);
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
