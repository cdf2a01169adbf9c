#include "driver/certified.hh"

#include <algorithm>
#include <iterator>
#include <limits>
#include <sstream>

#include "store/sha256.hh"

namespace predilp
{

namespace
{

/** A SimResult headline figure and its record name. */
struct Headline
{
    const char *name;
    std::uint64_t SimResult::*field;
};

/** Every headline figure; a record missing one is never served. */
constexpr Headline kHeadlines[] = {
    {"cycles", &SimResult::cycles},
    {"dyn_instrs", &SimResult::dynInstrs},
    {"nullified", &SimResult::nullified},
    {"branches", &SimResult::branches},
    {"cond_branches", &SimResult::condBranches},
    {"mispredicts", &SimResult::mispredicts},
    {"loads", &SimResult::loads},
    {"stores", &SimResult::stores},
    {"icache_misses", &SimResult::icacheMisses},
    {"dcache_misses", &SimResult::dcacheMisses},
};

/** @p object's member @p key when it has kind @p kind. */
const JsonValue *
memberOf(const JsonValue &object, const char *key,
         JsonValue::Kind kind)
{
    if (!object.isObject())
        return nullptr;
    const JsonValue *value = object.find(key);
    return value != nullptr && value->kind() == kind ? value
                                                      : nullptr;
}

/** Parse a provenance object written by CellProvenance::toJson. */
std::optional<CellProvenance>
provenanceFromJson(const JsonValue &json)
{
    using Kind = JsonValue::Kind;
    CellProvenance prov;
    std::pair<const char *, std::string *> strings[] = {
        {"workload", &prov.workload},
        {"model", &prov.model},
        {"ablation", &prov.ablation},
        {"machine", &prov.machine},
        {"source_sha256", &prov.sourceSha256},
        {"pipeline_digest", &prov.pipelineDigest},
        {"config_digest", &prov.configDigest},
        {"trace_digest", &prov.traceDigest},
    };
    for (auto &[key, out] : strings) {
        const JsonValue *value = memberOf(json, key, Kind::String);
        if (value == nullptr)
            return std::nullopt;
        *out = value->asString();
    }
    const JsonValue *scale = memberOf(json, "scale", Kind::Int);
    const JsonValue *fuel = memberOf(json, "fuel", Kind::Int);
    if (scale == nullptr || scale->asInt() < 1 ||
        scale->asInt() > std::numeric_limits<int>::max() ||
        fuel == nullptr || fuel->asInt() < 0)
        return std::nullopt;
    prov.scale = static_cast<int>(scale->asInt());
    prov.fuel = static_cast<std::uint64_t>(fuel->asInt());
    return prov;
}

} // namespace

JsonValue
CellProvenance::toJson() const
{
    return JsonValue::makeObject({
        {"workload", JsonValue::makeString(workload)},
        {"model", JsonValue::makeString(model)},
        {"scale", JsonValue::makeInt(scale)},
        {"ablation", JsonValue::makeString(ablation)},
        {"fuel",
         JsonValue::makeInt(static_cast<std::int64_t>(fuel))},
        {"machine", JsonValue::makeString(machine)},
        {"source_sha256", JsonValue::makeString(sourceSha256)},
        {"pipeline_digest", JsonValue::makeString(pipelineDigest)},
        {"config_digest", JsonValue::makeString(configDigest)},
        {"trace_digest", JsonValue::makeString(traceDigest)},
    });
}

std::string
CellProvenance::identityKey() const
{
    std::ostringstream os;
    os << workload << '|' << model << "|s" << scale << "|a"
       << ablation << "|f" << fuel << "|m" << machine;
    return os.str();
}

std::string
machineIdentity(const MachineConfig &m)
{
    std::ostringstream os;
    os << m.issueWidth << ',' << m.branchesPerCycle << ','
       << m.mispredictPenalty << ',' << m.latIntAlu << ','
       << m.latIntMul << ',' << m.latIntDiv << ',' << m.latFpAlu
       << ',' << m.latFpDiv << ',' << m.latLoad << ',' << m.latStore
       << ',' << m.latBranch << ',' << m.latPredDefine;
    return os.str();
}

std::string
passPipelineDigest(Model model, const AblationFlags &ablation)
{
    CompileOptions opts;
    opts.model = model;
    opts.ablation = ablation.canonicalFor(model);
    std::ostringstream text;
    text << "predilp-pipeline-v1\n" << compilerEpoch << '\n'
         << modelKey(model) << '|' << opts.ablation.key() << '\n';
    for (const std::string &name :
         buildPassPipeline(opts).passNames())
        text << name << '\n';
    return "v1:" + sha256Hex(text.str()).substr(0, 32);
}

std::string
certifiedResultKey(const CellProvenance &prov)
{
    return sha256Hex(std::string(certSchemaTag) + "\n" +
                     prov.toJson().dump());
}

JsonValue
certifiedFigures(const SimResult &sim)
{
    // std::map ordering makes the member order — and therefore the
    // record bytes — independent of insertion order.
    std::map<std::string, std::uint64_t> figures(
        sim.stats.counters());
    for (const Headline &headline : kHeadlines)
        figures[headline.name] = sim.*headline.field;
    std::vector<std::pair<std::string, JsonValue>> members;
    members.reserve(figures.size());
    for (const auto &[name, value] : figures)
        members.emplace_back(
            name,
            JsonValue::makeInt(static_cast<std::int64_t>(value)));
    return JsonValue::makeObject(std::move(members));
}

JsonValue
certifiedRecord(const CellProvenance &prov, const SimResult &sim)
{
    return JsonValue::makeObject({
        {"schema", JsonValue::makeString(certSchemaTag)},
        {"provenance", prov.toJson()},
        {"figures", certifiedFigures(sim)},
        {"run", JsonValue::makeObject({
                    {"exit_value", JsonValue::makeInt(sim.exitValue)},
                    {"output", JsonValue::makeString(sim.output)},
                })},
    });
}

std::optional<CertifiedCell>
decodeCertifiedRecord(const JsonValue &record)
{
    using Kind = JsonValue::Kind;
    const JsonValue *schema = memberOf(record, "schema", Kind::String);
    const JsonValue *prov = memberOf(record, "provenance", Kind::Object);
    const JsonValue *figures = memberOf(record, "figures", Kind::Object);
    const JsonValue *run = memberOf(record, "run", Kind::Object);
    if (schema == nullptr || schema->asString() != certSchemaTag ||
        prov == nullptr || figures == nullptr || run == nullptr)
        return std::nullopt;
    const JsonValue *exitValue = memberOf(*run, "exit_value", Kind::Int);
    const JsonValue *output = memberOf(*run, "output", Kind::String);
    if (exitValue == nullptr || output == nullptr)
        return std::nullopt;
    std::optional<CellProvenance> provenance = provenanceFromJson(*prov);
    if (!provenance)
        return std::nullopt;

    CertifiedCell cell;
    cell.provenance = std::move(*provenance);
    SimResult &result = cell.result;
    result.exitValue = exitValue->asInt();
    result.output = output->asString();
    std::size_t headlines = 0;
    for (const auto &[name, value] : figures->members()) {
        if (value.kind() != Kind::Int || value.asInt() < 0)
            return std::nullopt;
        const auto count = static_cast<std::uint64_t>(value.asInt());
        auto headline = std::find_if(
            std::begin(kHeadlines), std::end(kHeadlines),
            [&name](const Headline &h) { return name == h.name; });
        if (headline == std::end(kHeadlines)) {
            result.stats.setCounter(name, count);
        } else {
            result.*headline->field = count;
            headlines += 1;
        }
    }
    if (headlines != std::size(kHeadlines))
        return std::nullopt;
    return cell;
}

} // namespace predilp
