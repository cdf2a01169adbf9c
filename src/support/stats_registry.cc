#include "support/stats_registry.hh"

#include <chrono>
#include <sstream>

#include "support/json.hh"
#include "support/logging.hh"

namespace predilp
{

void
StatsSnapshot::setCounter(const std::string &name,
                          std::uint64_t value)
{
    counters_[name] = value;
}

void
StatsSnapshot::addCounter(const std::string &name,
                          std::uint64_t delta)
{
    counters_[name] += delta;
}

void
StatsSnapshot::setSeconds(const std::string &name, double seconds)
{
    timers_[name] = seconds;
}

std::uint64_t
StatsSnapshot::counter(const std::string &name) const
{
    auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second;
}

double
StatsSnapshot::seconds(const std::string &name) const
{
    auto it = timers_.find(name);
    return it == timers_.end() ? 0.0 : it->second;
}

void
StatsSnapshot::merge(const StatsSnapshot &other)
{
    for (const auto &[name, value] : other.counters_)
        counters_[name] += value;
    for (const auto &[name, value] : other.timers_)
        timers_[name] += value;
}

bool
StatsSnapshot::operator==(const StatsSnapshot &other) const
{
    return counters_ == other.counters_ && timers_ == other.timers_;
}

namespace
{

/** One scope of the dotted-name tree built for serialization. */
struct JsonNode
{
    // Children in lexicographic order (deterministic output).
    std::map<std::string, JsonNode> children;
    bool isLeaf = false;
    bool isCounter = false;
    std::uint64_t counterValue = 0;
    double timerValue = 0.0;
};

void
insertLeaf(JsonNode &root, const std::string &name, bool isCounter,
           std::uint64_t counterValue, double timerValue)
{
    JsonNode *node = &root;
    std::size_t begin = 0;
    while (true) {
        std::size_t dot = name.find('.', begin);
        std::string part = name.substr(
            begin, dot == std::string::npos ? dot : dot - begin);
        panicIf(part.empty(), "empty scope segment in stat name '",
                name, "'");
        panicIf(node->isLeaf, "stat name '", name,
                "' descends through a leaf");
        node = &node->children[part];
        if (dot == std::string::npos)
            break;
        begin = dot + 1;
    }
    panicIf(node->isLeaf || !node->children.empty(), "stat name '",
            name, "' is both a leaf and a scope");
    node->isLeaf = true;
    node->isCounter = isCounter;
    node->counterValue = counterValue;
    node->timerValue = timerValue;
}

void
emitNode(std::ostream &os, const JsonNode &node, int indent)
{
    os << "{";
    std::size_t i = 0;
    for (const auto &[key, child] : node.children) {
        os << (i == 0 ? "\n" : ",\n")
           << std::string(static_cast<std::size_t>(indent) + 2, ' ')
           << '"' << key << "\": ";
        if (child.isLeaf) {
            if (child.isCounter)
                os << child.counterValue;
            else
                os << jsonDouble(child.timerValue);
        } else {
            emitNode(os, child, indent + 2);
        }
        i += 1;
    }
    if (i > 0)
        os << "\n" << std::string(static_cast<std::size_t>(indent), ' ');
    os << "}";
}

} // namespace

std::string
StatsSnapshot::toJson(int indent) const
{
    JsonNode root;
    for (const auto &[name, value] : counters_)
        insertLeaf(root, name, true, value, 0.0);
    for (const auto &[name, value] : timers_) {
        panicIf(counters_.count(name) != 0, "stat name '", name,
                "' is both a counter and a timer");
        insertLeaf(root, name, false, 0, value);
    }
    std::ostringstream os;
    emitNode(os, root, indent);
    return os.str();
}

Counter &
StatsRegistry::counter(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    return counters_[name];
}

TimerTotal &
StatsRegistry::timer(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    return timers_[name];
}

void
StatsRegistry::merge(const StatsRegistry &other)
{
    // Lock ordering: callers merge per-worker registries into one
    // aggregate, never two aggregates into each other concurrently.
    std::scoped_lock lock(mutex_, other.mutex_);
    for (const auto &[name, counter] : other.counters_)
        counters_[name].add(counter.value());
    for (const auto &[name, timer] : other.timers_)
        timers_[name].addNanos(timer.nanos());
}

StatsSnapshot
StatsRegistry::snapshot() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    StatsSnapshot snapshot;
    for (const auto &[name, counter] : counters_)
        snapshot.setCounter(name, counter.value());
    for (const auto &[name, timer] : timers_)
        snapshot.setSeconds(name, timer.seconds());
    return snapshot;
}

namespace
{

std::uint64_t
nowNanos()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

} // namespace

ScopedTimer::ScopedTimer(TimerTotal &total)
    : total_(total), startNanos_(nowNanos())
{}

ScopedTimer::~ScopedTimer()
{
    total_.addNanos(nowNanos() - startNanos_);
}

} // namespace predilp
