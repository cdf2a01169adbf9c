#include "support/faultpoint.hh"

#include <signal.h>
#include <sys/mman.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <thread>

#include "support/env.hh"
#include "support/logging.hh"
#include "support/string_utils.hh"

namespace predilp
{

namespace faultpoints
{

namespace
{

enum class Trigger : std::uint8_t
{
    Once,
    Nth,
    Prob,
};

/**
 * Per-point mutable state, shared across fork via one MAP_SHARED
 * anonymous page: hit and fire counts survive into (and are updated
 * by) every worker the arming process forks, so "once" is once per
 * process tree and retried workers run clean after the first fire.
 */
struct SharedSlot
{
    std::atomic<std::uint64_t> hits;
    std::atomic<std::uint64_t> fired;
};

constexpr std::size_t kMaxArmed = 64;
static_assert(sizeof(SharedSlot) * kMaxArmed <= 4096,
              "armed-slot array must fit one shared page");

/** One armed spec entry (immutable after arming). */
struct ArmedPoint
{
    std::string name;
    Trigger trigger = Trigger::Once;
    std::uint64_t nth = 1;       ///< Trigger::Nth: 1-based hit.
    double probability = 0;      ///< Trigger::Prob.
    std::uint64_t seed = 0;      ///< Trigger::Prob.
    FaultAction action = FaultAction::Throw;
    std::uint64_t delayMillis = 100; ///< FaultAction::Delay.
    SharedSlot *slot = nullptr;
};

std::vector<ArmedPoint> gArmed;
SharedSlot *gSharedSlots = nullptr;
bool gArmedFromEnv = false;
std::mutex gArmMutex;

/** SplitMix64: the deterministic per-hit coin for prob triggers. */
std::uint64_t
splitmix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

[[noreturn]] void
crashNow()
{
    // The most brutal death available: no destructors, no atexit, no
    // signal handlers — indistinguishable from `kill -9` or an OOM
    // kill, which is exactly what the healing layers must survive.
    ::kill(::getpid(), SIGKILL);
    ::_exit(137); // unreachable unless SIGKILL is somehow blocked.
}

bool
isKnownPoint(const std::string &name)
{
    if (name.rfind("test.", 0) == 0)
        return true;
    for (const std::string &known : knownPoints()) {
        if (known == name)
            return true;
    }
    return false;
}

[[noreturn]] void
badSpec(const std::string &entry, const std::string &why)
{
    throw FatalError("bad PREDILP_FAULTS entry '" + entry +
                     "': " + why);
}

/** Parse one `name=trigger[:action]` entry. */
ArmedPoint
parseEntry(const std::string &entry)
{
    ArmedPoint point;
    const std::size_t eq = entry.find('=');
    if (eq == std::string::npos || eq == 0)
        badSpec(entry, "expected <name>=<trigger>[:<action>]");
    point.name = entry.substr(0, eq);
    if (!isKnownPoint(point.name)) {
        std::string known;
        for (const std::string &name : knownPoints())
            known += (known.empty() ? "" : ", ") + name;
        badSpec(entry, "unknown fault point '" + point.name +
                           "' (known: " + known + ")");
    }

    std::vector<std::string> tokens =
        split(entry.substr(eq + 1), ':');
    if (tokens.empty() || tokens[0].empty())
        badSpec(entry, "missing trigger");

    std::size_t next = 1;
    if (tokens[0] == "once") {
        point.trigger = Trigger::Once;
    } else if (tokens[0] == "nth") {
        point.trigger = Trigger::Nth;
        if (tokens.size() < 2)
            badSpec(entry, "nth needs a hit number (nth:K)");
        char *end = nullptr;
        point.nth = std::strtoull(tokens[1].c_str(), &end, 10);
        if (end == nullptr || *end != '\0' || point.nth == 0)
            badSpec(entry, "bad nth hit number '" + tokens[1] + "'");
        next = 2;
    } else if (tokens[0] == "prob") {
        point.trigger = Trigger::Prob;
        if (tokens.size() < 2)
            badSpec(entry, "prob needs a probability (prob:P[@seed])");
        std::string prob = tokens[1];
        const std::size_t at = prob.find('@');
        if (at != std::string::npos) {
            char *end = nullptr;
            point.seed = std::strtoull(prob.c_str() + at + 1, &end, 10);
            if (end == nullptr || *end != '\0')
                badSpec(entry, "bad prob seed in '" + prob + "'");
            prob = prob.substr(0, at);
        }
        char *end = nullptr;
        point.probability = std::strtod(prob.c_str(), &end);
        if (end == nullptr || *end != '\0' || point.probability < 0 ||
            point.probability > 1)
            badSpec(entry, "probability must be in [0, 1], got '" +
                               prob + "'");
        next = 2;
    } else {
        badSpec(entry, "unknown trigger '" + tokens[0] +
                           "' (once | nth:K | prob:P[@seed])");
    }

    if (next < tokens.size()) {
        const std::string &action = tokens[next];
        if (action == "throw") {
            point.action = FaultAction::Throw;
        } else if (action == "crash") {
            point.action = FaultAction::Crash;
        } else if (action == "short-write") {
            point.action = FaultAction::ShortWrite;
        } else if (action == "delay") {
            point.action = FaultAction::Delay;
            if (next + 1 < tokens.size()) {
                char *end = nullptr;
                point.delayMillis = std::strtoull(
                    tokens[next + 1].c_str(), &end, 10);
                if (end == nullptr || *end != '\0')
                    badSpec(entry, "bad delay milliseconds '" +
                                       tokens[next + 1] + "'");
                next += 1;
            }
        } else {
            badSpec(entry,
                    "unknown action '" + action +
                        "' (throw | crash | short-write | delay[:MS])");
        }
        if (next + 1 < tokens.size())
            badSpec(entry, "trailing tokens after action");
    }
    return point;
}

/** Split a spec into entries on ',' and ';', trimming whitespace. */
std::vector<std::string>
splitEntries(const std::string &spec)
{
    std::vector<std::string> entries;
    std::string current;
    for (char c : spec) {
        if (c == ',' || c == ';') {
            entries.push_back(current);
            current.clear();
        } else {
            current += c;
        }
    }
    entries.push_back(current);
    std::vector<std::string> trimmed;
    for (const std::string &entry : entries) {
        const std::size_t begin =
            entry.find_first_not_of(" \t\n\r");
        if (begin == std::string::npos)
            continue;
        const std::size_t end = entry.find_last_not_of(" \t\n\r");
        trimmed.push_back(entry.substr(begin, end - begin + 1));
    }
    return trimmed;
}

/** Should @p point fire on this hit? Updates shared counters. */
bool
shouldFire(const ArmedPoint &point)
{
    const std::uint64_t hit =
        point.slot->hits.fetch_add(1, std::memory_order_relaxed) + 1;
    switch (point.trigger) {
      case Trigger::Once:
        // The fired count is the once-latch: only the hit that
        // transitions it 0 -> 1 fires, in this process or any
        // forked sibling sharing the slot page.
        {
            std::uint64_t expected = 0;
            return point.slot->fired.compare_exchange_strong(
                expected, 1, std::memory_order_relaxed);
        }
      case Trigger::Nth:
        if (hit != point.nth)
            return false;
        point.slot->fired.fetch_add(1, std::memory_order_relaxed);
        return true;
      case Trigger::Prob: {
        // Deterministic per-hit coin: hash(seed, hit index) mapped
        // to [0, 1). Same seed + same hit order = same faults.
        const double coin =
            static_cast<double>(
                splitmix64(point.seed ^ (hit * 0x9e3779b9ull)) >> 11) *
            0x1.0p-53;
        if (coin >= point.probability)
            return false;
        point.slot->fired.fetch_add(1, std::memory_order_relaxed);
        return true;
      }
    }
    return false;
}

} // namespace

namespace detail
{

std::atomic<bool> anyArmed{false};

FaultAction
pollSlow(const char *name)
{
    for (const ArmedPoint &point : gArmed) {
        if (point.name != name)
            continue;
        if (!shouldFire(point))
            return FaultAction::None;
        switch (point.action) {
          case FaultAction::Crash:
            crashNow();
          case FaultAction::Delay:
            std::this_thread::sleep_for(
                std::chrono::milliseconds(point.delayMillis));
            return FaultAction::None;
          case FaultAction::Throw:
          case FaultAction::ShortWrite:
          case FaultAction::None:
            return point.action;
        }
    }
    return FaultAction::None;
}

} // namespace detail

void
trigger(const char *name)
{
    const FaultAction action = poll(name);
    // A site without short-write cooperation still must not swallow
    // an armed fault, so ShortWrite escalates to the throw.
    if (action == FaultAction::Throw ||
        action == FaultAction::ShortWrite)
        throw FaultInjectedError(name);
}

void
armFromSpec(const std::string &spec)
{
    std::lock_guard<std::mutex> lock(gArmMutex);
    std::vector<ArmedPoint> armed;
    for (const std::string &entry : splitEntries(spec))
        armed.push_back(parseEntry(entry));
    if (armed.size() > kMaxArmed) {
        throw FatalError("PREDILP_FAULTS arms " +
                         std::to_string(armed.size()) +
                         " points; at most " +
                         std::to_string(kMaxArmed) + " supported");
    }

    // One shared page for the whole process tree, allocated at first
    // arm and reused (re-arming resets the counters): children
    // forked after arming inherit the mapping, not a copy.
    if (gSharedSlots == nullptr && !armed.empty()) {
        void *page = ::mmap(nullptr, 4096, PROT_READ | PROT_WRITE,
                            MAP_SHARED | MAP_ANONYMOUS, -1, 0);
        if (page == MAP_FAILED) {
            throw FatalError(
                std::string("fault-point mmap failed: ") +
                std::strerror(errno));
        }
        gSharedSlots = static_cast<SharedSlot *>(page);
    }
    if (!armed.empty())
        std::memset(static_cast<void *>(gSharedSlots), 0, 4096);
    for (std::size_t i = 0; i < armed.size(); ++i)
        armed[i].slot = gSharedSlots + i;

    gArmed = std::move(armed);
    detail::anyArmed.store(!gArmed.empty(),
                           std::memory_order_relaxed);
}

bool
armFromEnv()
{
    {
        std::lock_guard<std::mutex> lock(gArmMutex);
        if (gArmedFromEnv)
            return armed();
        gArmedFromEnv = true;
    }
    const std::string spec = EnvConfig::fromEnvironment().faultSpec;
    if (!spec.empty()) {
        armFromSpec(spec);
        warn("fault injection armed: PREDILP_FAULTS='" + spec + "'");
    }
    return armed();
}

void
resetForTest()
{
    std::lock_guard<std::mutex> lock(gArmMutex);
    gArmed.clear();
    gArmedFromEnv = false;
    detail::anyArmed.store(false, std::memory_order_relaxed);
}

const std::vector<std::string> &
knownPoints()
{
    static const std::vector<std::string> points = {
        "store.publish.write",   // artifact temp-file staging
        "store.publish.rename",  // atomic rename into place
        "store.publish.result",  // certified result record publish
        "store.load.mmap",       // mapping an artifact for replay
        "store.load.validate",   // byte-level artifact validation
        "store.load.result",     // reading a certified result record
        "emu.threaded.capture",  // threaded-backend capture entry
        "eval.form",             // model formation in formedFor
        "eval.compile",          // model compilation in traceFor
        "eval.replay",           // single-config replay in cellResult
        "eval.replay.batch",     // batched replay pass in a group
        "sweep.worker.start",    // forked worker, before evaluation
        "sweep.worker.publish",  // forked worker, result-file write
    };
    return points;
}

StatsSnapshot
stats()
{
    std::lock_guard<std::mutex> lock(gArmMutex);
    StatsSnapshot s;
    for (const ArmedPoint &point : gArmed) {
        s.setCounter("fault." + point.name + ".hits",
                     point.slot->hits.load(
                         std::memory_order_relaxed));
        s.setCounter("fault." + point.name + ".fired",
                     point.slot->fired.load(
                         std::memory_order_relaxed));
    }
    return s;
}

} // namespace faultpoints

} // namespace predilp
