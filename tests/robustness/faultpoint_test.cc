/**
 * @file
 * Fault-point registry tests: the PREDILP_FAULTS spec grammar
 * (valid and invalid entries), trigger semantics (once / nth:K /
 * deterministic prob), action behaviour (throw, short-write
 * cooperation and escalation, crash in a forked child), counter
 * export, and the unarmed fast path.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <csignal>

#include "support/faultpoint.hh"

namespace predilp
{
namespace
{

using faultpoints::FaultAction;

/** Every test starts and ends disarmed. */
class FaultPoint : public ::testing::Test
{
  protected:
    void SetUp() override { faultpoints::resetForTest(); }
    void TearDown() override { faultpoints::resetForTest(); }
};

TEST_F(FaultPoint, UnarmedPollIsNoneAndCheap)
{
    EXPECT_FALSE(faultpoints::armed());
    EXPECT_EQ(faultpoints::poll("store.publish.rename"),
              FaultAction::None);
    EXPECT_NO_THROW(FAULT_POINT("eval.compile"));
}

TEST_F(FaultPoint, BadSpecsFailLoudly)
{
    EXPECT_THROW(faultpoints::armFromSpec("no-equals"), FatalError);
    EXPECT_THROW(faultpoints::armFromSpec("=once"), FatalError);
    // Typos in point names must not silently never fire.
    EXPECT_THROW(faultpoints::armFromSpec("store.publish.renam=once"),
                 FatalError);
    EXPECT_THROW(faultpoints::armFromSpec("test.x=sometimes"),
                 FatalError);
    EXPECT_THROW(faultpoints::armFromSpec("test.x=nth"), FatalError);
    EXPECT_THROW(faultpoints::armFromSpec("test.x=nth:0"),
                 FatalError);
    EXPECT_THROW(faultpoints::armFromSpec("test.x=prob:1.5"),
                 FatalError);
    EXPECT_THROW(faultpoints::armFromSpec("test.x=prob:0.5@zz"),
                 FatalError);
    EXPECT_THROW(faultpoints::armFromSpec("test.x=once:explode"),
                 FatalError);
    EXPECT_THROW(faultpoints::armFromSpec("test.x=once:throw:extra"),
                 FatalError);
    // No delay action: nothing supervises a hung process.
    EXPECT_THROW(faultpoints::armFromSpec("test.x=once:delay"),
                 FatalError);
    // A failed arm leaves nothing armed.
    EXPECT_FALSE(faultpoints::armed());
}

TEST_F(FaultPoint, EveryKnownPointParses)
{
    for (const std::string &name : faultpoints::knownPoints())
        EXPECT_NO_THROW(faultpoints::armFromSpec(name + "=once"));
}

TEST_F(FaultPoint, OnceFiresExactlyOnce)
{
    faultpoints::armFromSpec("test.once=once");
    EXPECT_TRUE(faultpoints::armed());
    EXPECT_EQ(faultpoints::poll("test.once"), FaultAction::Throw);
    EXPECT_EQ(faultpoints::poll("test.once"), FaultAction::None);
    EXPECT_EQ(faultpoints::poll("test.once"), FaultAction::None);
    // Unarmed points are unaffected.
    EXPECT_EQ(faultpoints::poll("test.other"), FaultAction::None);
}

TEST_F(FaultPoint, TriggerThrowsTypedErrorWithPointName)
{
    faultpoints::armFromSpec("test.t=once");
    try {
        FAULT_POINT("test.t");
        FAIL() << "expected FaultInjectedError";
    } catch (const FaultInjectedError &e) {
        EXPECT_EQ(e.point(), "test.t");
    }
    EXPECT_NO_THROW(FAULT_POINT("test.t"));
}

TEST_F(FaultPoint, NthFiresOnExactlyTheKthHit)
{
    faultpoints::armFromSpec("test.n=nth:3");
    EXPECT_EQ(faultpoints::poll("test.n"), FaultAction::None);
    EXPECT_EQ(faultpoints::poll("test.n"), FaultAction::None);
    EXPECT_EQ(faultpoints::poll("test.n"), FaultAction::Throw);
    EXPECT_EQ(faultpoints::poll("test.n"), FaultAction::None);
}

TEST_F(FaultPoint, ProbIsDeterministicPerSeedAndHit)
{
    auto pattern = [](const std::string &spec) {
        faultpoints::armFromSpec(spec);
        std::string fires;
        for (int i = 0; i < 64; ++i) {
            fires += faultpoints::poll("test.p") == FaultAction::Throw
                         ? '1'
                         : '0';
        }
        return fires;
    };
    const std::string a = pattern("test.p=prob:0.5@42");
    const std::string b = pattern("test.p=prob:0.5@42");
    // Same seed, same hit order: bit-identical fault schedule.
    EXPECT_EQ(a, b);
    EXPECT_NE(a.find('1'), std::string::npos);
    EXPECT_NE(a.find('0'), std::string::npos);
    // A different seed gives a different (still deterministic) coin.
    EXPECT_NE(pattern("test.p=prob:0.5@43"), a);
    EXPECT_EQ(pattern("test.p=prob:1"), std::string(64, '1'));
    EXPECT_EQ(pattern("test.p=prob:0"), std::string(64, '0'));
}

TEST_F(FaultPoint, ShortWriteCooperatesAtPollEscalatesAtTrigger)
{
    faultpoints::armFromSpec("test.w=once:short-write");
    // A cooperative site sees the action and truncates its write...
    EXPECT_EQ(faultpoints::poll("test.w"), FaultAction::ShortWrite);
    // ...a non-cooperative site must not swallow the armed fault.
    faultpoints::armFromSpec("test.w=once:short-write");
    EXPECT_THROW(FAULT_POINT("test.w"), FaultInjectedError);
}

TEST_F(FaultPoint, MultiEntrySpecsSplitOnCommaAndSemicolon)
{
    faultpoints::armFromSpec(
        " test.a=once ; test.b=nth:2 ,\n test.c=prob:0 ");
    EXPECT_EQ(faultpoints::poll("test.a"), FaultAction::Throw);
    EXPECT_EQ(faultpoints::poll("test.b"), FaultAction::None);
    EXPECT_EQ(faultpoints::poll("test.b"), FaultAction::Throw);
    EXPECT_EQ(faultpoints::poll("test.c"), FaultAction::None);
    // Disarm: the empty spec.
    faultpoints::armFromSpec("");
    EXPECT_FALSE(faultpoints::armed());
}

TEST_F(FaultPoint, StatsExportHitsAndFired)
{
    faultpoints::armFromSpec("test.s=nth:2");
    (void)faultpoints::poll("test.s");
    (void)faultpoints::poll("test.s");
    (void)faultpoints::poll("test.s");
    StatsSnapshot s = faultpoints::stats();
    EXPECT_EQ(s.counter("fault.test.s.hits"), 3u);
    EXPECT_EQ(s.counter("fault.test.s.fired"), 1u);
}

TEST_F(FaultPoint, ArmFromEnvLatchesOncePerProcess)
{
    ASSERT_EQ(setenv("PREDILP_FAULTS", "test.env=once", 1), 0);
    EXPECT_TRUE(faultpoints::armFromEnv());
    EXPECT_EQ(faultpoints::poll("test.env"), FaultAction::Throw);
    // Latched: later calls are no-ops even after the env changes.
    ASSERT_EQ(unsetenv("PREDILP_FAULTS"), 0);
    EXPECT_TRUE(faultpoints::armFromEnv());
    faultpoints::resetForTest();
    EXPECT_FALSE(faultpoints::armFromEnv());
}

TEST_F(FaultPoint, CrashActionDiesBySigkill)
{
    faultpoints::armFromSpec("test.crash=once:crash");
    pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        (void)faultpoints::poll("test.crash"); // never returns.
        _exit(0);
    }
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFSIGNALED(status));
    EXPECT_EQ(WTERMSIG(status), SIGKILL);
    // Fire state is per process, so the parent must not poll the
    // point: it is still armed here and would kill the test binary.
}

} // namespace
} // namespace predilp
