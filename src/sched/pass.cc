#include "sched/scheduler.hh"

namespace predilp
{

namespace
{

class SchedulePass : public Pass
{
  public:
    explicit SchedulePass(MachineConfig config) : config_(config) {}

    std::string name() const override { return "sched.schedule"; }

    PassResult
    run(Program &prog, PassContext &ctx) override
    {
        ScheduleStats stats = scheduleProgram(prog, config_);
        ctx.stats.counter("sched.schedule.cycles")
            .add(static_cast<std::uint64_t>(stats.totalCycles));
        ctx.stats.counter("sched.schedule.instrs")
            .add(static_cast<std::uint64_t>(stats.totalInstrs));
        ctx.stats.counter("sched.schedule.speculated")
            .add(static_cast<std::uint64_t>(stats.speculated));
        // Every block is reordered and annotated with issue cycles;
        // report the instructions touched.
        PassResult result;
        result.changes =
            static_cast<std::uint64_t>(stats.totalInstrs);
        return result;
    }

  private:
    MachineConfig config_;
};

} // namespace

std::unique_ptr<Pass>
createSchedulePass(MachineConfig config)
{
    return std::make_unique<SchedulePass>(config);
}

} // namespace predilp
