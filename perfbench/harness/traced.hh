/**
 * @file
 * The traced run: a single-threaded walk of SuiteEvaluator's plan
 * that makes the same public calls into each layer — workload input
 * generation, frontend, prefix optimization, model compiles, the
 * reference oracle, decode, capture, replay, batched replay and the
 * artifact store — and wraps each call in a span. Nothing is traced
 * inside the program itself.
 *
 * The walk mirrors evaluate() and evaluateBatch(): the same cache
 * keys (so it loads the artifacts an untraced pass stored), the same
 * once-per-key caches, and the same fault isolation. Its call and
 * record counts are printed next to the untraced run's counters; a
 * difference means the evaluator's plan has moved away from this
 * walk.
 */

#ifndef PERFBENCH_TRACED_HH
#define PERFBENCH_TRACED_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "driver/evaluator.hh"
#include "spans.hh"

namespace perfbench
{

/** Work counted at one layer boundary. */
struct LayerWork
{
    std::uint64_t calls = 0;
    std::uint64_t records = 0;  ///< trace records produced or priced.
    std::uint64_t configs = 0;  ///< configs priced (batched replay).
    std::uint64_t bytes = 0;    ///< bytes written or mapped.
    std::uint64_t irInstrs = 0; ///< IR instructions after the call.
};

/** The evaluator's plan as counts, named after BenchTiming's. */
struct PlanCounts
{
    std::uint64_t compiles = 0;
    std::uint64_t prefixCompiles = 0;
    std::uint64_t captures = 0; ///< trace captures + reference runs.
    std::uint64_t replays = 0;
    std::uint64_t capturedRecords = 0;
    std::uint64_t replayedRecords = 0;
    std::uint64_t storeHits = 0;
    std::uint64_t storeWrites = 0;
    std::uint64_t resultCacheHits = 0;
};

/** The traced walk's plan counts plus the work at each layer. */
struct TracedCounts : PlanCounts
{
    /** Resident bytes and records of every trace obtained. */
    std::uint64_t traceBytes = 0;
    std::uint64_t traceRecords = 0;
    std::map<std::string, LayerWork> layers;
};

/** Single-threaded, span-recording evaluator walk; see file comment. */
class TracedEvaluator
{
  public:
    /** @param store the store tier, or nullptr when it is off. */
    TracedEvaluator(SpanRecorder &spans, predilp::ArtifactStore *store);

    /** SuiteEvaluator::evaluate, one call at a time. */
    predilp::EvalResponse evaluate(const predilp::EvalRequest &request);

    /** SuiteEvaluator::evaluateBatch with single-lane batches. */
    std::vector<predilp::EvalResponse>
    evaluateBatch(const std::vector<predilp::EvalRequest> &requests);

    /** SuiteEvaluator::releaseTraces. */
    void releaseTraces() { traces_.clear(); }

    const TracedCounts &counts() const { return counts_; }

  private:
    using TracePtr = std::shared_ptr<const predilp::TraceBuffer>;
    using SnapshotPtr =
        std::shared_ptr<const predilp::FrontendSnapshot>;

    std::string makeInput(const predilp::Workload &workload,
                          int scale);
    SnapshotPtr snapshotFor(const predilp::Workload &workload,
                            const std::string &input, int scale,
                            std::uint64_t profileFuel);
    predilp::RunResult referenceFor(const predilp::Workload &workload,
                                    const std::string &input,
                                    int scale);
    TracePtr traceFor(const predilp::Workload &workload,
                      const predilp::EvalRequest &request,
                      predilp::Model model,
                      const predilp::MachineConfig &machine,
                      const std::string &input, std::uint64_t fuel,
                      const std::string &key);
    void noteTrace(const predilp::TraceBuffer &trace);
    void publishCertified(const predilp::Workload &workload,
                          const predilp::EvalRequest &request,
                          predilp::Model model,
                          const predilp::SimConfig &sim,
                          const predilp::SimResult &result);
    predilp::SimResult cellResult(const predilp::Workload &workload,
                                  const predilp::EvalRequest &request,
                                  predilp::Model model,
                                  const predilp::SimConfig &sim,
                                  const std::string &input);
    predilp::BenchmarkResult
    evaluateCells(const predilp::Workload &workload,
                  const predilp::EvalRequest &request);

    SpanRecorder &spans_;
    predilp::ArtifactStore *store_;
    TracedCounts counts_;
    std::unordered_map<std::string, TracePtr> traces_;
    std::unordered_map<std::string, predilp::RunResult> references_;
    std::unordered_map<std::string, predilp::SimResult> results_;
    std::unordered_map<std::string, SnapshotPtr> snapshots_;
};

} // namespace perfbench

#endif // PERFBENCH_TRACED_HH
