/**
 * @file
 * SuiteEvaluator: cached, parallel evaluation of the benchmark suite.
 *
 * Trace-once/replay-many: every (workload, model, machine,
 * ablation-flag) combination is compiled and functionally emulated at
 * most once per evaluator; the captured TraceBuffer is then replayed
 * under as many SimConfigs as callers request (perfect vs. real
 * caches, different BTBs, ...). Cache keys canonicalize ablation
 * flags that cannot affect a model's compilation (e.g. the OR-tree
 * flag for the Superblock model), so ablation sweeps reuse aggres-
 * sively. Reference (oracle) runs and priced SimResults are cached
 * too.
 *
 * Compilation itself is split: the model-independent front end
 * (parse + classical opt + primary profiling) is computed once per
 * (workload, scale) as a FrontendSnapshot and deep-cloned per model,
 * so the three models of a cell only pay for their model-specific
 * pass suffixes.
 *
 * Evaluation fans out over a ThreadPool — across the workloads of an
 * EvalRequest and across model cells inside each workload row — with
 * results assembled by index, so output is deterministic and
 * identical for every thread count. evaluate(const EvalRequest&) is
 * the single entry point; evaluateBatch() amortizes many requests by
 * grouping their cells by trace key and pricing each trace's configs
 * in one replayBatch() pass.
 */

#ifndef PREDILP_DRIVER_EVALUATOR_HH
#define PREDILP_DRIVER_EVALUATOR_HH

#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "driver/eval_request.hh"
#include "driver/report.hh"
#include "store/store.hh"
#include "support/stats_registry.hh"
#include "support/thread_pool.hh"
#include "support/timer.hh"
#include "trace/replay.hh"

namespace predilp
{

/**
 * The nine plan counts the benchmark harness under perfbench/ reads
 * through SuiteEvaluator::timing(). That harness is kept fixed so its
 * runs stay comparable across commits; the struct exists only for
 * it. Everything else reads SuiteEvaluator::stats().
 */
struct BenchTiming
{
    std::uint64_t compiles = 0;
    std::uint64_t prefixCompiles = 0;
    std::uint64_t captures = 0;
    std::uint64_t replays = 0;
    std::uint64_t capturedRecords = 0;
    std::uint64_t replayedRecords = 0;
    std::uint64_t storeHits = 0;
    std::uint64_t storeWrites = 0;
    std::uint64_t resultCacheHits = 0;
};

/**
 * How the evaluator handles failing cells. Strict (the default):
 * the first failure propagates out of evaluate() as its typed
 * exception. Isolated: a throwing cell degrades to a CellError
 * record on the BenchmarkResult — with a self-contained reproducer
 * file when reproducerDir is set — and every other cell completes
 * normally.
 */
struct EvalPolicy
{
    /** Degrade failing cells to CellError records. */
    bool isolateFaults = false;
    /** Run the IR verifier after every compiler pass. */
    bool verifyEachPass = false;
    /** Directory for reproducer files ("" = don't write any). */
    std::string reproducerDir;
    /**
     * Persistent artifact-store tier (second level under the
     * in-process trace cache). Off by default; the SuiteEvaluator
     * constructor seeds these from PREDILP_STORE /
     * PREDILP_STORE_MODE so benches and CI opt in without code
     * changes, and setPolicy can override both afterwards.
     */
    StoreMode storeMode = StoreMode::Off;
    /** Store root directory (ignored while storeMode is Off). */
    std::string storeDir;
};

/** Cached parallel evaluator; see file comment. */
class SuiteEvaluator
{
  public:
    /** @param threads 0 = PREDILP_THREADS env / hardware count. */
    explicit SuiteEvaluator(int threads = 0);

    /** Resolved parallelism. */
    int threadCount() const { return pool_.threadCount(); }

    /**
     * Replace the policy (failure handling + store tier). Call
     * before evaluating: the store is (re)opened here, not lazily.
     */
    void setPolicy(EvalPolicy policy);

    /** The active failure-handling policy. */
    const EvalPolicy &policy() const { return policy_; }

    /**
     * THE evaluation entry point: run @p request's workloads (empty
     * = whole suite) under its models (empty = all three), each cell
     * at the request's full SimConfig plus the 1-issue Superblock
     * baseline denominator. Workloads and cells fan out over the
     * pool; results are assembled by index in request order, so the
     * response is deterministic for every thread count. Unknown
     * workload names throw FatalError (requests are user input).
     */
    EvalResponse evaluate(const EvalRequest &request);

    /**
     * Batched evaluation of many requests: plan every cell up front,
     * group the pending work by trace key — trace keys are
     * machine-only by design, so cells that vary only cache/BTB/
     * predictor axes share a group, as do the 1-issue baseline
     * denominators of a whole sweep — then dispatch trace-major
     * replayBatch() passes across the pool. Each captured trace is
     * loaded and walked once for *all* of its pending configs
     * instead of once per cell. The priced results seed the result
     * cache and responses are assembled through evaluate(), so the
     * output is bit-identical to calling evaluate() per request,
     * index-aligned with @p requests. A group that fails during the
     * batch phase is left unseeded; the assembly pass recomputes it
     * and applies the failure policy exactly as the unbatched path
     * would.
     */
    std::vector<EvalResponse>
    evaluateBatch(const std::vector<EvalRequest> &requests);

    /**
     * Drop all cached TraceBuffers (priced SimResults stay cached).
     * Call between workload batches to bound resident memory.
     */
    void releaseTraces();

    /**
     * Harness counters and phase timers so far, under the leaf names
     * of the "timing" section of BENCH_*.json: counters.* (work done,
     * cache hits, trace bytes), phases.*_seconds, emu.* (decode and
     * per-backend records) and the store's store.* counters. Every
     * leaf is present from construction, zero until work lands on
     * it. Seconds are summed over pool threads.
     */
    StatsSnapshot stats() const;

    /** The BenchTiming subset of stats(). */
    BenchTiming timing() const;

    /**
     * Per-pass compiler counters and timers (opt.*, superblock.*,
     * hyperblock.*, partial.*, sched.*, driver.profile.*) summed
     * over every compilation this evaluator performed. Counter
     * totals are deterministic for every thread count (each compile
     * records into a private registry, merged additively); the
     * *.seconds timer leaves are wall-clock and naturally vary.
     */
    StatsSnapshot compileStats() const;

    /** The persistent store tier, or nullptr when storeMode is Off. */
    const ArtifactStore *store() const { return store_.get(); }

  private:
    using TracePtr = std::shared_ptr<const TraceBuffer>;
    using SnapshotPtr = std::shared_ptr<const FrontendSnapshot>;

    /** (Re)open store_ to match policy_; Off closes it. */
    void openStore();

    /**
     * The shared front-end snapshot for (workload, scale): parse +
     * classical optimization + primary profiling, computed once and
     * resumed by every model/ablation compile of the cell
     * (compileFromSnapshot). Keyed only by workload and scale —
     * nothing in the prefix reads the model, machine, or ablation
     * flags.
     */
    SnapshotPtr snapshotFor(const Workload &workload,
                            const std::string &input, int scale,
                            std::uint64_t profileFuel);

    TracePtr traceFor(const Workload &workload,
                      const EvalRequest &request, Model model,
                      const MachineConfig &machine,
                      const std::string &input, std::uint64_t fuel,
                      const std::string &key);
    RunResult referenceFor(const Workload &workload,
                           const std::string &input, int scale);
    SimResult cellResult(const Workload &workload,
                         const EvalRequest &request, Model model,
                         const MachineConfig &machine,
                         const SimConfig &sim,
                         const std::string &input);

    /**
     * Publish a batch-priced result under @p rkey as an
     * already-ready cache entry; a no-op when the key is present
     * (another thread computed or seeded it first).
     */
    void seedResult(const std::string &rkey, SimResult result);

    /**
     * One workload's row of @p request: the baseline denominator
     * cell plus one cell per model, fanned out over the pool.
     */
    BenchmarkResult evaluateCells(const Workload &workload,
                                  const EvalRequest &request);

    EvalPolicy policy_;
    std::unique_ptr<ArtifactStore> store_;
    ThreadPool pool_;
    mutable std::mutex mutex_;
    std::unordered_map<std::string, std::shared_future<TracePtr>>
        traces_;
    std::unordered_map<std::string, std::shared_future<RunResult>>
        references_;
    std::unordered_map<std::string, std::shared_future<SimResult>>
        results_;
    std::unordered_map<std::string, std::shared_future<SnapshotPtr>>
        snapshots_;

    /**
     * Counters and phase timers behind stats(). Past construction
     * it is written only by merge(): each unit of work records into
     * its own registry and merges it once, so totals do not depend
     * on thread count.
     */
    StatsRegistry stats_;
    /** Resident and high-water captured-trace bytes (under mutex_). */
    std::uint64_t traceBytes_ = 0;
    std::uint64_t tracePeakBytes_ = 0;

    /** Merged per-compile pass stats (internally synchronized). */
    StatsRegistry compileStats_;
};

} // namespace predilp

#endif // PREDILP_DRIVER_EVALUATOR_HH
