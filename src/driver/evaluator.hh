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
 * With the store on, each in-process cache has a persistent second
 * tier: `.trc` artifacts under the trace cache, and the sealed
 * certified records under the result cache. A cell whose record is
 * valid is served from it without mapping or replaying its trace.
 *
 * Compilation itself is split, with a cache at each seam: the
 * model-independent front end (parse + classical opt + primary
 * profiling) is computed once per (workload, scale) as a
 * FrontendSnapshot; the machine-independent form stage (region
 * formation through layout) runs once per (workload, scale, model,
 * canonical ablation flags); and each trace compile only clones its
 * formed program and schedules it for its machine. The list
 * scheduler is the only pass that reads the machine, so the
 * machines of Figures 8-10 share one formation per model.
 *
 * One path computes every cell: evaluateBatch() plans the cells of
 * all its requests, executes one trace-major replayBatch() pass per
 * trace, and assembles the responses by index, so output is
 * deterministic and identical for every thread count.
 * evaluate(const EvalRequest &) is evaluateBatch() of one request.
 */

#ifndef PREDILP_DRIVER_EVALUATOR_HH
#define PREDILP_DRIVER_EVALUATOR_HH

#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "driver/certified.hh"
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
 * the first failure propagates out of evaluate() and
 * evaluateBatch() as its typed exception. Isolated: a throwing cell
 * degrades to a CellError record on the BenchmarkResult — with a
 * self-contained reproducer file when reproducerDir is set — and
 * every other cell completes normally.
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
     * Persistent artifact-store tiers (second level under the
     * in-process trace and result caches). Off by default; the
     * SuiteEvaluator constructor seeds these from PREDILP_STORE /
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
     * Run @p request's workloads (empty = whole suite) under its
     * models (empty = all three), each cell at the request's full
     * SimConfig plus the 1-issue Superblock baseline denominator:
     * evaluateBatch({request})[0].
     */
    EvalResponse evaluate(const EvalRequest &request);

    /**
     * Evaluate many requests through the one pricing path, returning
     * responses index-aligned with @p requests.
     *
     * Plan: resolve every request's workloads (an unknown name
     * throws FatalError before any work runs), then, in parallel
     * over (request, workload) rows, key each cell and compute its
     * provenance once. Slots dedup into cells by result key; a slot
     * whose key repeats within the call, or that an earlier call
     * priced, counts a result-cache hit. The cells group by trace
     * key — trace keys are machine-only by design, so cells that
     * vary only cache/BTB/predictor axes share a group, as do the
     * 1-issue baselines of a whole sweep.
     *
     * Execute, in parallel over groups (a lone group spreads its
     * lanes over the pool instead): serve each cell's certified
     * record (store on), then price the rest from one walk of their
     * trace and publish their records. A group that throws is
     * retried once, one cell at a time (counters.batch_fallbacks);
     * the caches evict failures, so the retry recomputes, and a cell
     * whose retry throws keeps that exception.
     *
     * Assemble, in request order: priced cells join the result
     * cache; failed ones never do. Under the strict policy the first
     * failing cell's exception is rethrown with its type intact;
     * under isolation each failing cell becomes a CellError.
     */
    std::vector<EvalResponse>
    evaluateBatch(const std::vector<EvalRequest> &requests);

    /**
     * Drop all cached TraceBuffers (priced SimResults and formed
     * programs stay cached). Call between workload batches to bound
     * resident memory.
     */
    void releaseTraces();

    /**
     * Harness counters and phase timers so far, under the leaf names
     * of the "timing" section of BENCH_*.json: counters.* (work done,
     * cache hits, trace bytes), phases.*_seconds, emu.* (decode and
     * per-backend records) and the store.* counters of both store
     * tiers. Every leaf is present from construction, zero until
     * work lands on it. Seconds are summed over pool threads.
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
    using FormedPtr = std::shared_ptr<const Program>;

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

    /**
     * The shared formed program for (workload, scale, model,
     * canonical ablation flags): @p opts' form stage
     * (formFromSnapshot) resumed from snapshotFor, computed once and
     * scheduled by every trace compile that differs only by machine
     * or fuel. Kept for the evaluator's lifetime, across
     * releaseTraces().
     */
    FormedPtr formedFor(const Workload &workload,
                        const EvalRequest &request,
                        const FormOptions &opts);

    /**
     * The trace under @p key of @p model's compile for @p sim's
     * machine, captured on @p input to @p sim's fuel: from the
     * in-process cache, else from the store's trace tier, else
     * compiled, captured and checked against the reference run.
     */
    TracePtr traceFor(const Workload &workload,
                      const EvalRequest &request, Model model,
                      const SimConfig &sim, const std::string &input,
                      const std::string &key);
    RunResult referenceFor(const Workload &workload,
                           const std::string &input, int scale);

    /**
     * The result tier (store on only): @p prov's certified record,
     * decoded, when it is sealed, carries certSchemaTag and names
     * exactly this cell. Anything else counts store.result_miss —
     * plus store.result_repair when a record was there but refused —
     * and returns nullopt, so the caller replays and republishes.
     */
    std::optional<SimResult> servedResult(const CellProvenance &prov);

    /** Publish @p prov's certified record (read-write store only),
     * counting store.result_write. */
    void publishCertified(const CellProvenance &prov,
                          const SimResult &result);

    EvalPolicy policy_;
    std::unique_ptr<ArtifactStore> store_;
    ThreadPool pool_;
    mutable std::mutex mutex_;
    std::unordered_map<std::string, std::shared_future<TracePtr>>
        traces_;
    std::unordered_map<std::string, std::shared_future<RunResult>>
        references_;
    /** Priced cells by result key; entries never change once in. */
    std::unordered_map<std::string, SimResult> results_;
    std::unordered_map<std::string, std::shared_future<SnapshotPtr>>
        snapshots_;
    std::unordered_map<std::string, std::shared_future<FormedPtr>>
        formations_;

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
