/**
 * @file
 * SuiteEvaluator: cached, parallel evaluation of the benchmark suite.
 *
 * Trace-once/replay-many: within one evaluateBatch() call, every
 * (workload, model, machine, ablation-flag) combination is compiled
 * and functionally emulated at most once; the TraceBuffer is replayed
 * under every SimConfig the call requests (perfect vs. real caches,
 * different BTBs, ...), then dropped. Across calls only the store's
 * trace tier reuses a trace, so with the store off a caller pricing
 * one machine in two calls captures twice: batch the requests or turn
 * the store on, as every binary in this repository does. Cache keys
 * canonicalize ablation flags that cannot affect a model's
 * compilation (e.g. the OR-tree flag for the Superblock model), so
 * ablation sweeps reuse aggressively. Inputs, reference (oracle)
 * runs and priced SimResults are cached for the evaluator's
 * lifetime; an input is made on first use, by a trace the store
 * does not hold, so a call served from the store makes none.
 *
 * With the store on, each trace group first maps its `.trc` artifact,
 * and the sealed certified records are a second tier under the result
 * cache. A cell whose record is valid is served from it without
 * mapping or replaying its trace.
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
    /** Directory for reproducer files ("" = don't write any). */
    std::string reproducerDir;
    /**
     * Persistent artifact-store tiers (traces, which each trace group
     * maps first, and records under the in-process result cache).
     * Off by default; the SuiteEvaluator constructor turns it on
     * (read-write, the store's only mode) when PREDILP_STORE names a
     * directory, so benches and CI opt in without code changes, and
     * setPolicy can override both fields.
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
     * throws FatalError before any work runs). Each request computes
     * its two config digests (its machine and the 1-issue baseline)
     * and each model's pipeline digest once; then, in parallel over
     * (request, workload) rows, each row hashes its workload's
     * source once (its digest and the store key's source prefix) and
     * keys each cell and computes its provenance from those. Slots
     * dedup into cells by result key; a slot whose key repeats
     * within the call, or that an earlier call priced, counts a
     * result-cache hit. The cells group by trace key — trace keys
     * are machine-only by design, so cells that vary only
     * cache/BTB/predictor axes share a group, as do the 1-issue
     * baselines of a whole sweep — and the groups queue in rounds:
     * round k holds the k-th group of every (workload, scale), so
     * groups that share a snapshot, formation, reference run or
     * input sit a whole round apart.
     *
     * Execute, in parallel over groups (a lone group spreads its
     * lanes over the pool instead): serve each cell's certified
     * record (store on), then price the rest from one walk of the
     * group's trace, publish their records and drop the trace. A
     * pool thread blocked on shared work another thread computes
     * adds to phases.wait_seconds. A group that throws is retried
     * once, one cell at a time (counters.batch_fallbacks), against
     * its trace if it had one; the caches evict failures, so the
     * retry recomputes, and a cell whose retry throws keeps that
     * exception.
     *
     * Assemble, in request order: priced cells join the result
     * cache; failed ones never do. Under the strict policy the first
     * failing cell's exception is rethrown with its type intact;
     * under isolation each failing cell becomes a CellError.
     */
    std::vector<EvalResponse>
    evaluateBatch(const std::vector<EvalRequest> &requests);

    /**
     * Does nothing: a trace lives only as long as its trace group.
     * Kept only for the benchmark harness under perfbench/, which
     * calls it between figures and is kept fixed like BenchTiming; a
     * change to the benchmark deletes that call and this method.
     */
    void releaseTraces() {}

    /**
     * Harness counters and phase timers so far, under the leaf names
     * of the "timing" section of BENCH_*.json: counters.* (work done,
     * inputs made, cache hits, captured bytes), phases.*_seconds
     * (wait_seconds is time blocked on shared work another thread
     * computes, outside every other phase), emu.* (decode and
     * threaded-engine records) and the store.* counters of both store
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
    using InputPtr = std::shared_ptr<const std::string>;

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
     * The shared formed program for (workload, scale, @p model,
     * canonical ablation flags): the form stage (formFromSnapshot),
     * profiled on @p input, resumed from snapshotFor, computed once
     * and scheduled by every trace compile that differs only by
     * machine or fuel. Kept for the evaluator's lifetime, so later
     * calls on other machines schedule it without forming it again.
     */
    FormedPtr formedFor(const Workload &workload,
                        const EvalRequest &request, Model model,
                        const std::string &input);

    /**
     * The input of (workload, scale), made on first use
     * (counters.inputs) and kept for the evaluator's lifetime, as the
     * snapshots are. Only a trace that the store does not hold, or a
     * failed cell's reproducer, asks for one.
     */
    InputPtr inputFor(const Workload &workload, int scale);

    /**
     * The trace under cell key @p key of @p model's compile for
     * @p sim's machine, captured to @p sim's fuel on inputFor's
     * input: from the store's trace tier under @p prov's trace
     * digest, else compiled, captured, checked against the reference
     * run and published with @p prov's digests in its provenance
     * section. Not cached: the caller's trace group holds it while it
     * prices and then drops it.
     */
    TracePtr traceFor(const Workload &workload,
                      const EvalRequest &request, Model model,
                      const SimConfig &sim, const std::string &key,
                      const CellProvenance &prov);
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

    /** Publish @p prov's certified record, counting
     * store.result_write when the store takes it. */
    void publishCertified(const CellProvenance &prov,
                          const SimResult &result);

    EvalPolicy policy_;
    std::unique_ptr<ArtifactStore> store_;
    ThreadPool pool_;
    /**
     * Guards the caches below. All but results_ map a key to the
     * shared_future of a cachedCompute and hold work that several
     * trace groups share: inputs_, references_ and snapshots_ one per
     * (workload, scale), formations_ one per (workload, scale, model,
     * canonical flags).
     */
    std::mutex mutex_;
    std::unordered_map<std::string, std::shared_future<RunResult>>
        references_;
    /** Priced cells by result key; entries never change once in. */
    std::unordered_map<std::string, SimResult> results_;
    std::unordered_map<std::string, std::shared_future<SnapshotPtr>>
        snapshots_;
    std::unordered_map<std::string, std::shared_future<FormedPtr>>
        formations_;
    std::unordered_map<std::string, std::shared_future<InputPtr>>
        inputs_;

    /**
     * Counters and phase timers behind stats(). Past construction
     * it is written only by merge(): each unit of work records into
     * its own registry and merges it once, so totals do not depend
     * on thread count.
     */
    StatsRegistry stats_;

    /** Merged per-compile pass stats (internally synchronized). */
    StatsRegistry compileStats_;
};

} // namespace predilp

#endif // PREDILP_DRIVER_EVALUATOR_HH
