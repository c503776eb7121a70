/**
 * @file
 * The Session: the one public entry point for running the VEGETA
 * model.
 *
 * A Session owns the engine, workload, and analytical-model
 * registries, the in-memory ResultCache, and an optional persistent
 * DiskResultCache, and turns validated work descriptions into
 * results.  It speaks two levels of API:
 *
 *  - the typed pair level (SimulationRequest -> SimulationResult,
 *    AnalyticalRequest -> AnalyticalResult), and
 *  - the polymorphic Job level: a Job is a tagged variant of the two,
 *    runBatch() executes mixed job vectors on a thread pool with
 *    canonical-key dedupe, and the output is bit-for-bit identical
 *    for any thread count, with or without either cache attached.
 *
 * runBatch is the one local executor.  Work that leaves the process
 * goes to a `serve` daemon; with `--service-workers` it runs on
 * sim/workers' WorkerSet, whose pre-forked workers each run their
 * own Session.
 *
 * Everything above this layer (CLI, benches, sweeps) speaks only jobs
 * or request/result pairs, built by job(); nothing above it wires
 * engines, workloads, or kernels by hand.
 */

#ifndef VEGETA_SIM_SESSION_HPP
#define VEGETA_SIM_SESSION_HPP

#include <atomic>
#include <functional>
#include <iosfwd>
#include <memory>

#include "cpu/trace_sink.hpp"
#include "sim/cache.hpp"
#include "sim/disk_cache.hpp"
#include "sim/job.hpp"
#include "sim/request.hpp"
#include "sim/result.hpp"

namespace vegeta::sim {

/** A trace replay's result, or why there is none. */
struct ReplayRun
{
    enum class Status : u8
    {
        Ok,          ///< result holds the measurement
        Unreadable,  ///< bad header, truncation, or a malformed op
        Unsupported, ///< an op the engine has no datapath for
    };

    Status status = Status::Ok;
    std::string error; ///< why the engine refused (Unsupported)
    SimulationResult result;
};

/** Facade over kernel generation + the trace-driven CPU model. */
class Session
{
  public:
    /** A session over the paper's builtin design/workload space. */
    Session();

    Session(EngineRegistry engines, WorkloadRegistry workloads);

    Session(EngineRegistry engines, WorkloadRegistry workloads,
            AnalyticalRegistry analytics);

    const EngineRegistry &engines() const { return engines_; }
    const WorkloadRegistry &workloads() const { return workloads_; }
    const AnalyticalRegistry &analytics() const { return analytics_; }

    /** A job builder bound to this session's registries. */
    JobBuilder job() const;

    /**
     * Attach a fresh in-memory result cache consulted by run() (and,
     * through it, by every batch) and return it.  Caching never
     * changes an answer -- equal cache keys imply bit-identical
     * results -- it only skips re-simulating requests already seen.
     */
    std::shared_ptr<ResultCache> enableCache();

    /**
     * Attach a persistent cache under @p directory (created as
     * needed), keyed by the same canonical serialization as the
     * in-memory cache and consulted after it.  Results survive the
     * process: a second Session attached to the same directory
     * replays nothing the first one already simulated.  Returns the
     * cache so callers can read stats(); check ok() on it if
     * persistence matters.
     */
    std::shared_ptr<DiskResultCache>
    attachDiskCache(const std::string &directory);

    /** The attached persistent cache (nullptr when off). */
    const std::shared_ptr<DiskResultCache> &diskCache() const
    {
        return disk_cache_;
    }

    /**
     * Run one request end to end: generate the kernel trace for the
     * engine's effective N and simulate it on the core model.
     * The request must name a registered engine (builders guarantee
     * this); unknown names abort via VEGETA_ASSERT.  When @p tee is
     * non-null, the one generation pass also emits every op into it:
     * a cpu::TraceWriter saves the trace, a cpu::TraceCollector keeps
     * it.  A teed run skips the cache lookup (a hit has no ops to
     * hand out) but still warms the caches.
     */
    SimulationResult run(const SimulationRequest &request,
                         cpu::TraceSink *tee = nullptr) const;

    /**
     * Replay a serialized trace (cpu/trace_io) streamed from @p trace
     * under a request's engine and core configuration (the kernel
     * variant and GEMM dims of the request are ignored; the result's
     * kernel field reads "replay"); no cpu::Trace is built.  Each
     * TileCompute opcode is checked against the engine as it arrives
     * -- a trace generated for a sparse executed-N carries TILE_SPMM
     * ops a dense engine has no datapath for.  The rest of the stream
     * is still read after such an op, so a damaged file reports
     * Unreadable whatever ops it holds.
     */
    ReplayRun replay(std::istream &trace,
                     const SimulationRequest &request) const;

    /** The same replay over an in-memory trace (never Unreadable). */
    ReplayRun replay(const cpu::Trace &trace,
                     const SimulationRequest &request) const;

    /**
     * Why an analytical request cannot run (unknown model, engine, or
     * workload name, or a param or option its model's check refuses),
     * or nullopt if it is valid.
     */
    std::optional<std::string>
    analyzeError(const AnalyticalRequest &request) const;

    /**
     * Evaluate one registered analytical model.  The request must be
     * valid (see analyzeError); invalid names abort via VEGETA_ASSERT,
     * matching run()'s contract.
     */
    AnalyticalResult analyze(const AnalyticalRequest &request) const;

    /**
     * Why @p job cannot run, or nullopt if it is valid: analyzeError,
     * or an unknown engine and requestError.
     */
    std::optional<std::string> jobError(const Job &job) const;

    /** Run one job of either kind (must be valid, see jobError). */
    JobResult run(const Job &job) const;

    /**
     * Run every job on a pool of @p threads workers (0 picks the
     * hardware concurrency); `results[i]` corresponds to `jobs[i]`.
     * Jobs that repeat within the batch (equal canonical job keys)
     * run once and fan their result out to every duplicate slot;
     * each unique job is one task on run()'s streaming path.
     *
     * Deterministic: the batch output is bit-for-bit identical for
     * any thread count, with or without the in-memory or persistent
     * caches attached.
     */
    std::vector<JobResult> runBatch(const std::vector<Job> &jobs,
                                    u32 threads = 0) const;

    /** Trace-only convenience overload of runBatch. */
    std::vector<SimulationResult>
    runBatch(const std::vector<SimulationRequest> &requests,
             u32 threads = 0) const;

    /**
     * Core-model simulations this session actually performed (cache
     * hits and batch dedupe excluded).  A warm persistent cache makes
     * a repeated sweep keep this at zero.
     */
    u64 simulationsPerformed() const
    {
        return simulations_.load(std::memory_order_relaxed);
    }

    /**
     * Analytical backends this session actually evaluated (persistent
     * cache hits excluded, batch dedupe excluded).
     */
    u64 analysesPerformed() const
    {
        return analyses_.load(std::memory_order_relaxed);
    }

  private:
    static cpu::CoreConfig coreFor(const SimulationRequest &request,
                                   const engine::EngineConfig &engine);

    static SimulationResult
    fromSimResult(const cpu::SimResult &sim,
                  const engine::EngineConfig &engine,
                  const SimulationRequest &request,
                  const char *kernel_label, u32 executed_n,
                  u64 tile_computes);

    /**
     * Both replay() overloads: @p feed emits the trace's ops into the
     * checking replay sink, false when the trace was unreadable.
     */
    ReplayRun
    replayFrom(const SimulationRequest &request,
               const std::function<bool(cpu::TraceSink &)> &feed) const;

    SimulationResult runUncached(const SimulationRequest &request,
                                 cpu::TraceSink *tee) const;

    EngineRegistry engines_;
    WorkloadRegistry workloads_;
    AnalyticalRegistry analytics_;
    std::shared_ptr<ResultCache> cache_;
    std::shared_ptr<DiskResultCache> disk_cache_;
    mutable std::atomic<u64> simulations_{0};
    mutable std::atomic<u64> analyses_{0};
};

/**
 * The Figure 13 grid over this session's registries: for each
 * workload x pattern x engine, one no-OF request, plus an OF request
 * for sparse engines (matching the paper's evaluated variants).
 * Row-major in (workload, pattern, engine) order.
 */
std::vector<SimulationRequest>
figure13Grid(const Session &session,
             const std::vector<std::string> &workload_names,
             const std::vector<std::string> &engine_names,
             const std::vector<u32> &patterns = {4, 2, 1});

/**
 * Geometric-mean speed-up of `engine_name` (with optional OF) over
 * `baseline_name` across the named workloads at one layer pattern --
 * the abstract's 1.09x / 2.20x / 3.74x numbers when the baseline is
 * the RASA-DM dense engine.  Both sides of every ratio run through
 * one (parallel, deduplicated) session batch.
 */
double geomeanSpeedup(const Session &session,
                      const std::vector<std::string> &workload_names,
                      u32 layer_n, const std::string &engine_name,
                      bool output_forwarding,
                      const std::string &baseline_name =
                          "VEGETA-D-1-2",
                      u32 threads = 0);

} // namespace vegeta::sim

#endif // VEGETA_SIM_SESSION_HPP
