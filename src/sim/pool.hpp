/**
 * @file
 * Process-pool sweep executor: sharded multi-process runBatch.
 *
 * Session::runBatch parallelizes over threads inside one process; the
 * ProcessPool shards one job batch over N worker *processes*, the
 * scaling regime where thread-level parallelism stops paying (per-core
 * scaling cliffs and shared-allocator/LLC contention -- "When More
 * Cores Hurts") and where the streaming replayer's flat per-process
 * memory makes workers cheap.
 *
 * The contract mirrors runBatch exactly: the merged result vector is
 * in original batch order and bit-for-bit identical to a
 * single-process run for ANY worker count.  That falls out of the
 * design:
 *
 *   - jobs are deduped by canonical jobKey, the deduped key set is
 *     sorted, and keys are dealt round-robin to workers -- the shard
 *     assignment is a pure function of the batch, never of timing;
 *   - each shard ships through a versioned, checksummed job file
 *     (sim/job_io) and comes back as a result file keyed by jobKey,
 *     with doubles as raw bit patterns;
 *   - workers attach the shared --cache-dir, so a warm pool performs
 *     zero replays and a cold pool populates the cache once across
 *     all workers (the disk cache's locked first-insert-wins append
 *     keeps concurrent writers safe).
 *
 * Workers are fork/exec of the pool's own binary re-entering through
 * a hidden `worker` argv token (simulate_cli wires this up as the
 * hidden `simulate_cli worker` subcommand; test and bench binaries
 * dispatch to poolWorkerMain from their own main()).  Worker failures
 * -- non-zero exit, corrupt or truncated shard/result files, missing
 * keys -- surface as one clean per-worker error, never as wrong or
 * silently missing results.
 */

#ifndef VEGETA_SIM_POOL_HPP
#define VEGETA_SIM_POOL_HPP

#include <string>
#include <vector>

#include "sim/job.hpp"

namespace vegeta::sim {

class Session;

/** How a ProcessPool runs one batch. */
struct PoolOptions
{
    /** Worker processes to spawn (capped at the unique-job count). */
    u32 workers = 2;

    /** Shared persistent result-cache directory ("" = no cache). */
    std::string cacheDir;

    /**
     * runBatch threads inside each worker.  0 divides the machine:
     * each worker gets max(1, hardware_concurrency / workers)
     * threads, so the pool's default never oversubscribes the CPU
     * workers-fold.
     */
    u32 threadsPerWorker = 0;

    /**
     * argv prefix of the worker command.  Empty picks the default:
     * this process's own executable plus the hidden "worker" token,
     * which is correct for any binary whose main() routes that token
     * to poolWorkerMain (simulate_cli, the pool tests, the bench).
     */
    std::vector<std::string> workerCommand;

    /** Directory for shard/result files ("" = a fresh temp dir). */
    std::string workDir;

    /** Keep the shard/result files for debugging. */
    bool keepFiles = false;

    /**
     * Batch-size planner: batches with fewer UNIQUE jobs than this
     * run on an in-process fallback (a fresh builtin Session with
     * the same caches the workers would attach) instead of paying
     * fork/exec + shard-file overhead that the committed trajectory
     * shows losing on small batches.  0 picks the measured default
     * crossover (defaultPoolCrossoverJobs()); 1 means "always use
     * the process pool" -- what an explicit user demand for workers
     * should pass.  Either path returns bit-identical results.
     */
    u32 minPooledJobs = 0;
};

/** What one pooled batch did (aggregated across workers). */
struct PoolStats
{
    u32 workersSpawned = 0;
    u64 uniqueJobs = 0;

    /** False when the batch-size planner ran the batch in-process
     *  instead of sharding it over worker processes. */
    bool usedProcessPool = true;

    /** Core-model simulations actually performed (cache hits and
     *  dedupe excluded) -- zero on a warm shared cache. */
    u64 simulationsPerformed = 0;

    /** Analytical backends actually evaluated. */
    u64 analysesPerformed = 0;
};

/** Outcome of one pooled batch. */
struct PoolRun
{
    bool ok = false;

    /** `results[i]` corresponds to `jobs[i]`; empty when !ok. */
    std::vector<JobResult> results;

    /** One-line reason when !ok ("" otherwise). */
    std::string error;

    PoolStats stats;
};

/** Shards job batches over worker processes. */
class ProcessPool
{
  public:
    explicit ProcessPool(PoolOptions options);

    /**
     * Run @p jobs to completion across the pool.  @p session is used
     * only to validate the batch up front (workers build their own
     * Session over the builtin registries, so jobs must not depend on
     * names registered only in a custom parent session).
     */
    PoolRun run(const Session &session,
                const std::vector<Job> &jobs) const;

    const PoolOptions &options() const { return options_; }

  private:
    PoolOptions options_;
};

/**
 * The worker half: parse `--jobs FILE --out FILE [--cache-dir DIR]
 * [--threads N]`, run the shard on a fresh builtin Session, write the
 * result file.  Returns a process exit code (0 on success); any
 * binary that may act as a pool worker routes its hidden "worker"
 * argv token here.
 */
int poolWorkerMain(const std::vector<std::string> &args);

/** This process's executable path (/proc/self/exe; "" on failure). */
std::string currentExecutablePath();

/**
 * The built-in planner crossover: below this many unique jobs a
 * pooled batch is cheaper to run in-process than to shard over
 * fork/exec'd workers (PoolOptions::minPooledJobs == 0 uses this).
 * The service bench records the value alongside its timings so a
 * future re-measurement has the old figure next to the new one.
 */
u32 defaultPoolCrossoverJobs();

} // namespace vegeta::sim

#endif // VEGETA_SIM_POOL_HPP
