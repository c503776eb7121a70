/**
 * @file
 * Pre-forked worker processes fed over pipes: the one out-of-process
 * executor, behind `serve --service-workers` (SimServer).  A sweep
 * reaches it through `sweep --connect`.
 *
 * A WorkerSet forks its workers once, before the calling process
 * starts any thread, so each child is a plain single-threaded copy.
 * Every worker runs a fresh builtin Session over the shared
 * --cache-dir and answers one `results` (or `error`) wire frame per
 * `batch` frame it reads, until EOF on its feed pipe.
 *
 * One batch is dispatched deterministically:
 *
 *   - jobs are deduped by canonical jobKey and the unique keys sorted;
 *   - the sorted keys are dealt round-robin over the live workers,
 *     one `batch` frame per used worker;
 *   - every frame is written, then every sent worker's reply is read,
 *     and only then is the batch judged, so no reply is ever left in
 *     a pipe for the next batch to misread;
 *   - the replies merge by key into one record per unique job, in
 *     key order.
 *
 * Execution is the same deterministic Session code and doubles cross
 * the pipes as raw bit patterns, so a merged batch is bit-for-bit
 * identical to Session::runBatch for any worker count.
 *
 * Failure policy: a worker whose write, read or decode fails is
 * killed (first: a garbled frame can come from a live process) and
 * reaped, its keys are dealt again over the survivors within the same
 * call, and later batches skip it.  With no worker left, run() fails
 * with "no live workers".  A worker that rejects its slice answers an
 * `error` frame and stays in service; the batch then fails with that
 * reason.  Dead workers are not respawned.
 */

#ifndef VEGETA_SIM_WORKERS_HPP
#define VEGETA_SIM_WORKERS_HPP

#include <sys/types.h>

#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "sim/job.hpp"
#include "sim/job_io.hpp"
#include "sim/telemetry.hpp"

namespace vegeta::sim {

/** One worker's health and counters, as live stats report them. */
struct WorkerStatus
{
    pid_t pid = -1;
    bool alive = false;

    /** Unique jobs this worker has answered. */
    u64 jobs = 0;

    /** The worker's latest cumulative metrics snapshot. */
    std::vector<telemetry::MetricRecord> metrics;
};

/** N pre-forked workers and the batch dispatch over them. */
class WorkerSet
{
  public:
    WorkerSet() = default;

    /** Stops and reaps every worker. */
    ~WorkerSet();

    WorkerSet(const WorkerSet &) = delete;
    WorkerSet &operator=(const WorkerSet &) = delete;

    /**
     * Fork @p count workers over @p cache_dir ("" = in-memory cache
     * only), each running runBatch on @p threads threads (0 = the
     * hardware threads divided by @p count, at least 1).  Call it
     * before the process starts any thread.  Ignores SIGPIPE, so a
     * write to a dead worker is an error instead of process death.
     * False with a one-line reason on failure.
     */
    bool start(u32 count, const std::string &cache_dir, u32 threads,
               std::string *error);

    /**
     * Close every feed pipe (workers exit on EOF) and reap every
     * worker.  Idempotent; status() stays readable.
     */
    void stop();

    /**
     * Run @p jobs on the workers (see the file comment).  The output
     * holds one result per unique job key, in key order, with the
     * simulations and analyses summed over the workers; its metrics
     * are empty (status() keeps each worker's snapshot).  Nullopt with
     * a one-line reason when a worker rejects its slice or no worker
     * is left.  Not reentrant: one caller at a time.
     */
    std::optional<WorkerOutput> run(const std::vector<Job> &jobs,
                                    std::string *error);

    /**
     * Every started worker's status, dead ones included (safe to call
     * while run() is busy).
     */
    std::vector<WorkerStatus> status() const;

  private:
    struct Worker
    {
        int inFd = -1;  ///< the parent writes batches here
        int outFd = -1; ///< the parent reads replies here
    };

    /** Kill, reap and close worker @p w; later batches skip it. */
    void drop(std::size_t w);

    std::vector<Worker> workers_;

    mutable std::mutex statusMutex_;
    std::vector<WorkerStatus> status_; ///< guarded by statusMutex_
};

} // namespace vegeta::sim

#endif // VEGETA_SIM_WORKERS_HPP
