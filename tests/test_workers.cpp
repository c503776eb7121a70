/**
 * @file
 * WorkerSet tests: batches dealt over real pre-forked worker
 * processes merge bit-for-bit identical to Session::runBatch at 1, 2
 * and 5 workers, a warm shared cache directory makes a repeated run
 * perform zero work with a different worker count, rejected slices
 * leave every pipe in step, and a killed worker is dropped while its
 * keys are dealt again over the survivors.
 */

#include <gtest/gtest.h>

#include <signal.h>

#include <cerrno>
#include <filesystem>

#include "expect_identical.hpp"
#include "sim/session.hpp"
#include "sim/workers.hpp"

namespace vegeta::sim {
namespace {

namespace fs = std::filesystem;

std::string
freshDir(const std::string &name)
{
    const fs::path dir =
        fs::path(::testing::TempDir()) / "vegeta_workers" / name;
    fs::remove_all(dir);
    return dir.string();
}

/**
 * A mixed batch small enough to fork repeatedly: trace simulations
 * across engines/patterns (with a duplicate) plus analytical jobs.
 */
std::vector<Job>
mixedBatch(const Session &session)
{
    std::vector<Job> jobs;
    auto sim_job = [&](const char *engine, u32 pattern, bool of) {
        auto builder = session.job()
                           .gemm(kernels::GemmDims{32, 32, 128})
                           .engine(engine)
                           .pattern(pattern)
                           .outputForwarding(of);
        auto job = builder.build();
        EXPECT_TRUE(job.has_value()) << builder.error();
        jobs.push_back(*job);
    };
    sim_job("VEGETA-D-1-2", 4, false);
    sim_job("VEGETA-S-2-2", 2, true);
    {
        auto builder = session.job().model("fig4-vector-vs-matrix");
        auto job = builder.build();
        EXPECT_TRUE(job.has_value()) << builder.error();
        jobs.push_back(*job);
    }
    sim_job("VEGETA-S-2-2", 2, true); // duplicate of job 1
    sim_job("VEGETA-S-16-2", 1, false);
    {
        auto builder = session.job()
                           .model("fig15-unstructured")
                           .param("degree", 0.95);
        auto job = builder.build();
        EXPECT_TRUE(job.has_value()) << builder.error();
        jobs.push_back(*job);
    }
    sim_job("VEGETA-S-1-2", 2, false);
    return jobs;
}

/** run() fanned back out to batch order (empty on failure). */
std::vector<JobResult>
runInJobOrder(WorkerSet &workers, const std::vector<Job> &jobs)
{
    std::string error;
    const auto output = workers.run(jobs, &error);
    EXPECT_TRUE(output.has_value()) << error;
    if (!output)
        return {};
    const auto results = resultsInJobOrder(jobs, *output, &error);
    EXPECT_TRUE(results.has_value()) << "missing " << error;
    return results ? *results : std::vector<JobResult>{};
}

TEST(WorkerSet, MergesBitIdenticalToRunBatch)
{
    const Session session;
    const auto jobs = mixedBatch(session);
    const auto reference = session.runBatch(jobs, 1);

    for (const u32 count : {1u, 2u, 5u}) {
        WorkerSet workers;
        std::string error;
        ASSERT_TRUE(workers.start(count, "", 2, &error)) << error;
        EXPECT_EQ(workers.status().size(), count);
        const auto output = workers.run(jobs, &error);
        ASSERT_TRUE(output.has_value()) << error;
        // One record per unique key, in key order.
        ASSERT_EQ(output->results.size(), jobs.size() - 1);
        for (std::size_t u = 1; u < output->results.size(); ++u)
            EXPECT_LT(output->results[u - 1].first,
                      output->results[u].first);
        // The duplicate fans back out to both of its slots.
        const auto results = resultsInJobOrder(jobs, *output, &error);
        ASSERT_TRUE(results.has_value()) << error;
        expectIdenticalBatches(*results, reference);
    }
}

TEST(WorkerSet, WarmSharedCacheRunsZeroSimulations)
{
    const std::string cache_dir = freshDir("warm_cache");
    const Session session;
    const auto jobs = mixedBatch(session);
    std::string error;

    // Cold: every unique trace job simulates in some worker, every
    // unique analysis evaluates, and the shared dir fills up.
    std::optional<WorkerOutput> cold;
    {
        WorkerSet workers;
        ASSERT_TRUE(workers.start(2, cache_dir, 0, &error)) << error;
        cold = workers.run(jobs, &error);
        ASSERT_TRUE(cold.has_value()) << error;
    }
    EXPECT_EQ(cold->simulationsPerformed, 4u);
    EXPECT_EQ(cold->analysesPerformed, 2u);

    // Warm, with a different worker count: zero replays, zero
    // backend evaluations, bit-identical merge.
    WorkerSet workers;
    ASSERT_TRUE(workers.start(5, cache_dir, 0, &error)) << error;
    const auto warm = workers.run(jobs, &error);
    ASSERT_TRUE(warm.has_value()) << error;
    EXPECT_EQ(warm->simulationsPerformed, 0u);
    EXPECT_EQ(warm->analysesPerformed, 0u);
    const auto cold_results = resultsInJobOrder(jobs, *cold, &error);
    const auto warm_results = resultsInJobOrder(jobs, *warm, &error);
    ASSERT_TRUE(cold_results && warm_results) << error;
    expectIdenticalBatches(*warm_results, *cold_results);
}

TEST(WorkerSet, EmptyBatchReturnsNothing)
{
    WorkerSet workers;
    std::string error;
    ASSERT_TRUE(workers.start(2, "", 1, &error)) << error;
    const auto output = workers.run({}, &error);
    ASSERT_TRUE(output.has_value()) << error;
    EXPECT_TRUE(output->results.empty());
    EXPECT_EQ(output->simulationsPerformed, 0u);
}

TEST(WorkerSet, ZeroWorkersIsAnError)
{
    WorkerSet workers;
    std::string error;
    EXPECT_FALSE(workers.start(0, "", 1, &error));
    EXPECT_FALSE(error.empty());
    EXPECT_TRUE(workers.status().empty());
}

TEST(WorkerSet, StopReapsEveryWorker)
{
    WorkerSet workers;
    std::string error;
    ASSERT_TRUE(workers.start(3, "", 1, &error)) << error;
    const auto running = workers.status();
    ASSERT_EQ(running.size(), 3u);
    for (const auto &worker : running) {
        EXPECT_TRUE(worker.alive);
        EXPECT_GT(worker.pid, 0);
    }
    workers.stop();
    for (const auto &worker : workers.status()) {
        EXPECT_FALSE(worker.alive);
        // Reaped, not a zombie: the pid no longer exists.
        EXPECT_EQ(::kill(worker.pid, 0), -1);
        EXPECT_EQ(errno, ESRCH);
    }
    workers.stop(); // idempotent
}

TEST(WorkerSet, RejectedSlicesKeepEveryPipeInStep)
{
    const Session session;
    const auto jobs = mixedBatch(session);
    const auto reference = session.runBatch(jobs, 1);

    // Two unique invalid jobs on two workers: each worker gets one,
    // and each answers its slice with an error frame.
    std::vector<Job> bad(2);
    for (std::size_t i = 0; i < bad.size(); ++i) {
        bad[i].kind = JobKind::Simulation;
        bad[i].simulation.engine = "NOPE-" + std::to_string(i + 1);
        bad[i].simulation.gemm = {32, 32, 64};
    }
    WorkerSet workers;
    std::string error;
    ASSERT_TRUE(workers.start(2, "", 1, &error)) << error;
    EXPECT_FALSE(workers.run(bad, &error).has_value());
    EXPECT_NE(error.find("unknown engine"), std::string::npos)
        << error;
    for (const auto &worker : workers.status())
        EXPECT_TRUE(worker.alive);

    // Every reply was read, so the next batch reads its own.
    expectIdenticalBatches(runInJobOrder(workers, jobs), reference);
}

TEST(WorkerSet, KilledWorkerIsDroppedAndItsKeysDealtAgain)
{
    const Session session;
    const auto jobs = mixedBatch(session);
    const auto reference = session.runBatch(jobs, 1);

    WorkerSet workers;
    std::string error;
    ASSERT_TRUE(workers.start(2, "", 1, &error)) << error;
    ASSERT_EQ(::kill(workers.status()[0].pid, SIGKILL), 0);

    // The dead worker's share goes to the survivor in the same call,
    // and later batches skip it.
    expectIdenticalBatches(runInJobOrder(workers, jobs), reference);
    expectIdenticalBatches(runInJobOrder(workers, jobs), reference);
    auto status = workers.status();
    EXPECT_FALSE(status[0].alive);
    EXPECT_TRUE(status[1].alive);
    EXPECT_EQ(status[1].jobs, 2 * (jobs.size() - 1));

    ASSERT_EQ(::kill(status[1].pid, SIGKILL), 0);
    EXPECT_FALSE(workers.run(jobs, &error).has_value());
    EXPECT_EQ(error, "no live workers");
    for (const auto &worker : workers.status())
        EXPECT_FALSE(worker.alive);
}

TEST(WorkerSet, StatusKeepsEachWorkersLatestSnapshot)
{
    // The parent has counted batches of its own before the fork; the
    // workers' snapshots must count only theirs, and replace rather
    // than add up across batches.
    const Session session;
    const auto jobs = mixedBatch(session);
    session.runBatch(jobs, 1);

    WorkerSet workers;
    std::string error;
    ASSERT_TRUE(workers.start(2, "", 1, &error)) << error;
    for (int batch = 0; batch < 2; ++batch)
        ASSERT_TRUE(workers.run(jobs, &error).has_value()) << error;
    u64 jobs_counted = 0;
    for (const auto &worker : workers.status())
        for (const auto &metric : worker.metrics)
            if (metric.name == "session.batch.jobs")
                jobs_counted += metric.count;
    EXPECT_EQ(jobs_counted, 2 * (jobs.size() - 1));
}

} // namespace
} // namespace vegeta::sim
