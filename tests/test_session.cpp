/**
 * @file
 * Session/Job API tests: JobBuilder validation, job keys dedupe
 * across kinds, and runBatch over a MIXED trace+analytical job
 * vector is bit-for-bit identical for 1 and N threads, with and
 * without the in-memory and persistent caches attached -- and a
 * second batch against a warm on-disk cache performs zero trace
 * replays.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <functional>

#include "expect_identical.hpp"
#include "sim/session.hpp"

namespace vegeta::sim {
namespace {

namespace fs = std::filesystem;

std::string
freshDir(const std::string &name)
{
    const fs::path dir =
        fs::path(::testing::TempDir()) / "vegeta_session" / name;
    fs::remove_all(dir);
    return dir.string();
}

/**
 * A mixed batch: trace simulations across engines/patterns (with
 * duplicates, so dedupe is exercised) interleaved with analytical
 * queries, including a parameterized Monte-Carlo one.
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
    auto ana_job = [&](auto configure) {
        auto builder = session.job();
        configure(builder);
        auto job = builder.build();
        EXPECT_TRUE(job.has_value()) << builder.error();
        jobs.push_back(*job);
    };

    sim_job("VEGETA-D-1-2", 4, false);
    ana_job([](JobBuilder &b) { b.model("fig4-vector-vs-matrix"); });
    sim_job("VEGETA-S-2-2", 2, true);
    ana_job([](JobBuilder &b) {
        b.model("dynamic-sparsity")
            .param("registers", 16)
            .param("trials", 64)
            .param("density", 0.2);
    });
    sim_job("VEGETA-S-2-2", 2, true); // duplicate of job 2
    ana_job([](JobBuilder &b) {
        b.model("micro-latency").engine("VEGETA-S-16-2");
    });
    sim_job("VEGETA-S-16-2", 1, false);
    ana_job([](JobBuilder &b) {
        b.model("fig4-vector-vs-matrix"); // duplicate of job 1
    });
    return jobs;
}

// --- JobBuilder validation -------------------------------------------

TEST(JobBuilder, BuildsValidSimulationJob)
{
    const Session session;
    auto jb = session.job()
                  .workload("BERT-L1")
                  .engine("VEGETA-S-16-2")
                  .pattern(2)
                  .outputForwarding(true);
    const auto job = jb.build();
    ASSERT_TRUE(job.has_value()) << jb.error();
    EXPECT_TRUE(jb.error().empty());
    ASSERT_EQ(job->kind, JobKind::Simulation);
    EXPECT_EQ(job->simulation.label, "BERT-L1");
    EXPECT_EQ(job->simulation.engine, "VEGETA-S-16-2");
    EXPECT_EQ(job->simulation.patternN, 2u);
    EXPECT_TRUE(job->simulation.outputForwarding);
}

TEST(JobBuilder, RejectsUnknownNamesEagerly)
{
    const Session session;
    {
        auto b = session.job().workload("NoSuchLayer");
        EXPECT_FALSE(b.build().has_value());
        EXPECT_NE(b.error().find("unknown workload"),
                  std::string::npos);
    }
    {
        auto b = session.job().engine("NOPE-9000");
        EXPECT_FALSE(b.build().has_value());
        EXPECT_NE(b.error().find("unknown engine"), std::string::npos);
    }
    {
        auto b = session.job().model("no-such-model");
        EXPECT_FALSE(b.build().has_value());
        EXPECT_NE(b.error().find("unknown analytical model"),
                  std::string::npos);
    }
    {
        auto b = session.job()
                     .workload("BERT-L1")
                     .engine("VEGETA-S-16-2")
                     .pattern(3);
        EXPECT_FALSE(b.build().has_value());
        EXPECT_NE(b.error().find("pattern"), std::string::npos);
    }
    {
        auto b = session.job()
                     .workload("BERT-L1")
                     .engine("VEGETA-S-16-2")
                     .cBlocking(7);
        EXPECT_FALSE(b.build().has_value());
        EXPECT_NE(b.error().find("cBlocking"), std::string::npos);
    }
}

TEST(JobBuilder, RejectsEmptyJobAndKeepsFirstError)
{
    const Session session;
    {
        auto b = session.job();
        EXPECT_FALSE(b.build().has_value());
        EXPECT_FALSE(b.error().empty());
    }
    {
        auto b = session.job()
                     .workload("NoSuchLayer")
                     .engine("NOPE-9000")
                     .pattern(3);
        EXPECT_FALSE(b.build().has_value());
        EXPECT_NE(b.error().find("unknown workload"),
                  std::string::npos);
    }
}

TEST(JobBuilder, RejectsCrossKindMixtures)
{
    const Session session;
    {
        // A pattern on an analytical job.
        auto b = session.job().model("fig3-roofline").pattern(2);
        EXPECT_FALSE(b.build().has_value());
        EXPECT_NE(b.error().find("simulation jobs"),
                  std::string::npos);
    }
    {
        // A param on a simulation job.
        auto b = session.job()
                     .workload("BERT-L1")
                     .engine("VEGETA-S-16-2")
                     .param("degree", 0.95);
        EXPECT_FALSE(b.build().has_value());
        EXPECT_NE(b.error().find("model"), std::string::npos);
    }
    {
        // Two engines on a simulation job (fine for analysis).
        auto b = session.job()
                     .workload("BERT-L1")
                     .engine("VEGETA-S-16-2")
                     .engine("VEGETA-D-1-2");
        EXPECT_FALSE(b.build().has_value());
        EXPECT_NE(b.error().find("exactly one engine"),
                  std::string::npos);
    }
    {
        auto b = session.job()
                     .model("fig14-area-power")
                     .engine("VEGETA-S-16-2")
                     .engine("VEGETA-D-1-2");
        const auto job = b.build();
        ASSERT_TRUE(job.has_value()) << b.error();
        EXPECT_EQ(job->kind, JobKind::Analysis);
        EXPECT_EQ(job->analysis.engines.size(), 2u);
    }
}

// --- Job keys --------------------------------------------------------

TEST(JobKey, DistinguishesKindsAndParameters)
{
    const Session session;
    const auto sim_job = session.job()
                             .workload("quick-small")
                             .engine("VEGETA-S-2-2")
                             .build();
    ASSERT_TRUE(sim_job.has_value());

    auto ana = session.job().model("fig15-unstructured");
    const auto ana_job = ana.build();
    ASSERT_TRUE(ana_job.has_value());
    EXPECT_NE(jobKey(*sim_job), jobKey(*ana_job));

    auto ana2 = session.job()
                    .model("fig15-unstructured")
                    .param("degree", 0.95);
    const auto ana_job2 = ana2.build();
    EXPECT_NE(jobKey(*ana_job), jobKey(*ana_job2));

    auto ana3 = session.job()
                    .model("fig15-unstructured")
                    .param("degree", 0.95);
    EXPECT_EQ(jobKey(*ana_job2), jobKey(*ana3.build()));
}

// --- Session::run(Job) -----------------------------------------------

TEST(Session, JobRunMatchesTypedEntryPoints)
{
    const Session session;
    const auto sim_job = session.job()
                             .workload("quick-small")
                             .engine("VEGETA-S-2-2")
                             .pattern(2)
                             .build();
    ASSERT_TRUE(sim_job.has_value());
    const auto via_job = session.run(*sim_job);
    ASSERT_EQ(via_job.kind, JobKind::Simulation);
    expectIdenticalSim(via_job.simulation,
                       session.run(sim_job->simulation));

    auto ana = session.job()
                   .model("fig14-area-power")
                   .engine("VEGETA-S-16-2");
    const auto ana_job = ana.build();
    ASSERT_TRUE(ana_job.has_value());
    const auto via_ana = session.run(*ana_job);
    ASSERT_EQ(via_ana.kind, JobKind::Analysis);
    expectIdenticalAnalysis(via_ana.analysis,
                            session.analyze(ana_job->analysis));
}

// --- runBatch --------------------------------------------------------

TEST(Session, MixedBatchBitIdenticalAcrossThreadsAndCaches)
{
    const Session plain;
    const auto jobs = mixedBatch(plain);
    const auto reference = plain.runBatch(jobs, 1);

    // Threads.
    expectIdenticalBatches(plain.runBatch(jobs, 4), reference);

    // In-memory cache.
    Session cached;
    cached.enableCache();
    expectIdenticalBatches(cached.runBatch(jobs, 1), reference);
    expectIdenticalBatches(cached.runBatch(jobs, 4), reference);

    // Persistent cache (cold, then warm, single- and multi-threaded).
    Session disk;
    disk.attachDiskCache(freshDir("mixed_batch"));
    ASSERT_TRUE(disk.diskCache()->ok());
    expectIdenticalBatches(disk.runBatch(jobs, 4), reference);
    expectIdenticalBatches(disk.runBatch(jobs, 1), reference);
}

TEST(Session, BatchDedupeRunsUniqueJobsOnce)
{
    Session session;
    const auto cache = session.enableCache();
    const auto jobs = mixedBatch(session);
    session.runBatch(jobs, 4);
    // mixedBatch holds 3 unique trace jobs (one duplicated): each
    // simulates exactly once.
    EXPECT_EQ(session.simulationsPerformed(), 3u);
    EXPECT_EQ(cache->stats().insertions, 3u);
}

TEST(Session, WarmDiskCacheSkipsEveryTraceReplay)
{
    const std::string dir = freshDir("warm_sweep");

    // Cold run: a first session populates the persistent cache.
    Session cold;
    cold.attachDiskCache(dir);
    ASSERT_TRUE(cold.diskCache()->ok());
    const auto jobs = mixedBatch(cold);
    const auto cold_results = cold.runBatch(jobs, 4);
    EXPECT_EQ(cold.simulationsPerformed(), 3u);
    EXPECT_EQ(cold.analysesPerformed(), 3u);

    // Warm run: a second session (fresh process in real life) runs
    // the same sweep against the same directory -- ZERO trace
    // replays, ZERO analytical backend evaluations, and bit-identical
    // output.
    Session warm;
    warm.attachDiskCache(dir);
    const auto warm_results = warm.runBatch(jobs, 4);
    expectIdenticalBatches(warm_results, cold_results);
    EXPECT_EQ(warm.simulationsPerformed(), 0u);
    EXPECT_EQ(warm.analysesPerformed(), 0u);
    const auto stats = warm.diskCache()->stats();
    EXPECT_EQ(stats.misses, 0u);
    // 3 unique trace jobs + 3 unique analytical jobs, all from disk.
    EXPECT_EQ(stats.hits, 6u);
}

TEST(Session, RequestOverloadMatchesJobBatch)
{
    const Session session;
    std::vector<Job> jobs;
    std::vector<SimulationRequest> requests;
    for (const char *engine : {"VEGETA-D-1-2", "VEGETA-S-2-2"}) {
        const auto job = session.job()
                             .workload("quick-small")
                             .engine(engine)
                             .pattern(2)
                             .build();
        ASSERT_TRUE(job.has_value());
        jobs.push_back(*job);
        requests.push_back(job->simulation);
    }
    const auto direct = session.runBatch(requests, 2);
    const auto batch = session.runBatch(jobs, 2);
    ASSERT_EQ(direct.size(), batch.size());
    for (std::size_t i = 0; i < direct.size(); ++i)
        expectIdenticalSim(direct[i], batch[i].simulation);
}

TEST(Session, JobErrorChecksBothKinds)
{
    const Session session;
    Job bad_sim;
    bad_sim.kind = JobKind::Simulation;
    bad_sim.simulation.engine = "NOPE-9000";
    bad_sim.simulation.gemm = {32, 32, 64};
    ASSERT_TRUE(session.jobError(bad_sim).has_value());

    Job bad_ana;
    bad_ana.kind = JobKind::Analysis;
    bad_ana.analysis.model = "no-such-model";
    ASSERT_TRUE(session.jobError(bad_ana).has_value());

    const auto good = session.job()
                          .gemm(kernels::GemmDims{32, 32, 64})
                          .engine("VEGETA-D-1-2")
                          .build();
    ASSERT_TRUE(good.has_value());
    EXPECT_FALSE(session.jobError(*good).has_value());
}

TEST(Session, JobErrorCoversEveryFieldTheReplayCoreRefuses)
{
    // One case per field the replay core asserts on, divides by, masks
    // with or sizes an allocation with.  Each used to pass jobError
    // and abort Session::run (SIGFPE for the clock divider), which
    // took a serve daemon down with it.
    const Session session;
    auto built = session.job()
                     .gemm(kernels::GemmDims{32, 32, 128})
                     .engine("VEGETA-S-16-2")
                     .build();
    ASSERT_TRUE(built.has_value());
    const SimulationRequest base = built->simulation;
    ASSERT_EQ(session.jobError(*built), std::nullopt);

    using Mutation = std::function<void(SimulationRequest &)>;
    const std::pair<const char *, Mutation> cases[] = {
        {"GEMM", [](auto &r) { r.gemm.k = 0; }},
        {"pattern", [](auto &r) { r.patternN = 3; }},
        {"pattern", [](auto &r) { r.patternN = 0; }},
        {"cBlocking", [](auto &r) { r.cBlocking = 0; }},
        {"cBlocking", [](auto &r) { r.cBlocking = 9; }},
        {"fetchWidth", [](auto &r) { r.core.fetchWidth = 0; }},
        {"retireWidth", [](auto &r) { r.core.retireWidth = 0; }},
        {"robEntries", [](auto &r) { r.core.robEntries = 0; }},
        {"robEntries", [](auto &r) { r.core.robEntries = 1u << 31; }},
        {"loadBufferEntries",
         [](auto &r) { r.core.loadBufferEntries = 0; }},
        {"loadBufferEntries",
         [](auto &r) { r.core.loadBufferEntries = ~0u; }},
        {"numAlus", [](auto &r) { r.core.numAlus = 0; }},
        {"numAlus", [](auto &r) { r.core.numAlus = 17; }},
        {"numLsuPorts", [](auto &r) { r.core.numLsuPorts = 0; }},
        {"numVectorFus", [](auto &r) { r.core.numVectorFus = 0; }},
        {"engineClockDivider",
         [](auto &r) { r.core.engineClockDivider = 0; }},
        {"lineBytes", [](auto &r) { r.core.cache.lineBytes = 0; }},
        {"lineBytes", [](auto &r) { r.core.cache.lineBytes = 48; }},
        {"l1Sets", [](auto &r) { r.core.cache.l1Sets = 0; }},
        {"l1Sets", [](auto &r) { r.core.cache.l1Sets = 3; }},
        {"l1Ways", [](auto &r) { r.core.cache.l1Ways = 0; }},
        {"l1Ways", [](auto &r) { r.core.cache.l1Ways = 1u << 20; }},
    };
    for (const auto &[field, mutate] : cases) {
        Job job = Job::simulate(base);
        mutate(job.simulation);
        const auto error = session.jobError(job);
        ASSERT_TRUE(error.has_value()) << field;
        EXPECT_NE(error->find(field), std::string::npos) << *error;

        // JobBuilder::build holds a job to the same check.
        const SimulationRequest &r = job.simulation;
        auto builder = session.job()
                           .gemm(r.gemm)
                           .engine(r.engine)
                           .pattern(r.patternN)
                           .cBlocking(r.cBlocking)
                           .core(r.core);
        EXPECT_FALSE(builder.build().has_value()) << field;
        EXPECT_EQ(builder.error(), *error);
    }
}

} // namespace
} // namespace vegeta::sim
