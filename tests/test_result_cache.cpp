/**
 * @file
 * Result-cache and sweep-dedupe tests: caching and batch-level
 * deduplication must never change an answer -- results stay
 * bit-identical to the uncached, single-threaded path -- while each
 * unique request simulates exactly once.
 */

#include <gtest/gtest.h>

#include "expect_identical.hpp"
#include "sim/session.hpp"

namespace vegeta::sim {
namespace {

SimulationRequest
smallRequest(const Session &session, const std::string &engine,
             u32 pattern, bool of)
{
    auto builder = session.job()
                       .gemm(kernels::GemmDims{32, 32, 128})
                       .engine(engine)
                       .pattern(pattern)
                       .outputForwarding(of);
    const auto job = builder.build();
    EXPECT_TRUE(job.has_value()) << builder.error();
    return job->simulation;
}

TEST(CacheKey, DistinguishesEveryRequestField)
{
    const Session session;
    const SimulationRequest base =
        smallRequest(session, "VEGETA-S-16-2", 2, false);

    SimulationRequest other = base;
    EXPECT_EQ(cacheKey(base), cacheKey(other));

    other = base;
    other.label = "renamed";
    EXPECT_NE(cacheKey(base), cacheKey(other));

    other = base;
    other.gemm.k = 256;
    EXPECT_NE(cacheKey(base), cacheKey(other));

    other = base;
    other.engine = "VEGETA-D-1-2";
    EXPECT_NE(cacheKey(base), cacheKey(other));

    other = base;
    other.patternN = 4;
    EXPECT_NE(cacheKey(base), cacheKey(other));

    other = base;
    other.outputForwarding = true;
    EXPECT_NE(cacheKey(base), cacheKey(other));

    other = base;
    other.kernel = KernelVariant::Naive;
    EXPECT_NE(cacheKey(base), cacheKey(other));

    other = base;
    other.cBlocking = 1;
    EXPECT_NE(cacheKey(base), cacheKey(other));

    other = base;
    other.core.robEntries = 64;
    EXPECT_NE(cacheKey(base), cacheKey(other));

    other = base;
    other.core.engineClockDivider = 1;
    EXPECT_NE(cacheKey(base), cacheKey(other));

    other = base;
    other.core.cache.l1Ways = 4;
    EXPECT_NE(cacheKey(base), cacheKey(other));
}

TEST(ResultCache, FindInsertAndStats)
{
    ResultCache cache;
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_FALSE(cache.find("a").has_value());

    SimulationResult result;
    result.workload = "w";
    result.coreCycles = 42;
    cache.insert("a", result);
    EXPECT_EQ(cache.size(), 1u);

    const auto hit = cache.find("a");
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->coreCycles, 42u);

    // First insert wins; re-inserting does not count.
    SimulationResult other = result;
    other.coreCycles = 43;
    cache.insert("a", other);
    EXPECT_EQ(cache.find("a")->coreCycles, 42u);

    const auto stats = cache.stats();
    EXPECT_EQ(stats.hits, 2u);
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.insertions, 1u);

    cache.clear();
    EXPECT_EQ(cache.size(), 0u);
}

TEST(ResultCache, CachedRunsAreBitIdentical)
{
    Session uncached;
    Session cached;
    const auto stats_cache = cached.enableCache();

    const SimulationRequest request =
        smallRequest(cached, "VEGETA-S-2-2", 2, true);
    const auto first = cached.run(request);
    const auto second = cached.run(request); // cache hit
    const auto reference = uncached.run(request);

    expectIdenticalSim(first, reference);
    expectIdenticalSim(second, reference);
    EXPECT_EQ(stats_cache->stats().insertions, 1u);
    EXPECT_EQ(stats_cache->stats().hits, 1u);
}

TEST(ResultCache, TraceOutBypassesCacheButStaysIdentical)
{
    Session session;
    session.enableCache();
    const SimulationRequest request =
        smallRequest(session, "VEGETA-S-2-2", 2, false);

    const auto cached = session.run(request); // populates cache
    cpu::TraceCollector trace;
    const auto with_trace = session.run(request, &trace);
    expectIdenticalSim(cached, with_trace);
    EXPECT_FALSE(trace.trace().empty());
}

TEST(SweepDedupe, DuplicateRequestsSimulateOnce)
{
    Session session;
    const auto cache = session.enableCache();

    // 3 unique requests, each repeated 3 times, shuffled.
    const SimulationRequest a =
        smallRequest(session, "VEGETA-D-1-2", 4, false);
    const SimulationRequest b =
        smallRequest(session, "VEGETA-S-2-2", 2, false);
    const SimulationRequest c =
        smallRequest(session, "VEGETA-S-2-2", 2, true);
    const std::vector<SimulationRequest> batch{a, b, c, c, a, b,
                                              b, c, a};

    const auto results = session.runBatch(batch, 4);
    ASSERT_EQ(results.size(), batch.size());

    // Each unique request ran exactly once...
    EXPECT_EQ(cache->stats().insertions, 3u);
    EXPECT_EQ(cache->stats().misses, 3u);

    // ...and duplicate slots carry the identical result.
    Session reference;
    for (std::size_t i = 0; i < batch.size(); ++i)
        expectIdenticalSim(results[i], reference.run(batch[i]));
}

TEST(SweepDedupe, CacheOnOffAndThreadCountsBitIdentical)
{
    const Session session;
    std::vector<SimulationRequest> batch;
    for (const char *engine :
         {"VEGETA-D-1-2", "VEGETA-S-1-2", "VEGETA-S-16-2"}) {
        for (u32 pattern : {4u, 2u, 1u}) {
            batch.push_back(
                smallRequest(session, engine, pattern, false));
            // Repeat a subset so the dedupe path is exercised.
            if (pattern == 2)
                batch.push_back(
                    smallRequest(session, engine, pattern, false));
        }
    }

    const auto reference = session.runBatch(batch, 1);

    Session cached_sim;
    cached_sim.enableCache();
    for (const u32 threads : {1u, 4u}) {
        const auto plain = session.runBatch(batch, threads);
        const auto cached = cached_sim.runBatch(batch, threads);
        ASSERT_EQ(plain.size(), reference.size());
        for (std::size_t i = 0; i < reference.size(); ++i) {
            expectIdenticalSim(plain[i], reference[i]);
            expectIdenticalSim(cached[i], reference[i]);
        }
    }
}

TEST(SweepDedupe, GeomeanSpeedupMatchesCachedSession)
{
    // geomeanSpeedup over a session with a warm cache must return
    // the exact same ratio as over a cold, uncached one.
    const std::vector<std::string> workloads{"BERT-L1"};

    Session cold;
    const double uncached = geomeanSpeedup(
        cold, workloads, 2, "VEGETA-S-16-2", true, "VEGETA-D-1-2", 1);

    Session warm;
    const auto cache = warm.enableCache();
    const double first = geomeanSpeedup(
        warm, workloads, 2, "VEGETA-S-16-2", true, "VEGETA-D-1-2", 2);
    const u64 simulations = cache->stats().insertions;
    const double second = geomeanSpeedup(
        warm, workloads, 2, "VEGETA-S-16-2", true, "VEGETA-D-1-2", 2);

    EXPECT_EQ(uncached, first);
    EXPECT_EQ(uncached, second);
    // The second call re-simulated nothing.
    EXPECT_EQ(cache->stats().insertions, simulations);
}

} // namespace
} // namespace vegeta::sim
