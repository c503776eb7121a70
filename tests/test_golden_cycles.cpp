/**
 * @file
 * Golden-cycle regression matrix.
 *
 * Every value below was captured from the pre-streaming-refactor
 * replayer (full-trace vectors, unordered_map renaming, std::list
 * LRU) at commit 90d647f and is pinned exactly -- including the
 * macUtilization doubles, written as hex-float literals so the
 * comparison is bit-identical.  The streaming rewrite of TraceCpu is
 * required to be a pure performance change: any drift in totalCycles,
 * cache hits/misses, or utilization on this (engine, workload, N,
 * forwarding) matrix is a modeling regression, not noise.
 */

#include <gtest/gtest.h>

#include <set>

#include "sim/serial.hpp"
#include "sim/session.hpp"
#include "sim/telemetry.hpp"

namespace vegeta::sim {
namespace {

struct GoldenPoint
{
    const char *engine;
    const char *workload;
    kernels::GemmDims dims;
    u32 patternN;
    bool outputForwarding;
    Cycles coreCycles;
    u64 instructions;
    u64 engineInstructions;
    u64 cacheHits;
    u64 cacheMisses;
    double macUtilization;
};

// Captured from the pre-refactor model (see file comment).
// clang-format off
const GoldenPoint kGolden[] = {
    {"VEGETA-D-1-2", "quick-small", {32, 32, 128}, 4, false, 1902, 223, 16, 192, 320, 0x1.13a6a0f9cf01ep-1},
    {"VEGETA-D-1-2", "quick-small", {32, 32, 128}, 4, true, 1902, 223, 16, 192, 320, 0x1.13a6a0f9cf01ep-1},
    {"VEGETA-D-1-2", "quick-small", {32, 32, 128}, 2, false, 1902, 223, 16, 192, 320, 0x1.13a6a0f9cf01ep-1},
    {"VEGETA-D-1-2", "quick-small", {32, 32, 128}, 2, true, 1902, 223, 16, 192, 320, 0x1.13a6a0f9cf01ep-1},
    {"VEGETA-D-1-2", "quick-small", {32, 32, 128}, 1, false, 1902, 223, 16, 192, 320, 0x1.13a6a0f9cf01ep-1},
    {"VEGETA-D-1-2", "quick-small", {32, 32, 128}, 1, true, 1902, 223, 16, 192, 320, 0x1.13a6a0f9cf01ep-1},
    {"VEGETA-D-1-2", "quick-square", {64, 64, 256}, 4, false, 13618, 1071, 128, 1248, 2336, 0x1.33ff3f80784fbp-1},
    {"VEGETA-D-1-2", "quick-square", {64, 64, 256}, 4, true, 13618, 1071, 128, 1248, 2336, 0x1.33ff3f80784fbp-1},
    {"VEGETA-D-1-2", "quick-square", {64, 64, 256}, 2, false, 13618, 1071, 128, 1248, 2336, 0x1.33ff3f80784fbp-1},
    {"VEGETA-D-1-2", "quick-square", {64, 64, 256}, 2, true, 13618, 1071, 128, 1248, 2336, 0x1.33ff3f80784fbp-1},
    {"VEGETA-D-1-2", "quick-square", {64, 64, 256}, 1, false, 13618, 1071, 128, 1248, 2336, 0x1.33ff3f80784fbp-1},
    {"VEGETA-D-1-2", "quick-square", {64, 64, 256}, 1, true, 13618, 1071, 128, 1248, 2336, 0x1.33ff3f80784fbp-1},
    {"VEGETA-S-16-2", "quick-small", {32, 32, 128}, 4, false, 1454, 223, 16, 192, 320, 0x1.68954dd2390bap-1},
    {"VEGETA-S-16-2", "quick-small", {32, 32, 128}, 4, true, 1430, 223, 16, 192, 320, 0x1.6ea28d118b474p-1},
    {"VEGETA-S-16-2", "quick-small", {32, 32, 128}, 2, false, 946, 179, 8, 192, 268, 0x1.151b9a3fdd5c9p-1},
    {"VEGETA-S-16-2", "quick-small", {32, 32, 128}, 2, true, 938, 179, 8, 192, 268, 0x1.1778a191bd684p-1},
    {"VEGETA-S-16-2", "quick-small", {32, 32, 128}, 1, false, 714, 149, 4, 192, 230, 0x1.6f26016f26017p-2},
    {"VEGETA-S-16-2", "quick-small", {32, 32, 128}, 1, true, 714, 149, 4, 192, 230, 0x1.6f26016f26017p-2},
    {"VEGETA-S-16-2", "quick-square", {64, 64, 256}, 4, false, 11602, 1071, 128, 1248, 2336, 0x1.6983fe694b81dp-1},
    {"VEGETA-S-16-2", "quick-square", {64, 64, 256}, 4, true, 9810, 1071, 128, 1248, 2336, 0x1.ab8dce001ab8ep-1},
    {"VEGETA-S-16-2", "quick-square", {64, 64, 256}, 2, false, 6474, 719, 64, 1832, 1336, 0x1.43ef3bde26c08p-1},
    {"VEGETA-S-16-2", "quick-square", {64, 64, 256}, 2, true, 5706, 719, 64, 1832, 1336, 0x1.6f88d6a26957ep-1},
    {"VEGETA-S-16-2", "quick-square", {64, 64, 256}, 1, false, 4010, 479, 32, 1944, 920, 0x1.057d829e119ebp-1},
    {"VEGETA-S-16-2", "quick-square", {64, 64, 256}, 1, true, 3754, 479, 32, 1944, 920, 0x1.175283c02ba4ep-1},
    {"VEGETA-S-1-2", "quick-small", {32, 32, 128}, 4, false, 1902, 223, 16, 192, 320, 0x1.13a6a0f9cf01ep-1},
    {"VEGETA-S-1-2", "quick-small", {32, 32, 128}, 4, true, 1542, 223, 16, 192, 320, 0x1.5401540154015p-1},
    {"VEGETA-S-1-2", "quick-small", {32, 32, 128}, 2, false, 1170, 179, 8, 192, 268, 0x1.c01c01c01c01cp-2},
    {"VEGETA-S-1-2", "quick-small", {32, 32, 128}, 2, true, 1050, 179, 8, 192, 268, 0x1.f3526859b8cecp-2},
    {"VEGETA-S-1-2", "quick-small", {32, 32, 128}, 1, false, 826, 149, 4, 192, 230, 0x1.3d5d991aa75c6p-2},
    {"VEGETA-S-1-2", "quick-small", {32, 32, 128}, 1, true, 826, 149, 4, 192, 230, 0x1.3d5d991aa75c6p-2},
    {"VEGETA-S-1-2", "quick-square", {64, 64, 256}, 4, false, 13618, 1071, 128, 1248, 2336, 0x1.33ff3f80784fbp-1},
    {"VEGETA-S-1-2", "quick-square", {64, 64, 256}, 4, true, 10258, 1071, 128, 1248, 2336, 0x1.98e19a7a7c14fp-1},
    {"VEGETA-S-1-2", "quick-square", {64, 64, 256}, 2, false, 7594, 719, 64, 1832, 1336, 0x1.1428b90147f06p-1},
    {"VEGETA-S-1-2", "quick-square", {64, 64, 256}, 2, true, 6154, 719, 64, 1832, 1336, 0x1.54c7579b7f35bp-1},
    {"VEGETA-S-1-2", "quick-square", {64, 64, 256}, 1, false, 4682, 479, 32, 1944, 920, 0x1.bfeb00fbf4309p-2},
    {"VEGETA-S-1-2", "quick-square", {64, 64, 256}, 1, true, 4202, 479, 32, 1944, 920, 0x1.f315911e95625p-2},
    {"STC-like", "quick-small", {32, 32, 128}, 4, false, 1902, 223, 16, 192, 320, 0x1.13a6a0f9cf01ep-1},
    {"STC-like", "quick-small", {32, 32, 128}, 4, true, 1542, 223, 16, 192, 320, 0x1.5401540154015p-1},
    {"STC-like", "quick-small", {32, 32, 128}, 2, false, 1170, 179, 8, 192, 268, 0x1.c01c01c01c01cp-2},
    {"STC-like", "quick-small", {32, 32, 128}, 2, true, 1050, 179, 8, 192, 268, 0x1.f3526859b8cecp-2},
    {"STC-like", "quick-small", {32, 32, 128}, 1, false, 1170, 179, 8, 192, 268, 0x1.c01c01c01c01cp-2},
    {"STC-like", "quick-small", {32, 32, 128}, 1, true, 1050, 179, 8, 192, 268, 0x1.f3526859b8cecp-2},
    {"STC-like", "quick-square", {64, 64, 256}, 4, false, 13618, 1071, 128, 1248, 2336, 0x1.33ff3f80784fbp-1},
    {"STC-like", "quick-square", {64, 64, 256}, 4, true, 10258, 1071, 128, 1248, 2336, 0x1.98e19a7a7c14fp-1},
    {"STC-like", "quick-square", {64, 64, 256}, 2, false, 7594, 719, 64, 1832, 1336, 0x1.1428b90147f06p-1},
    {"STC-like", "quick-square", {64, 64, 256}, 2, true, 6154, 719, 64, 1832, 1336, 0x1.54c7579b7f35bp-1},
    {"STC-like", "quick-square", {64, 64, 256}, 1, false, 7594, 719, 64, 1832, 1336, 0x1.1428b90147f06p-1},
    {"STC-like", "quick-square", {64, 64, 256}, 1, true, 6154, 719, 64, 1832, 1336, 0x1.54c7579b7f35bp-1},
};
// clang-format on

/** The simulation request of one golden point. */
SimulationRequest
goldenRequest(const Session &session, const GoldenPoint &g)
{
    auto builder = session.job()
                       .gemm(g.dims)
                       .engine(g.engine)
                       .pattern(g.patternN)
                       .outputForwarding(g.outputForwarding);
    const auto job = builder.build();
    EXPECT_TRUE(job.has_value()) << builder.error();
    return job.value().simulation;
}

TEST(GoldenCycles, MatrixIsBitIdenticalToPreRefactorModel)
{
    const Session session;
    for (const GoldenPoint &g : kGolden) {
        SCOPED_TRACE(std::string(g.engine) + " / " + g.workload +
                     " N=" + std::to_string(g.patternN) +
                     (g.outputForwarding ? " +OF" : ""));
        const SimulationResult result =
            session.run(goldenRequest(session, g));
        EXPECT_EQ(result.coreCycles, g.coreCycles);
        EXPECT_EQ(result.instructions, g.instructions);
        EXPECT_EQ(result.engineInstructions, g.engineInstructions);
        EXPECT_EQ(result.cacheHits, g.cacheHits);
        EXPECT_EQ(result.cacheMisses, g.cacheMisses);
        EXPECT_EQ(result.macUtilization, g.macUtilization)
            << "macUtilization must match bit for bit";
    }
}

TEST(GoldenCycles, NaiveKernelPoint)
{
    // Listing-1 kernel variant (C through memory inside the k loop),
    // captured from the same pre-refactor model.
    const Session session;
    const auto job = session.job()
                         .gemm(kernels::GemmDims{32, 32, 128})
                         .engine("VEGETA-S-16-2")
                         .pattern(2)
                         .kernel(KernelVariant::Naive)
                         .build();
    ASSERT_TRUE(job.has_value());
    const SimulationResult result = session.run(job->simulation);
    EXPECT_EQ(result.coreCycles, 2027u);
    EXPECT_EQ(result.instructions, 245u);
    EXPECT_EQ(result.cacheHits, 396u);
    EXPECT_EQ(result.cacheMisses, 268u);
    EXPECT_EQ(result.macUtilization, 0x1.02a6f64678fdap-2);
}

TEST(GoldenCycles, BatchReplayMatchesStreamingRun)
{
    // The facade's streaming path and a batch replay of the same
    // generated trace must agree on every golden point measurement.
    const Session session;
    const GoldenPoint &g = kGolden[20]; // S-16-2, quick-square, N=2
    const auto request = goldenRequest(session, g);
    cpu::TraceCollector trace;
    session.run(request, &trace); // teed run, trace captured
    const SimulationResult streamed = session.run(request);
    const SimulationResult replayed =
        session.replay(trace.trace(), request).result;
    EXPECT_EQ(replayed.coreCycles, g.coreCycles);
    EXPECT_EQ(streamed.coreCycles, replayed.coreCycles);
    EXPECT_EQ(streamed.cacheHits, replayed.cacheHits);
    EXPECT_EQ(streamed.cacheMisses, replayed.cacheMisses);
    EXPECT_EQ(streamed.macUtilization, replayed.macUtilization);
}

TEST(GoldenCycles, MatrixIsBitIdenticalWithTracingEnabled)
{
    // Telemetry observes and never steers: with span recording armed
    // (the --trace-out path), the batched golden matrix must still
    // match every pinned value bit for bit, and the run's spans and
    // counters must reconcile with the batch itself.
    telemetry::setTraceEnabled(true);
    telemetry::clearTrace();
    const telemetry::MetricsSnapshot before = telemetry::snapshot();
    std::vector<SimulationRequest> requests;
    const Session session;
    for (const GoldenPoint &g : kGolden)
        requests.push_back(goldenRequest(session, g));
    const auto results = session.runBatch(requests, 2);
    telemetry::setTraceEnabled(false);
    const telemetry::MetricsSnapshot after = telemetry::snapshot();
    ASSERT_EQ(results.size(), std::size(kGolden));
    for (std::size_t i = 0; i < results.size(); ++i) {
        const GoldenPoint &g = kGolden[i];
        SCOPED_TRACE(std::string(g.engine) + " / " + g.workload +
                     " N=" + std::to_string(g.patternN) +
                     (g.outputForwarding ? " +OF" : ""));
        EXPECT_EQ(results[i].coreCycles, g.coreCycles);
        EXPECT_EQ(results[i].instructions, g.instructions);
        EXPECT_EQ(results[i].cacheHits, g.cacheHits);
        EXPECT_EQ(results[i].cacheMisses, g.cacheMisses);
        EXPECT_EQ(results[i].macUtilization, g.macUtilization)
            << "macUtilization must match bit for bit";
    }
    const auto delta = [&](const char *name) {
        return after.counter(name) - before.counter(name);
    };
    // Every unique job replays exactly once on a cache-less session.
    std::set<std::string> keys;
    u64 unique_instructions = 0;
    for (std::size_t i = 0; i < requests.size(); ++i)
        if (keys.insert(jobKey(Job::simulate(requests[i]))).second)
            unique_instructions += results[i].instructions;
    EXPECT_EQ(delta("session.batch.unique"), keys.size());
    EXPECT_EQ(telemetry::traceSpanCount("session.job"), keys.size())
        << "one session.job span per unique job";
    EXPECT_EQ(delta("replay.streams"), keys.size());
    EXPECT_EQ(delta("replay.ops"), unique_instructions);
    EXPECT_GT(telemetry::traceSpanCount("session.batch.plan"), 0u)
        << "an armed golden batch must record its planning span";
    telemetry::clearTrace();
}

TEST(GoldenCycles, BatchIsThreadCountIndependent)
{
    // Any worker-thread count is bit-identical to the serial batch.
    std::vector<SimulationRequest> requests;
    const Session builder;
    for (const GoldenPoint &g : kGolden)
        requests.push_back(goldenRequest(builder, g));
    const auto baseline = Session{}.runBatch(requests, 1);
    const auto threaded = Session{}.runBatch(requests, 3);
    ASSERT_EQ(threaded.size(), baseline.size());
    for (std::size_t i = 0; i < baseline.size(); ++i) {
        EXPECT_EQ(threaded[i].coreCycles, baseline[i].coreCycles);
        EXPECT_EQ(threaded[i].macUtilization,
                  baseline[i].macUtilization);
        EXPECT_EQ(threaded[i].cacheHits, baseline[i].cacheHits);
        EXPECT_EQ(threaded[i].cacheMisses, baseline[i].cacheMisses);
    }
}

TEST(GoldenCycles, TableIVHeadlineGeomeansArePinned)
{
    // The golden matrix above stops at 64x64x256 GEMMs of at most
    // 1,071 ops; this pins the model at Table IV scale (layers of up
    // to 580k ops).  VEGETA-S-16-2 with output forwarding over the
    // RASA-DM-like VEGETA-D-1-2 baseline, geomean over the Table IV
    // layers at each layer-wise N:4 pattern -- 72 jobs.  Captured at
    // commit 0dcdb09, the last one before the replay core collapsed
    // to a single stream, as hex-floats compared bit for bit.  The
    // paper's abstract reports 1.09x / 2.20x / 3.74x; the model
    // reads 1.0634x / 1.9686x / 3.3351x, i.e. 2.4% / 10.5% / 10.8%
    // short of it.
    const Session session;
    std::vector<std::string> workloads;
    for (const auto &w : session.workloads().group("tableIV"))
        workloads.push_back(w.name);
    ASSERT_EQ(workloads.size(), 12u);
    const struct
    {
        u32 patternN;
        double geomean;
    } kPinned[] = {
        {4, 0x1.1037d99e4409fp+0},
        {2, 0x1.f7f86ae9a4063p+0},
        {1, 0x1.aae3b2aac049p+1},
    };
    for (const auto &pin : kPinned) {
        SCOPED_TRACE("N=" + std::to_string(pin.patternN));
        EXPECT_EQ(geomeanSpeedup(session, workloads, pin.patternN,
                                 "VEGETA-S-16-2",
                                 /*output_forwarding=*/true),
                  pin.geomean)
            << "Table IV geomean must match bit for bit";
    }
}

TEST(GoldenCycles, TableIVFullGridIsPinned)
{
    // Every SimulationResult field of the default 540-job sweep (the
    // 12 Table IV layers x every registered engine x 4:4 / 2:4 / 1:4,
    // OF on and off for sparse engines) folded into one
    // sim::serial::checksum.  The headline geomeans above touch only
    // two engines; this reaches every engine's long k loops, where
    // the replay core's steady-state skip does most of its work.
    // Captured by running this test against the library at commit
    // 011510f, before that skip existed.
    const Session session;
    std::vector<std::string> workloads;
    for (const auto &w : session.workloads().group("tableIV"))
        workloads.push_back(w.name);
    const auto grid =
        figure13Grid(session, workloads, session.engines().names());
    ASSERT_EQ(grid.size(), 540u);

    const telemetry::MetricsSnapshot before = telemetry::snapshot();
    const auto results = session.runBatch(grid, 4);
    const telemetry::MetricsSnapshot after = telemetry::snapshot();
    ASSERT_EQ(results.size(), grid.size());
    serial::FieldWriter record;
    for (const SimulationResult &result : results)
        serial::appendSimulationResult(record, result);
    const u64 sum = serial::checksum(record.body());
    EXPECT_EQ(sum, 0xac8dc73b71a91ee6ull)
        << "checksum " << serial::hex16(sum);

    // The skip must keep firing: it advanced 64% of the sweep's
    // replayed ops when it landed.
    const u64 ops =
        after.counter("replay.ops") - before.counter("replay.ops");
    const u64 skipped = after.counter("replay.memo.ops") -
                        before.counter("replay.memo.ops");
    ASSERT_GT(ops, 0u);
    EXPECT_GE(static_cast<double>(skipped) / ops, 0.55)
        << skipped << " of " << ops << " ops skipped";
}

TEST(GoldenCycles, SteadyStateSkipCoversGptL3)
{
    // GPT-L3 at 4:4 runs 384 identical k-iterations per C-tile group:
    // all but the first few of each group must be skipped (97.1% of
    // its ops when the skip landed).
    const Session session;
    const auto job = session.job()
                         .workload("GPT-L3")
                         .engine("VEGETA-S-16-2")
                         .pattern(4)
                         .outputForwarding(true)
                         .build();
    ASSERT_TRUE(job.has_value());
    const telemetry::MetricsSnapshot before = telemetry::snapshot();
    const SimulationResult result = session.run(job->simulation);
    const telemetry::MetricsSnapshot after = telemetry::snapshot();
    const auto delta = [&](const char *name) {
        return after.counter(name) - before.counter(name);
    };
    EXPECT_EQ(delta("replay.ops"), result.instructions);
    EXPECT_GE(static_cast<double>(delta("replay.memo.ops")) /
                  result.instructions,
              0.90);
    EXPECT_GT(delta("replay.memo.hits"), 0u);
    EXPECT_GT(delta("replay.memo.misses"), 0u);
}

} // namespace
} // namespace vegeta::sim
