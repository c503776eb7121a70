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

#include "sim/session.hpp"
#include "sim/simulator.hpp"
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

TEST(GoldenCycles, MatrixIsBitIdenticalToPreRefactorModel)
{
    const Simulator simulator;
    for (const GoldenPoint &g : kGolden) {
        SCOPED_TRACE(std::string(g.engine) + " / " + g.workload +
                     " N=" + std::to_string(g.patternN) +
                     (g.outputForwarding ? " +OF" : ""));
        auto request = simulator.request()
                           .gemm(g.dims)
                           .engine(g.engine)
                           .pattern(g.patternN)
                           .outputForwarding(g.outputForwarding)
                           .build();
        ASSERT_TRUE(request.has_value());
        const SimulationResult result = simulator.run(*request);
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
    const Simulator simulator;
    auto request = simulator.request()
                       .gemm(kernels::GemmDims{32, 32, 128})
                       .engine("VEGETA-S-16-2")
                       .pattern(2)
                       .kernel(KernelVariant::Naive)
                       .build();
    ASSERT_TRUE(request.has_value());
    const SimulationResult result = simulator.run(*request);
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
    const Simulator simulator;
    const GoldenPoint &g = kGolden[20]; // S-16-2, quick-square, N=2
    auto request = simulator.request()
                       .gemm(g.dims)
                       .engine(g.engine)
                       .pattern(g.patternN)
                       .outputForwarding(g.outputForwarding)
                       .build();
    ASSERT_TRUE(request.has_value());
    cpu::TraceCollector trace;
    simulator.run(*request, &trace); // teed run, trace captured
    const SimulationResult streamed = simulator.run(*request);
    const SimulationResult replayed =
        simulator.replay(trace.trace(), *request).result;
    EXPECT_EQ(replayed.coreCycles, g.coreCycles);
    EXPECT_EQ(streamed.coreCycles, replayed.coreCycles);
    EXPECT_EQ(streamed.cacheHits, replayed.cacheHits);
    EXPECT_EQ(streamed.cacheMisses, replayed.cacheMisses);
    EXPECT_EQ(streamed.macUtilization, replayed.macUtilization);
}

TEST(GoldenCycles, LanePackedBatchIsBitIdenticalForEveryWidth)
{
    // The whole golden matrix through Session::runBatch's lane packs:
    // every lane width must reproduce the pinned pre-refactor values
    // bit for bit, macUtilization included.  This is the end-to-end
    // pin of the LaneReplayer bit-exactness contract.
    std::vector<SimulationRequest> requests;
    requests.reserve(std::size(kGolden));
    {
        const Session session;
        for (const GoldenPoint &g : kGolden) {
            auto request = session.request()
                               .gemm(g.dims)
                               .engine(g.engine)
                               .pattern(g.patternN)
                               .outputForwarding(g.outputForwarding)
                               .build();
            ASSERT_TRUE(request.has_value());
            requests.push_back(*request);
        }
    }
    for (const u32 lanes : {1u, 2u, 4u, 8u}) {
        SCOPED_TRACE("lane width " + std::to_string(lanes));
        // A fresh session per width: the in-memory result cache would
        // otherwise satisfy every later width without replaying.
        const Session session;
        const auto results = session.runBatch(requests, 1, lanes);
        ASSERT_EQ(results.size(), std::size(kGolden));
        for (std::size_t i = 0; i < results.size(); ++i) {
            const GoldenPoint &g = kGolden[i];
            SCOPED_TRACE(std::string(g.engine) + " / " + g.workload +
                         " N=" + std::to_string(g.patternN) +
                         (g.outputForwarding ? " +OF" : ""));
            EXPECT_EQ(results[i].coreCycles, g.coreCycles);
            EXPECT_EQ(results[i].instructions, g.instructions);
            EXPECT_EQ(results[i].engineInstructions,
                      g.engineInstructions);
            EXPECT_EQ(results[i].cacheHits, g.cacheHits);
            EXPECT_EQ(results[i].cacheMisses, g.cacheMisses);
            EXPECT_EQ(results[i].macUtilization, g.macUtilization)
                << "macUtilization must match bit for bit";
        }
    }
}

TEST(GoldenCycles, MatrixIsBitIdenticalWithTracingEnabled)
{
    // Telemetry observes and never steers: with span recording armed
    // (the --trace-out path), the batched golden matrix must still
    // match every pinned value bit for bit, and the run must actually
    // have recorded spans.
    telemetry::setTraceEnabled(true);
    telemetry::clearTrace();
    std::vector<SimulationRequest> requests;
    const Session session;
    for (const GoldenPoint &g : kGolden) {
        auto request = session.request()
                           .gemm(g.dims)
                           .engine(g.engine)
                           .pattern(g.patternN)
                           .outputForwarding(g.outputForwarding)
                           .build();
        ASSERT_TRUE(request.has_value());
        requests.push_back(*request);
    }
    const auto results = session.runBatch(requests, 2, 4);
    telemetry::setTraceEnabled(false);
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
#ifndef VEGETA_NO_TELEMETRY
    EXPECT_GT(telemetry::traceSpanCount("session.batch.plan"), 0u)
        << "an armed golden batch must record its planning span";
    EXPECT_GT(telemetry::traceSpanCount("lane.replay"), 0u)
        << "an armed lane-packed batch must record replay spans";
#endif
    telemetry::clearTrace();
}

TEST(GoldenCycles, LanePacksAreThreadCountIndependent)
{
    // Lane packs and worker threads compose: any (threads, lanes)
    // combination is bit-identical to the serial single-stream batch.
    std::vector<SimulationRequest> requests;
    const Session builder;
    for (const GoldenPoint &g : kGolden) {
        auto request = builder.request()
                           .gemm(g.dims)
                           .engine(g.engine)
                           .pattern(g.patternN)
                           .outputForwarding(g.outputForwarding)
                           .build();
        ASSERT_TRUE(request.has_value());
        requests.push_back(*request);
    }
    const auto baseline = Session{}.runBatch(requests, 1, 1);
    const auto packed = Session{}.runBatch(requests, 3, 4);
    ASSERT_EQ(packed.size(), baseline.size());
    for (std::size_t i = 0; i < baseline.size(); ++i) {
        EXPECT_EQ(packed[i].coreCycles, baseline[i].coreCycles);
        EXPECT_EQ(packed[i].macUtilization,
                  baseline[i].macUtilization);
        EXPECT_EQ(packed[i].cacheHits, baseline[i].cacheHits);
        EXPECT_EQ(packed[i].cacheMisses, baseline[i].cacheMisses);
    }
}

} // namespace
} // namespace vegeta::sim
