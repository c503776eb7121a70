/**
 * @file
 * Trace-driven OOO core tests: front-end width, ROB occupancy, load
 * splitting, vector chains, and matrix-engine integration.
 */

#include <gtest/gtest.h>

#include "cpu/trace_cpu.hpp"
#include "engine/pipeline.hpp"

namespace vegeta::cpu {
namespace {

CoreConfig
fastCore()
{
    CoreConfig cfg;
    cfg.frontEndDepth = 0; // isolate the effect under test
    return cfg;
}

TEST(TraceCpu, EmptyTrace)
{
    TraceCpu cpu({}, engine::vegetaD12());
    EXPECT_EQ(cpu.run({}).totalCycles, 0u);
}

TEST(TraceCpu, FrontEndFillDelaysFirstOp)
{
    CoreConfig cfg;
    cfg.frontEndDepth = 16;
    TraceCpu cpu(cfg, engine::vegetaD12());
    auto res = cpu.run({TraceOp::alu()});
    EXPECT_EQ(res.totalCycles, 17u); // fill + 1-cycle ALU
}

TEST(TraceCpu, AluThroughputIsFetchWidth)
{
    TraceCpu cpu(fastCore(), engine::vegetaD12());
    Trace trace(400, TraceOp::alu());
    auto res = cpu.run(trace);
    // 4-wide fetch/retire, 4 ALUs: ~1 cycle per 4 ops.
    EXPECT_NEAR(static_cast<double>(res.totalCycles), 100.0, 3.0);
    EXPECT_EQ(res.retiredOps, 400u);
}

TEST(TraceCpu, RobLimitsInFlightWindow)
{
    // Long-latency load followed by many ALUs: the ROB (97) caps how
    // much younger work can proceed past an incomplete head... here we
    // check the analytic window: with loads that complete slowly, the
    // dispatch of op i waits for retirement of op i-97.
    CoreConfig cfg = fastCore();
    cfg.robEntries = 8;
    TraceCpu cpu(cfg, engine::vegetaD12());
    Trace trace;
    for (int i = 0; i < 64; ++i)
        trace.push_back(TraceOp::load(static_cast<Addr>(i) * 4096, 4));
    auto res_small = cpu.run(trace);

    CoreConfig big = fastCore();
    big.robEntries = 512;
    TraceCpu cpu_big(big, engine::vegetaD12());
    auto res_big = cpu_big.run(trace);
    EXPECT_GT(res_small.totalCycles, res_big.totalCycles);
}

TEST(TraceCpu, LoadLatencyFromCacheModel)
{
    TraceCpu cpu(fastCore(), engine::vegetaD12());
    Trace trace{TraceOp::load(0x1000, 4)};
    auto res = cpu.run(trace);
    // Cold load pays the L2 hit latency.
    EXPECT_GE(res.totalCycles, CoreConfig{}.cache.l2Latency);
    EXPECT_EQ(res.cacheMisses, 1u);
}

TEST(TraceCpu, TileLoadSplitsIntoSixteenLineAccesses)
{
    // "A TILE_LOAD_T will be converted into 16 memory requests, each
    // loading 64 bytes" (Section V-F).
    TraceCpu cpu(fastCore(), engine::vegetaD12());
    Trace trace{TraceOp::fromTileInstruction(
        isa::makeTileLoadT(isa::treg(0), 0x10000, 64))};
    auto res = cpu.run(trace);
    EXPECT_EQ(res.cacheMisses + res.cacheHits, 16u);
    // 2 LSU ports -> 8 cycles of issue + L2 latency tail.
    EXPECT_GE(res.totalCycles, 8u);
}

TEST(TraceCpu, TileLoadSizesByRegisterClass)
{
    TraceCpu cpu(fastCore(), engine::vegetaD12());
    Trace trace{TraceOp::fromTileInstruction(
        isa::makeTileLoadV(isa::vreg(0), 0x20000, 256))};
    auto res = cpu.run(trace);
    EXPECT_EQ(res.cacheMisses + res.cacheHits, 64u); // 4 KB
}

TEST(TraceCpu, MetadataLoadTouchesThreeLines)
{
    TraceCpu cpu(fastCore(), engine::vegetaD12());
    Trace trace{TraceOp::fromTileInstruction(
        isa::makeTileLoadM(0, 0x30000))};
    auto res = cpu.run(trace);
    EXPECT_EQ(res.cacheMisses + res.cacheHits, 3u); // 136 B
}

TEST(TraceCpu, SingleTileComputeLatency)
{
    CoreConfig cfg = fastCore();
    cfg.engineClockDivider = 4;
    TraceCpu cpu(cfg, engine::vegetaS162());
    Trace trace{TraceOp::fromTileInstruction(
        isa::makeTileGemm(isa::treg(5), isa::treg(4), isa::treg(0)))};
    auto res = cpu.run(trace);
    // Isolated latency 49 engine cycles x 4 core cycles each.
    EXPECT_GE(res.totalCycles, 49u * 4);
    EXPECT_EQ(res.engineInstructions, 1u);
}

TEST(TraceCpu, EngineClockDividerScalesRuntime)
{
    Trace trace;
    for (int i = 0; i < 32; ++i)
        trace.push_back(TraceOp::fromTileInstruction(isa::makeTileGemm(
            isa::treg(static_cast<u8>(i % 4)), isa::treg(4),
            isa::treg(5))));
    CoreConfig fast = fastCore();
    fast.engineClockDivider = 1;
    CoreConfig slow = fastCore();
    slow.engineClockDivider = 4;
    auto r_fast = TraceCpu(fast, engine::vegetaD12()).run(trace);
    auto r_slow = TraceCpu(slow, engine::vegetaD12()).run(trace);
    EXPECT_GT(r_slow.totalCycles, 3 * r_fast.totalCycles);
}

TEST(TraceCpu, DependentComputesStallWithoutOF)
{
    Trace trace;
    for (int i = 0; i < 16; ++i)
        trace.push_back(TraceOp::fromTileInstruction(isa::makeTileGemm(
            isa::treg(5), isa::treg(4), isa::treg(0))));

    CoreConfig cfg = fastCore();
    cfg.outputForwarding = false;
    auto res_no_of = TraceCpu(cfg, engine::vegetaS162()).run(trace);

    cfg.outputForwarding = true;
    auto res_of = TraceCpu(cfg, engine::vegetaS162()).run(trace);
    // Figure 10(c)/(d): OF substantially shortens dependent chains.
    EXPECT_LT(res_of.totalCycles, res_no_of.totalCycles);
}

TEST(TraceCpu, TileLoadBreaksEngineDependency)
{
    // compute -> load (renames C) -> compute: the second compute must
    // not wait for the first one's write-back beyond the load.
    auto compute = TraceOp::fromTileInstruction(
        isa::makeTileGemm(isa::treg(5), isa::treg(4), isa::treg(0)));
    auto load = TraceOp::fromTileInstruction(
        isa::makeTileLoadT(isa::treg(5), 0x40000, 64));

    CoreConfig cfg = fastCore();
    auto renamed =
        TraceCpu(cfg, engine::vegetaS162()).run({compute, load, compute});
    auto chained = TraceCpu(cfg, engine::vegetaS162())
                       .run({compute, compute, compute});
    EXPECT_LT(renamed.totalCycles, chained.totalCycles);
}

TEST(TraceCpu, VectorChainSerializesAtLatency)
{
    CoreConfig cfg = fastCore();
    cfg.vectorFmaLatency = 4;
    Trace chained;
    for (int i = 0; i < 64; ++i)
        chained.push_back(TraceOp::vectorFma(1));
    auto res_chained = TraceCpu(cfg, engine::vegetaD12()).run(chained);
    EXPECT_GE(res_chained.totalCycles, 64u * 4);

    Trace independent;
    for (int i = 0; i < 64; ++i)
        independent.push_back(
            TraceOp::vectorFma(static_cast<u32>(i + 1)));
    auto res_ind = TraceCpu(cfg, engine::vegetaD12()).run(independent);
    EXPECT_LT(res_ind.totalCycles, res_chained.totalCycles / 2);
}

TEST(TraceCpu, StoreToLoadDependenceEnforced)
{
    // A load of a line a prior store wrote must wait for the store.
    CoreConfig cfg = fastCore();
    Trace hit_after_store{
        TraceOp::store(0x8000, 64),
        TraceOp::load(0x8000, 4),
    };
    auto dependent = TraceCpu(cfg, engine::vegetaD12())
                         .run(hit_after_store);

    Trace unrelated{
        TraceOp::store(0x8000, 64),
        TraceOp::load(0x9000, 4),
    };
    auto independent =
        TraceCpu(cfg, engine::vegetaD12()).run(unrelated);
    EXPECT_GE(dependent.totalCycles, independent.totalCycles);
}

TEST(TraceCpu, LoadBufferOccupancyLimitsFills)
{
    // Each line fill holds a load-buffer entry until it completes:
    // with 2 entries, 64 cold loads drain 2 fills per L2 latency.
    CoreConfig cfg = fastCore();
    cfg.loadBufferEntries = 2;
    Trace trace;
    for (int i = 0; i < 64; ++i)
        trace.push_back(TraceOp::load(static_cast<Addr>(i) * 64, 4));
    const auto tight = TraceCpu(cfg, engine::vegetaD12()).run(trace);
    EXPECT_GE(tight.totalCycles, 32 * cfg.cache.l2Latency);

    const auto roomy =
        TraceCpu(fastCore(), engine::vegetaD12()).run(trace);
    EXPECT_LT(roomy.totalCycles, 4 * cfg.cache.l2Latency);
}

TEST(TraceCpu, NaiveCLoopSerializesThroughMemory)
{
    // Listing-1-style pattern: compute -> store C -> load C -> compute
    // on the same address chains through the store/load path.
    auto compute = TraceOp::fromTileInstruction(
        isa::makeTileGemm(isa::treg(5), isa::treg(4), isa::treg(0)));
    auto store_c = TraceOp::fromTileInstruction(
        isa::makeTileStoreT(0xa000, 64, isa::treg(5)));
    auto load_c = TraceOp::fromTileInstruction(
        isa::makeTileLoadT(isa::treg(5), 0xa000, 64));

    CoreConfig cfg = fastCore();
    Trace chained;
    for (int i = 0; i < 8; ++i) {
        chained.push_back(compute);
        chained.push_back(store_c); // writes 0xa000, read back below
        chained.push_back(load_c);
    }
    auto res_chained = TraceCpu(cfg, engine::vegetaS162()).run(chained);

    // Same loads (identical cache behaviour), but the stores go to an
    // unrelated region so no store-to-load dependence exists.
    Trace control;
    for (int i = 0; i < 8; ++i) {
        control.push_back(compute);
        auto st = store_c;
        st.tile.addr = 0x500000;
        control.push_back(st);
        control.push_back(load_c);
    }
    auto res_control = TraceCpu(cfg, engine::vegetaS162()).run(control);
    EXPECT_GT(res_chained.totalCycles, res_control.totalCycles);
}

TEST(TraceCpu, KindCountsReported)
{
    TraceCpu cpu(fastCore(), engine::vegetaD12());
    Trace trace{TraceOp::alu(), TraceOp::alu(), TraceOp::branch(),
                TraceOp::load(0, 4), TraceOp::store(0, 4)};
    auto res = cpu.run(trace);
    EXPECT_EQ(res.kindCounts.at(UopKind::Alu), 2u);
    EXPECT_EQ(res.kindCounts.at(UopKind::Branch), 1u);
    EXPECT_EQ(res.kindCounts.at(UopKind::Load), 1u);
    EXPECT_EQ(res.kindCounts.at(UopKind::Store), 1u);
}

TEST(TraceCpu, MacUtilizationBounded)
{
    Trace trace;
    for (int i = 0; i < 64; ++i)
        trace.push_back(TraceOp::fromTileInstruction(isa::makeTileGemm(
            isa::treg(static_cast<u8>(i % 4)), isa::treg(4),
            isa::treg(5))));
    auto res = TraceCpu(fastCore(), engine::vegetaD12()).run(trace);
    EXPECT_GT(res.macUtilization, 0.0);
    EXPECT_LE(res.macUtilization, 1.0);
}

} // namespace
} // namespace vegeta::cpu
