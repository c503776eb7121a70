/**
 * @file
 * Seeded random replay fuzz, pinned by checksum.
 *
 * The golden matrix pins hand-picked kernel traces; this pass hammers
 * the scheduler with deterministically seeded random streams --
 * random op mixes, aliasing load/store addresses crowded into a small
 * region, load-buffer pressure, random vector chains, random small
 * GEMMs through the real kernel generator with output forwarding and
 * dense/sparse engines -- and pins every SimResult field of every
 * stream, kindCounts included and macUtilization by its bit pattern,
 * as one sim::serial::checksum.  All randomness draws from the
 * library's audited common/Rng (the same generator the tuner's random
 * search uses), so a failure is a repro, not a flake.
 *
 * How the checksums were captured: this file was compiled unchanged
 * against the library at commit 0dcdb09 (the last replay core before
 * the single-stream TraceCpu, whose public API it shares) and run
 * once; the values below are what it printed.  The seeds and the
 * order of draws (including the per-round stream counts) are those
 * of the earlier lane-vs-single fuzz tests, so the streams are the
 * same ones those tests checked.
 *
 * The third suite aims at the core's steady-state skip: long-k
 * kernel streams on random core configurations, with seeded
 * divergences injected after the loop has settled, so a skip is cut
 * short by every kind of op that may end one.  Its checksum was
 * captured by compiling this file unchanged against the library at
 * commit 011510f, before that skip existed, and running it once.
 */

#include <gtest/gtest.h>

#include "common/random.hpp"
#include "cpu/trace_cpu.hpp"
#include "kernels/gemm_kernels.hpp"
#include "sim/serial.hpp"
#include "sim/telemetry.hpp"

namespace vegeta::cpu {
namespace {

/** Every SimResult field, in declaration order. */
void
appendResult(sim::serial::FieldWriter &record, const SimResult &r)
{
    record.num(r.totalCycles).num(r.retiredOps);
    record.num(r.kindCounts.size());
    for (const auto &[kind, count] : r.kindCounts)
        record.num(static_cast<u64>(kind)).num(count);
    record.num(r.engineInstructions)
        .num(r.engineLastFinish)
        .num(r.cacheHits)
        .num(r.cacheMisses)
        .bits(r.macUtilization);
}

/** One random scalar trace biased toward memory hazards. */
Trace
randomScalarTrace(Rng &rng)
{
    // A few KiB of addresses so loads and stores collide in both the
    // cache sets and the store-to-load dependence map.
    const auto addr = [&] {
        return Addr{0x1000} + rng.nextBelow(0x2001);
    };
    static constexpr u32 kBytes[] = {4, 8, 64, 256};

    Trace trace;
    const u64 n = 50 + rng.nextBelow(1951); // length in [50, 2000]
    trace.reserve(n);
    for (u64 i = 0; i < n; ++i) {
        switch (rng.nextBelow(10)) {
        case 0:
        case 1:
        case 2:
            trace.push_back(TraceOp::alu());
            break;
        case 3:
            trace.push_back(TraceOp::branch());
            break;
        case 4:
        case 5:
        case 6: // unaligned addresses exercise line straddles
            trace.push_back(
                TraceOp::load(addr(), kBytes[rng.nextBelow(4)]));
            break;
        case 7:
        case 8:
            trace.push_back(
                TraceOp::store(addr(), kBytes[rng.nextBelow(4)]));
            break;
        default:
            trace.push_back(
                TraceOp::vectorFma(u32(rng.nextBelow(4))));
            break;
        }
    }
    return trace;
}

TEST(ReplayFuzz, RandomScalarTracesMatchCapturedChecksum)
{
    Rng rng(0x5ee7a11e5u); // fixed: failures must repro
    TraceCpu cpu({}, engine::vegetaS162());
    sim::serial::FieldWriter record;
    u64 streams = 0;
    for (u32 round = 0; round < 12; ++round) {
        const u32 count = 1 + static_cast<u32>(rng.nextBelow(8));
        for (u32 s = 0; s < count; ++s, ++streams) {
            const Trace trace = randomScalarTrace(rng);
            const SimResult result = cpu.run(trace);
            EXPECT_EQ(result.retiredOps, trace.size());
            appendResult(record, result);
        }
    }
    EXPECT_EQ(streams, 60u);
    const u64 sum = sim::serial::checksum(record.body());
    EXPECT_EQ(sum, 0x4c002158f991e1b4ull)
        << "checksum " << sim::serial::hex16(sum);
}

TEST(ReplayFuzz, RandomKernelTracesMatchCapturedChecksum)
{
    // Random small GEMMs through the real kernel generator: tile
    // instructions, engine occupancy, and output forwarding all in
    // play.  Dense engines (N = 4 only) ride alongside sparse ones.
    Rng rng(0xdecafbadu);
    kernels::KernelOptions opts;
    opts.traceOnly = true;
    static constexpr u32 kPatterns[] = {1, 2, 4};

    sim::serial::FieldWriter record;
    u64 streams = 0;
    for (u32 round = 0; round < 4; ++round) {
        const u32 count = 2 + static_cast<u32>(rng.nextBelow(5));
        for (u32 s = 0; s < count; ++s, ++streams) {
            const kernels::GemmDims dims{
                16 * (1 + static_cast<u32>(rng.nextBelow(3))),
                16 * (1 + static_cast<u32>(rng.nextBelow(3))),
                32 * (1 + static_cast<u32>(rng.nextBelow(4)))};
            const u32 pattern = kPatterns[rng.nextBelow(3)];
            const Trace trace =
                kernels::runSpmmKernel(dims, pattern, opts).trace;
            CoreConfig core;
            core.outputForwarding = rng.nextBelow(2) == 0;
            // Dense engines cannot execute sparse tile programs, so
            // only N = 4 streams may draw the dense config.
            const bool dense = pattern == 4 && rng.nextBelow(2) == 0;
            TraceCpu cpu(core, dense ? engine::vegetaD12()
                                     : engine::vegetaS162());
            const SimResult result = cpu.run(trace);
            EXPECT_EQ(result.retiredOps, trace.size());
            appendResult(record, result);
        }
    }
    EXPECT_EQ(streams, 21u);
    const u64 sum = sim::serial::checksum(record.body());
    EXPECT_EQ(sum, 0x42a8599c498fe4d8ull)
        << "checksum " << sim::serial::hex16(sum);
}

/** Index of the first op at or after @p from of kind @p kind. */
std::size_t
findKind(const Trace &trace, std::size_t from, UopKind kind)
{
    while (from < trace.size() && trace[from].kind != kind)
        ++from;
    return from;
}

/**
 * Inject one seeded divergence of kind @p what at an op index in the
 * trace's last three quarters, where the k loops have settled.
 */
void
perturb(Trace &trace, Rng &rng, u32 what)
{
    const std::size_t n = trace.size();
    const std::size_t at = n / 4 + rng.nextBelow(n - n / 4);
    const auto at_kind = [&](UopKind kind) {
        return findKind(trace, at, kind);
    };
    const auto insert = [&](std::size_t pos, const TraceOp &op) {
        trace.insert(trace.begin() + static_cast<long>(pos), op);
    };
    switch (what) {
    case 0: // an extra scalar op
        insert(at, TraceOp::alu());
        break;
    case 1: { // a tile load into another register
        const std::size_t i = at_kind(UopKind::TileLoad);
        if (i < n && trace[i].tile.op == isa::Opcode::TileLoadT)
            trace[i].tile.dst =
                isa::treg(static_cast<u8>(rng.nextBelow(8)));
        break;
    }
    case 2: { // an unaligned tile load: one more line
        const std::size_t i = at_kind(UopKind::TileLoad);
        if (i < n)
            trace[i].tile.addr += 32;
        break;
    }
    case 3: { // a tile load re-reads the last one's lines: L1 hits
        const std::size_t i = at_kind(UopKind::TileLoad);
        for (std::size_t j = std::min(i, n); i < n && j-- > 0;) {
            if (trace[j].kind == UopKind::TileLoad &&
                trace[j].tile.op == trace[i].tile.op) {
                trace[i].tile.addr = trace[j].tile.addr;
                break;
            }
        }
        break;
    }
    case 4: { // a store the next tile load aliases
        const std::size_t i = at_kind(UopKind::TileLoad);
        if (i < n)
            insert(i, TraceOp::store(trace[i].tile.addr + 64, 8));
        break;
    }
    case 5:
        insert(at, TraceOp::vectorFma(
                       static_cast<u32>(rng.nextBelow(3))));
        break;
    case 6: // a load over 64 lines
        insert(at, TraceOp::load(0x5000'0000 + 64 * rng.nextBelow(64),
                                 64 * 65 + 4));
        break;
    default: { // the stream ends inside a loop iteration
        std::size_t cut = at;
        while (cut > 1 && trace[cut - 1].kind == UopKind::Branch)
            --cut;
        trace.resize(cut);
        break;
    }
    }
}

TEST(ReplayFuzz, SteadyStateStreamsMatchCapturedChecksum)
{
    Rng rng(0x57ead57a7eull);
    static constexpr u32 kPatterns[] = {1, 2, 4};
    static constexpr u32 kDividers[] = {1, 3, 4, 5};
    static constexpr u32 kWays[] = {4, 6, 12};

    const telemetry::MetricsSnapshot before = telemetry::snapshot();
    sim::serial::FieldWriter record;
    u64 ops = 0;
    for (u32 s = 0; s < 240; ++s) {
        const u32 pattern = kPatterns[rng.nextBelow(3)];
        kernels::KernelOptions opts;
        opts.traceOnly = true;
        opts.optimized = rng.nextBelow(4) != 0;
        opts.cBlocking = 1 + static_cast<u32>(rng.nextBelow(3));
        const u32 k_iters = 8 + static_cast<u32>(rng.nextBelow(89));
        const kernels::GemmDims dims{
            16 * (1 + static_cast<u32>(rng.nextBelow(2))),
            16 * (1 + static_cast<u32>(rng.nextBelow(4))),
            kernels::kTileForN(pattern) * k_iters};
        Trace trace = kernels::runSpmmKernel(dims, pattern, opts).trace;

        CoreConfig core;
        core.engineClockDivider = kDividers[rng.nextBelow(4)];
        core.robEntries = 8 + static_cast<u32>(rng.nextBelow(90));
        core.loadBufferEntries =
            8 + static_cast<u32>(rng.nextBelow(89));
        core.numLsuPorts = 1 + static_cast<u32>(rng.nextBelow(3));
        core.cache.l1Ways = kWays[rng.nextBelow(3)];
        core.outputForwarding = rng.nextBelow(2) == 0;
        const bool dense = pattern == 4 && rng.nextBelow(2) == 0;

        // One stream in six runs clean; the others take up to three
        // divergences (the last draw may cut the stream short).
        const u32 divergences =
            s % 6 == 0 ? 0 : 1 + static_cast<u32>(rng.nextBelow(3));
        for (u32 d = 0; d < divergences; ++d)
            perturb(trace, rng, static_cast<u32>(rng.nextBelow(8)));

        TraceCpu cpu(core, dense ? engine::vegetaD12()
                                 : engine::vegetaS162());
        const SimResult result = cpu.run(trace);
        EXPECT_EQ(result.retiredOps, trace.size());
        ops += trace.size();
        appendResult(record, result);
    }
    const u64 sum = sim::serial::checksum(record.body());
    EXPECT_EQ(sum, 0x39cfe06d44c2c005ull)
        << "checksum " << sim::serial::hex16(sum);

    // The divergences must land on running skips, not beside them:
    // a third of these ops were skipped when the skip landed.
    const telemetry::MetricsSnapshot after = telemetry::snapshot();
    const u64 skipped = after.counter("replay.memo.ops") -
                        before.counter("replay.memo.ops");
    EXPECT_GE(static_cast<double>(skipped) / ops, 0.25)
        << skipped << " of " << ops << " ops skipped";
}

} // namespace
} // namespace vegeta::cpu
