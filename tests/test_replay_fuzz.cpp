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
 */

#include <gtest/gtest.h>

#include "common/random.hpp"
#include "cpu/trace_cpu.hpp"
#include "kernels/gemm_kernels.hpp"
#include "sim/serial.hpp"

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

} // namespace
} // namespace vegeta::cpu
