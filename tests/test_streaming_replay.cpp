/**
 * @file
 * Streaming replay tests: step()-fed TraceCpu must be bit-identical
 * to batch run() on the same op stream, kernels must emit the same
 * stream into any sink, and the unaligned line-span accounting must
 * count every touched cache line.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "cpu/flat_map.hpp"
#include "cpu/trace_cpu.hpp"
#include "cpu/trace_io.hpp"
#include "kernels/gemm_kernels.hpp"
#include "kernels/vector_kernels.hpp"
#include "sim/telemetry.hpp"

namespace vegeta::cpu {
namespace {

void
expectIdentical(const SimResult &a, const SimResult &b)
{
    EXPECT_EQ(a.totalCycles, b.totalCycles);
    EXPECT_EQ(a.retiredOps, b.retiredOps);
    EXPECT_EQ(a.kindCounts, b.kindCounts);
    EXPECT_EQ(a.engineInstructions, b.engineInstructions);
    EXPECT_EQ(a.engineLastFinish, b.engineLastFinish);
    EXPECT_EQ(a.cacheHits, b.cacheHits);
    EXPECT_EQ(a.cacheMisses, b.cacheMisses);
    EXPECT_EQ(a.macUtilization, b.macUtilization);
}

SimResult
stepAll(TraceCpu &cpu, const Trace &trace)
{
    cpu.reset();
    for (const TraceOp &op : trace)
        cpu.step(op);
    return cpu.finish();
}

TEST(StreamingReplay, StepMatchesBatchAcrossClockDividers)
{
    kernels::KernelOptions opts;
    opts.traceOnly = true;
    const auto kernel =
        kernels::runSpmmKernel({64, 64, 256}, 2, opts);

    for (u32 divider : {1u, 2u, 4u}) {
        SCOPED_TRACE("engineClockDivider=" + std::to_string(divider));
        CoreConfig core;
        core.engineClockDivider = divider;
        TraceCpu batch(core, engine::vegetaS162());
        TraceCpu streamed(core, engine::vegetaS162());
        expectIdentical(stepAll(streamed, kernel.trace),
                        batch.run(kernel.trace));
    }
}

TEST(StreamingReplay, StepMatchesBatchOnVectorTrace)
{
    const auto trace = kernels::generateVectorGemmTrace({32, 64, 128});
    TraceCpu cpu({}, engine::vegetaD12());
    const SimResult batch = cpu.run(trace);
    expectIdentical(stepAll(cpu, trace), batch);
    EXPECT_GT(batch.kindCounts.at(UopKind::VectorFma), 0u);
}

TEST(StreamingReplay, OneCpuIsReusableAcrossStreams)
{
    // finish() must leave the model cold: interleaving different
    // streams through one TraceCpu cannot leak state between them.
    kernels::KernelOptions opts;
    opts.traceOnly = true;
    const auto small = kernels::runSpmmKernel({32, 32, 128}, 4, opts);
    const auto big = kernels::runSpmmKernel({64, 64, 256}, 2, opts);

    TraceCpu cpu({}, engine::vegetaS162());
    const SimResult small_first = cpu.run(small.trace);
    const SimResult big_once = cpu.run(big.trace);
    const SimResult small_again = cpu.run(small.trace);
    expectIdentical(small_first, small_again);
    EXPECT_NE(big_once.totalCycles, small_first.totalCycles);
}

TEST(StreamingReplay, SkippingCpuIsReusableAcrossStreams)
{
    // Long k loops engage the steady-state skip; a stream cut while
    // it skips makes finish() end the skip.  Neither may leak into
    // the next stream on the same core.
    kernels::KernelOptions opts;
    opts.traceOnly = true;
    const Trace dense =
        kernels::runSpmmKernel({32, 48, 32 * 64}, 4, opts).trace;
    Trace cut =
        kernels::runSpmmKernel({32, 32, 128 * 40}, 1, opts).trace;
    cut.resize(cut.size() * 2 / 3 + 5);

    const telemetry::MetricsSnapshot before = telemetry::snapshot();
    TraceCpu reused({}, engine::vegetaS162());
    std::vector<SimResult> results;
    const Trace *streams[] = {&dense, &cut, &dense, &cut};
    for (const Trace *trace : streams)
        results.push_back(reused.run(*trace));
    const telemetry::MetricsSnapshot after = telemetry::snapshot();
    for (std::size_t i = 0; i < results.size(); ++i) {
        TraceCpu fresh({}, engine::vegetaS162());
        expectIdentical(results[i],
                        fresh.run(i % 2 == 0 ? dense : cut));
    }
    EXPECT_GT(after.counter("replay.memo.ops"),
              before.counter("replay.memo.ops"))
        << "the streams no longer engage the skip";
}

TEST(StreamingReplay, KernelEmitsIdenticalStreamIntoSink)
{
    // streamSpmmKernel -> TraceCpu must equal runSpmmKernel -> run(),
    // and report the same instruction mix.
    kernels::KernelOptions opts;
    opts.traceOnly = true;
    const auto batch = kernels::runSpmmKernel({64, 64, 256}, 1, opts);
    TraceCpu batch_cpu({}, engine::vegetaS162());
    const SimResult batch_result = batch_cpu.run(batch.trace);

    TraceCpu stream_cpu({}, engine::vegetaS162());
    const kernels::KernelStats stats =
        kernels::streamSpmmKernel({64, 64, 256}, 1, opts, stream_cpu);
    const SimResult stream_result = stream_cpu.finish();

    expectIdentical(stream_result, batch_result);
    EXPECT_EQ(stats.instructions, batch.trace.size());
    EXPECT_EQ(stats.tileComputes, batch.tileComputes);
    EXPECT_EQ(stats.tileLoads, batch.tileLoads);
    EXPECT_EQ(stats.tileStores, batch.tileStores);
}

TEST(StreamingReplay, SerializedTraceStreamsIntoSink)
{
    kernels::KernelOptions opts;
    opts.traceOnly = true;
    const auto kernel =
        kernels::runSpmmKernel({32, 32, 128}, 2, opts);
    std::stringstream buffer;
    writeTrace(buffer, kernel.trace);

    TraceCpu direct({}, engine::vegetaS162());
    const SimResult expected = direct.run(kernel.trace);

    TraceCpu streamed({}, engine::vegetaS162());
    streamed.reset();
    const auto count = streamTrace(buffer, streamed);
    ASSERT_TRUE(count.has_value());
    EXPECT_EQ(*count, kernel.trace.size());
    expectIdentical(streamed.finish(), expected);
}

TEST(StreamingReplay, TraceReaderReportsTruncation)
{
    Trace trace{TraceOp::alu(), TraceOp::load(0x1000, 64)};
    std::stringstream buffer;
    writeTrace(buffer, trace);
    std::string bytes = buffer.str();
    bytes.resize(bytes.size() - 5); // clip mid-op
    std::istringstream clipped(bytes);

    TraceCollector sink;
    EXPECT_FALSE(streamTrace(clipped, sink).has_value());
}

TEST(StreamingReplay, UnalignedLoadTouchesBothLines)
{
    // A 64 B load at line offset 32 spans two cache lines; the seed's
    // ceil(bytes / 64) accounting touched only one.
    CoreConfig core;
    core.frontEndDepth = 0;
    TraceCpu cpu(core, engine::vegetaD12());
    const SimResult unaligned =
        cpu.run({TraceOp::load(0x1020, 64)});
    EXPECT_EQ(unaligned.cacheMisses + unaligned.cacheHits, 2u);

    const SimResult aligned = cpu.run({TraceOp::load(0x1000, 64)});
    EXPECT_EQ(aligned.cacheMisses + aligned.cacheHits, 1u);
}

TEST(StreamingReplay, UnalignedStoreBlocksLoadsOfBothLines)
{
    // The store's second (straddled) line must carry the dependence.
    CoreConfig core;
    core.frontEndDepth = 0;
    TraceCpu cpu(core, engine::vegetaD12());
    const SimResult dependent = cpu.run({
        TraceOp::store(0x2020, 64), // lines 0x80 and 0x81
        TraceOp::load(0x2040, 4),   // line 0x81
    });
    const SimResult independent = cpu.run({
        TraceOp::store(0x2020, 64),
        TraceOp::load(0x3040, 4), // unrelated line
    });
    EXPECT_GT(dependent.totalCycles, independent.totalCycles);
}

TEST(FlatCycleMap, InsertFindGrowAndClear)
{
    FlatCycleMap map(16);
    EXPECT_EQ(map.find(0), nullptr);
    map.insertOrAssign(0, 7); // key 0 is a valid line index
    ASSERT_NE(map.find(0), nullptr);
    EXPECT_EQ(*map.find(0), 7u);
    // Force several growths with sequential keys (line-index style).
    for (u64 k = 1; k <= 5000; ++k)
        map.insertOrAssign(k, k * 2);
    EXPECT_EQ(map.size(), 5001u);
    for (u64 k : {u64{1}, u64{2500}, u64{5000}})
        EXPECT_EQ(*map.find(k), k * 2);
    map.insertOrAssign(2500, 1);
    EXPECT_EQ(*map.find(2500), 1u);
    EXPECT_EQ(map.size(), 5001u);
    map.clear();
    EXPECT_EQ(map.size(), 0u);
    EXPECT_EQ(map.find(2500), nullptr);
}

} // namespace
} // namespace vegeta::cpu
