/**
 * @file
 * vegeta::telemetry unit coverage: cross-thread counter merging,
 * timer statistics, span lifetimes (nesting, early close, exception
 * unwinding), and the two JSON serializers.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "sim/telemetry.hpp"

namespace vegeta::telemetry {
namespace {

TEST(Telemetry, CountersMergeAcrossThreads)
{
    resetMetrics();
    static const MetricId id = counterId("test.threads.counter");
    constexpr int kThreads = 8;
    constexpr u64 kAddsPerThread = 1000;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([] {
            for (u64 i = 0; i < kAddsPerThread; ++i)
                add(id, 3);
        });
    for (auto &thread : threads)
        thread.join();
    // Every per-thread slab (all retired by join) merges into one
    // record.
    EXPECT_EQ(snapshot().counter("test.threads.counter"),
              kThreads * kAddsPerThread * 3);
}

TEST(Telemetry, TimerTracksCountSumMinMax)
{
    resetMetrics();
    static const MetricId id = timerId("test.timer");
    recordNs(id, 10);
    recordNs(id, 5);
    recordNs(id, 15);
    const MetricsSnapshot snap = snapshot();
    const MetricRecord *record = snap.find("test.timer");
    ASSERT_NE(record, nullptr);
    EXPECT_EQ(record->kind, MetricKind::Timer);
    EXPECT_EQ(record->count, 3u);
    EXPECT_EQ(record->sumNs, 30u);
    EXPECT_EQ(record->minNs, 5u);
    EXPECT_EQ(record->maxNs, 15u);
}

TEST(Telemetry, SpansNestAndCloseUnderExceptions)
{
    setTraceEnabled(true);
    clearTrace();
    try {
        Span outer("test.span.outer");
        {
            Span inner("test.span.inner");
        }
        throw std::runtime_error("unwind through the open span");
    } catch (const std::runtime_error &) {
        // The outer span must have been closed by unwinding.
    }
    setTraceEnabled(false);
    EXPECT_EQ(traceSpanCount("test.span.outer"), 1u);
    EXPECT_EQ(traceSpanCount("test.span.inner"), 1u);
    EXPECT_EQ(traceSpanCount(), 2u);
    clearTrace();
}

TEST(Telemetry, SpanCloseIsIdempotent)
{
    setTraceEnabled(true);
    clearTrace();
    {
        Span span("test.span.early", 42);
        span.close();
        span.close(); // second close and the destructor are no-ops
    }
    setTraceEnabled(false);
    EXPECT_EQ(traceSpanCount("test.span.early"), 1u);
    clearTrace();
}

TEST(Telemetry, DisarmedSpansRecordNothing)
{
    setTraceEnabled(false);
    clearTrace();
    {
        Span span("test.span.disarmed");
        ScopedTimer timer(timerId("test.scoped.timer"));
    }
    EXPECT_EQ(traceSpanCount("test.span.disarmed"), 0u);
}

TEST(Telemetry, TraceJsonContainsRecordedSpanNames)
{
    setTraceEnabled(true);
    clearTrace();
    {
        Span with_arg("test.json.span", 7);
        Span bare("test.json.other");
    }
    setTraceEnabled(false);
    std::ostringstream os;
    writeTraceJson(os);
    const std::string json = os.str();
    // Chrome trace_event envelope with complete ("X") events.
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_EQ(json.front(), '{');
    EXPECT_NE(json.find("\"name\": \"test.json.span\""),
              std::string::npos);
    EXPECT_NE(json.find("\"name\": \"test.json.other\""),
              std::string::npos);
    EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
    clearTrace();
}

TEST(Telemetry, MetricsJsonListsCountersAndTimers)
{
    resetMetrics();
    add(counterId("test.json.counter"), 9);
    recordNs(timerId("test.json.timer"), 123);
    std::ostringstream os;
    writeMetricsJson(os, snapshot());
    const std::string json = os.str();
    EXPECT_NE(json.find("\"metrics\""), std::string::npos);
    EXPECT_NE(json.find("\"name\": \"test.json.counter\""),
              std::string::npos);
    EXPECT_NE(json.find("\"kind\": \"counter\", \"value\": 9"),
              std::string::npos);
    EXPECT_NE(json.find("\"name\": \"test.json.timer\""),
              std::string::npos);
    EXPECT_NE(json.find("\"kind\": \"timer\""), std::string::npos);
}

TEST(Telemetry, SnapshotIsSortedByName)
{
    resetMetrics();
    add(counterId("test.sort.zz"), 1);
    add(counterId("test.sort.aa"), 1);
    const MetricsSnapshot snap = snapshot();
    for (std::size_t i = 1; i < snap.metrics.size(); ++i)
        EXPECT_LT(snap.metrics[i - 1].name, snap.metrics[i].name);
}

} // namespace
} // namespace vegeta::telemetry
