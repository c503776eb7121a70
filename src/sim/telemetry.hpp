/**
 * @file
 * Process-wide telemetry: named metrics and span tracing.
 *
 * Two independent facilities share this header:
 *
 *  - A **metrics registry** of named monotonic counters and
 *    min/max/sum/count timers.  The hot path is lock-free and
 *    allocation-free: each thread owns a private slab of relaxed
 *    atomics (single writer, so increments are plain load+store),
 *    registered once under a mutex on first use and merged only when
 *    a snapshot is taken.  Metric ids are interned from string
 *    literals once per call site (`static` at the site), so steady
 *    state never touches the name table.
 *
 *  - **Span tracing**: RAII scopes that record wall-clock extents
 *    into per-thread buffers and serialize to Chrome `trace_event`
 *    JSON (load the file in chrome://tracing or ui.perfetto.dev).
 *    Recording is off by default; `setTraceEnabled(true)` arms it,
 *    and a disarmed Span costs one relaxed atomic load.
 *
 * Everything here observes and never steers: no simulation state ever
 * reads a telemetry value, so instrumented and uninstrumented runs
 * are bit-identical (pinned by the golden-cycle and service
 * byte-identity tests).
 */

#ifndef VEGETA_SIM_TELEMETRY_HPP
#define VEGETA_SIM_TELEMETRY_HPP

#include <atomic>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace vegeta::telemetry {

/** What a named metric accumulates. */
enum class MetricKind : u8
{
    Counter, ///< monotonic count (count field; ns fields unused)
    Timer,   ///< duration samples: count, sum/min/max nanoseconds
};

/** One merged metric as read out of a snapshot. */
struct MetricRecord
{
    std::string name;
    MetricKind kind = MetricKind::Counter;
    u64 count = 0; ///< counter value, or timer sample count
    u64 sumNs = 0;
    u64 minNs = 0;
    u64 maxNs = 0;
};

/** A point-in-time merge of every slab, sorted by metric name. */
struct MetricsSnapshot
{
    std::vector<MetricRecord> metrics;

    /** The record for @p name, or nullptr when never recorded. */
    const MetricRecord *find(const std::string &name) const;

    /** A counter's value (0 when never recorded). */
    u64 counter(const std::string &name) const;
};

/** Opaque handle to a registered metric (intern once per site). */
using MetricId = u32;

/** Nanoseconds since the process-wide monotonic anchor. */
u64 nowNs();

/** Intern a counter name (cold; cache the id in a static). */
MetricId counterId(const char *name);

/** Intern a timer name (cold; cache the id in a static). */
MetricId timerId(const char *name);

/** Add @p delta to a counter (lock-free, allocation-free). */
void add(MetricId id, u64 delta);

/** Record one duration sample on a timer (lock-free). */
void recordNs(MetricId id, u64 ns);

/** Merge every live and retired slab into one sorted snapshot. */
MetricsSnapshot snapshot();

/** Zero every metric (test/bench isolation; not thread-cheap). */
void resetMetrics();

/** Whether spans are currently being recorded. */
bool traceEnabled();

/** Arm or disarm span recording (events persist until clear). */
void setTraceEnabled(bool enabled);

/** Drop every recorded span. */
void clearTrace();

/** Recorded span count, optionally for one name only. */
u64 traceSpanCount(const char *name = nullptr);

/** RAII traced scope; records one complete event when armed. */
class Span
{
  public:
    explicit Span(const char *name);

    /** A span carrying one integer payload ("n" in the args). */
    Span(const char *name, u64 arg);

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;
    ~Span();

    /** End the span now instead of at scope exit (idempotent). */
    void close();

  private:
    const char *name_ = nullptr;
    u64 startNs_ = 0;
    u64 arg_ = 0;
    bool hasArg_ = false;
    bool armed_ = false;
};

/** RAII timer sample: records scope duration on destruction. */
class ScopedTimer
{
  public:
    explicit ScopedTimer(MetricId id) : id_(id), startNs_(nowNs()) {}
    ScopedTimer(const ScopedTimer &) = delete;
    ScopedTimer &operator=(const ScopedTimer &) = delete;
    ~ScopedTimer() { recordNs(id_, nowNs() - startNs_); }

  private:
    MetricId id_;
    u64 startNs_;
};

/**
 * The snapshot as a metrics JSON document: `{"metrics": [{"name":
 * ..., "kind": "counter", "value": N} | {"kind": "timer", "count":
 * ..., "sum_ns": ..., "min_ns": ..., "max_ns": ...}]}`.
 */
void writeMetricsJson(std::ostream &os,
                      const MetricsSnapshot &snapshot);

/** writeMetricsJson of the live snapshot to a file (false = IO). */
bool writeMetricsFile(const std::string &path);

/**
 * Every recorded span as Chrome trace_event JSON (`{"traceEvents":
 * [...]}`, complete "X" events with microsecond timestamps) --
 * loadable in chrome://tracing and ui.perfetto.dev.
 */
void writeTraceJson(std::ostream &os);

/** writeTraceJson to a file (false when it cannot be written). */
bool writeTraceFile(const std::string &path);

} // namespace vegeta::telemetry

#endif // VEGETA_SIM_TELEMETRY_HPP
