#include "sim/telemetry.hpp"

#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <mutex>
#include <ostream>
#include <unordered_map>

#include "common/logging.hpp"

namespace vegeta::telemetry {

namespace {

/** JSON string escape for metric/span names (control chars, \, "). */
std::string
jsonEscapeName(const std::string &text)
{
    std::string out;
    out.reserve(text.size());
    for (const char c : text) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out;
}

} // namespace

u64
nowNs()
{
    // One anchor per process: trace timestamps and timer samples all
    // share it, so spans from different threads line up.
    static const auto anchor = std::chrono::steady_clock::now();
    return static_cast<u64>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - anchor)
            .count());
}

const MetricRecord *
MetricsSnapshot::find(const std::string &name) const
{
    for (const auto &record : metrics)
        if (record.name == name)
            return &record;
    return nullptr;
}

u64
MetricsSnapshot::counter(const std::string &name) const
{
    const MetricRecord *record = find(name);
    return record ? record->count : 0;
}

namespace {

/** Registered-name ceiling; ids are asserted below it. */
constexpr u32 kMaxMetrics = 512;

/** Per-process ceiling on recorded spans (overflow is dropped). */
constexpr u64 kMaxTraceEvents = 1u << 20;

/** Sentinel for a timer that has no samples yet. */
constexpr u64 kNoMin = std::numeric_limits<u64>::max();

/**
 * One thread's private metric storage.  The owning thread is the
 * only writer (plain load+store on relaxed atomics); snapshot()
 * reads the atomics from other threads without tearing.
 */
struct Slab
{
    std::array<std::atomic<u64>, kMaxMetrics> counts{};
    std::array<std::atomic<u64>, kMaxMetrics> sums{};
    std::array<std::atomic<u64>, kMaxMetrics> mins{};
    std::array<std::atomic<u64>, kMaxMetrics> maxs{};

    Slab()
    {
        for (auto &m : mins)
            m.store(kNoMin, std::memory_order_relaxed);
    }
};

/** Retired totals: plain integers, only touched under the mutex. */
struct Totals
{
    std::array<u64, kMaxMetrics> counts{};
    std::array<u64, kMaxMetrics> sums{};
    std::array<u64, kMaxMetrics> mins{};
    std::array<u64, kMaxMetrics> maxs{};

    Totals() { mins.fill(kNoMin); }
};

/** One recorded complete span. */
struct TraceEvent
{
    const char *name;
    u32 tid;
    u64 startNs;
    u64 durNs;
    u64 arg;
    bool hasArg;
};

/** One thread's span buffer. */
struct TraceBuffer
{
    u32 tid = 0;
    std::vector<TraceEvent> events;
};

/**
 * The process-wide registry.  The mutex guards the name table, the
 * slab/buffer lists, and the retired totals -- all cold paths; the
 * hot path touches only the calling thread's slab.
 */
struct Registry
{
    std::mutex mutex;
    std::vector<std::string> names;
    std::vector<MetricKind> kinds;
    std::unordered_map<std::string, MetricId> index;
    std::vector<Slab *> slabs;
    Totals retired;
    std::vector<TraceBuffer *> buffers;
    std::vector<TraceEvent> retiredEvents;
    u32 nextTid = 1;
    std::atomic<u64> eventCount{0};
    std::atomic<bool> traceOn{false};

    static Registry &instance()
    {
        // Leaked on purpose: thread-exit hooks may run after static
        // destructors, and a telemetry registry must outlive both.
        static Registry *registry = new Registry();
        return *registry;
    }

    MetricId intern(const char *name, MetricKind kind)
    {
        std::lock_guard<std::mutex> lock(mutex);
        const auto it = index.find(name);
        if (it != index.end())
            return it->second;
        VEGETA_ASSERT(names.size() < kMaxMetrics,
                      "telemetry metric table full (", kMaxMetrics,
                      " names)");
        const MetricId id = static_cast<MetricId>(names.size());
        names.emplace_back(name);
        kinds.push_back(kind);
        index.emplace(names.back(), id);
        return id;
    }
};

/**
 * Thread-local slab + span buffer, registered on first use and
 * folded into the retired totals when the thread exits (so a joined
 * worker's counts never vanish from later snapshots).
 */
struct ThreadState
{
    Slab *slab = nullptr;
    TraceBuffer *buffer = nullptr;

    ~ThreadState()
    {
        Registry &registry = Registry::instance();
        std::lock_guard<std::mutex> lock(registry.mutex);
        if (slab) {
            for (u32 id = 0; id < kMaxMetrics; ++id)
                foldSlabLocked(registry, *slab, id);
            registry.slabs.erase(
                std::remove(registry.slabs.begin(),
                            registry.slabs.end(), slab),
                registry.slabs.end());
            delete slab;
        }
        if (buffer) {
            registry.retiredEvents.insert(
                registry.retiredEvents.end(), buffer->events.begin(),
                buffer->events.end());
            registry.buffers.erase(
                std::remove(registry.buffers.begin(),
                            registry.buffers.end(), buffer),
                registry.buffers.end());
            delete buffer;
        }
    }

    static void foldSlabLocked(Registry &registry, const Slab &slab,
                               u32 id)
    {
        const u64 count =
            slab.counts[id].load(std::memory_order_relaxed);
        if (count == 0)
            return;
        Totals &totals = registry.retired;
        totals.counts[id] += count;
        totals.sums[id] +=
            slab.sums[id].load(std::memory_order_relaxed);
        totals.mins[id] = std::min(
            totals.mins[id],
            slab.mins[id].load(std::memory_order_relaxed));
        totals.maxs[id] = std::max(
            totals.maxs[id],
            slab.maxs[id].load(std::memory_order_relaxed));
    }
};

thread_local ThreadState tls;

Slab *
localSlab()
{
    if (!tls.slab) {
        tls.slab = new Slab();
        Registry &registry = Registry::instance();
        std::lock_guard<std::mutex> lock(registry.mutex);
        registry.slabs.push_back(tls.slab);
    }
    return tls.slab;
}

TraceBuffer *
localBuffer()
{
    if (!tls.buffer) {
        tls.buffer = new TraceBuffer();
        Registry &registry = Registry::instance();
        std::lock_guard<std::mutex> lock(registry.mutex);
        tls.buffer->tid = registry.nextTid++;
        registry.buffers.push_back(tls.buffer);
    }
    return tls.buffer;
}

/** Single-writer add: no lock prefix needed on the thread's slab. */
void
slabAdd(std::atomic<u64> &cell, u64 delta)
{
    cell.store(cell.load(std::memory_order_relaxed) + delta,
               std::memory_order_relaxed);
}

} // namespace

MetricId
counterId(const char *name)
{
    return Registry::instance().intern(name, MetricKind::Counter);
}

MetricId
timerId(const char *name)
{
    return Registry::instance().intern(name, MetricKind::Timer);
}

void
add(MetricId id, u64 delta)
{
    Slab *slab = localSlab();
    slabAdd(slab->counts[id], delta);
}

void
recordNs(MetricId id, u64 ns)
{
    Slab *slab = localSlab();
    slabAdd(slab->counts[id], 1);
    slabAdd(slab->sums[id], ns);
    if (ns < slab->mins[id].load(std::memory_order_relaxed))
        slab->mins[id].store(ns, std::memory_order_relaxed);
    if (ns > slab->maxs[id].load(std::memory_order_relaxed))
        slab->maxs[id].store(ns, std::memory_order_relaxed);
}

MetricsSnapshot
snapshot()
{
    Registry &registry = Registry::instance();
    std::lock_guard<std::mutex> lock(registry.mutex);

    Totals merged = registry.retired;
    for (const Slab *slab : registry.slabs) {
        for (u32 id = 0; id < registry.names.size(); ++id) {
            const u64 count =
                slab->counts[id].load(std::memory_order_relaxed);
            if (count == 0)
                continue;
            merged.counts[id] += count;
            merged.sums[id] +=
                slab->sums[id].load(std::memory_order_relaxed);
            merged.mins[id] = std::min(
                merged.mins[id],
                slab->mins[id].load(std::memory_order_relaxed));
            merged.maxs[id] = std::max(
                merged.maxs[id],
                slab->maxs[id].load(std::memory_order_relaxed));
        }
    }

    MetricsSnapshot result;
    for (u32 id = 0; id < registry.names.size(); ++id) {
        if (merged.counts[id] == 0)
            continue;
        MetricRecord record;
        record.name = registry.names[id];
        record.kind = registry.kinds[id];
        record.count = merged.counts[id];
        record.sumNs = merged.sums[id];
        record.minNs =
            merged.mins[id] == kNoMin ? 0 : merged.mins[id];
        record.maxNs = merged.maxs[id];
        result.metrics.push_back(std::move(record));
    }
    std::sort(result.metrics.begin(), result.metrics.end(),
              [](const MetricRecord &a, const MetricRecord &b) {
                  return a.name < b.name;
              });
    return result;
}

void
resetMetrics()
{
    Registry &registry = Registry::instance();
    std::lock_guard<std::mutex> lock(registry.mutex);
    registry.retired = Totals();
    for (Slab *slab : registry.slabs) {
        for (u32 id = 0; id < kMaxMetrics; ++id) {
            slab->counts[id].store(0, std::memory_order_relaxed);
            slab->sums[id].store(0, std::memory_order_relaxed);
            slab->mins[id].store(kNoMin, std::memory_order_relaxed);
            slab->maxs[id].store(0, std::memory_order_relaxed);
        }
    }
}

bool
traceEnabled()
{
    return Registry::instance().traceOn.load(
        std::memory_order_relaxed);
}

void
setTraceEnabled(bool enabled)
{
    Registry::instance().traceOn.store(enabled,
                                       std::memory_order_relaxed);
}

void
clearTrace()
{
    Registry &registry = Registry::instance();
    std::lock_guard<std::mutex> lock(registry.mutex);
    registry.retiredEvents.clear();
    for (TraceBuffer *buffer : registry.buffers)
        buffer->events.clear();
    registry.eventCount.store(0, std::memory_order_relaxed);
}

u64
traceSpanCount(const char *name)
{
    Registry &registry = Registry::instance();
    std::lock_guard<std::mutex> lock(registry.mutex);
    u64 count = 0;
    auto matches = [&](const TraceEvent &event) {
        return !name || std::strcmp(event.name, name) == 0;
    };
    for (const TraceEvent &event : registry.retiredEvents)
        if (matches(event))
            ++count;
    for (const TraceBuffer *buffer : registry.buffers)
        for (const TraceEvent &event : buffer->events)
            if (matches(event))
                ++count;
    return count;
}

Span::Span(const char *name)
{
    if (!traceEnabled())
        return;
    name_ = name;
    startNs_ = nowNs();
    armed_ = true;
}

Span::Span(const char *name, u64 arg) : Span(name)
{
    arg_ = arg;
    hasArg_ = true;
}

Span::~Span()
{
    close();
}

void
Span::close()
{
    if (!armed_)
        return;
    armed_ = false;
    Registry &registry = Registry::instance();
    if (registry.eventCount.fetch_add(
            1, std::memory_order_relaxed) >= kMaxTraceEvents)
        return;
    TraceBuffer *buffer = localBuffer();
    buffer->events.push_back(TraceEvent{
        name_, buffer->tid, startNs_, nowNs() - startNs_, arg_,
        hasArg_});
}

void
writeMetricsJson(std::ostream &os, const MetricsSnapshot &snapshot)
{
    os << "{\n  \"metrics\": [";
    for (std::size_t i = 0; i < snapshot.metrics.size(); ++i) {
        const MetricRecord &m = snapshot.metrics[i];
        os << (i ? ",\n    " : "\n    ");
        os << "{\"name\": \"" << jsonEscapeName(m.name) << "\", ";
        if (m.kind == MetricKind::Counter) {
            os << "\"kind\": \"counter\", \"value\": " << m.count;
        } else {
            os << "\"kind\": \"timer\", \"count\": " << m.count
               << ", \"sum_ns\": " << m.sumNs
               << ", \"min_ns\": " << m.minNs
               << ", \"max_ns\": " << m.maxNs;
        }
        os << "}";
    }
    os << (snapshot.metrics.empty() ? "]\n}\n" : "\n  ]\n}\n");
}

bool
writeMetricsFile(const std::string &path)
{
    std::ofstream os(path, std::ios::trunc);
    if (!os)
        return false;
    writeMetricsJson(os, snapshot());
    os.flush();
    return static_cast<bool>(os);
}

void
writeTraceJson(std::ostream &os)
{
    Registry &registry = Registry::instance();
    std::vector<TraceEvent> events;
    {
        std::lock_guard<std::mutex> lock(registry.mutex);
        events = registry.retiredEvents;
        for (const TraceBuffer *buffer : registry.buffers)
            events.insert(events.end(), buffer->events.begin(),
                          buffer->events.end());
    }
    std::sort(events.begin(), events.end(),
              [](const TraceEvent &a, const TraceEvent &b) {
                  if (a.tid != b.tid)
                      return a.tid < b.tid;
                  return a.startNs < b.startNs;
              });

    const long pid = static_cast<long>(::getpid());
    os << "{\"traceEvents\": [";
    char buf[64];
    for (std::size_t i = 0; i < events.size(); ++i) {
        const TraceEvent &event = events[i];
        os << (i ? ",\n" : "\n");
        os << "{\"name\": \"" << jsonEscapeName(event.name)
           << "\", \"ph\": \"X\", \"pid\": " << pid
           << ", \"tid\": " << event.tid;
        std::snprintf(buf, sizeof(buf), "%.3f",
                      double(event.startNs) / 1e3);
        os << ", \"ts\": " << buf;
        std::snprintf(buf, sizeof(buf), "%.3f",
                      double(event.durNs) / 1e3);
        os << ", \"dur\": " << buf;
        if (event.hasArg)
            os << ", \"args\": {\"n\": " << event.arg << "}";
        os << "}";
    }
    os << (events.empty() ? "]}\n" : "\n]}\n");
}

bool
writeTraceFile(const std::string &path)
{
    std::ofstream os(path, std::ios::trunc);
    if (!os)
        return false;
    writeTraceJson(os);
    os.flush();
    return static_cast<bool>(os);
}

} // namespace vegeta::telemetry
