/**
 * @file
 * Replay-throughput harness: the machine-readable perf baseline for
 * the simulator's hottest loop.
 *
 * Measures, on Figure 13-style SPMM workloads:
 *  - single-stream batch replay (pre-recorded trace -> TraceCpu) in
 *    uops/sec,
 *  - single-stream streaming simulation (kernel generator emitting
 *    straight into the replayer, no materialized trace),
 *  - a thread-pooled Session::runBatch grid (uops/sec),
 *  - peak RSS before and after materializing the largest trace (the
 *    streaming path's memory does not scale with trace length).
 *
 * Appends one entry (keyed by commit, one JSON object per line) to
 * the BENCH_replay.json trajectory, so the file accumulates one
 * point per PR instead of being overwritten; an entry with the same
 * commit key is replaced, and an old single-point file is converted
 * in place.  With --baseline FILE the run compares its single-stream
 * geomean against the LATEST entry of the committed trajectory and
 * exits non-zero past --max-regress PCT (default 30).  Because
 * absolute uops/sec depends on the machine, a small fixed-work
 * calibration loop is timed too and the baseline is scaled by the
 * calibration ratio (clamped to 4x either way) before comparing.
 *
 * A telemetry_overhead row measures the same batch replay with span
 * tracing armed vs disarmed (interleaved arms) and the run fails
 * past --max-telemetry-overhead PCT (default 2).
 *
 * A steady_state row times generation fused with replay on GPT-L3
 * (384 k-iterations per C-tile group at 4:4, where the replay core's
 * steady-state skip advances most ops without scheduling them) at
 * 4:4 and 1:4, on VEGETA-S-16-2 with OF and on VEGETA-D-1-2.  It is
 * recorded beside the single-stream points and kept out of their
 * gated geomeans, whose 128x128x512 and 256x256x1024 points have at
 * most 32 k-iterations per group.
 *
 * A trace_io row times writeTraceFile and readTraceFile per op on the
 * GPT-L3 4:4 trace, gated like the replay rate against the latest
 * entry (skipped while that entry has no trace_io row).  Every entry
 * records the host (usable CPUs and CPU model) beside the
 * calibration.
 *
 * Usage: bench_replay_throughput [--smoke] [--out FILE]
 *        [--threads N] [--commit KEY] [--baseline FILE]
 *        [--max-regress PCT] [--max-telemetry-overhead PCT]
 */

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cpu/trace_io.hpp"
#include "sim/session.hpp"
#include "sim/telemetry.hpp"

#include "trajectory.hpp"

namespace {

using namespace vegeta;
using bench::Clock;
using bench::calibrationMops;
using bench::entryCommit;
using bench::findJsonNumber;
using bench::geomean;
using bench::readFileText;
using bench::seconds;
using bench::trajectoryEntries;

/** Current peak RSS in bytes (Linux ru_maxrss is in KiB). */
u64
peakRssBytes()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<u64>(usage.ru_maxrss) * 1024;
}

struct Point
{
    std::string label;
    kernels::GemmDims dims;
    std::string engine;
    u32 pattern;
};

struct PointResult
{
    Point point;
    u64 uops = 0;
    double batchUopsPerSec = 0;
    double streamUopsPerSec = 0;
};

sim::SimulationRequest
requestFor(const sim::Session &simulator, const Point &point)
{
    auto job = simulator.job()
                   .gemm(point.dims)
                   .engine(point.engine)
                   .pattern(point.pattern)
                   .build();
    VEGETA_ASSERT(job.has_value(), "invalid bench request");
    return job->simulation;
}

/**
 * Streaming: generation + replay fused, no trace in memory.  Best of
 * @p reps runs; raises @p rate, sets @p uops.
 */
void
streamRate(const sim::Session &simulator,
           const sim::SimulationRequest &request, int reps, u64 &uops,
           double &rate)
{
    for (int r = 0; r < reps; ++r) {
        const auto t0 = Clock::now();
        const auto result = simulator.run(request);
        const auto t1 = Clock::now();
        uops = result.instructions;
        rate = std::max(rate, result.instructions / seconds(t0, t1));
    }
}

void
measureStream(const sim::Session &simulator, PointResult &out,
              int reps)
{
    streamRate(simulator, requestFor(simulator, out.point), reps,
               out.uops, out.streamUopsPerSec);
}

/** Batch: materialize the trace once, then time pure replay. */
void
measureBatch(const sim::Session &simulator, PointResult &out,
             int reps)
{
    const auto request = requestFor(simulator, out.point);
    cpu::TraceCollector collector;
    simulator.run(request, &collector);
    const cpu::Trace &trace = collector.trace();
    VEGETA_ASSERT(trace.size() == out.uops,
                  "batch and streaming runs generated different "
                  "op counts");
    for (int r = 0; r < reps; ++r) {
        const auto t0 = Clock::now();
        const auto replayed = simulator.replay(trace, request);
        const auto t1 = Clock::now();
        VEGETA_ASSERT(replayed.result.instructions == trace.size(),
                      "replay consumed a different op count");
        out.batchUopsPerSec = std::max(
            out.batchUopsPerSec, trace.size() / seconds(t0, t1));
    }
}

/** One steady_state point: a Table IV layer, streamed. */
struct SteadyRow
{
    std::string engine;
    u32 pattern = 4;
    bool outputForwarding = false;
    u64 uops = 0;
    double streamUopsPerSec = 0;
};

/** Best of @p reps streamed GPT-L3 runs of @p row's design point. */
void
measureSteady(const sim::Session &simulator, SteadyRow &row, int reps)
{
    const auto job = simulator.job()
                         .workload("GPT-L3")
                         .engine(row.engine)
                         .pattern(row.pattern)
                         .outputForwarding(row.outputForwarding)
                         .build();
    VEGETA_ASSERT(job.has_value(), "invalid steady_state request");
    streamRate(simulator, job->simulation, reps, row.uops,
               row.streamUopsPerSec);
}

/** The trace_io row: one trace file written and read back, per op. */
struct TraceIoRow
{
    u64 ops = 0;
    double writeNsPerOp = 0;
    double readNsPerOp = 0;
};

/**
 * writeTraceFile / readTraceFile on the GPT-L3 4:4 trace (the
 * heaviest Table IV layer, as the layer ledger times it), best of
 * @p reps round trips through a temp file.
 */
TraceIoRow
measureTraceIo(const sim::Session &simulator, int reps)
{
    const auto job = simulator.job()
                         .workload("GPT-L3")
                         .engine("VEGETA-S-16-2")
                         .pattern(4)
                         .build();
    VEGETA_ASSERT(job.has_value(), "invalid trace_io request");
    cpu::TraceCollector collector;
    simulator.run(job->simulation, &collector);
    const cpu::Trace &trace = collector.trace();
    const std::string path =
        (std::filesystem::temp_directory_path() /
         ("vegeta_bench_trace_io_" + std::to_string(getpid()) +
          ".vgtr"))
            .string();
    TraceIoRow row;
    row.ops = trace.size();
    for (int r = 0; r < reps; ++r) {
        const auto t0 = Clock::now();
        VEGETA_ASSERT(cpu::writeTraceFile(path, trace),
                      "cannot write ", path);
        const auto t1 = Clock::now();
        const auto back = cpu::readTraceFile(path);
        const auto t2 = Clock::now();
        VEGETA_ASSERT(back && back->size() == trace.size(),
                      "trace_io round trip lost ops");
        const double write_ns = seconds(t0, t1) * 1e9 / row.ops;
        const double read_ns = seconds(t1, t2) * 1e9 / row.ops;
        if (r == 0 || write_ns < row.writeNsPerOp)
            row.writeNsPerOp = write_ns;
        if (r == 0 || read_ns < row.readNsPerOp)
            row.readNsPerOp = read_ns;
    }
    std::filesystem::remove(path);
    return row;
}

/** The host fingerprint: usable CPUs and the CPU model name. */
std::string
hostJson()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    const int nproc = sched_getaffinity(0, sizeof set, &set) == 0
                          ? CPU_COUNT(&set)
                          : int(std::thread::hardware_concurrency());
    std::string model = "unknown";
    std::ifstream cpuinfo("/proc/cpuinfo");
    for (std::string line; std::getline(cpuinfo, line);) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos)
                model = line.substr(line.find_first_not_of(
                    " \t", colon + 1));
            break;
        }
    }
    return "{\"nproc\": " + std::to_string(nproc) +
           ", \"cpu_model\": \"" + sim::jsonEscape(model) + "\"}";
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    std::string out_path = "BENCH_replay.json";
    std::string baseline_path;
    std::string commit;
    double max_regress_pct = 30;
    double max_telemetry_overhead_pct = 2;
    u32 threads = 0;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::cerr << arg << " needs a value\n";
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--smoke") {
            smoke = true;
        } else if (arg == "--out") {
            out_path = next();
        } else if (arg == "--baseline") {
            baseline_path = next();
        } else if (arg == "--commit") {
            commit = next();
        } else if (arg == "--max-regress") {
            max_regress_pct = std::strtod(next(), nullptr);
        } else if (arg == "--max-telemetry-overhead") {
            max_telemetry_overhead_pct = std::strtod(next(), nullptr);
        } else if (arg == "--threads") {
            const auto parsed = sim::parseU32(next());
            if (!parsed) {
                std::cerr << "bad --threads value\n";
                return 2;
            }
            threads = *parsed;
        } else {
            std::cerr << "unknown argument: " << arg << "\n"
                      << "usage: bench_replay_throughput [--smoke] "
                         "[--out FILE] [--threads N] [--commit KEY] "
                         "[--baseline FILE] [--max-regress PCT] "
                         "[--max-telemetry-overhead PCT]\n";
            return 2;
        }
    }

    const sim::Session simulator; // cache off: measure the replay
    const int reps = smoke ? 2 : 5;

    // Single-stream points: Figure 13 layer-wise patterns on the
    // flagship sparse engine plus the dense baseline.  Smoke mode
    // measures the SAME points with fewer repetitions, so its
    // geomean is directly comparable to a committed full-mode
    // baseline (the regression gate depends on this).
    std::vector<Point> points;
    const std::vector<kernels::GemmDims> sizes = {{128, 128, 512},
                                                  {256, 256, 1024}};
    for (const auto &dims : sizes) {
        std::ostringstream label;
        label << dims.m << "x" << dims.n << "x" << dims.k;
        for (u32 pattern : {4u, 2u, 1u})
            points.push_back({label.str(), dims, "VEGETA-S-16-2",
                              pattern});
        points.push_back({label.str(), dims, "VEGETA-D-1-2", 4});
    }

    const double calibration = calibrationMops();

    // Phase 1 -- streaming only.  Nothing up to the RSS snapshot
    // below materializes a trace, so the snapshot is the streaming
    // path's true peak, including one deliberately long stream.
    std::vector<PointResult> results;
    for (const auto &point : points) {
        results.push_back({point, 0, 0, 0});
        measureStream(simulator, results.back(), reps);
    }
    const Point big_point{"memory-probe",
                          smoke ? kernels::GemmDims{256, 256, 1024}
                                : kernels::GemmDims{512, 512, 4096},
                          "VEGETA-S-16-2", 1};
    PointResult big{big_point, 0, 0, 0};
    measureStream(simulator, big, 1);
    const u64 stream_peak_rss = peakRssBytes();

    // Phase 2 -- batch replay (materializes every trace, including
    // the long one): the RSS delta against the snapshot above is the
    // memory the streaming path no longer pays.
    for (auto &r : results)
        measureBatch(simulator, r, reps);
    measureBatch(simulator, big, 1);
    const u64 batch_peak_rss = peakRssBytes();

    std::vector<double> batch_rates, stream_rates;
    for (const auto &r : results) {
        batch_rates.push_back(r.batchUopsPerSec);
        stream_rates.push_back(r.streamUopsPerSec);
        std::printf("%-14s %-14s N=%u  %8zu uops  batch %7.2f "
                    "Muops/s  stream %7.2f Muops/s\n",
                    r.point.label.c_str(), r.point.engine.c_str(),
                    r.point.pattern, static_cast<size_t>(r.uops),
                    r.batchUopsPerSec / 1e6,
                    r.streamUopsPerSec / 1e6);
    }
    std::printf("memory probe (%s, %zu uops): streaming peak RSS "
                "%.1f MiB, after materializing %.1f MiB\n",
                big.point.label.c_str(), static_cast<size_t>(big.uops),
                stream_peak_rss / 1048576.0,
                batch_peak_rss / 1048576.0);
    const double batch_geomean = geomean(batch_rates);
    const double stream_geomean = geomean(stream_rates);

    // Telemetry-overhead row: the same batch replay measured with
    // span tracing armed vs disarmed, arms interleaved per rep so
    // frequency drift hits both equally.  The disarmed arm is what
    // every run pays; the armed arm bounds the cost of running with
    // --trace-out.
    double telemetry_disarmed = 0, telemetry_traced = 0;
    double telemetry_overhead_pct = 0;
    {
        const std::size_t overhead_points =
            std::min<std::size_t>(results.size(), 4);
        std::vector<PointResult> disarmed_arm, traced_arm;
        for (std::size_t p = 0; p < overhead_points; ++p) {
            // Carry the measured uop count over: measureBatch asserts
            // its trace against it.
            disarmed_arm.push_back(
                {results[p].point, results[p].uops, 0, 0});
            traced_arm.push_back(
                {results[p].point, results[p].uops, 0, 0});
        }
        // More best-of reps than the throughput rows: the gate
        // compares two near-identical rates, so both arms need tight
        // maxima or scheduler noise masquerades as overhead.
        const int overhead_reps = std::max(reps, 4);
        for (int r = 0; r < overhead_reps; ++r) {
            telemetry::setTraceEnabled(false);
            for (auto &arm : disarmed_arm)
                measureBatch(simulator, arm, 1);
            telemetry::setTraceEnabled(true);
            for (auto &arm : traced_arm)
                measureBatch(simulator, arm, 1);
        }
        telemetry::setTraceEnabled(false);
        telemetry::clearTrace();
        std::vector<double> disarmed_rates, traced_rates;
        for (std::size_t p = 0; p < overhead_points; ++p) {
            disarmed_rates.push_back(disarmed_arm[p].batchUopsPerSec);
            traced_rates.push_back(traced_arm[p].batchUopsPerSec);
        }
        telemetry_disarmed = geomean(disarmed_rates);
        telemetry_traced = geomean(traced_rates);
        if (telemetry_disarmed > 0)
            telemetry_overhead_pct =
                (1 - telemetry_traced / telemetry_disarmed) * 100;
        std::printf("telemetry: disarmed %.2f Muops/s, traced %.2f "
                    "Muops/s, overhead %.2f%%\n",
                    telemetry_disarmed / 1e6, telemetry_traced / 1e6,
                    telemetry_overhead_pct);
    }

    std::vector<SteadyRow> steady = {{"VEGETA-S-16-2", 4, true},
                                     {"VEGETA-S-16-2", 1, true},
                                     {"VEGETA-D-1-2", 4, false},
                                     {"VEGETA-D-1-2", 1, false}};
    for (auto &row : steady) {
        measureSteady(simulator, row, std::max(reps, 3));
        std::printf("steady_state: GPT-L3 %-14s N=%u%s  %8zu uops  "
                    "stream %7.2f Muops/s\n",
                    row.engine.c_str(), row.pattern,
                    row.outputForwarding ? " +OF" : "",
                    static_cast<size_t>(row.uops),
                    row.streamUopsPerSec / 1e6);
    }

    // Best of at least five even in smoke mode: a round trip costs
    // ~40 ms, and the gate compares this row on its own.
    const TraceIoRow trace_io =
        measureTraceIo(simulator, std::max(reps, 5));
    std::printf("trace_io: GPT-L3 4:4, %zu ops  write %.1f ns/op  "
                "read %.1f ns/op\n",
                static_cast<size_t>(trace_io.ops),
                trace_io.writeNsPerOp, trace_io.readNsPerOp);

    // Threaded sweep over the Figure 13 grid of the quick workloads.
    const std::vector<std::string> grid_workloads =
        smoke ? std::vector<std::string>{"quick-small"}
              : std::vector<std::string>{"quick-small", "quick-square",
                                         "quick-deep"};
    const std::vector<std::string> grid_engines = {
        "VEGETA-D-1-2", "VEGETA-S-1-2", "VEGETA-S-16-2"};
    const auto grid =
        sim::figure13Grid(simulator, grid_workloads, grid_engines);
    const u32 sweep_threads =
        threads != 0
            ? threads
            : std::max(1u, std::thread::hardware_concurrency());
    simulator.runBatch(grid, sweep_threads); // warm-up
    double sweep_secs = 0;
    u64 sweep_uops = 0;
    for (int r = 0; r < reps; ++r) {
        const auto t0 = Clock::now();
        const auto sweep_results = simulator.runBatch(grid,
                                                      sweep_threads);
        const auto t1 = Clock::now();
        u64 uops = 0;
        for (const auto &res : sweep_results)
            uops += res.instructions;
        const double secs = seconds(t0, t1);
        if (sweep_secs == 0 || secs < sweep_secs) {
            sweep_secs = secs;
            sweep_uops = uops;
        }
    }
    std::printf("sweep: %zu requests, %u threads, %.3fs best, %.2f "
                "Muops/s\n",
                grid.size(), sweep_threads, sweep_secs,
                sweep_uops / sweep_secs / 1e6);

    // One trajectory entry, compact (a single line) so the committed
    // file stays an append-only, diff-friendly series.
    if (commit.empty())
        commit = bench::gitShortHead();
    std::ostringstream entry;
    entry << "{\"commit\": \"" << commit << "\", \"mode\": \""
          << (smoke ? "smoke" : "full")
          << "\", \"calibration_mops\": " << calibration
          << ", \"host\": " << hostJson() << ", \"single_stream\": [";
    for (std::size_t i = 0; i < results.size(); ++i) {
        const auto &r = results[i];
        entry << (i ? ", " : "") << "{\"workload\": \"" << r.point.label
              << "\", \"engine\": \"" << r.point.engine
              << "\", \"pattern\": " << r.point.pattern
              << ", \"uops\": " << r.uops
              << ", \"batch_uops_per_sec\": " << r.batchUopsPerSec
              << ", \"stream_uops_per_sec\": " << r.streamUopsPerSec
              << "}";
    }
    entry << "], \"single_stream_uops_per_sec_geomean\": "
          << batch_geomean << ", \"stream_uops_per_sec_geomean\": "
          << stream_geomean << ", \"steady_state\": [";
    for (std::size_t i = 0; i < steady.size(); ++i) {
        const auto &row = steady[i];
        entry << (i ? ", " : "")
              << "{\"workload\": \"GPT-L3\", \"engine\": \""
              << row.engine << "\", \"pattern\": " << row.pattern
              << ", \"output_forwarding\": "
              << (row.outputForwarding ? "true" : "false")
              << ", \"uops\": " << row.uops
              << ", \"stream_uops_per_sec\": " << row.streamUopsPerSec
              << "}";
    }
    entry << "], \"sweep\": {\"requests\": "
          << grid.size() << ", \"threads\": " << sweep_threads
          << ", \"seconds\": " << sweep_secs
          << ", \"uops_per_sec\": " << sweep_uops / sweep_secs
          << "}, \"memory_probe_uops\": " << big.uops
          << ", \"stream_peak_rss_bytes\": " << stream_peak_rss
          << ", \"batch_peak_rss_bytes\": " << batch_peak_rss
          << ", \"telemetry_overhead\": {\"disarmed_uops_per_sec\": "
          << telemetry_disarmed
          << ", \"traced_uops_per_sec\": " << telemetry_traced
          << ", \"overhead_pct\": " << telemetry_overhead_pct
          << "}, \"trace_io\": {\"workload\": \"GPT-L3\", "
          << "\"pattern\": 4, \"ops\": " << trace_io.ops
          << ", \"write_ns_per_op\": " << trace_io.writeNsPerOp
          << ", \"read_ns_per_op\": " << trace_io.readNsPerOp << "}}";

    // Snapshot the baseline BEFORE rewriting --out, so gating still
    // compares against the previous entry when both name the same
    // file.
    const std::string baseline_text =
        baseline_path.empty() ? "" : readFileText(baseline_path);

    // Replace only this bench's fields: bench_service may have
    // written a "service" row family into the same commit's entry,
    // which a replay re-run must carry over, not clobber.
    std::string merged_entry = entry.str();
    for (const auto &old : trajectoryEntries(readFileText(out_path))) {
        if (entryCommit(old) != commit)
            continue;
        const std::string service =
            bench::extractEntryField(old, "service");
        if (service.empty())
            continue;
        // Not our row family: refuse to clobber (duplicate
        // same-commit entries disagreeing about "service" would
        // otherwise silently last-win here).
        std::string conflict;
        merged_entry = bench::upsertEntryField(
            merged_entry, "service", service, /*owned=*/false,
            &conflict);
        if (!conflict.empty()) {
            std::cerr << "trajectory merge failed: " << conflict
                      << "\n";
            return 2;
        }
    }
    std::size_t total_entries = 0;
    if (!bench::mergeTrajectoryEntry(out_path, commit, merged_entry,
                                     &total_entries)) {
        std::cerr << "cannot write " << out_path << "\n";
        return 2;
    }
    std::printf("wrote %s (%zu entries; geomean: batch %.2f, stream "
                "%.2f Muops/s)\n",
                out_path.c_str(), total_entries, batch_geomean / 1e6,
                stream_geomean / 1e6);

    if (!baseline_path.empty()) {
        const std::string &text = baseline_text;
        if (text.empty()) {
            std::cerr << "cannot read baseline " << baseline_path
                      << "\n";
            return 2;
        }
        // Gate against the LATEST entry of the committed trajectory
        // (an old single-point baseline converts to one entry).
        const auto base_entries = trajectoryEntries(text);
        if (base_entries.empty()) {
            std::cerr << baseline_path
                      << " is not a replay trajectory/baseline\n";
            return 2;
        }
        const std::string &latest = base_entries.back();
        double base_rate = 0, base_calibration = 0;
        if (!findJsonNumber(latest,
                            "single_stream_uops_per_sec_geomean",
                            &base_rate)) {
            std::cerr << "baseline has no "
                         "single_stream_uops_per_sec_geomean\n";
            return 2;
        }
        double scale = 1;
        if (findJsonNumber(latest, "calibration_mops",
                           &base_calibration) &&
            base_calibration > 0 && calibration > 0) {
            scale = calibration / base_calibration;
            scale = std::min(4.0, std::max(0.25, scale));
        }
        const double floor =
            base_rate * scale * (1 - max_regress_pct / 100);
        std::printf("regression gate vs entry '%s': %.2f Muops/s vs "
                    "floor %.2f (baseline %.2f x machine scale "
                    "%.2f)\n",
                    entryCommit(latest).c_str(), batch_geomean / 1e6,
                    floor / 1e6, base_rate / 1e6, scale);
        if (batch_geomean < floor) {
            std::cerr << "FAIL: single-stream replay throughput "
                         "regressed more than "
                      << max_regress_pct << "%\n";
            return 1;
        }
        // trace_io gates the same way, on its rates (ops per ns),
        // once the latest entry carries the row.
        double base_write = 0, base_read = 0;
        if (findJsonNumber(latest, "write_ns_per_op", &base_write) &&
            findJsonNumber(latest, "read_ns_per_op", &base_read)) {
            const double ceiling =
                1 / (scale * (1 - max_regress_pct / 100));
            std::printf("trace_io gate: write %.1f ns/op vs ceiling "
                        "%.1f, read %.1f ns/op vs ceiling %.1f\n",
                        trace_io.writeNsPerOp, base_write * ceiling,
                        trace_io.readNsPerOp, base_read * ceiling);
            if (trace_io.writeNsPerOp > base_write * ceiling ||
                trace_io.readNsPerOp > base_read * ceiling) {
                std::cerr << "FAIL: trace_io ns/op regressed more than "
                          << max_regress_pct << "%\n";
                return 1;
            }
        }
    }
    if (telemetry_overhead_pct > max_telemetry_overhead_pct) {
        std::cerr << "FAIL: telemetry overhead "
                  << telemetry_overhead_pct << "% exceeds the "
                  << max_telemetry_overhead_pct << "% gate\n";
        return 1;
    }
    return 0;
}
