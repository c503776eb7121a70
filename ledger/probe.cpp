/**
 * @file
 * The layer ledger's in-process probe.
 *
 * ledger/run.py drives whole commands from outside; this binary does
 * the two things that need the library itself:
 *
 *   ledger_probe calib
 *       the host's calibration yardstick (bench::calibrationMops).
 *
 *   ledger_probe load --connect ADDR --warm FILE --fresh FILE
 *                     --seed N --seconds S --daemon-pid P
 *                     --jobs-out FILE
 *       closed-loop SimClient load on a running serve daemon: one
 *       connection per usable CPU, each sending seeded kBatch-job
 *       batches drawn from the warm job list, and one batch in
 *       kFreshEvery (on average) carries one never-seen job from the
 *       fresh list.  Throughput, latency and CPU are reported per
 *       time segment of the window.  Afterwards every reply is judged
 *       against a local Session::runBatch of the same jobs.
 *       --jobs-out lists the warm jobs sent plus each client's first
 *       kLedgerFresh fresh jobs (with their op and cache-line sums in
 *       the JSON) for the traced run's ledger.
 *
 *   ledger_probe ledger --jobs FILE --work DIR --connect ADDR
 *                       [--spans FILE]
 *       times calls into each module's public functions on the job
 *       list (replay, generation, materialization, keys, both caches,
 *       job_io, wire, the service, trace_io, the tuner) under
 *       telemetry span tracing, writes the spans to --spans, and
 *       reports the op and cache-line counts it divided by so run.py
 *       can reconcile them with the end-to-end outputs.
 *
 * A job list has one simulation job per line, as space-separated
 * key=value fields: workload=NAME or gemm=MxNxK, engine=NAME,
 * pattern=N, of=0|1.  Every mode prints one JSON object on stdout.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include "common/random.hpp"
#include "cpu/trace_cpu.hpp"
#include "cpu/trace_io.hpp"
#include "cpu/trace_sink.hpp"
#include "kernels/gemm_kernels.hpp"
#include "sim/cache.hpp"
#include "sim/client.hpp"
#include "sim/disk_cache.hpp"
#include "sim/job.hpp"
#include "sim/job_io.hpp"
#include "sim/session.hpp"
#include "sim/telemetry.hpp"
#include "sim/tune.hpp"
#include "sim/wire.hpp"
#include "trajectory.hpp"

namespace {

using namespace vegeta;
using Clock = std::chrono::steady_clock;

// service load: kBatch-job batches, one in kFreshEvery carrying a
// fresh job; kSegments time segments; the traced ledger replays each
// client's first kLedgerFresh fresh jobs.
constexpr std::size_t kBatch = 32;
constexpr u64 kFreshEvery = 5;
constexpr std::size_t kSegments = 8;
constexpr u64 kLedgerFresh = 16;

u64
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

/** CPUs this process may run on: its clients and threads. */
u32
usableCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) != 0)
        return std::max(1u, std::thread::hardware_concurrency());
    return u32(std::max(1, CPU_COUNT(&set)));
}

/** Linear-interpolated percentile of an ascending sample. */
double
percentile(const std::vector<double> &sorted, double q)
{
    if (sorted.empty())
        return 0.0;
    const double pos = q * double(sorted.size() - 1);
    const std::size_t lo = std::size_t(pos);
    const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    return sorted[lo] + (pos - double(lo)) * (sorted[hi] - sorted[lo]);
}

double
median(std::vector<double> values)
{
    std::sort(values.begin(), values.end());
    return percentile(values, 0.5);
}

// --- output ----------------------------------------------------------

/** One flat JSON object, keys in insertion order. */
class JsonOut
{
  public:
    void
    num(const std::string &key, double value)
    {
        char buf[64];
        if (std::isfinite(value))
            std::snprintf(buf, sizeof buf, "%.17g", value);
        else
            std::snprintf(buf, sizeof buf, "null");
        field(key) << buf;
    }

    void
    list(const std::string &key, const std::vector<double> &values)
    {
        std::ostream &os = field(key);
        os << '[';
        for (std::size_t i = 0; i < values.size(); ++i) {
            char buf[64];
            std::snprintf(buf, sizeof buf, "%.17g", values[i]);
            os << (i ? ", " : "") << buf;
        }
        os << ']';
    }

    void
    str(const std::string &key, const std::string &value)
    {
        field(key) << '"' << sim::jsonEscape(value) << '"';
    }

    std::string
    text() const
    {
        return "{" + os_.str() + "}";
    }

  private:
    std::ostream &
    field(const std::string &key)
    {
        os_ << (first_ ? "" : ", ") << '"' << key << "\": ";
        first_ = false;
        return os_;
    }

    std::ostringstream os_;
    bool first_ = true;
};

// --- job lists -------------------------------------------------------

struct Spec
{
    std::string text;
    sim::Job job;
};

std::optional<sim::Job>
parseSpec(const sim::Session &session, const std::string &line,
          std::string *error)
{
    auto builder = session.job();
    std::istringstream is(line);
    std::string token;
    while (is >> token) {
        const auto eq = token.find('=');
        if (eq == std::string::npos) {
            *error = "bad field '" + token + "'";
            return std::nullopt;
        }
        const std::string key = token.substr(0, eq);
        const std::string value = token.substr(eq + 1);
        if (key == "workload") {
            builder.workload(value);
        } else if (key == "gemm") {
            builder.gemm(value);
        } else if (key == "engine") {
            builder.engine(value);
        } else if (key == "pattern") {
            const auto n = sim::parseU32(value);
            if (!n) {
                *error = "bad pattern '" + value + "'";
                return std::nullopt;
            }
            builder.pattern(*n);
        } else if (key == "of") {
            builder.outputForwarding(value == "1");
        } else {
            *error = "unknown field '" + key + "'";
            return std::nullopt;
        }
    }
    auto job = builder.build();
    if (!job)
        *error = builder.error();
    return job;
}

std::vector<Spec>
readSpecs(const sim::Session &session, const std::string &path)
{
    std::ifstream is(path);
    if (!is) {
        std::cerr << "ledger_probe: cannot read " << path << "\n";
        std::exit(2);
    }
    std::vector<Spec> specs;
    std::string line;
    while (std::getline(is, line)) {
        if (line.empty())
            continue;
        std::string error;
        auto job = parseSpec(session, line, &error);
        if (!job) {
            std::cerr << "ledger_probe: " << path << ": " << error
                      << " in '" << line << "'\n";
            std::exit(2);
        }
        specs.push_back({line, std::move(*job)});
    }
    return specs;
}

std::vector<sim::Job>
jobsOf(const std::vector<Spec> &specs)
{
    std::vector<sim::Job> jobs;
    jobs.reserve(specs.size());
    for (const auto &spec : specs)
        jobs.push_back(spec.job);
    return jobs;
}

// --- result judging --------------------------------------------------

u64
bitsOf(double value)
{
    u64 bits = 0;
    std::memcpy(&bits, &value, sizeof bits);
    return bits;
}

/** Every field of two simulation results, doubles bit for bit. */
bool
sameResult(const sim::SimulationResult &a,
           const sim::SimulationResult &b)
{
    return a.workload == b.workload && a.engine == b.engine &&
           a.layerN == b.layerN && a.executedN == b.executedN &&
           a.outputForwarding == b.outputForwarding &&
           a.kernel == b.kernel && a.coreCycles == b.coreCycles &&
           a.instructions == b.instructions &&
           a.engineInstructions == b.engineInstructions &&
           a.tileComputes == b.tileComputes &&
           bitsOf(a.macUtilization) == bitsOf(b.macUtilization) &&
           a.cacheHits == b.cacheHits && a.cacheMisses == b.cacheMisses;
}

/** The measurements a replay of the same trace must reproduce. */
bool
sameMeasurement(const cpu::SimResult &sim,
                const sim::SimulationResult &ref)
{
    return sim.totalCycles == ref.coreCycles &&
           sim.retiredOps == ref.instructions &&
           sim.engineInstructions == ref.engineInstructions &&
           bitsOf(sim.macUtilization) == bitsOf(ref.macUtilization) &&
           sim.cacheHits == ref.cacheHits &&
           sim.cacheMisses == ref.cacheMisses;
}

/** A result exactly as the wire and the pool files carry it. */
std::string
wireBytes(const sim::Job &job, const sim::JobResult &result)
{
    sim::WorkerOutput output;
    output.results.emplace_back(sim::jobKey(job), result);
    return sim::encodeWorkerOutput(output);
}

// --- process accounting ----------------------------------------------

double
selfCpuMs()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return (usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) * 1e3 +
           (usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) / 1e3;
}

/** @p pid and all its live descendants (via /proc children lists). */
std::vector<int>
processTree(int pid)
{
    std::vector<int> tree{pid};
    for (std::size_t i = 0; i < tree.size(); ++i) {
        const std::string dir =
            "/proc/" + std::to_string(tree[i]) + "/task";
        std::error_code ec;
        for (const auto &task :
             std::filesystem::directory_iterator(dir, ec)) {
            std::ifstream is(task.path() / "children");
            int child = 0;
            while (is >> child)
                tree.push_back(child);
        }
    }
    return tree;
}

/** utime + stime of the live process tree, milliseconds. */
double
treeCpuMs(int pid)
{
    const double tick_ms = 1e3 / double(sysconf(_SC_CLK_TCK));
    double total = 0.0;
    for (const int p : processTree(pid)) {
        std::ifstream is("/proc/" + std::to_string(p) + "/stat");
        std::string stat((std::istreambuf_iterator<char>(is)),
                         std::istreambuf_iterator<char>());
        const auto paren = stat.rfind(')');
        if (paren == std::string::npos)
            continue;
        std::istringstream fields(stat.substr(paren + 2));
        std::string field;
        double utime = 0, stime = 0;
        // Fields 3..13 precede utime (14) and stime (15).
        for (int i = 3; i <= 15 && fields >> field; ++i) {
            if (i == 14)
                utime = std::stod(field);
            if (i == 15)
                stime = std::stod(field);
        }
        total += (utime + stime) * tick_ms;
    }
    return total;
}

/** Sum of the peak resident sets (VmHWM) of the live tree, KiB. */
double
treePeakRssKb(int pid)
{
    double total = 0.0;
    for (const int p : processTree(pid)) {
        std::ifstream is("/proc/" + std::to_string(p) + "/status");
        std::string line;
        while (std::getline(is, line))
            if (line.rfind("VmHWM:", 0) == 0)
                total += std::stod(line.substr(6));
    }
    return total;
}

// --- arguments -------------------------------------------------------

class Args
{
  public:
    Args(int argc, char **argv, int first)
    {
        for (int i = first; i + 1 < argc; i += 2)
            values_[argv[i]] = argv[i + 1];
        if ((argc - first) % 2 != 0) {
            std::cerr << "ledger_probe: options come in --flag value "
                         "pairs\n";
            std::exit(2);
        }
    }

    std::string
    text(const std::string &flag) const
    {
        const auto it = values_.find(flag);
        if (it == values_.end()) {
            std::cerr << "ledger_probe: missing " << flag << "\n";
            std::exit(2);
        }
        return it->second;
    }

    u64
    number(const std::string &flag) const
    {
        return std::stoull(text(flag));
    }

  private:
    std::map<std::string, std::string> values_;
};

/** Run fn(index, thread) for index in [0, n) on @p threads threads. */
void
parallelFor(u32 threads, std::size_t n,
            const std::function<void(std::size_t, u32)> &fn)
{
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> pool;
    for (u32 t = 0; t < threads; ++t)
        pool.emplace_back([&, t] {
            for (std::size_t i = next++; i < n; i = next++)
                fn(i, t);
        });
    for (auto &thread : pool)
        thread.join();
}

// --- calib -----------------------------------------------------------

int
cmdCalib()
{
    JsonOut out;
    out.num("calibration_mops", bench::calibrationMops());
    std::cout << out.text() << "\n";
    return 0;
}

// --- load ------------------------------------------------------------

/** Batches that completed within one measurement segment. */
struct Segment
{
    std::vector<double> latencyMs;
    u64 jobs = 0;
    u64 instructions = 0;
};

/** What one closed-loop client saw. */
struct ClientLog
{
    std::vector<Segment> segments;
    u64 failedJobs = 0;
    u64 freshBatches = 0;
    u64 mismatches = 0; ///< replies differing from an earlier reply
    std::map<std::size_t, sim::JobResult> first; ///< job -> 1st reply
    std::map<std::size_t, u64> uses;             ///< job -> replies
    std::string error;
};

int
cmdLoad(const Args &args)
{
    const std::string address = args.text("--connect");
    const u64 seed = args.number("--seed");
    const double seconds = std::stod(args.text("--seconds"));
    const int daemon = int(args.number("--daemon-pid"));
    const u32 clients = usableCpus();

    const sim::Session session;
    const auto warm = readSpecs(session, args.text("--warm"));
    const auto fresh = readSpecs(session, args.text("--fresh"));
    if (warm.empty()) {
        std::cerr << "ledger_probe: empty warm list\n";
        return 2;
    }
    // Index space: warm jobs first, then the fresh pool.
    auto specAt = [&](std::size_t i) -> const Spec & {
        return i < warm.size() ? warm[i] : fresh[i - warm.size()];
    };

    std::vector<std::unique_ptr<sim::SimClient>> conns;
    for (u32 c = 0; c < clients; ++c) {
        sim::ClientOptions options;
        options.address = address;
        options.connectTimeoutMs = 20'000;
        options.requestTimeoutMs = 120'000;
        conns.push_back(std::make_unique<sim::SimClient>(options));
        std::string error;
        if (!conns.back()->connect(&error)) {
            std::cerr << "ledger_probe: connect: " << error << "\n";
            return 2;
        }
    }

    auto processCpuMs = [&] {
        return selfCpuMs() + treeCpuMs(daemon);
    };
    std::vector<ClientLog> logs(clients);
    for (auto &log : logs)
        log.segments.resize(kSegments);
    std::vector<double> cpu_marks{processCpuMs()};
    const u64 start = nowNs();
    const u64 segment_ns = u64(seconds * 1e9 / double(kSegments));
    const u64 deadline = start + segment_ns * kSegments;

    std::vector<std::thread> pool;
    for (u32 c = 0; c < clients; ++c) {
        pool.emplace_back([&, c] {
            ClientLog &log = logs[c];
            u64 rng = seed * 0x100000001b3ull + c;
            std::size_t fresh_next = c;
            std::vector<std::size_t> picks(kBatch);
            std::vector<sim::Job> jobs(kBatch);
            while (nowNs() < deadline) {
                for (auto &pick : picks)
                    pick = splitmix64(rng) % warm.size();
                if (splitmix64(rng) % kFreshEvery == 0 &&
                    fresh_next < fresh.size()) {
                    picks[splitmix64(rng) % kBatch] =
                        warm.size() + fresh_next;
                    fresh_next += clients;
                    ++log.freshBatches;
                }
                for (std::size_t k = 0; k < kBatch; ++k)
                    jobs[k] = specAt(picks[k]).job;

                std::string error;
                const u64 t0 = nowNs();
                const auto run = conns[c]->runBatch(jobs, &error);
                const u64 t1 = nowNs();
                if (!run || run->results.size() != kBatch) {
                    log.failedJobs += kBatch;
                    log.error = error;
                    if (!conns[c]->connect(&error))
                        return;
                    continue;
                }
                Segment &seg = log.segments[std::min<u64>(
                    kSegments - 1, (t1 - start) / segment_ns)];
                seg.latencyMs.push_back(double(t1 - t0) / 1e6);
                seg.jobs += kBatch;
                for (std::size_t k = 0; k < kBatch; ++k) {
                    const auto &result = run->results[k];
                    seg.instructions += result.simulation.instructions;
                    ++log.uses[picks[k]];
                    const auto [it, inserted] =
                        log.first.emplace(picks[k], result);
                    if (!inserted &&
                        !sameResult(it->second.simulation,
                                    result.simulation))
                        ++log.mismatches;
                }
            }
        });
    }
    for (std::size_t k = 1; k < kSegments; ++k) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(
            start + k * segment_ns - std::min(nowNs(),
                                              start + k * segment_ns)));
        cpu_marks.push_back(processCpuMs());
    }
    for (auto &thread : pool)
        thread.join();
    const u64 end = nowNs();
    cpu_marks.push_back(processCpuMs());
    const double daemon_rss_kb = treePeakRssKb(daemon);

    // Per segment (the last one runs until the final batch returns).
    std::vector<double> seg_wall, seg_jobs, seg_cpu, seg_insts, seg_p50,
        seg_p99;
    u64 jobs = 0, batches = 0;
    for (std::size_t k = 0; k < kSegments; ++k) {
        std::vector<double> latency;
        u64 seg_job_count = 0, instructions = 0;
        for (const auto &log : logs) {
            const Segment &seg = log.segments[k];
            latency.insert(latency.end(), seg.latencyMs.begin(),
                           seg.latencyMs.end());
            seg_job_count += seg.jobs;
            instructions += seg.instructions;
        }
        std::sort(latency.begin(), latency.end());
        const u64 seg_end =
            k + 1 == kSegments ? end : start + (k + 1) * segment_ns;
        seg_wall.push_back(double(seg_end - start - k * segment_ns) /
                           1e9);
        seg_jobs.push_back(double(seg_job_count));
        seg_cpu.push_back(cpu_marks[k + 1] - cpu_marks[k]);
        seg_insts.push_back(double(instructions));
        seg_p50.push_back(percentile(latency, 0.50));
        seg_p99.push_back(percentile(latency, 0.99));
        jobs += seg_job_count;
        batches += latency.size();
    }

    // Merge: the first reply per job across clients, then judge
    // every distinct job against a local runBatch of the same jobs.
    std::map<std::size_t, sim::JobResult> first;
    std::map<std::size_t, u64> uses;
    u64 lost = 0, failed = 0, fresh_batches = 0;
    std::string error;
    for (const auto &log : logs) {
        lost += log.failedJobs;
        failed += log.failedJobs + log.mismatches;
        fresh_batches += log.freshBatches;
        if (!log.error.empty())
            error = log.error;
        for (const auto &[index, count] : log.uses)
            uses[index] += count;
        for (const auto &[index, result] : log.first) {
            const auto [it, inserted] = first.emplace(index, result);
            if (!inserted &&
                !sameResult(it->second.simulation, result.simulation))
                failed += log.uses.at(index);
        }
    }
    std::vector<sim::Job> distinct;
    for (const auto &[index, result] : first)
        distinct.push_back(specAt(index).job);
    const auto local = sim::Session().runBatch(distinct, clients);
    // The ledger's share: every warm job (a run draws thousands of
    // batches from 675, so all of them) and each client's first
    // kLedgerFresh fresh jobs -- the same set for a seed every run.
    std::string ledger_jobs;
    u64 ops = 0, lines = 0, fresh_used = 0;
    std::size_t k = 0;
    for (const auto &[index, result] : first) {
        if (wireBytes(distinct[k], result) !=
            wireBytes(distinct[k], local[k]))
            failed += uses[index];
        const bool is_fresh = index >= warm.size();
        fresh_used += is_fresh;
        if (!is_fresh ||
            (index - warm.size()) / clients < kLedgerFresh) {
            ledger_jobs += specAt(index).text + "\n";
            ops += result.simulation.instructions;
            lines += result.simulation.cacheHits +
                     result.simulation.cacheMisses;
        }
        ++k;
    }
    std::ofstream(args.text("--jobs-out")) << ledger_jobs;

    JsonOut out;
    out.num("wall_s", double(end - start) / 1e9);
    out.num("clients", double(clients));
    out.num("segments", double(kSegments));
    out.num("batches", double(batches));
    out.num("jobs", double(jobs));
    out.num("lost", double(lost));
    out.num("failed", double(failed));
    out.num("fresh_batches", double(fresh_batches));
    out.num("fresh_used", double(fresh_used));
    out.num("distinct", double(first.size()));
    out.list("seg_wall_s", seg_wall);
    out.list("seg_jobs", seg_jobs);
    out.list("seg_cpu_ms", seg_cpu);
    out.list("seg_instructions", seg_insts);
    out.list("seg_latency_p50_ms", seg_p50);
    out.list("seg_latency_p99_ms", seg_p99);
    out.num("daemon_peak_rss_kb", daemon_rss_kb);
    out.num("ops", double(ops));
    out.num("lines", double(lines));
    out.str("error", error);
    std::cout << out.text() << "\n";
    return 0;
}

// --- ledger ----------------------------------------------------------

/** Counts the ops a generator emits and drops them. */
class NullSink final : public cpu::TraceSink
{
  public:
    void emit(const cpu::TraceOp &) override { ++count_; }
    u64 count() const { return count_; }

  private:
    u64 count_ = 0;
};

/** How the Session executes one simulation request. */
struct Plan
{
    engine::EngineConfig engine;
    cpu::CoreConfig core;
    u32 executedN = 4;
    kernels::KernelOptions options;
};

Plan
planFor(const sim::Session &session, const sim::SimulationRequest &req)
{
    Plan plan;
    plan.engine = *session.engines().find(req.engine);
    plan.executedN = plan.engine.effectiveN(req.patternN);
    plan.core = req.core;
    plan.core.outputForwarding =
        req.outputForwarding && plan.engine.sparse;
    plan.options.optimized =
        req.kernel == sim::KernelVariant::Optimized;
    plan.options.cBlocking = req.cBlocking;
    plan.options.traceOnly = true;
    return plan;
}

/** Repeat fn over [0, n) until at least min_ns passed; ns per call. */
double
nsPerCall(std::size_t n, u64 min_ns,
          const std::function<void(std::size_t)> &fn)
{
    std::vector<double> passes;
    u64 total = 0;
    while (passes.size() < 3 || total < min_ns) {
        const u64 t0 = nowNs();
        for (std::size_t i = 0; i < n; ++i)
            fn(i);
        const u64 dt = nowNs() - t0;
        total += dt;
        passes.push_back(double(dt) / double(n));
    }
    return median(passes);
}

/** Per-pattern-class replay totals. */
struct ReplayClass
{
    u64 ops = 0;
    u64 lines = 0;
    u64 ns = 0;
};

/** Per-thread accumulators of the decomposition pass. */
struct Decomp
{
    u64 genNs = 0, genOps = 0, matNs = 0, matOps = 0;
    std::map<u32, ReplayClass> byPattern;
    u64 mismatches = 0;
};

/** What the ledger's phases share. */
struct Ledger
{
    Ledger(const sim::Session &session_,
           const std::vector<sim::Job> &jobs_, std::string work_)
        : session(session_), jobs(jobs_), threads(usableCpus()),
          work(std::move(work_))
    {
        for (const auto &job : jobs)
            keys.push_back(sim::cacheKey(job.simulation));
    }

    const sim::Session &session;
    const std::vector<sim::Job> &jobs;
    u32 threads;
    std::string work;

    /** Session::runBatch's answer per job: every phase checks it. */
    std::vector<sim::JobResult> reference;

    /** cacheKey per job. */
    std::vector<std::string> keys;

    JsonOut out;
    u64 failed = 0;

    /** The first up-to-32 jobs: one service-sized batch. */
    std::vector<sim::Job>
    firstBatch() const
    {
        return {jobs.begin(),
                jobs.begin() + std::min<std::size_t>(32, jobs.size())};
    }

    /** Count every result that differs from the reference. */
    void
    check(const std::vector<sim::JobResult> &results)
    {
        for (std::size_t i = 0; i < jobs.size(); ++i)
            failed += !sameResult(results[i].simulation,
                                  reference[i].simulation);
    }
};

/**
 * The Session's own batch at full width and on one thread, then at
 * full width with span tracing off and on (off, on, on, off, so drift
 * cancels): the overhead of the library's session and lane spans.
 * Leaves tracing on, so the later phases record their spans.
 */
void
measureJobPath(Ledger &l)
{
    auto timedBatch = [&](u32 threads, double *ms) {
        const u64 t0 = nowNs();
        auto results = sim::Session().runBatch(l.jobs, threads);
        *ms += double(nowNs() - t0) / 1e6;
        return results;
    };
    double batch_ms = 0, serial_ms = 0, pass_ms[2] = {0, 0};
    telemetry::setTraceEnabled(false);
    l.reference = timedBatch(l.threads, &batch_ms);
    l.check(timedBatch(1, &serial_ms));
    do {
        for (const bool traced : {false, true, true, false}) {
            telemetry::setTraceEnabled(traced);
            l.check(timedBatch(l.threads, &pass_ms[traced]));
        }
    } while (pass_ms[0] + pass_ms[1] < 2000);
    telemetry::setTraceEnabled(true);
    l.out.num("session.batch_ms", batch_ms);
    l.out.num("session.thread_speedup", serial_ms / batch_ms);
    l.out.num("trace.overhead_pct", (pass_ms[1] / pass_ms[0] - 1) * 100);
}

/**
 * Generation into a null sink, materialization, and replay of the
 * materialized trace, each timed alone; replay per pattern class.
 */
void
measureDecomposition(Ledger &l)
{
    std::vector<Decomp> parts(l.threads);
    parallelFor(l.threads, l.jobs.size(), [&](std::size_t i, u32 t) {
        Decomp &part = parts[t];
        const auto &req = l.jobs[i].simulation;
        const Plan plan = planFor(l.session, req);
        {
            const telemetry::Span span("kernels.gen", i);
            const u64 t0 = nowNs();
            NullSink sink;
            kernels::streamSpmmKernel(req.gemm, plan.executedN,
                                      plan.options, sink);
            part.genNs += nowNs() - t0;
            part.genOps += sink.count();
        }
        kernels::KernelRun run;
        {
            const telemetry::Span span("kernels.materialize", i);
            const u64 t0 = nowNs();
            run = kernels::runSpmmKernel(req.gemm, plan.executedN,
                                         plan.options);
            part.matNs += nowNs() - t0;
            part.matOps += run.trace.size();
        }
        cpu::SimResult sim;
        ReplayClass &cls = part.byPattern[req.patternN];
        {
            const telemetry::Span span("cpu.replay", i);
            const u64 t0 = nowNs();
            cpu::TraceCpu cpu_model(plan.core, plan.engine);
            sim = cpu_model.run(run.trace);
            cls.ns += nowNs() - t0;
        }
        cls.ops += run.trace.size();
        cls.lines += sim.cacheHits + sim.cacheMisses;
        if (sim.retiredOps != run.trace.size() ||
            !sameMeasurement(sim, l.reference[i].simulation))
            ++part.mismatches;
    });
    Decomp total;
    for (const auto &part : parts) {
        total.genNs += part.genNs;
        total.genOps += part.genOps;
        total.matNs += part.matNs;
        total.matOps += part.matOps;
        total.mismatches += part.mismatches;
        for (const auto &[n, cls] : part.byPattern) {
            auto &sum = total.byPattern[n];
            sum.ops += cls.ops;
            sum.lines += cls.lines;
            sum.ns += cls.ns;
        }
    }
    l.failed += total.mismatches;
    u64 ops = 0, lines = 0;
    for (const u32 n : {4u, 2u, 1u}) {
        const ReplayClass cls = total.byPattern[n];
        ops += cls.ops;
        lines += cls.lines;
        const std::string tag = std::to_string(n) + "of4";
        l.out.num("cpu.ops." + tag, double(cls.ops));
        l.out.num("cpu.lines." + tag, double(cls.lines));
        l.out.num("cpu.replay_ns_per_op." + tag,
                  cls.ops ? double(cls.ns) / double(cls.ops) : 0.0);
        l.out.num("cpu.replay_ns_per_line." + tag,
                  cls.lines ? double(cls.ns) / double(cls.lines) : 0.0);
    }
    l.out.num("cpu.ops", double(ops));
    l.out.num("cpu.lines", double(lines));
    l.out.num("cpu.lines_per_op", double(lines) / double(ops));
    l.out.num("kernels.gen_ns_per_op",
              double(total.genNs) / double(total.genOps));
    l.out.num("kernels.materialize_ns_per_op",
              double(total.matNs) / double(total.matOps));
}

/** Keys and both result caches, single-threaded. */
void
measureKeysAndCaches(Ledger &l)
{
    const std::size_t n = l.jobs.size();
    {
        const telemetry::Span span("job.key", n);
        l.out.num("job.key_ns",
                  nsPerCall(n, 20'000'000, [&](std::size_t i) {
                      const std::string key = sim::jobKey(l.jobs[i]);
                      if (key.empty())
                          ++l.failed;
                  }));
    }
    {
        const telemetry::Span span("cache.find", n);
        sim::ResultCache cache;
        for (std::size_t i = 0; i < n; ++i)
            cache.insert(l.keys[i], l.reference[i].simulation);
        l.out.num("cache.mem_probe_ns",
                  nsPerCall(n, 20'000'000, [&](std::size_t i) {
                      if (!cache.find(l.keys[i]))
                          ++l.failed;
                  }));
    }
    const std::string dir = l.work + "/disk-cache";
    std::filesystem::remove_all(dir);
    u64 insert_ns = 0;
    {
        const telemetry::Span span("disk_cache.insert", n);
        sim::DiskResultCache disk(dir);
        for (std::size_t i = 0; i < n; ++i) {
            const u64 t0 = nowNs();
            disk.insert(l.keys[i], l.reference[i].simulation);
            insert_ns += nowNs() - t0;
        }
    }
    std::vector<double> opens;
    for (int rep = 0; rep < 5; ++rep) {
        const telemetry::Span span("disk_cache.open", n);
        const u64 t0 = nowNs();
        const sim::DiskResultCache disk(dir);
        opens.push_back(double(nowNs() - t0) / 1e6);
        l.failed += disk.size() != n;
    }
    const sim::DiskResultCache disk(dir);
    const telemetry::Span span("disk_cache.find", n);
    l.out.num("disk_cache.insert_us",
              double(insert_ns) / 1e3 / double(n));
    l.out.num("disk_cache.open_ms", median(opens));
    l.out.num("disk_cache.probe_ns",
              nsPerCall(n, 20'000'000, [&](std::size_t i) {
                  if (!disk.find(l.keys[i]))
                      ++l.failed;
              }));
    l.out.num("disk_cache.entries", double(disk.size()));
}

/** job_io: a batch frame's payload out, a results payload back. */
void
measureJobIo(Ledger &l)
{
    const telemetry::Span span("job_io", l.jobs.size());
    const std::size_t batch = l.firstBatch().size();
    std::vector<std::vector<sim::Job>> batches;
    std::vector<sim::WorkerOutput> outputs;
    for (std::size_t i = 0; i < l.jobs.size(); i += batch) {
        const std::size_t end = std::min(l.jobs.size(), i + batch);
        batches.emplace_back(l.jobs.begin() + i, l.jobs.begin() + end);
        outputs.emplace_back();
        for (std::size_t k = i; k < end; ++k)
            outputs.back().results.emplace_back(l.keys[k],
                                                l.reference[k]);
    }
    std::vector<std::string> job_text(batches.size());
    std::vector<std::string> result_text(batches.size());
    const double encode_ns =
        nsPerCall(batches.size(), 20'000'000, [&](std::size_t b) {
            job_text[b] = sim::encodeJobBatch(batches[b]);
            result_text[b] = sim::encodeWorkerOutput(outputs[b]);
        });
    const double decode_ns =
        nsPerCall(batches.size(), 20'000'000, [&](std::size_t b) {
            std::string error;
            const auto decoded =
                sim::decodeJobBatch(job_text[b], &error);
            const auto results =
                sim::decodeWorkerOutput(result_text[b], &error);
            if (!decoded || !results ||
                decoded->size() != batches[b].size())
                ++l.failed;
        });
    const double per_batch =
        double(l.jobs.size()) / double(batches.size());
    l.out.num("job_io.encode_us_per_job", encode_ns / 1e3 / per_batch);
    l.out.num("job_io.decode_us_per_job", decode_ns / 1e3 / per_batch);
}

/** wire: one batch frame to an echo thread over pipes and back. */
bool
measureWire(Ledger &l)
{
    const telemetry::Span span("wire.rtt");
    const std::string payload = sim::encodeJobBatch(l.firstBatch());
    int to_echo[2], from_echo[2];
    if (pipe(to_echo) != 0 || pipe(from_echo) != 0) {
        std::cerr << "ledger_probe: pipe failed\n";
        return false;
    }
    std::thread echo([&] {
        sim::wire::Frame frame;
        std::string error;
        while (sim::wire::readFrame(to_echo[0], &frame, -1, &error))
            if (!sim::wire::writeFrame(from_echo[1], frame.type,
                                       frame.payload, &error))
                break;
    });
    std::vector<double> rtt;
    for (int rep = 0; rep < 400; ++rep) {
        std::string error;
        sim::wire::Frame frame;
        const u64 t0 = nowNs();
        const bool ok =
            sim::wire::writeFrame(to_echo[1],
                                  sim::wire::FrameType::Batch, payload,
                                  &error) &&
            sim::wire::readFrame(from_echo[0], &frame, 10'000, &error);
        rtt.push_back(double(nowNs() - t0) / 1e3);
        if (!ok || frame.payload != payload) {
            ++l.failed;
            break;
        }
    }
    ::close(to_echo[1]);
    echo.join();
    ::close(to_echo[0]);
    ::close(from_echo[0]);
    ::close(from_echo[1]);
    l.out.num("wire.frame_rtt_us", median(rtt));
    return true;
}

/**
 * The live service at @p address: an all-hit batch round trip, then
 * its stats frame, saved as <work>/server-stats.json.  False when the
 * service does not answer in full.
 */
bool
measureService(Ledger &l, const std::string &address)
{
    const telemetry::Span span("server.batch");
    sim::ClientOptions options;
    options.address = address;
    options.connectTimeoutMs = 20'000;
    options.requestTimeoutMs = 120'000;
    sim::SimClient client(options);
    std::string error;
    const std::vector<sim::Job> first = l.firstBatch();
    std::vector<double> rtt;
    bool ok = client.connect(&error);
    // Two warm-up sends: the second deals the same sorted keys to the
    // same workers, so every later send is all memory hits.
    for (int rep = 0; ok && rep < 32; ++rep) {
        const u64 t0 = nowNs();
        const auto run = client.runBatch(first, &error);
        const double ms = double(nowNs() - t0) / 1e6;
        ok = run && run->results.size() == first.size();
        if (!ok)
            break;
        for (std::size_t i = 0; i < first.size(); ++i)
            l.failed += !sameResult(run->results[i].simulation,
                                    l.reference[i].simulation);
        if (rep >= 2) {
            rtt.push_back(ms);
            l.failed += run->simulationsPerformed != 0;
        }
    }
    const auto stats =
        ok ? client.fetchStats(&error) : std::optional<std::string>();
    if (!ok || !stats) {
        std::cerr << "ledger_probe: service probe: " << error << "\n";
        return false;
    }
    std::ofstream(l.work + "/server-stats.json") << *stats;
    l.out.num("server.batch_rtt_ms", median(rtt));
    return true;
}

/** trace_io on the heaviest Table IV trace (GPT-L3 at 4:4). */
void
measureTraceIo(Ledger &l)
{
    auto builder = l.session.job();
    const auto job = builder.workload("GPT-L3")
                         .engine("VEGETA-S-16-2")
                         .pattern(4)
                         .outputForwarding(true)
                         .build();
    const Plan plan = planFor(l.session, job->simulation);
    const cpu::Trace trace =
        kernels::runSpmmKernel(job->simulation.gemm, plan.executedN,
                               plan.options)
            .trace;
    const std::string path = l.work + "/ledger.vgtr";
    std::vector<double> write_ns, read_ns;
    for (int rep = 0; rep < 3; ++rep) {
        {
            const telemetry::Span span("trace_io.write", trace.size());
            const u64 t0 = nowNs();
            l.failed += !cpu::writeTraceFile(path, trace);
            write_ns.push_back(double(nowNs() - t0) /
                               double(trace.size()));
        }
        const telemetry::Span span("trace_io.read", trace.size());
        const u64 t0 = nowNs();
        const auto back = cpu::readTraceFile(path);
        read_ns.push_back(double(nowNs() - t0) /
                          double(trace.size()));
        l.failed += !back || back->size() != trace.size();
    }
    std::filesystem::remove(path);
    l.out.num("trace_io.ops", double(trace.size()));
    l.out.num("trace_io.write_ns_per_op", median(write_ns));
    l.out.num("trace_io.read_ns_per_op", median(read_ns));
}

/** The default tune: full space over Table IV, no caches. */
void
measureTune(Ledger &l)
{
    std::vector<std::string> names;
    for (const auto &w : l.session.workloads().group("tableIV"))
        names.push_back(w.name);
    std::vector<double> run_ms, analyze_us;
    u64 analyzed = 0;
    for (int rep = 0; rep < 3; ++rep) {
        const telemetry::Span span("tune.run");
        const u64 t0 = nowNs();
        const sim::Session tune_session;
        const sim::Tuner tuner(tune_session, sim::TuneOptions{});
        const auto report =
            tuner.run(sim::TuneSpace::full(tune_session, names));
        run_ms.push_back(double(nowNs() - t0) / 1e6);
        analyzed = report.analyzedPoints;
        analyze_us.push_back(report.analyzedPoints
                                 ? report.analyzeMs * 1e3 /
                                       double(report.analyzedPoints)
                                 : 0.0);
        l.failed += report.best() == nullptr;
    }
    l.out.num("tune.analyzed_points", double(analyzed));
    l.out.num("tune.run_ms", median(run_ms));
    l.out.num("tune.analyze_us_per_point", median(analyze_us));
}

int
cmdLedger(const Args &args)
{
    const std::string address = args.text("--connect");
    const std::string spans = args.text("--spans");
    const sim::Session session;
    const auto jobs = jobsOf(readSpecs(session, args.text("--jobs")));
    if (jobs.empty()) {
        std::cerr << "ledger_probe: empty job list\n";
        return 2;
    }
    Ledger l(session, jobs, args.text("--work"));
    std::filesystem::create_directories(l.work);
    l.out.num("jobs", double(jobs.size()));

    measureJobPath(l);
    measureDecomposition(l);
    measureKeysAndCaches(l);
    measureJobIo(l);
    if (!measureWire(l) || !measureService(l, address))
        return 2;
    measureTraceIo(l);
    measureTune(l);

    telemetry::setTraceEnabled(false);
    l.failed += !telemetry::writeTraceFile(spans);
    l.out.num("failed", double(l.failed));
    std::cout << l.out.text() << "\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string mode = argc > 1 ? argv[1] : "";
    if (mode == "calib")
        return cmdCalib();
    if (mode == "load")
        return cmdLoad(Args(argc, argv, 2));
    if (mode == "ledger")
        return cmdLedger(Args(argc, argv, 2));
    std::cerr << "usage: ledger_probe calib | load ... | ledger ...\n";
    return 2;
}
