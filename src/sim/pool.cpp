#include "sim/pool.hpp"

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <map>
#include <thread>
#include <unordered_map>

#include "sim/job_io.hpp"
#include "sim/session.hpp"
#include "sim/telemetry.hpp"

namespace vegeta::sim {

namespace {

namespace fs = std::filesystem;

struct Shard
{
    std::vector<Job> jobs;
    std::vector<std::string> keys;
    std::string jobFile;
    std::string resultFile;
    pid_t pid = -1;
};

/** mkdtemp under the system temp dir ("" on failure). */
std::string
freshWorkDir()
{
    std::error_code ec;
    fs::path base = fs::temp_directory_path(ec);
    if (ec)
        base = "/tmp";
    std::string pattern =
        (base / "vegeta-pool-XXXXXX").string();
    if (!mkdtemp(pattern.data()))
        return "";
    return pattern;
}

/** fork/exec one worker; returns the pid (or -1). */
pid_t
spawnWorker(const std::vector<std::string> &command)
{
    std::vector<char *> argv;
    argv.reserve(command.size() + 1);
    for (const auto &arg : command)
        argv.push_back(const_cast<char *>(arg.c_str()));
    argv.push_back(nullptr);

    const pid_t pid = fork();
    if (pid < 0)
        return -1;
    if (pid == 0) {
        execv(argv[0], argv.data());
        // exec failed: report on the inherited stderr and die with
        // the shell's "command not found" convention.
        std::cerr << "vegeta pool worker: cannot exec " << command[0]
                  << ": " << std::strerror(errno) << "\n";
        _exit(127);
    }
    return pid;
}

} // namespace

std::string
currentExecutablePath()
{
    char buf[4096];
    const ssize_t len = readlink("/proc/self/exe", buf,
                                 sizeof(buf) - 1);
    if (len <= 0)
        return "";
    buf[len] = '\0';
    return buf;
}

u32
defaultPoolCrossoverJobs()
{
    // Re-read off the committed BENCH_replay trajectory (entry
    // "pr7-lane-replay"): its pool_crossover_measured_jobs row is 0,
    // meaning the bench's probe over 2..16 unique jobs never found a
    // batch size where the process pool beat the in-process fallback
    // (fork/exec plus shard-file costs dominate every probed size),
    // and its pool_crossover_unique_jobs row records 128 as the
    // default that was in effect.  With no measured win below the
    // probe ceiling, the crossover stays at 128 -- the low-hundreds
    // scale where per-worker setup provably amortizes -- and is
    // conservative on purpose: the in-process fallback is never
    // slower on batches this size, and both paths are bit-identical.
    return 128;
}

ProcessPool::ProcessPool(PoolOptions options)
    : options_(std::move(options))
{
}

PoolRun
ProcessPool::run(const Session &session,
                 const std::vector<Job> &jobs) const
{
    PoolRun out;
    telemetry::Span run_span("pool.run", jobs.size());
    auto fail = [&](const std::string &reason) {
        out.ok = false;
        out.results.clear();
        out.error = reason;
        return out;
    };

    if (options_.workers == 0)
        return fail("pool needs at least one worker");

    out.results.resize(jobs.size());
    if (jobs.empty()) {
        out.ok = true;
        return out;
    }

    // Validate up front: a bad job is the caller's bug, not a worker
    // failure, and must be reported before any process spawns.
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        if (const auto error = session.jobError(jobs[i]))
            return fail("job " + std::to_string(i) + ": " + *error);
    }

    // Dedupe by canonical key (first occurrence carries the job),
    // then shard the SORTED key set round-robin: the assignment is a
    // pure function of the batch contents, independent of argument
    // order, timing, or worker count.  Keys are serialized once per
    // job and reused by the merge below.
    std::vector<std::string> keys;
    keys.reserve(jobs.size());
    std::map<std::string, std::size_t> unique; // sorted by key
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        keys.push_back(jobKey(jobs[i]));
        unique.emplace(keys.back(), i);
    }
    out.stats.uniqueJobs = unique.size();

    // Batch-size planner: small batches skip the process pool
    // entirely.  A fresh builtin Session with the same caches the
    // workers would attach keeps the result (and the cache file)
    // bit-identical to the sharded path.
    const u32 min_pooled = options_.minPooledJobs == 0
                               ? defaultPoolCrossoverJobs()
                               : options_.minPooledJobs;
    if (unique.size() < min_pooled) {
        static const telemetry::MetricId fallback_id =
            telemetry::counterId("pool.fallback");
        telemetry::add(fallback_id, 1);
        Session local;
        local.enableCache();
        if (!options_.cacheDir.empty()) {
            const auto disk =
                local.attachDiskCache(options_.cacheDir);
            if (!disk->ok())
                return fail("cannot open cache dir: " +
                            options_.cacheDir);
        }
        out.results = local.runBatch(jobs, options_.threadsPerWorker);
        out.stats.simulationsPerformed = local.simulationsPerformed();
        out.stats.analysesPerformed = local.analysesPerformed();
        out.stats.usedProcessPool = false;
        out.ok = true;
        return out;
    }

    const u32 workers = std::min<u32>(
        options_.workers, static_cast<u32>(unique.size()));

    std::vector<std::string> command = options_.workerCommand;
    if (command.empty()) {
        const std::string self = currentExecutablePath();
        if (self.empty())
            return fail("cannot resolve own executable for workers");
        command = {self, "worker"};
    }

    std::string work_dir = options_.workDir;
    bool own_work_dir = false;
    if (work_dir.empty()) {
        work_dir = freshWorkDir();
        own_work_dir = true;
        if (work_dir.empty())
            return fail("cannot create pool work directory");
    } else {
        std::error_code ec;
        fs::create_directories(work_dir, ec);
        if (ec || !fs::is_directory(work_dir))
            return fail("cannot create pool work directory: " +
                        work_dir);
    }
    // Deal the sorted keys round-robin into shards.
    std::vector<Shard> shards(workers);
    auto cleanup = [&]() {
        if (options_.keepFiles)
            return;
        std::error_code ec;
        if (own_work_dir) {
            fs::remove_all(work_dir, ec);
            return;
        }
        for (const auto &shard : shards) {
            fs::remove(shard.jobFile, ec);
            fs::remove(shard.resultFile, ec);
        }
    };
    {
        u32 next = 0;
        for (const auto &[key, index] : unique) {
            shards[next].keys.push_back(key);
            shards[next].jobs.push_back(jobs[index]);
            next = (next + 1) % workers;
        }
    }

    static const telemetry::MetricId shards_id =
        telemetry::counterId("pool.shards");
    telemetry::add(shards_id, workers);

    // Write every shard file before spawning anything: a write
    // failure must not leave half a pool running.
    {
        telemetry::Span write_span("pool.shard.write", workers);
        for (u32 w = 0; w < workers; ++w) {
            const fs::path base = fs::path(work_dir);
            shards[w].jobFile =
                (base / ("shard-" + std::to_string(w) + ".jobs"))
                    .string();
            shards[w].resultFile =
                (base / ("shard-" + std::to_string(w) + ".results"))
                    .string();
            if (!writeJobFile(shards[w].jobFile, shards[w].jobs)) {
                cleanup();
                return fail("cannot write shard file: " +
                            shards[w].jobFile);
            }
        }
    }

    // Default worker thread count divides the machine instead of
    // letting every worker claim all of it (N workers x hardware
    // threads would oversubscribe the CPU N-fold).
    u32 worker_threads = options_.threadsPerWorker;
    if (worker_threads == 0) {
        const unsigned hw = std::thread::hardware_concurrency();
        worker_threads = std::max(1u, static_cast<u32>(hw) / workers);
    }

    telemetry::Span spawn_span("pool.spawn", workers);
    for (u32 w = 0; w < workers; ++w) {
        std::vector<std::string> argv = command;
        argv.insert(argv.end(), {"--jobs", shards[w].jobFile, "--out",
                                 shards[w].resultFile});
        if (!options_.cacheDir.empty())
            argv.insert(argv.end(),
                        {"--cache-dir", options_.cacheDir});
        argv.insert(argv.end(),
                    {"--threads", std::to_string(worker_threads)});
        shards[w].pid = spawnWorker(argv);
        if (shards[w].pid < 0) {
            // Reap whatever already started before reporting.
            for (u32 prev = 0; prev < w; ++prev) {
                int status = 0;
                waitpid(shards[prev].pid, &status, 0);
            }
            cleanup();
            return fail("cannot fork worker " + std::to_string(w));
        }
    }
    out.stats.workersSpawned = workers;
    spawn_span.close();

    // Collect every worker before judging any: no zombie is left
    // behind even when an early worker failed.  The wait span covers
    // the full worker lifetime as the parent sees it: every shard's
    // fork -> load -> replay -> encode happens inside it, and the
    // worker-side phase timers ride back in the shard files.
    telemetry::Span wait_span("pool.shard.wait", workers);
    std::string worker_error;
    for (u32 w = 0; w < workers; ++w) {
        int status = 0;
        if (waitpid(shards[w].pid, &status, 0) < 0) {
            if (worker_error.empty())
                worker_error =
                    "worker " + std::to_string(w) + ": wait failed";
            continue;
        }
        if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
            if (worker_error.empty())
                worker_error =
                    "worker " + std::to_string(w) +
                    " failed (exit status " +
                    std::to_string(WIFEXITED(status)
                                       ? WEXITSTATUS(status)
                                       : -1) +
                    ")";
        }
    }
    wait_span.close();
    if (!worker_error.empty()) {
        cleanup();
        return fail(worker_error);
    }

    // Merge: every shard key must come back exactly once; the output
    // vector is filled in original batch order through the dedupe
    // map, so the merge is bit-for-bit the single-process answer.
    telemetry::Span merge_span("pool.merge", workers);
    std::unordered_map<std::string, JobResult> by_key;
    by_key.reserve(unique.size());
    for (u32 w = 0; w < workers; ++w) {
        std::string error;
        auto output = readResultFile(shards[w].resultFile, &error);
        if (!output) {
            cleanup();
            return fail("worker " + std::to_string(w) + ": " + error);
        }
        out.stats.simulationsPerformed += output->simulationsPerformed;
        out.stats.analysesPerformed += output->analysesPerformed;
        // Fold each worker's cumulative snapshot into this process so
        // a post-run metrics report covers the whole pool.  Workers
        // are fresh processes, so one absorb per shard never double
        // counts.
        telemetry::absorb(output->metrics);
        for (auto &[key, result] : output->results) {
            if (!by_key.emplace(key, std::move(result)).second) {
                cleanup();
                return fail("worker " + std::to_string(w) +
                            ": duplicate result key");
            }
        }
        for (const auto &key : shards[w].keys) {
            if (!by_key.count(key)) {
                cleanup();
                return fail("worker " + std::to_string(w) +
                            ": missing result for a shard job");
            }
        }
    }
    cleanup();

    for (std::size_t i = 0; i < jobs.size(); ++i)
        out.results[i] = by_key.find(keys[i])->second;
    out.ok = true;
    return out;
}

int
poolWorkerMain(const std::vector<std::string> &args)
{
    std::string jobs_path, out_path, cache_dir;
    u32 threads = 0;

    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &arg = args[i];
        auto value = [&]() -> const std::string * {
            if (i + 1 >= args.size()) {
                std::cerr << "pool worker: " << arg
                          << " needs a value\n";
                return nullptr;
            }
            return &args[++i];
        };
        if (arg == "--jobs") {
            const auto *v = value();
            if (!v)
                return 2;
            jobs_path = *v;
        } else if (arg == "--out") {
            const auto *v = value();
            if (!v)
                return 2;
            out_path = *v;
        } else if (arg == "--cache-dir") {
            const auto *v = value();
            if (!v)
                return 2;
            cache_dir = *v;
        } else if (arg == "--threads") {
            const auto *v = value();
            if (!v)
                return 2;
            const auto parsed = parseU32(*v);
            if (!parsed) {
                std::cerr << "pool worker: bad --threads value '"
                          << *v << "'\n";
                return 2;
            }
            threads = *parsed;
        } else {
            std::cerr << "pool worker: unknown option " << arg << "\n";
            return 2;
        }
    }
    if (jobs_path.empty() || out_path.empty()) {
        std::cerr << "pool worker: --jobs and --out are required\n";
        return 2;
    }

    static const telemetry::MetricId load_timer =
        telemetry::timerId("worker.load");
    static const telemetry::MetricId replay_timer =
        telemetry::timerId("worker.replay");
    static const telemetry::MetricId encode_timer =
        telemetry::timerId("worker.encode");

    std::string error;
    const u64 load_start = telemetry::nowNs();
    const auto jobs = readJobFile(jobs_path, &error);
    if (!jobs) {
        std::cerr << "pool worker: " << error << "\n";
        return 3;
    }
    telemetry::recordNs(load_timer,
                        telemetry::nowNs() - load_start);

    Session session;
    session.enableCache();
    if (!cache_dir.empty()) {
        const auto disk = session.attachDiskCache(cache_dir);
        if (!disk->ok()) {
            std::cerr << "pool worker: cannot open cache dir: "
                      << cache_dir << "\n";
            return 4;
        }
    }
    for (const auto &job : *jobs) {
        if (const auto job_error = session.jobError(job)) {
            std::cerr << "pool worker: bad job: " << *job_error
                      << "\n";
            return 5;
        }
    }

    const u64 replay_start = telemetry::nowNs();
    const auto results = session.runBatch(*jobs, threads);
    telemetry::recordNs(replay_timer,
                        telemetry::nowNs() - replay_start);

    WorkerOutput output;
    output.results.reserve(results.size());
    for (std::size_t i = 0; i < results.size(); ++i)
        output.results.emplace_back(jobKey((*jobs)[i]), results[i]);
    output.simulationsPerformed = session.simulationsPerformed();
    output.analysesPerformed = session.analysesPerformed();
#ifndef VEGETA_NO_TELEMETRY
    // Sample the encode cost on a dry run first, so the snapshot
    // shipped in the file covers every worker phase (load, replay,
    // encode); the real write below re-encodes with metrics attached.
    {
        const u64 encode_start = telemetry::nowNs();
        const std::string probe = encodeWorkerOutput(output);
        telemetry::recordNs(encode_timer,
                            telemetry::nowNs() - encode_start);
    }
    output.metrics = telemetry::snapshot().metrics;
#else
    (void)encode_timer;
#endif
    if (!writeResultFile(out_path, output)) {
        std::cerr << "pool worker: cannot write " << out_path << "\n";
        return 6;
    }
    return 0;
}

} // namespace vegeta::sim
