#include "sim/workers.hpp"

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <iostream>
#include <map>
#include <numeric>
#include <thread>

#include "sim/session.hpp"
#include "sim/wire.hpp"

namespace vegeta::sim {

namespace {

void
closeFd(int &fd)
{
    if (fd >= 0) {
        ::close(fd);
        fd = -1;
    }
}

/**
 * The worker half: a fresh builtin Session with the in-memory cache
 * (and @p cache_dir when non-empty), looping on `batch` frames from
 * @p in_fd and answering one `results` or `error` frame per batch on
 * @p out_fd until EOF or a `bye` frame.  Returns a process exit code.
 */
int
serviceWorkerLoop(int in_fd, int out_fd, const std::string &cache_dir,
                  u32 threads)
{
    Session session;
    session.enableCache();
    if (!cache_dir.empty()) {
        const auto disk = session.attachDiskCache(cache_dir);
        if (!disk->ok()) {
            std::cerr << "service worker: cannot open cache dir: "
                      << cache_dir << "\n";
            return 4;
        }
    }

    for (;;) {
        wire::Frame frame;
        std::string error;
        bool clean_eof = false;
        if (!wire::readFrame(in_fd, &frame, -1, &error,
                             &clean_eof)) {
            if (clean_eof)
                return 0; // parent closed the feed: clean shutdown
            std::cerr << "service worker: " << error << "\n";
            return 3;
        }
        if (frame.type == wire::FrameType::Bye)
            return 0;
        if (frame.type != wire::FrameType::Batch) {
            std::cerr << "service worker: unexpected frame\n";
            return 3;
        }
        auto jobs = decodeJobBatch(frame.payload, &error);
        bool bad_job = false;
        if (jobs) {
            for (const auto &job : *jobs) {
                if (const auto reason = session.jobError(job)) {
                    error = "bad job: " + *reason;
                    bad_job = true;
                    break;
                }
            }
        }
        if (!jobs || bad_job) {
            // One frame in, one frame out: the pipe stays aligned
            // even for a rejected batch.
            if (!wire::writeFrame(out_fd, wire::FrameType::Error,
                                  error, &error))
                return 3;
            continue;
        }

        const u64 sims0 = session.simulationsPerformed();
        const u64 anas0 = session.analysesPerformed();
        const auto results = session.runBatch(*jobs, threads);

        WorkerOutput output;
        output.results.reserve(results.size());
        for (std::size_t i = 0; i < results.size(); ++i)
            output.results.emplace_back(jobKey((*jobs)[i]),
                                        results[i]);
        output.simulationsPerformed =
            session.simulationsPerformed() - sims0;
        output.analysesPerformed =
            session.analysesPerformed() - anas0;
        // Cumulative whole-process snapshot on EVERY frame: the
        // parent keeps only the latest copy per worker, so this is
        // idempotent, never double counted.
        output.metrics = telemetry::snapshot().metrics;
        if (!wire::writeFrame(out_fd, wire::FrameType::Results,
                              encodeWorkerOutput(output), &error)) {
            std::cerr << "service worker: " << error << "\n";
            return 3;
        }
    }
}

} // namespace

WorkerSet::~WorkerSet()
{
    stop();
}

bool
WorkerSet::start(u32 count, const std::string &cache_dir, u32 threads,
                 std::string *error)
{
    auto fail = [&](const std::string &reason) {
        stop();
        if (error)
            *error = reason;
        return false;
    };
    if (count == 0)
        return fail("at least one worker is required");
    if (threads == 0) {
        // Divide the machine instead of letting every worker claim
        // all of it (count-fold oversubscription).
        const unsigned hw = std::thread::hardware_concurrency();
        threads = std::max(1u, static_cast<u32>(hw) / count);
    }
    ::signal(SIGPIPE, SIG_IGN);

    for (u32 w = 0; w < count; ++w) {
        int to_child[2], to_parent[2];
        if (::pipe(to_child) != 0)
            return fail("cannot create worker pipes");
        if (::pipe(to_parent) != 0) {
            ::close(to_child[0]);
            ::close(to_child[1]);
            return fail("cannot create worker pipes");
        }
        const pid_t pid = ::fork();
        if (pid == 0) {
            // Child: keep only this worker's two pipe ends, count
            // only its own work in the snapshots it ships back, and
            // record no spans (they would never leave the process).
            ::close(to_child[1]);
            ::close(to_parent[0]);
            for (auto &other : workers_) {
                ::close(other.inFd);
                ::close(other.outFd);
            }
            telemetry::resetMetrics();
            telemetry::setTraceEnabled(false);
            ::_exit(serviceWorkerLoop(to_child[0], to_parent[1],
                                      cache_dir, threads));
        }
        ::close(to_child[0]);
        ::close(to_parent[1]);
        if (pid < 0) {
            ::close(to_child[1]);
            ::close(to_parent[0]);
            return fail("cannot fork worker");
        }
        workers_.push_back({to_child[1], to_parent[0]});
        std::lock_guard<std::mutex> lock(statusMutex_);
        status_.push_back({pid, true, 0, {}});
    }
    return true;
}

void
WorkerSet::stop()
{
    // EOF on the feed pipe is a worker's shutdown signal; reap every
    // child so no zombie or orphan outlives the set.
    for (auto &worker : workers_) {
        closeFd(worker.inFd);
        closeFd(worker.outFd);
    }
    std::lock_guard<std::mutex> lock(statusMutex_);
    for (auto &worker : status_) {
        if (worker.alive) {
            ::waitpid(worker.pid, nullptr, 0);
            worker.alive = false;
        }
    }
}

void
WorkerSet::drop(std::size_t w)
{
    {
        std::lock_guard<std::mutex> lock(statusMutex_);
        ::kill(status_[w].pid, SIGKILL);
        ::waitpid(status_[w].pid, nullptr, 0);
        status_[w].alive = false;
    }
    closeFd(workers_[w].inFd);
    closeFd(workers_[w].outFd);
}

std::optional<WorkerOutput>
WorkerSet::run(const std::vector<Job> &jobs, std::string *error)
{
    auto fail = [&](const std::string &reason) {
        if (error)
            *error = reason;
        return std::nullopt;
    };

    // Dedupe by canonical key (the first occurrence carries the job).
    // The output is pre-filled in sorted key order, and the deal
    // below walks that order, so which worker answers which key is a
    // pure function of the batch and the live worker count.
    std::map<std::string, std::size_t> unique;
    for (std::size_t i = 0; i < jobs.size(); ++i)
        unique.emplace(jobKey(jobs[i]), i);
    WorkerOutput output;
    output.results.reserve(unique.size());
    std::vector<std::size_t> first_job;
    first_job.reserve(unique.size());
    for (const auto &[key, index] : unique) {
        output.results.emplace_back(key, JobResult{});
        first_job.push_back(index);
    }

    std::vector<std::size_t> pending(unique.size()); // output slots
    std::iota(pending.begin(), pending.end(), 0);
    while (!pending.empty()) {
        std::vector<std::size_t> live;
        {
            std::lock_guard<std::mutex> lock(statusMutex_);
            for (std::size_t w = 0; w < status_.size(); ++w)
                if (status_[w].alive)
                    live.push_back(w);
        }
        if (live.empty())
            return fail("no live workers");

        const std::size_t used = std::min(live.size(), pending.size());
        std::vector<std::vector<std::size_t>> slots(used);
        for (std::size_t i = 0; i < pending.size(); ++i)
            slots[i % used].push_back(pending[i]);
        pending.clear();

        // Write every frame, then read every sent worker's reply, and
        // only then judge: a reply left unread would be misread as
        // the next batch's.
        std::vector<bool> sent(used);
        std::vector<std::string> reasons(used);
        for (std::size_t s = 0; s < used; ++s) {
            std::vector<Job> slice;
            slice.reserve(slots[s].size());
            for (const std::size_t u : slots[s])
                slice.push_back(jobs[first_job[u]]);
            sent[s] = wire::writeFrame(workers_[live[s]].inFd,
                                       wire::FrameType::Batch,
                                       encodeJobBatch(slice),
                                       &reasons[s]);
        }
        std::string rejected;
        for (std::size_t s = 0; s < used; ++s) {
            const std::size_t w = live[s];
            std::string &reason = reasons[s];
            wire::Frame frame;
            std::optional<WorkerOutput> reply;
            if (sent[s] &&
                wire::readFrame(workers_[w].outFd, &frame, -1,
                                &reason)) {
                if (frame.type == wire::FrameType::Error) {
                    // A rejected slice: the worker answered in step
                    // and stays in service.
                    if (rejected.empty())
                        rejected = "worker " + std::to_string(w) +
                                   ": " + frame.payload;
                    continue;
                }
                if (frame.type == wire::FrameType::Results)
                    reply = decodeWorkerOutput(frame.payload, &reason);
                else
                    reason = "unexpected frame";
            }
            // A worker answers its slice in order, key for key.
            bool answered =
                reply && reply->results.size() == slots[s].size();
            for (std::size_t i = 0; answered && i < slots[s].size();
                 ++i)
                answered = reply->results[i].first ==
                           output.results[slots[s][i]].first;
            if (!answered) {
                if (reply)
                    reason = "reply does not match its batch";
                std::cerr << "worker " << w << " dropped: " << reason
                          << "\n";
                drop(w);
                pending.insert(pending.end(), slots[s].begin(),
                               slots[s].end());
                continue;
            }
            for (std::size_t i = 0; i < slots[s].size(); ++i)
                output.results[slots[s][i]].second =
                    std::move(reply->results[i].second);
            output.simulationsPerformed += reply->simulationsPerformed;
            output.analysesPerformed += reply->analysesPerformed;
            // Each reply carries the worker's whole cumulative
            // snapshot: keep the latest, never add them up.
            std::lock_guard<std::mutex> lock(statusMutex_);
            status_[w].jobs += slots[s].size();
            status_[w].metrics = std::move(reply->metrics);
        }
        if (!rejected.empty())
            return fail(rejected);
        // Any dropped worker's keys are dealt again, over the rest.
        std::sort(pending.begin(), pending.end());
    }
    return output;
}

std::vector<WorkerStatus>
WorkerSet::status() const
{
    std::lock_guard<std::mutex> lock(statusMutex_);
    return status_;
}

} // namespace vegeta::sim
