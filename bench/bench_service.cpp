/**
 * @file
 * Simulation-service load generator: the multi-client latency and
 * saturation bench for `simulate_cli serve` (sim/server, sim/client).
 *
 * Measures, on the quick-workload Figure 13 grid:
 *  - the COLD baseline: fork/exec of a fresh process per sweep (what
 *    every CLI invocation used to pay -- process startup, registry
 *    construction, first-touch simulation of the whole grid),
 *  - the WARM service: one in-process SimServer with pre-forked
 *    persistent workers, hit by N concurrent clients, reporting
 *    per-request p50/p99 latency and aggregate jobs/sec per client
 *    count,
 *  - a correctness judge: the client-side batch must serialize to
 *    byte-identical JSON as a local Session::runBatch of the same
 *    grid, and a repeated sweep must report zero simulations
 *    performed by the server (the whole point of staying warm).
 *
 * Results merge into the BENCH_replay.json trajectory as a "service"
 * row family inside the same-commit entry (bench/trajectory.hpp), so
 * one file carries the full perf story per PR.  With --min-speedup X
 * the run exits non-zero unless the warm service beats the cold
 * baseline by at least X at >= 4 concurrent clients.
 *
 * Usage: bench_service [--smoke] [--out FILE] [--commit KEY]
 *        [--iters N] [--service-workers K] [--min-speedup X]
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "sim/client.hpp"
#include "sim/request.hpp"
#include "sim/result.hpp"
#include "sim/server.hpp"
#include "sim/session.hpp"

#include "trajectory.hpp"

namespace {

using namespace vegeta;
using bench::Clock;
using bench::seconds;

/** The grid every measurement (and the cold re-entry) runs. */
std::vector<sim::SimulationRequest>
serviceGrid(const sim::Session &session, bool smoke)
{
    const std::vector<std::string> workloads =
        smoke ? std::vector<std::string>{"quick-small"}
              : std::vector<std::string>{"quick-small", "quick-square",
                                         "quick-deep"};
    const std::vector<std::string> engines = {
        "VEGETA-D-1-2", "VEGETA-S-1-2", "VEGETA-S-16-2"};
    return sim::figure13Grid(session, workloads, engines);
}

/** Hidden re-entry: one full cold sweep in this fresh process. */
int
coldRunMain(bool smoke)
{
    sim::Session session;
    session.enableCache();
    const auto grid = serviceGrid(session, smoke);
    const auto results = session.runBatch(grid);
    // Fold the results into an exit condition so the sweep cannot be
    // optimized away and a broken run cannot pass silently.
    u64 uops = 0;
    for (const auto &result : results)
        uops += result.instructions;
    return uops > 0 ? 0 : 3;
}

/** p-th percentile of a sorted sample (nearest-rank). */
double
percentile(const std::vector<double> &sorted, double p)
{
    if (sorted.empty())
        return 0;
    const auto rank = static_cast<std::size_t>(
        p / 100.0 * static_cast<double>(sorted.size()));
    return sorted[std::min(rank, sorted.size() - 1)];
}

struct WarmPoint
{
    u32 clients = 0;
    double p50Ms = 0;
    double p99Ms = 0;
    double jobsPerSec = 0;
};

} // namespace

int
main(int argc, char **argv)
{
    // Hidden cold-baseline re-entry (fork/exec'd by the measurement
    // below): run the sweep in this fresh process and exit.
    if (argc > 1 && std::string(argv[1]) == "coldrun")
        return coldRunMain(argc > 2 &&
                           std::string(argv[2]) == "--smoke");

    bool smoke = false;
    std::string out_path = "BENCH_replay.json";
    std::string commit;
    u32 iters = 0;
    u32 service_workers = 2;
    double min_speedup = 0;

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
        } else if (arg == "--commit") {
            commit = next();
        } else if (arg == "--iters") {
            const auto parsed = sim::parseU32(next());
            if (!parsed || *parsed == 0) {
                std::cerr << "bad --iters value\n";
                return 2;
            }
            iters = *parsed;
        } else if (arg == "--service-workers") {
            const auto parsed = sim::parseU32(next());
            if (!parsed) {
                std::cerr << "bad --service-workers value\n";
                return 2;
            }
            service_workers = *parsed;
        } else if (arg == "--min-speedup") {
            min_speedup = std::strtod(next(), nullptr);
        } else {
            std::cerr << "unknown argument: " << arg << "\n"
                      << "usage: bench_service [--smoke] [--out FILE] "
                         "[--commit KEY] [--iters N] "
                         "[--service-workers K] [--min-speedup X]\n";
            return 2;
        }
    }
    if (iters == 0)
        iters = smoke ? 5 : 20;

    sim::Session local;
    local.enableCache();
    const auto grid = serviceGrid(local, smoke);
    std::vector<sim::Job> jobs;
    jobs.reserve(grid.size());
    for (const auto &request : grid)
        jobs.push_back(sim::Job::simulate(request));

    // Local reference for the correctness judge: the canonical JSON
    // of the whole grid, computed in this process.
    const auto local_results = local.runBatch(grid);
    std::ostringstream local_json;
    sim::writeJson(local_json, local_results);

    // --- cold baseline: a fresh process per sweep ------------------
    char self_buf[4096];
    const ssize_t self_len =
        readlink("/proc/self/exe", self_buf, sizeof(self_buf) - 1);
    if (self_len <= 0) {
        std::cerr << "cannot resolve own executable\n";
        return 2;
    }
    const std::string self(self_buf,
                           static_cast<std::size_t>(self_len));
    const int cold_reps = smoke ? 1 : 2;
    double cold_secs = 0;
    for (int r = 0; r < cold_reps; ++r) {
        const auto t0 = Clock::now();
        const pid_t pid = fork();
        if (pid < 0) {
            std::cerr << "cannot fork cold run\n";
            return 2;
        }
        if (pid == 0) {
            if (smoke)
                execl(self.c_str(), self.c_str(), "coldrun",
                      "--smoke", static_cast<char *>(nullptr));
            else
                execl(self.c_str(), self.c_str(), "coldrun",
                      static_cast<char *>(nullptr));
            _exit(127);
        }
        int status = 0;
        waitpid(pid, &status, 0);
        if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
            std::cerr << "cold run failed\n";
            return 2;
        }
        const double secs = seconds(t0, Clock::now());
        if (cold_secs == 0 || secs < cold_secs)
            cold_secs = secs;
    }
    const double cold_jobs_per_sec = grid.size() / cold_secs;
    std::printf("cold : %zu requests, %.3fs per process invocation, "
                "%.2f jobs/s\n",
                grid.size(), cold_secs, cold_jobs_per_sec);

    // --- the warm service ------------------------------------------
    // Started BEFORE any client thread exists: SimServer pre-forks
    // its persistent workers at start(), which requires a
    // single-threaded process.
    char sock_dir[] = "/tmp/vegeta-bench-service-XXXXXX";
    if (!mkdtemp(sock_dir)) {
        std::cerr << "cannot create socket directory\n";
        return 2;
    }
    sim::ServerOptions server_options;
    server_options.socketPath = std::string(sock_dir) + "/bench.sock";
    server_options.serviceWorkers = service_workers;
    sim::SimServer server(server_options);
    std::string error;
    if (!server.start(&error)) {
        std::cerr << "cannot start server: " << error << "\n";
        return 2;
    }

    // --- correctness judge -----------------------------------------
    // One warm-up batch (populates the workers' caches), then: the
    // remote results must serialize byte-identically to the local
    // batch, and the REPEATED sweep must cost the server zero
    // simulations.
    {
        sim::ClientOptions client_options;
        client_options.address = server_options.socketPath;
        sim::SimClient judge(client_options);
        if (!judge.connect(&error)) {
            std::cerr << "judge cannot connect: " << error << "\n";
            return 2;
        }
        const auto first = judge.runBatch(jobs, &error);
        if (!first) {
            std::cerr << "judge batch failed: " << error << "\n";
            return 2;
        }
        std::vector<sim::SimulationResult> remote;
        remote.reserve(first->results.size());
        for (const auto &result : first->results)
            remote.push_back(result.simulation);
        std::ostringstream remote_json;
        sim::writeJson(remote_json, remote);
        if (remote_json.str() != local_json.str()) {
            std::cerr << "JUDGE FAIL: server results differ from "
                         "local Session::runBatch\n";
            return 1;
        }
        const auto second = judge.runBatch(jobs, &error);
        if (!second) {
            std::cerr << "judge repeat batch failed: " << error
                      << "\n";
            return 2;
        }
        if (second->simulationsPerformed != 0) {
            std::cerr << "JUDGE FAIL: repeated sweep performed "
                      << second->simulationsPerformed
                      << " simulations on a warm server\n";
            return 1;
        }
        std::printf("judge: remote JSON identical to local, repeat "
                    "sweep 0 simulated\n");
    }

    // --- multi-client latency/throughput sweep ---------------------
    const std::vector<u32> client_counts =
        smoke ? std::vector<u32>{1, 4} : std::vector<u32>{1, 2, 4, 8};
    std::vector<WarmPoint> warm_points;
    for (const u32 clients : client_counts) {
        std::vector<std::vector<double>> latencies(clients);
        std::atomic<bool> failed{false};
        std::mutex error_mutex;
        std::string thread_error;
        const auto t0 = Clock::now();
        std::vector<std::thread> threads;
        threads.reserve(clients);
        for (u32 c = 0; c < clients; ++c) {
            threads.emplace_back([&, c]() {
                sim::ClientOptions client_options;
                client_options.address = server_options.socketPath;
                sim::SimClient client(client_options);
                std::string client_error;
                if (!client.connect(&client_error)) {
                    std::lock_guard<std::mutex> lock(error_mutex);
                    thread_error = client_error;
                    failed = true;
                    return;
                }
                latencies[c].reserve(iters);
                for (u32 it = 0; it < iters && !failed; ++it) {
                    const auto r0 = Clock::now();
                    const auto run =
                        client.runBatch(jobs, &client_error);
                    const auto r1 = Clock::now();
                    if (!run || run->simulationsPerformed != 0) {
                        std::lock_guard<std::mutex> lock(error_mutex);
                        thread_error =
                            run ? "warm request re-simulated"
                                : client_error;
                        failed = true;
                        return;
                    }
                    latencies[c].push_back(seconds(r0, r1) * 1e3);
                }
            });
        }
        for (auto &thread : threads)
            thread.join();
        const double wall = seconds(t0, Clock::now());
        if (failed) {
            std::cerr << "client thread failed: " << thread_error
                      << "\n";
            return 2;
        }
        std::vector<double> all;
        for (const auto &per_client : latencies)
            all.insert(all.end(), per_client.begin(),
                       per_client.end());
        std::sort(all.begin(), all.end());
        WarmPoint point;
        point.clients = clients;
        point.p50Ms = percentile(all, 50);
        point.p99Ms = percentile(all, 99);
        point.jobsPerSec = static_cast<double>(clients) * iters *
                           grid.size() / wall;
        warm_points.push_back(point);
        std::printf("warm : %u client%s x %u iters, p50 %.2f ms, "
                    "p99 %.2f ms, %.0f jobs/s\n",
                    clients, clients == 1 ? " " : "s", iters,
                    point.p50Ms, point.p99Ms, point.jobsPerSec);
    }

    const auto stats = server.stats();
    server.stop();
    std::error_code ec_ignored;
    std::filesystem::remove_all(sock_dir, ec_ignored);

    // Saturation speedup at >= 4 concurrent clients vs the cold
    // per-process baseline -- the number the acceptance gate reads.
    double warm_at_4 = 0;
    for (const auto &point : warm_points)
        if (point.clients >= 4 && point.jobsPerSec > warm_at_4)
            warm_at_4 = point.jobsPerSec;
    const double speedup =
        cold_jobs_per_sec > 0 ? warm_at_4 / cold_jobs_per_sec : 0;
    std::printf("speedup: warm service at >=4 clients is %.1fx the "
                "cold per-process baseline (server performed %llu "
                "simulations total)\n",
                speedup,
                static_cast<unsigned long long>(
                    stats.simulationsPerformed));

    // --- merge the "service" row family into the trajectory --------
    if (commit.empty())
        commit = bench::gitShortHead();
    std::ostringstream service;
    service << "{\"requests\": " << grid.size()
            << ", \"service_workers\": " << service_workers
            << ", \"iters\": " << iters
            << ", \"cold_seconds_per_invocation\": " << cold_secs
            << ", \"cold_jobs_per_sec\": " << cold_jobs_per_sec
            << ", \"warm\": [";
    for (std::size_t i = 0; i < warm_points.size(); ++i)
        service << (i ? ", " : "") << "{\"clients\": "
                << warm_points[i].clients
                << ", \"p50_ms\": " << warm_points[i].p50Ms
                << ", \"p99_ms\": " << warm_points[i].p99Ms
                << ", \"jobs_per_sec\": " << warm_points[i].jobsPerSec
                << "}";
    service << "], \"speedup_vs_cold_at_4_clients\": " << speedup
            << "}";

    std::string entry;
    for (const auto &old :
         bench::trajectoryEntries(bench::readFileText(out_path)))
        if (bench::entryCommit(old) == commit)
            entry = old;
    if (entry.empty())
        entry = "{\"commit\": \"" + commit + "\", \"mode\": \"" +
                (smoke ? "smoke" : "full") + "\"}";
    entry = bench::upsertEntryField(entry, "service", service.str(),
                                    /*owned=*/true, nullptr);
    std::size_t total_entries = 0;
    if (!bench::mergeTrajectoryEntry(out_path, commit, entry,
                                     &total_entries)) {
        std::cerr << "cannot write " << out_path << "\n";
        return 2;
    }
    std::printf("wrote %s (%zu entries)\n", out_path.c_str(),
                total_entries);

    if (min_speedup > 0 && speedup < min_speedup) {
        std::cerr << "FAIL: warm service speedup " << speedup
                  << "x is below the required " << min_speedup
                  << "x\n";
        return 1;
    }
    return 0;
}
