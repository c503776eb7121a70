/**
 * @file
 * End-to-end simulation-service tests: a real SimServer on an
 * ephemeral socket, real SimClient connections, and the contract that
 * matters -- remote batches are bit-for-bit identical to a local
 * Session::runBatch, a warm server answers repeats with zero
 * simulations, version mismatches and bad jobs fail cleanly without
 * killing the connection, concurrent clients all get correct results
 * (in-process and pre-forked worker modes alike), and a killed worker
 * costs the daemon nothing but that worker.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "expect_identical.hpp"
#include "sim/client.hpp"
#include "sim/server.hpp"
#include "sim/session.hpp"
#include "sim/telemetry.hpp"
#include "sim/tune.hpp"
#include "sim/wire.hpp"

namespace vegeta::sim {
namespace {

namespace fs = std::filesystem;

std::string
freshSocketDir(const std::string &name)
{
    const fs::path dir =
        fs::path(::testing::TempDir()) / "vegeta_service" / name;
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir.string();
}

SimulationRequest
quickRequest(u32 k, const std::string &engine, u32 pattern)
{
    SimulationRequest request;
    request.gemm = {32, 32, k};
    request.engine = engine;
    request.patternN = pattern;
    return request;
}

/** A small mixed batch, including an intra-batch duplicate. */
std::vector<Job>
mixedBatch()
{
    std::vector<Job> jobs;
    jobs.push_back(Job::simulate(quickRequest(64, "VEGETA-D-1-2", 4)));
    jobs.push_back(Job::simulate(quickRequest(64, "VEGETA-S-1-2", 2)));
    jobs.push_back(Job::simulate(quickRequest(64, "VEGETA-D-1-2", 4)));
    AnalyticalRequest analysis;
    analysis.model = "fig3-roofline";
    jobs.push_back(Job::analyze(std::move(analysis)));
    return jobs;
}

struct ServerFixture
{
    ServerOptions options;
    std::unique_ptr<SimServer> server;
    std::string dir;

    explicit ServerFixture(const std::string &name, u32 workers = 0)
    {
        dir = freshSocketDir(name);
        options.socketPath = dir + "/sim.sock";
        options.serviceWorkers = workers;
        options.threads = 2;
        // Analytical results persist through the disk cache (the
        // in-memory cache covers simulations), so a server that
        // promises zero-work warm repeats for BOTH job kinds needs
        // a cache dir.
        options.cacheDir = dir + "/cache";
        server = std::make_unique<SimServer>(options);
        std::string error;
        EXPECT_TRUE(server->start(&error)) << error;
    }

    SimClient client() const
    {
        ClientOptions client_options;
        client_options.address = options.socketPath;
        return SimClient(client_options);
    }
};

void
expectRemoteMatchesLocal(u32 workers, const char *name)
{
    ServerFixture fixture(name, workers);
    const auto jobs = mixedBatch();

    Session local;
    local.enableCache();
    const auto expected = local.runBatch(jobs, 2);

    auto client = fixture.client();
    std::string error;
    ASSERT_TRUE(client.connect(&error)) << error;

    const auto first = client.runBatch(jobs, &error);
    ASSERT_TRUE(first.has_value()) << error;
    expectIdenticalBatches(first->results, expected);
    EXPECT_GT(first->simulationsPerformed, 0u);
    EXPECT_GT(first->analysesPerformed, 0u);

    // Warm repeat: same bits, zero work performed by the server.
    const auto second = client.runBatch(jobs, &error);
    ASSERT_TRUE(second.has_value()) << error;
    expectIdenticalBatches(second->results, expected);
    EXPECT_EQ(second->simulationsPerformed, 0u);
    EXPECT_EQ(second->analysesPerformed, 0u);

    const auto stats = fixture.server->stats();
    EXPECT_EQ(stats.connections, 1u);
    EXPECT_EQ(stats.batches, 2u);
    EXPECT_EQ(stats.jobs, 2 * jobs.size());
    fixture.server->stop();
    EXPECT_FALSE(fixture.server->running());
}

TEST(Service, InProcessBatchIdenticalToLocalRunBatch)
{
    expectRemoteMatchesLocal(0, "inproc");
}

TEST(Service, WorkerModeBatchIdenticalToLocalRunBatch)
{
    expectRemoteMatchesLocal(2, "workers");
}

TEST(Service, BatchIdenticalToLocalWithTracingEnabled)
{
    // Byte-identity must survive armed span recording (--trace-out):
    // both execution modes, full warm-repeat contract included.
    telemetry::setTraceEnabled(true);
    telemetry::clearTrace();
    expectRemoteMatchesLocal(0, "traced-inproc");
    expectRemoteMatchesLocal(2, "traced-workers");
    telemetry::setTraceEnabled(false);
    EXPECT_GT(telemetry::traceSpanCount("service.dispatch"), 0u)
        << "an armed service run must record dispatch spans";
    telemetry::clearTrace();
}

TEST(Service, TunerConfirmsOnOneConnection)
{
    // Budget 4 replays in two rounds; both go over one connection,
    // and the report credits every replay to the server.
    ServerFixture fixture("tuneonce");
    Session session;
    TuneOptions options;
    options.budget.replays = 4;
    options.connectAddress = fixture.options.socketPath;
    const TuneReport report =
        Tuner(session, options)
            .run(TuneSpace::full(session, {"quick-small"}));
    EXPECT_EQ(report.replayedPoints, 4u);
    EXPECT_EQ(report.serverReplays, 4u);
    EXPECT_EQ(fixture.server->stats().connections, 1u);
}

TEST(Service, StatsFrameReportsLiveState)
{
    ServerFixture fixture("statsframe");
    const auto jobs = mixedBatch();
    auto client = fixture.client();
    std::string error;
    ASSERT_TRUE(client.connect(&error)) << error;
    ASSERT_TRUE(client.runBatch(jobs, &error).has_value()) << error;

    const auto stats = client.fetchStats(&error);
    ASSERT_TRUE(stats.has_value()) << error;
    // One batch of four jobs from one live connection; the document
    // must carry every advertised section.
    EXPECT_NE(stats->find("\"batches\": 1"), std::string::npos)
        << *stats;
    EXPECT_NE(stats->find("\"jobs\": 4"), std::string::npos)
        << *stats;
    for (const char *key :
         {"\"uptime_s\"", "\"queue_depths\"", "\"jobs_per_s\"",
          "\"latency_ms\"", "\"dispatch\"", "\"queue_wait\"",
          "\"p50\"", "\"p99\"", "\"cache\"", "\"hit_rate\"",
          "\"workers\""})
        EXPECT_NE(stats->find(key), std::string::npos)
            << "missing " << key << " in:\n"
            << *stats;

    // The connection stays usable after a stats exchange.
    ASSERT_TRUE(client.runBatch(jobs, &error).has_value()) << error;
    fixture.server->stop();
}

TEST(Service, StatsFrameCountsPerWorkerJobs)
{
    ServerFixture fixture("statsworkers", 2);
    const auto jobs = mixedBatch();
    auto client = fixture.client();
    std::string error;
    ASSERT_TRUE(client.connect(&error)) << error;
    ASSERT_TRUE(client.runBatch(jobs, &error).has_value()) << error;

    const auto stats = client.fetchStats(&error);
    ASSERT_TRUE(stats.has_value()) << error;
    EXPECT_NE(stats->find("\"workers\": {\"count\": 2"),
              std::string::npos)
        << *stats;
    EXPECT_NE(stats->find("\"per_worker\": [{\"pid\": "),
              std::string::npos)
        << *stats;
    EXPECT_NE(stats->find("\"alive\": true"), std::string::npos);
    EXPECT_EQ(stats->find("\"alive\": false"), std::string::npos);
    fixture.server->stop();
}

TEST(Service, KilledWorkerCostsOnlyThatWorker)
{
    ServerFixture fixture("killed", 2);
    auto client = fixture.client();
    std::string error;
    ASSERT_TRUE(client.connect(&error)) << error;
    auto stats = client.fetchStats(&error);
    ASSERT_TRUE(stats.has_value()) << error;
    const auto at = stats->find("\"pid\": ");
    ASSERT_NE(at, std::string::npos) << *stats;
    const pid_t pid = std::stoi(stats->substr(at + 7));
    ASSERT_EQ(::kill(pid, SIGKILL), 0);

    // Every later batch on the same connection still matches local
    // execution bit for bit: the dead worker's share is dealt again.
    std::vector<Job> seven = {
        Job::simulate(quickRequest(64, "VEGETA-D-1-2", 4)),
        Job::simulate(quickRequest(64, "VEGETA-S-1-2", 2)),
        Job::simulate(quickRequest(64, "VEGETA-S-16-2", 1)),
        Job::simulate(quickRequest(96, "VEGETA-D-1-2", 4)),
        Job::simulate(quickRequest(96, "VEGETA-S-2-2", 2)),
        Job::simulate(quickRequest(128, "VEGETA-S-1-2", 2))};
    AnalyticalRequest analysis;
    analysis.model = "fig3-roofline";
    seven.push_back(Job::analyze(std::move(analysis)));
    const std::vector<Job> one = {
        Job::simulate(quickRequest(160, "VEGETA-S-2-2", 2))};
    Session local;
    local.enableCache();
    for (const auto &jobs : {seven, one}) {
        const auto run = client.runBatch(jobs, &error);
        ASSERT_TRUE(run.has_value()) << error;
        expectIdenticalBatches(run->results, local.runBatch(jobs, 2));
    }

    stats = client.fetchStats(&error);
    ASSERT_TRUE(stats.has_value()) << error;
    const auto dead = stats->find("\"alive\": false");
    ASSERT_NE(dead, std::string::npos) << *stats;
    EXPECT_EQ(stats->find("\"alive\": false", dead + 1),
              std::string::npos)
        << *stats;
    fixture.server->stop();
}

TEST(Service, EphemeralTcpPortWorks)
{
    ServerOptions options;
    options.useTcp = true; // port 0 = kernel-assigned
    options.threads = 2;
    SimServer server(options);
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;
    ASSERT_GT(server.port(), 0u);
    EXPECT_EQ(server.address(),
              "tcp:127.0.0.1:" + std::to_string(server.port()));

    ClientOptions client_options;
    client_options.address = server.address();
    SimClient client(client_options);
    ASSERT_TRUE(client.connect(&error)) << error;
    const auto jobs = mixedBatch();
    const auto run = client.runBatch(jobs, &error);
    ASSERT_TRUE(run.has_value()) << error;

    Session local;
    local.enableCache();
    expectIdenticalBatches(run->results, local.runBatch(jobs, 2));
    server.stop();
}

TEST(Service, VersionMismatchRefusedBeforeAnyWork)
{
    ServerFixture fixture("mismatch");
    // Speak the raw wire with a wrong hello: the server must answer
    // with an Error frame naming the mismatch, not a HelloAck.
    const int fd = socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s",
                  fixture.options.socketPath.c_str());
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                        sizeof(addr)),
              0);
    std::string error;
    ASSERT_TRUE(wire::writeFrame(fd, wire::FrameType::Hello,
                                 "vegeta-wire v0\tstale\tstale",
                                 &error))
        << error;
    wire::Frame reply;
    ASSERT_TRUE(wire::readFrame(fd, &reply, 5'000, &error)) << error;
    EXPECT_EQ(reply.type, wire::FrameType::Error);
    EXPECT_NE(reply.payload.find("version"), std::string::npos)
        << reply.payload;
    ::close(fd);

    // The refused handshake did not poison the server: a correct
    // client connects and runs fine afterwards.
    auto client = fixture.client();
    ASSERT_TRUE(client.connect(&error)) << error;
    EXPECT_TRUE(client.runBatch(mixedBatch(), &error).has_value())
        << error;
    const auto stats = fixture.server->stats();
    EXPECT_EQ(stats.protocolErrors, 1u);
}

TEST(Service, BadJobErrorsButConnectionSurvives)
{
    ServerFixture fixture("badjob");
    auto client = fixture.client();
    std::string error;
    ASSERT_TRUE(client.connect(&error)) << error;

    std::vector<Job> bad;
    bad.push_back(
        Job::simulate(quickRequest(64, "NO-SUCH-ENGINE", 4)));
    EXPECT_FALSE(client.runBatch(bad, &error).has_value());
    EXPECT_NE(error.find("NO-SUCH-ENGINE"), std::string::npos)
        << error;

    // Same connection, valid batch: still works.
    const auto jobs = mixedBatch();
    const auto run = client.runBatch(jobs, &error);
    ASSERT_TRUE(run.has_value()) << error;
    Session local;
    local.enableCache();
    expectIdenticalBatches(run->results, local.runBatch(jobs, 2));
}

void
expectBadJobsRejectedCleanly(u32 workers, const char *name)
{
    // A simulation job whose core has no clock divider (SIGFPE in the
    // replay core) and an analysis job with an unknown op (a backend
    // assert) each used to take down the daemon, or every worker in
    // turn.  Now each batch gets an error reply and the next batch
    // still matches local execution.
    ServerFixture fixture(name, workers);
    auto client = fixture.client();
    std::string error;
    ASSERT_TRUE(client.connect(&error)) << error;

    Job no_divider =
        Job::simulate(quickRequest(128, "VEGETA-D-1-2", 4));
    no_divider.simulation.core.engineClockDivider = 0;
    AnalyticalRequest bogus_op;
    bogus_op.model = "micro-latency";
    bogus_op.options["op"] = "bogus";
    Session local;
    local.enableCache();
    const auto jobs = mixedBatch();
    for (const auto &bad :
         {no_divider, Job::analyze(std::move(bogus_op))}) {
        EXPECT_FALSE(client.runBatch({bad}, &error).has_value());
        EXPECT_EQ(error, "server: job 0: " + *local.jobError(bad));
        const auto run = client.runBatch(jobs, &error);
        ASSERT_TRUE(run.has_value()) << error;
        expectIdenticalBatches(run->results, local.runBatch(jobs, 2));
    }
    const auto stats = client.fetchStats(&error);
    ASSERT_TRUE(stats.has_value()) << error;
    EXPECT_EQ(stats->find("\"alive\": false"), std::string::npos)
        << *stats;
    fixture.server->stop();
}

TEST(Service, InvalidJobsErrorInProcess)
{
    expectBadJobsRejectedCleanly(0, "invalid-inproc");
}

TEST(Service, InvalidJobsErrorWithWorkers)
{
    expectBadJobsRejectedCleanly(2, "invalid-workers");
}

TEST(Service, ConcurrentClientsAllGetIdenticalResults)
{
    ServerFixture fixture("fairness");
    const auto jobs = mixedBatch();
    Session local;
    local.enableCache();
    const auto expected = local.runBatch(jobs, 2);

    constexpr int kClients = 4;
    constexpr int kIters = 3;
    std::vector<std::thread> threads;
    std::vector<std::string> failures(kClients);
    for (int c = 0; c < kClients; ++c) {
        threads.emplace_back([&, c]() {
            ClientOptions client_options;
            client_options.address = fixture.options.socketPath;
            SimClient client(client_options);
            std::string error;
            if (!client.connect(&error)) {
                failures[c] = error;
                return;
            }
            for (int i = 0; i < kIters; ++i) {
                const auto run = client.runBatch(jobs, &error);
                if (!run) {
                    failures[c] = error;
                    return;
                }
                // Full field comparison happens on the main thread;
                // here a cheap size check keeps the loop tight.
                if (run->results.size() != expected.size()) {
                    failures[c] = "result size mismatch";
                    return;
                }
            }
        });
    }
    for (auto &thread : threads)
        thread.join();
    for (int c = 0; c < kClients; ++c)
        EXPECT_EQ(failures[c], "") << "client " << c;
    const auto stats = fixture.server->stats();
    EXPECT_EQ(stats.connections, kClients);
    EXPECT_EQ(stats.batches, u64(kClients) * kIters);

    // One final batch compared field-by-field.
    auto client = fixture.client();
    std::string error;
    ASSERT_TRUE(client.connect(&error)) << error;
    const auto run = client.runBatch(jobs, &error);
    ASSERT_TRUE(run.has_value()) << error;
    expectIdenticalBatches(run->results, expected);
    EXPECT_EQ(run->simulationsPerformed, 0u);
}

TEST(Service, StaleSocketFileIsReclaimed)
{
    const std::string dir = freshSocketDir("stale");
    const std::string path = dir + "/sim.sock";
    {
        // A dead server's leftover socket file.
        const int fd = socket(AF_UNIX, SOCK_STREAM, 0);
        ASSERT_GE(fd, 0);
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s",
                      path.c_str());
        ASSERT_EQ(::bind(fd, reinterpret_cast<sockaddr *>(&addr),
                         sizeof(addr)),
                  0);
        ::close(fd); // closed without unlink: stale file remains
    }
    ASSERT_TRUE(fs::exists(path));
    ServerOptions options;
    options.socketPath = path;
    options.threads = 2;
    SimServer server(options);
    std::string error;
    EXPECT_TRUE(server.start(&error)) << error;
    server.stop();
    // A clean stop removes its socket file.
    EXPECT_FALSE(fs::exists(path));
}

TEST(Service, SecondServerOnLiveSocketRefusesToStart)
{
    ServerFixture fixture("occupied");
    ServerOptions options = fixture.options;
    SimServer second(options);
    std::string error;
    EXPECT_FALSE(second.start(&error));
    EXPECT_NE(error.find("already listening"), std::string::npos)
        << error;
    // The loser must not have unlinked the winner's socket.
    auto client = fixture.client();
    ASSERT_TRUE(client.connect(&error)) << error;
}

TEST(Service, ParseServerAddressForms)
{
    bool use_tcp = false;
    std::string host;
    u32 port = 0;
    std::string error;

    ASSERT_TRUE(parseServerAddress("unix:/tmp/x.sock", &use_tcp,
                                   &host, &port, &error));
    EXPECT_FALSE(use_tcp);
    EXPECT_EQ(host, "/tmp/x.sock");

    ASSERT_TRUE(parseServerAddress("tcp:127.0.0.1:9000", &use_tcp,
                                   &host, &port, &error));
    EXPECT_TRUE(use_tcp);
    EXPECT_EQ(host, "127.0.0.1");
    EXPECT_EQ(port, 9000u);

    ASSERT_TRUE(
        parseServerAddress("9000", &use_tcp, &host, &port, &error));
    EXPECT_TRUE(use_tcp);
    EXPECT_EQ(host, "127.0.0.1");
    EXPECT_EQ(port, 9000u);

    ASSERT_TRUE(parseServerAddress("/var/run/sim.sock", &use_tcp,
                                   &host, &port, &error));
    EXPECT_FALSE(use_tcp);
    EXPECT_EQ(host, "/var/run/sim.sock");

    EXPECT_FALSE(parseServerAddress("tcp:localhost", &use_tcp, &host,
                                    &port, &error));
    EXPECT_FALSE(parseServerAddress("tcp:127.0.0.1:0", &use_tcp,
                                    &host, &port, &error));
    EXPECT_FALSE(parseServerAddress("tcp:127.0.0.1:99999", &use_tcp,
                                    &host, &port, &error));
    EXPECT_FALSE(
        parseServerAddress("", &use_tcp, &host, &port, &error));
}

} // namespace
} // namespace vegeta::sim
