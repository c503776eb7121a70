#include "sim/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <filesystem>
#include <iostream>
#include <map>
#include <mutex>
#include <sstream>
#include <thread>
#include <vector>

#include "sim/job_io.hpp"
#include "sim/session.hpp"
#include "sim/telemetry.hpp"
#include "sim/wire.hpp"
#include "sim/workers.hpp"

namespace vegeta::sim {

namespace {

/** One queued batch plus when it entered the queue. */
struct PendingBatch
{
    std::vector<Job> jobs;
    u64 enqueuedNs = 0;
};

/** One connected client. */
struct ClientConn
{
    int fd = -1;
    std::thread reader;
    std::mutex writeMutex; ///< reader (errors) vs dispatcher (results)
    std::deque<PendingBatch> queue; ///< guarded by Impl::mutex
    bool done = false; ///< reader exited; guarded by Impl::mutex
};

void
closeFd(int &fd)
{
    if (fd >= 0) {
        ::close(fd);
        fd = -1;
    }
}

/** Bounded sample ring for stats percentiles (keeps the newest). */
constexpr std::size_t kLatencyRingCap = 512;

/** Handshake/read timeout for client sockets, milliseconds. */
constexpr int kClientTimeoutMs = 10'000;

void
pushRing(std::vector<u64> &ring, u64 &next, u64 value)
{
    if (ring.size() < kLatencyRingCap)
        ring.push_back(value);
    else
        ring[next % kLatencyRingCap] = value;
    ++next;
}

/** The p-quantile of the ring's samples, in milliseconds. */
double
ringPercentileMs(const std::vector<u64> &ring, double p)
{
    if (ring.empty())
        return 0.0;
    std::vector<u64> sorted = ring;
    std::sort(sorted.begin(), sorted.end());
    const auto idx = static_cast<std::size_t>(
        p * double(sorted.size() - 1) + 0.5);
    return double(sorted[idx]) / 1e6;
}

/** A named counter's value inside one metric snapshot (0 absent). */
u64
snapshotCounter(const std::vector<telemetry::MetricRecord> &records,
                const char *name)
{
    for (const auto &record : records)
        if (record.name == name)
            return record.count;
    return 0;
}

/** A snapshot counter summed over the workers' latest snapshots. */
u64
sumWorkerCounter(const std::vector<WorkerStatus> &workers,
                 const char *name)
{
    u64 total = 0;
    for (const auto &worker : workers)
        total += snapshotCounter(worker.metrics, name);
    return total;
}

} // namespace

struct SimServer::Impl
{
    explicit Impl(ServerOptions opts) : options(std::move(opts)) {}

    ServerOptions options;

    Session session; ///< warm across every request (in-process mode)

    int listenFd = -1;
    u32 boundPort = 0;
    std::string boundAddress;
    /** True once WE bound the unix socket path: only then may stop()
     *  unlink it (a failed start must not delete a live server's
     *  socket file). */
    bool ownsSocketFile = false;
    int wakePipe[2] = {-1, -1}; ///< unblocks the accept poll on stop

    WorkerSet workers; ///< not started in in-process mode

    std::thread acceptThread;
    std::thread dispatchThread;

    mutable std::mutex mutex;
    std::condition_variable workCv;  ///< dispatcher: work arrived
    std::condition_variable spaceCv; ///< readers: queue slot freed
    std::vector<std::shared_ptr<ClientConn>> conns;
    std::size_t rrCursor = 0; ///< round-robin scan position
    bool stopping = false;
    bool started = false;

    ServerStats statsData; ///< guarded by mutex

    // --- live-stats state (all guarded by mutex) ---
    u64 startNs = 0; ///< telemetry::nowNs() at start()
    std::vector<u64> dispatchRing; ///< recent batch execute ns
    u64 dispatchNext = 0;
    std::vector<u64> waitRing; ///< recent batch queue-wait ns
    u64 waitNext = 0;
    /** Trailing (completionNs, jobs) pairs for the recent rate. */
    std::deque<std::pair<u64, u64>> recentBatches;

    bool start(std::string *error);
    void stop();

    /** The live stats document a `stats` frame answers with. */
    std::string statsJson();

    void acceptLoop();
    void readerLoop(std::shared_ptr<ClientConn> conn);
    void dispatchLoop();

    bool bindSocket(std::string *error);

    /** One record per unique job key (nullopt + reason on failure). */
    std::optional<WorkerOutput>
    executeBatch(const std::vector<Job> &jobs, std::string *error);

    void sendError(ClientConn &conn, const std::string &message);
};

// --- lifecycle --------------------------------------------------------

SimServer::SimServer(ServerOptions options)
    : impl_(std::make_unique<Impl>(std::move(options)))
{
}

SimServer::~SimServer()
{
    stop();
}

bool
SimServer::start(std::string *error)
{
    return impl_->start(error);
}

void
SimServer::stop()
{
    impl_->stop();
}

bool
SimServer::running() const
{
    std::lock_guard<std::mutex> lock(impl_->mutex);
    return impl_->started && !impl_->stopping;
}

std::string
SimServer::address() const
{
    return impl_->boundAddress;
}

u32
SimServer::port() const
{
    return impl_->boundPort;
}

ServerStats
SimServer::stats() const
{
    std::lock_guard<std::mutex> lock(impl_->mutex);
    return impl_->statsData;
}

bool
SimServer::Impl::start(std::string *error)
{
    auto fail = [&](const std::string &reason) {
        if (error)
            *error = reason;
        return false;
    };
    if (started)
        return fail("server already started");
    if (options.queueDepth == 0)
        return fail("queue depth must be at least 1");
    if (!options.socketPath.empty() && options.useTcp)
        return fail("choose a unix socket OR tcp, not both");

    // Writes to dead clients/workers must be errors, not process
    // death; sockets use MSG_NOSIGNAL but the worker pipes cannot.
    ::signal(SIGPIPE, SIG_IGN);

    // Fork the persistent workers FIRST: this process has no threads
    // yet, so the children are plain single-threaded copies.
    if (options.serviceWorkers > 0 &&
        !workers.start(options.serviceWorkers, options.cacheDir,
                       options.threads, error))
        return false;

    if (!bindSocket(error)) {
        stop();
        return false;
    }

    if (::pipe(wakePipe) != 0) {
        stop();
        return fail("cannot create wake pipe");
    }

    // In-process execution wants warm caches; worker mode only uses
    // this session to validate batches (workers own their caches).
    if (options.serviceWorkers == 0) {
        session.enableCache();
        if (!options.cacheDir.empty()) {
            const auto disk = session.attachDiskCache(options.cacheDir);
            if (!disk->ok()) {
                stop();
                return fail("cannot open cache dir: " +
                            options.cacheDir);
            }
        }
    }

    startNs = telemetry::nowNs();

    started = true;
    stopping = false;
    acceptThread = std::thread([this]() { acceptLoop(); });
    dispatchThread = std::thread([this]() { dispatchLoop(); });
    return true;
}

bool
SimServer::Impl::bindSocket(std::string *error)
{
    auto fail = [&](const std::string &reason) {
        if (error)
            *error = reason;
        return false;
    };

    if (!options.socketPath.empty()) {
        if (options.socketPath.size() >= sizeof(sockaddr_un{}.sun_path))
            return fail("socket path too long: " + options.socketPath);
        listenFd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (listenFd < 0)
            return fail("cannot create unix socket");
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        std::strncpy(addr.sun_path, options.socketPath.c_str(),
                     sizeof(addr.sun_path) - 1);
        if (::bind(listenFd,
                   reinterpret_cast<const sockaddr *>(&addr),
                   sizeof(addr)) != 0) {
            if (errno != EADDRINUSE)
                return fail("cannot bind " + options.socketPath +
                            ": " + std::strerror(errno));
            // A stale socket file from a dead server binds again
            // after an unlink; a LIVE server answers a probe connect
            // and is an error.
            const int probe = ::socket(AF_UNIX, SOCK_STREAM, 0);
            const bool live =
                probe >= 0 &&
                ::connect(probe,
                          reinterpret_cast<const sockaddr *>(&addr),
                          sizeof(addr)) == 0;
            if (probe >= 0)
                ::close(probe);
            if (live)
                return fail("a server is already listening on " +
                            options.socketPath);
            ::unlink(options.socketPath.c_str());
            if (::bind(listenFd,
                       reinterpret_cast<const sockaddr *>(&addr),
                       sizeof(addr)) != 0)
                return fail("cannot bind " + options.socketPath +
                            ": " + std::strerror(errno));
        }
        ownsSocketFile = true;
        boundAddress = "unix:" + options.socketPath;
    } else {
        listenFd = ::socket(AF_INET, SOCK_STREAM, 0);
        if (listenFd < 0)
            return fail("cannot create tcp socket");
        const int one = 1;
        ::setsockopt(listenFd, SOL_SOCKET, SO_REUSEADDR, &one,
                     sizeof(one));
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port =
            htons(static_cast<unsigned short>(options.port));
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        if (::bind(listenFd,
                   reinterpret_cast<const sockaddr *>(&addr),
                   sizeof(addr)) != 0)
            return fail("cannot bind 127.0.0.1:" +
                        std::to_string(options.port) + ": " +
                        std::strerror(errno));
        sockaddr_in bound{};
        socklen_t len = sizeof(bound);
        if (::getsockname(listenFd,
                          reinterpret_cast<sockaddr *>(&bound),
                          &len) == 0)
            boundPort = ntohs(bound.sin_port);
        boundAddress =
            "tcp:127.0.0.1:" + std::to_string(boundPort);
    }
    if (::listen(listenFd, 64) != 0)
        return fail("cannot listen on " + boundAddress);
    return true;
}

void
SimServer::Impl::stop()
{
    {
        std::lock_guard<std::mutex> lock(mutex);
        if (stopping && !started)
            return;
        stopping = true;
    }
    workCv.notify_all();
    spaceCv.notify_all();
    if (wakePipe[1] >= 0) {
        const char byte = 'x';
        [[maybe_unused]] const ssize_t n =
            ::write(wakePipe[1], &byte, 1);
    }
    if (acceptThread.joinable())
        acceptThread.join();
    closeFd(listenFd);
    if (ownsSocketFile) {
        ::unlink(options.socketPath.c_str());
        ownsSocketFile = false;
    }

    // Wake readers blocked in readFrame, then wait for everything
    // in flight; only then is it safe to close the descriptors.
    {
        std::lock_guard<std::mutex> lock(mutex);
        for (const auto &conn : conns)
            if (conn->fd >= 0)
                ::shutdown(conn->fd, SHUT_RDWR);
    }
    if (dispatchThread.joinable())
        dispatchThread.join();
    std::vector<std::shared_ptr<ClientConn>> drained;
    {
        std::lock_guard<std::mutex> lock(mutex);
        drained.swap(conns);
    }
    for (const auto &conn : drained) {
        if (conn->reader.joinable())
            conn->reader.join();
        closeFd(conn->fd);
    }

    workers.stop();
    closeFd(wakePipe[0]);
    closeFd(wakePipe[1]);
    {
        std::lock_guard<std::mutex> lock(mutex);
        started = false;
    }
}

// --- accept / read / dispatch ----------------------------------------

void
SimServer::Impl::acceptLoop()
{
    for (;;) {
        pollfd fds[2] = {{listenFd, POLLIN, 0},
                         {wakePipe[0], POLLIN, 0}};
        const int rc = ::poll(fds, 2, -1);
        if (rc < 0) {
            if (errno == EINTR)
                continue;
            return;
        }
        {
            std::lock_guard<std::mutex> lock(mutex);
            if (stopping)
                return;
        }
        if (!(fds[0].revents & POLLIN))
            continue;
        const int client = ::accept(listenFd, nullptr, nullptr);
        if (client < 0)
            continue;
        auto conn = std::make_shared<ClientConn>();
        conn->fd = client;
        {
            std::lock_guard<std::mutex> lock(mutex);
            if (stopping) {
                ::close(client);
                return;
            }
            ++statsData.connections;
            conns.push_back(conn);
        }
        conn->reader =
            std::thread([this, conn]() { readerLoop(conn); });
    }
}

void
SimServer::Impl::sendError(ClientConn &conn,
                           const std::string &message)
{
    std::lock_guard<std::mutex> lock(conn.writeMutex);
    std::string ignored;
    wire::writeFrame(conn.fd, wire::FrameType::Error, message,
                     &ignored);
}

void
SimServer::Impl::readerLoop(std::shared_ptr<ClientConn> conn)
{
    auto finish = [&]() {
        std::lock_guard<std::mutex> lock(mutex);
        conn->done = true;
        workCv.notify_all(); // let the dispatcher reap
    };
    auto protocolError = [&](const std::string &message) {
        {
            std::lock_guard<std::mutex> lock(mutex);
            ++statsData.protocolErrors;
        }
        sendError(*conn, message);
        finish();
    };

    // Handshake: both sides must speak the same wire revision AND
    // record formats before any batch crosses the connection.
    wire::Frame hello;
    std::string error;
    if (!wire::readFrame(conn->fd, &hello, kClientTimeoutMs, &error)) {
        protocolError("handshake failed: " + error);
        return;
    }
    if (hello.type != wire::FrameType::Hello ||
        hello.payload != wire::helloPayload()) {
        std::string got = hello.payload.substr(0, 120);
        protocolError("wire version mismatch: server speaks '" +
                      wire::helloPayload() + "', client sent '" + got +
                      "'");
        return;
    }
    {
        std::lock_guard<std::mutex> lock(conn->writeMutex);
        if (!wire::writeFrame(conn->fd, wire::FrameType::HelloAck,
                              wire::helloPayload(), &error)) {
            finish();
            return;
        }
    }

    for (;;) {
        wire::Frame frame;
        bool clean_eof = false;
        if (!wire::readFrame(conn->fd, &frame, -1, &error,
                             &clean_eof)) {
            if (clean_eof)
                finish();
            else
                protocolError("bad frame: " + error);
            return;
        }
        if (frame.type == wire::FrameType::Bye) {
            finish();
            return;
        }
        if (frame.type == wire::FrameType::Stats) {
            // Answered inline by the reader (never queued), so a
            // stats probe sees the live state even while every
            // dispatch slot is busy.
            const std::string body = statsJson();
            std::lock_guard<std::mutex> lock(conn->writeMutex);
            if (!wire::writeFrame(conn->fd, wire::FrameType::Stats,
                                  body, &error)) {
                finish();
                return;
            }
            continue;
        }
        if (frame.type != wire::FrameType::Batch) {
            protocolError(std::string("unexpected frame: ") +
                          wire::frameTypeName(frame.type));
            return;
        }
        auto jobs = decodeJobBatch(frame.payload, &error);
        if (!jobs) {
            protocolError("corrupt batch: " + error);
            return;
        }
        for (std::size_t i = 0; i < jobs->size(); ++i) {
            if (const auto bad = session.jobError((*jobs)[i])) {
                sendError(*conn, "job " + std::to_string(i) + ": " +
                                     *bad);
                jobs.reset();
                break;
            }
        }
        if (!jobs)
            continue; // rejected batch; the connection stays usable

        // Bounded queue: when this client already has queueDepth
        // batches pending the reader parks here, which stops reading
        // its socket -- backpressure, not unbounded buffering.
        {
            std::unique_lock<std::mutex> lock(mutex);
            spaceCv.wait(lock, [&]() {
                return stopping ||
                       conn->queue.size() < options.queueDepth;
            });
            if (stopping) {
                conn->done = true;
                return;
            }
            statsData.jobs += jobs->size();
            conn->queue.push_back(
                PendingBatch{std::move(*jobs), telemetry::nowNs()});
        }
        workCv.notify_all();
    }
}

void
SimServer::Impl::dispatchLoop()
{
    static const telemetry::MetricId wait_timer =
        telemetry::timerId("service.queue.wait");
    static const telemetry::MetricId dispatch_timer =
        telemetry::timerId("service.dispatch");
    for (;;) {
        std::shared_ptr<ClientConn> conn;
        std::vector<Job> jobs;
        u64 enqueued_ns = 0;
        {
            std::unique_lock<std::mutex> lock(mutex);
            for (;;) {
                if (stopping)
                    return;
                // Reap connections whose reader is gone and whose
                // queue is drained (a daemon must not accumulate
                // dead clients).
                for (std::size_t i = 0; i < conns.size();) {
                    if (conns[i]->done && conns[i]->queue.empty()) {
                        if (conns[i]->reader.joinable())
                            conns[i]->reader.join();
                        closeFd(conns[i]->fd);
                        conns.erase(conns.begin() +
                                    static_cast<std::ptrdiff_t>(i));
                        if (rrCursor > i)
                            --rrCursor;
                    } else {
                        ++i;
                    }
                }
                // Round-robin: resume the scan one past the client
                // served last, so a client with a deep queue cannot
                // starve the others.
                if (!conns.empty()) {
                    for (std::size_t step = 0; step < conns.size();
                         ++step) {
                        const std::size_t i =
                            (rrCursor + step) % conns.size();
                        if (!conns[i]->queue.empty()) {
                            conn = conns[i];
                            jobs = std::move(
                                conns[i]->queue.front().jobs);
                            enqueued_ns =
                                conns[i]->queue.front().enqueuedNs;
                            conns[i]->queue.pop_front();
                            rrCursor = (i + 1) % conns.size();
                            break;
                        }
                    }
                }
                if (conn)
                    break;
                workCv.wait(lock);
            }
        }
        spaceCv.notify_all();

        const u64 dispatch_start = telemetry::nowNs();
        const u64 wait_ns = dispatch_start > enqueued_ns
                                ? dispatch_start - enqueued_ns
                                : 0;
        telemetry::recordNs(wait_timer, wait_ns);
        std::string error;
        std::optional<WorkerOutput> output;
        {
            telemetry::Span dispatch_span("service.dispatch",
                                          jobs.size());
            output = executeBatch(jobs, &error);
        }
        const u64 dispatch_ns =
            telemetry::nowNs() - dispatch_start;
        telemetry::recordNs(dispatch_timer, dispatch_ns);
        {
            std::lock_guard<std::mutex> lock(mutex);
            ++statsData.batches;
            if (output) {
                statsData.simulationsPerformed +=
                    output->simulationsPerformed;
                statsData.analysesPerformed +=
                    output->analysesPerformed;
            }
            pushRing(waitRing, waitNext, wait_ns);
            pushRing(dispatchRing, dispatchNext, dispatch_ns);
            const u64 now = telemetry::nowNs();
            recentBatches.emplace_back(now, jobs.size());
            while (!recentBatches.empty() &&
                   now - recentBatches.front().first >
                       10'000'000'000ull)
                recentBatches.pop_front();
        }
        std::string ignored;
        std::lock_guard<std::mutex> lock(conn->writeMutex);
        if (output)
            wire::writeFrame(conn->fd, wire::FrameType::Results,
                             encodeWorkerOutput(*output), &ignored);
        else
            wire::writeFrame(conn->fd, wire::FrameType::Error, error,
                             &ignored);
        // A failed write means the client vanished; its reader will
        // notice the close and the connection gets reaped above.
    }
}

std::optional<WorkerOutput>
SimServer::Impl::executeBatch(const std::vector<Job> &jobs,
                              std::string *error)
{
    if (options.serviceWorkers > 0)
        return workers.run(jobs, error);

    // In-process: the reply carries one record per unique canonical
    // key, in key order, exactly as the workers answer it; the
    // client fans results back out to its own job order.
    std::map<std::string, std::size_t> unique;
    for (std::size_t i = 0; i < jobs.size(); ++i)
        unique.emplace(jobKey(jobs[i]), i);
    const u64 sims0 = session.simulationsPerformed();
    const u64 anas0 = session.analysesPerformed();
    const auto results = session.runBatch(jobs, options.threads);
    WorkerOutput output;
    output.simulationsPerformed =
        session.simulationsPerformed() - sims0;
    output.analysesPerformed = session.analysesPerformed() - anas0;
    output.results.reserve(unique.size());
    for (const auto &[key, index] : unique)
        output.results.emplace_back(key, results[index]);
    return output;
}

std::string
SimServer::Impl::statsJson()
{
    // Process-local cache counters (in-process mode the server's own
    // session does the work; worker mode sums the latest per-worker
    // snapshots instead).
    const telemetry::MetricsSnapshot local = telemetry::snapshot();
    const std::vector<WorkerStatus> worker_status = workers.status();

    std::ostringstream os;
    os.setf(std::ios::fixed);
    std::lock_guard<std::mutex> lock(mutex);

    const u64 now = telemetry::nowNs();
    const double uptime_s =
        double(now > startNs ? now - startNs : 0) / 1e9;

    u64 cache_hits = 0, cache_misses = 0;
    if (worker_status.empty()) {
        cache_hits = local.counter("session.cache.hit.memory") +
                     local.counter("session.cache.hit.disk");
        cache_misses = local.counter("session.cache.miss");
    } else {
        cache_hits =
            sumWorkerCounter(worker_status,
                             "session.cache.hit.memory") +
            sumWorkerCounter(worker_status, "session.cache.hit.disk");
        cache_misses =
            sumWorkerCounter(worker_status, "session.cache.miss");
    }
    const u64 cache_total = cache_hits + cache_misses;

    u64 recent_jobs = 0;
    for (const auto &[ns, count] : recentBatches) {
        (void)ns;
        recent_jobs += count;
    }
    const double recent_window_s =
        std::min(uptime_s > 0.0 ? uptime_s : 1.0, 10.0);

    os.precision(3);
    os << "{\n";
    os << "  \"uptime_s\": " << uptime_s << ",\n";
    os << "  \"connections\": {\"total\": " << statsData.connections
       << ", \"active\": " << conns.size()
       << ", \"queue_depths\": [";
    for (std::size_t i = 0; i < conns.size(); ++i)
        os << (i ? ", " : "") << conns[i]->queue.size();
    os << "]},\n";
    os << "  \"batches\": " << statsData.batches << ",\n";
    os << "  \"jobs\": " << statsData.jobs << ",\n";
    os << "  \"simulations\": " << statsData.simulationsPerformed
       << ",\n";
    os << "  \"analyses\": " << statsData.analysesPerformed << ",\n";
    os << "  \"protocol_errors\": " << statsData.protocolErrors
       << ",\n";
    os << "  \"jobs_per_s\": {\"lifetime\": "
       << (uptime_s > 0.0 ? double(statsData.jobs) / uptime_s : 0.0)
       << ", \"recent_10s\": "
       << double(recent_jobs) / recent_window_s << "},\n";
    os << "  \"latency_ms\": {\"dispatch\": {\"p50\": "
       << ringPercentileMs(dispatchRing, 0.5) << ", \"p99\": "
       << ringPercentileMs(dispatchRing, 0.99) << ", \"samples\": "
       << dispatchRing.size() << "}, \"queue_wait\": {\"p50\": "
       << ringPercentileMs(waitRing, 0.5) << ", \"p99\": "
       << ringPercentileMs(waitRing, 0.99) << ", \"samples\": "
       << waitRing.size() << "}},\n";
    os.precision(4);
    os << "  \"cache\": {\"hits\": " << cache_hits
       << ", \"misses\": " << cache_misses << ", \"hit_rate\": "
       << (cache_total > 0 ? double(cache_hits) / double(cache_total)
                           : 0.0)
       << "},\n";
    os << "  \"workers\": {\"count\": " << worker_status.size()
       << ", \"per_worker\": [";
    for (std::size_t w = 0; w < worker_status.size(); ++w) {
        const WorkerStatus &worker = worker_status[w];
        const u64 w_hits =
            snapshotCounter(worker.metrics,
                            "session.cache.hit.memory") +
            snapshotCounter(worker.metrics, "session.cache.hit.disk");
        const u64 w_misses =
            snapshotCounter(worker.metrics, "session.cache.miss");
        const u64 w_total = w_hits + w_misses;
        os << (w ? ", " : "") << "{\"pid\": " << worker.pid
           << ", \"alive\": " << (worker.alive ? "true" : "false")
           << ", \"jobs\": " << worker.jobs
           << ", \"cache_hits\": " << w_hits
           << ", \"cache_misses\": " << w_misses
           << ", \"cache_hit_rate\": "
           << (w_total > 0 ? double(w_hits) / double(w_total) : 0.0)
           << "}";
    }
    os << "]}\n";
    os << "}\n";
    return os.str();
}

// --- CLI entry --------------------------------------------------------

namespace {

volatile sig_atomic_t g_signal_seen = 0;
int g_signal_pipe_wr = -1;

void
onStopSignal(int sig)
{
    g_signal_seen = sig;
    if (g_signal_pipe_wr >= 0) {
        const char byte = 's';
        [[maybe_unused]] const ssize_t n =
            ::write(g_signal_pipe_wr, &byte, 1);
    }
}

} // namespace

int
SimServer::serveMain(const ServerOptions &options)
{
    int signal_pipe[2];
    if (::pipe(signal_pipe) != 0) {
        std::cerr << "serve: cannot create signal pipe\n";
        return 2;
    }
    g_signal_pipe_wr = signal_pipe[1];
    g_signal_seen = 0;

    struct sigaction action = {};
    action.sa_handler = onStopSignal;
    sigemptyset(&action.sa_mask);
    ::sigaction(SIGTERM, &action, nullptr);
    ::sigaction(SIGINT, &action, nullptr);
    ::signal(SIGPIPE, SIG_IGN);

    SimServer server(options);
    std::string error;
    if (!server.start(&error)) {
        std::cerr << "serve: " << error << "\n";
        ::close(signal_pipe[0]);
        ::close(signal_pipe[1]);
        g_signal_pipe_wr = -1;
        return 2;
    }
    std::cerr << "serve: listening on " << server.address()
              << " (service workers: " << options.serviceWorkers
              << ", cache: "
              << (options.cacheDir.empty() ? std::string("off")
                                           : options.cacheDir)
              << ")\n";

    // Sleep until SIGTERM/SIGINT; the self-pipe makes the wakeup
    // race-free even when the signal lands before the poll.
    for (;;) {
        pollfd pfd{signal_pipe[0], POLLIN, 0};
        const int rc = ::poll(&pfd, 1, -1);
        if (rc > 0 || (rc < 0 && errno != EINTR))
            break;
        if (g_signal_seen != 0)
            break;
    }

    const auto stats = server.stats();
    server.stop();
    std::cerr << "serve: shut down cleanly ("
              << stats.connections << " connections, "
              << stats.batches << " batches, " << stats.jobs
              << " jobs, " << stats.simulationsPerformed
              << " simulations performed)\n";
    ::close(signal_pipe[0]);
    ::close(signal_pipe[1]);
    g_signal_pipe_wr = -1;
    return 0;
}

} // namespace vegeta::sim
