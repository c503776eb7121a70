/**
 * @file
 * The long-lived simulation service: a SimServer daemon that keeps
 * one Session warm across requests from many concurrent clients.
 *
 * Every CLI invocation pays full process startup -- registry
 * construction, reloading the persistent DiskResultCache.  The server
 * pays it once:
 *
 *  - registries and both caches are built once and stay warm; a
 *    repeated sweep from any client performs zero simulations;
 *  - with --service-workers, a WorkerSet (sim/workers) pre-forks the
 *    worker processes ONCE at startup and feeds them job batches
 *    over pipes speaking the same wire frames as the socket;
 *  - each client connection gets a bounded request queue, and a
 *    single dispatcher drains the queues round-robin, so one greedy
 *    client cannot starve the rest.
 *
 * Results are bit-for-bit identical to a local Session::runBatch of
 * the same jobs: execution is the same deterministic Session code,
 * and every double crosses the wire as its raw bit pattern.
 */

#ifndef VEGETA_SIM_SERVER_HPP
#define VEGETA_SIM_SERVER_HPP

#include <memory>
#include <string>

#include "sim/job.hpp"

namespace vegeta::sim {

/** How a SimServer listens and executes. */
struct ServerOptions
{
    /** Unix-domain socket path ("" = listen on TCP instead). */
    std::string socketPath;

    /** TCP port on 127.0.0.1 (0 = ephemeral; see SimServer::port). */
    u32 port = 0;

    /** Listen on TCP even when port is 0 (ephemeral). */
    bool useTcp = false;

    /**
     * Persistent worker processes, pre-forked at start() and fed
     * over pipes (sim/workers).  0 executes batches in-process on the
     * server's own warm Session.
     */
    u32 serviceWorkers = 0;

    /** runBatch threads (in-process mode) / per worker.  0 = auto. */
    u32 threads = 0;

    /** Pending batches allowed per client before its reader blocks
     *  (socket backpressure); must be >= 1. */
    u32 queueDepth = 4;

    /** Shared persistent result-cache directory ("" = off). */
    std::string cacheDir;
};

/** Aggregate service counters (monotonic over the server's life). */
struct ServerStats
{
    u64 connections = 0;
    u64 batches = 0;
    u64 jobs = 0;
    u64 simulationsPerformed = 0;
    u64 analysesPerformed = 0;
    u64 protocolErrors = 0;
};

/** The daemon: accepts framed job batches, answers framed results. */
class SimServer
{
  public:
    explicit SimServer(ServerOptions options);

    /** Stops and reaps everything still running. */
    ~SimServer();

    SimServer(const SimServer &) = delete;
    SimServer &operator=(const SimServer &) = delete;

    /**
     * Fork the persistent workers (before any thread exists), bind
     * the socket, and start the accept/dispatch threads.  False with
     * a one-line reason on failure.
     */
    bool start(std::string *error);

    /**
     * Shut down cleanly: stop accepting, close client connections,
     * join every thread, close the worker pipes (workers exit on
     * EOF) and reap every worker process.  Idempotent.
     */
    void stop();

    bool running() const;

    /** The connect address ("unix:PATH" or "tcp:127.0.0.1:PORT"). */
    std::string address() const;

    /** The bound TCP port (resolves port 0; 0 for unix sockets). */
    u32 port() const;

    ServerStats stats() const;

    /**
     * CLI entry: start(), serve until SIGTERM/SIGINT, stop(), return
     * a process exit code.  Prints one line on start and shutdown to
     * stderr.
     */
    static int serveMain(const ServerOptions &options);

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

} // namespace vegeta::sim

#endif // VEGETA_SIM_SERVER_HPP
