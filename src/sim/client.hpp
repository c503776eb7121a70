/**
 * @file
 * The thin client side of the simulation service.
 *
 * A SimClient connects to a running SimServer (unix socket or
 * 127.0.0.1 TCP), performs the wire hello handshake, and then runs
 * job batches by RPC: one `batch` frame out, one `results` frame
 * back.  Results are bit-for-bit identical to a local
 * Session::runBatch of the same jobs -- the server executes the same
 * deterministic Session code and every double crosses the wire as
 * its raw bit pattern -- so callers can swap local and remote
 * execution freely.
 */

#ifndef VEGETA_SIM_CLIENT_HPP
#define VEGETA_SIM_CLIENT_HPP

#include <optional>
#include <string>
#include <vector>

#include "sim/job.hpp"

namespace vegeta::sim {

/** How a SimClient reaches its server. */
struct ClientOptions
{
    /**
     * Server address: "unix:PATH", "tcp:HOST:PORT", a bare decimal
     * port (TCP on 127.0.0.1), or a bare filesystem path (unix
     * socket).
     */
    std::string address;

    /**
     * Total budget for reaching the server, milliseconds; connection
     * attempts retry with short sleeps until it is spent (covers the
     * race of a client starting just before its server listens).
     */
    int connectTimeoutMs = 5'000;

    /** Per-request reply timeout, milliseconds (< 0 blocks). */
    int requestTimeoutMs = -1;
};

/** One remote batch: results plus what the server had to compute. */
struct ClientRun
{
    /** `results[i]` answers `jobs[i]`, exactly like runBatch. */
    std::vector<JobResult> results;

    /** Simulations the server performed for THIS batch (0 = all
     *  answered from its warm caches). */
    u64 simulationsPerformed = 0;

    /** Analytical evaluations the server performed for this batch. */
    u64 analysesPerformed = 0;
};

/** A connection to a SimServer. */
class SimClient
{
  public:
    explicit SimClient(ClientOptions options);

    ~SimClient();

    SimClient(const SimClient &) = delete;
    SimClient &operator=(const SimClient &) = delete;

    /**
     * Connect (retrying within connectTimeoutMs) and handshake.
     * False with a one-line reason when the server is unreachable or
     * speaks a different wire/format version.
     */
    bool connect(std::string *error);

    void close();

    bool connected() const { return fd_ >= 0; }

    /**
     * Run @p jobs on the server.  Jobs must be valid for the builtin
     * registries (the server validates and rejects bad batches).
     * Returns nullopt with a reason on any transport or server
     * failure; the connection is then closed.
     */
    std::optional<ClientRun> runBatch(const std::vector<Job> &jobs,
                                      std::string *error);

    /**
     * Fetch the server's live stats document (one `stats` frame out,
     * one back; the JSON payload is returned verbatim).  Nullopt with
     * a reason on any transport failure; the connection then closes.
     */
    std::optional<std::string> fetchStats(std::string *error);

  private:
    ClientOptions options_;
    int fd_ = -1;
};

/**
 * Parse a ClientOptions::address string.  Returns false (with a
 * reason) on a malformed tcp address; never touches the network.
 */
bool parseServerAddress(const std::string &address, bool *use_tcp,
                        std::string *host_or_path, u32 *port,
                        std::string *error);

} // namespace vegeta::sim

#endif // VEGETA_SIM_CLIENT_HPP
