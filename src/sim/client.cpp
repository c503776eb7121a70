#include "sim/client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <map>
#include <thread>

#include "sim/job_io.hpp"
#include "sim/serial.hpp"
#include "sim/wire.hpp"

namespace vegeta::sim {

namespace {

using Clock = std::chrono::steady_clock;

/** Sleep between failed connect attempts, milliseconds. */
constexpr int kRetryDelayMs = 50;

bool
allDigits(const std::string &text)
{
    if (text.empty())
        return false;
    return std::all_of(text.begin(), text.end(), [](char c) {
        return c >= '0' && c <= '9';
    });
}

int
connectOnce(bool use_tcp, const std::string &host_or_path, u32 port,
            std::string *error)
{
    if (!use_tcp) {
        sockaddr_un addr{};
        if (host_or_path.size() >= sizeof(addr.sun_path)) {
            if (error)
                *error = "socket path too long: " + host_or_path;
            return -1;
        }
        const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (fd < 0) {
            if (error)
                *error = "cannot create unix socket";
            return -1;
        }
        addr.sun_family = AF_UNIX;
        std::strncpy(addr.sun_path, host_or_path.c_str(),
                     sizeof(addr.sun_path) - 1);
        if (::connect(fd, reinterpret_cast<const sockaddr *>(&addr),
                      sizeof(addr)) != 0) {
            if (error)
                *error = "cannot connect to unix:" + host_or_path +
                         ": " + std::strerror(errno);
            ::close(fd);
            return -1;
        }
        return fd;
    }

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<unsigned short>(port));
    if (::inet_pton(AF_INET, host_or_path.c_str(), &addr.sin_addr) !=
        1) {
        if (error)
            *error = "bad tcp host (numeric IPv4 only): " +
                     host_or_path;
        return -1;
    }
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
        if (error)
            *error = "cannot create tcp socket";
        return -1;
    }
    if (::connect(fd, reinterpret_cast<const sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        if (error)
            *error = "cannot connect to tcp:" + host_or_path + ":" +
                     std::to_string(port) + ": " +
                     std::strerror(errno);
        ::close(fd);
        return -1;
    }
    return fd;
}

} // namespace

bool
parseServerAddress(const std::string &address, bool *use_tcp,
                   std::string *host_or_path, u32 *port,
                   std::string *error)
{
    auto fail = [&](const std::string &reason) {
        if (error)
            *error = reason;
        return false;
    };
    *use_tcp = false;
    *port = 0;
    if (address.empty())
        return fail("empty server address");

    if (address.rfind("unix:", 0) == 0) {
        *host_or_path = address.substr(5);
        if (host_or_path->empty())
            return fail("empty unix socket path in: " + address);
        return true;
    }

    std::string tcp_part;
    if (address.rfind("tcp:", 0) == 0)
        tcp_part = address.substr(4);
    else if (allDigits(address))
        tcp_part = "127.0.0.1:" + address;

    if (tcp_part.empty()) {
        // A bare non-numeric string is a unix socket path.
        *host_or_path = address;
        return true;
    }

    const std::size_t colon = tcp_part.rfind(':');
    if (colon == std::string::npos || colon == 0 ||
        colon + 1 == tcp_part.size())
        return fail("tcp address must be tcp:HOST:PORT, got: " +
                    address);
    u64 parsed = 0;
    if (!serial::parseU64(tcp_part.substr(colon + 1), &parsed) ||
        parsed == 0 || parsed > 65535)
        return fail("bad tcp port in: " + address);
    *use_tcp = true;
    *host_or_path = tcp_part.substr(0, colon);
    *port = static_cast<u32>(parsed);
    return true;
}

SimClient::SimClient(ClientOptions options)
    : options_(std::move(options))
{
}

SimClient::~SimClient()
{
    close();
}

void
SimClient::close()
{
    if (fd_ >= 0) {
        // Best-effort goodbye so the server logs a clean disconnect.
        std::string ignored;
        wire::writeFrame(fd_, wire::FrameType::Bye, "", &ignored);
        ::close(fd_);
        fd_ = -1;
    }
}

bool
SimClient::connect(std::string *error)
{
    auto fail = [&](const std::string &reason) {
        if (error)
            *error = reason;
        if (fd_ >= 0) {
            ::close(fd_);
            fd_ = -1;
        }
        return false;
    };
    if (fd_ >= 0)
        return true;

    bool use_tcp = false;
    std::string host_or_path;
    u32 port = 0;
    if (!parseServerAddress(options_.address, &use_tcp, &host_or_path,
                            &port, error))
        return false;

    // Retry inside the connect budget: a client racing its own
    // freshly-spawned server just waits for the listen socket.
    const auto deadline =
        Clock::now() +
        std::chrono::milliseconds(std::max(0, options_.connectTimeoutMs));
    std::string attempt_error;
    for (;;) {
        fd_ = connectOnce(use_tcp, host_or_path, port, &attempt_error);
        if (fd_ >= 0)
            break;
        if (Clock::now() + std::chrono::milliseconds(kRetryDelayMs) >=
            deadline)
            return fail(attempt_error);
        std::this_thread::sleep_for(
            std::chrono::milliseconds(kRetryDelayMs));
    }

    // Handshake: refuse to exchange work with a mismatched build.
    const int hs_timeout = options_.connectTimeoutMs > 0
                               ? options_.connectTimeoutMs
                               : 5'000;
    std::string wire_error;
    if (!wire::writeFrame(fd_, wire::FrameType::Hello,
                          wire::helloPayload(), &wire_error))
        return fail("handshake send failed: " + wire_error);
    wire::Frame ack;
    if (!wire::readFrame(fd_, &ack, hs_timeout, &wire_error))
        return fail("handshake failed: " + wire_error);
    if (ack.type == wire::FrameType::Error)
        return fail("server refused: " + ack.payload);
    if (ack.type != wire::FrameType::HelloAck ||
        ack.payload != wire::helloPayload())
        return fail("wire version mismatch: this build speaks '" +
                    wire::helloPayload() + "', server answered '" +
                    ack.payload.substr(0, 120) + "'");
    return true;
}

std::optional<ClientRun>
SimClient::runBatch(const std::vector<Job> &jobs, std::string *error)
{
    auto fail = [&](const std::string &reason) -> std::optional<ClientRun> {
        if (error)
            *error = reason;
        if (fd_ >= 0) {
            ::close(fd_);
            fd_ = -1;
        }
        return std::nullopt;
    };
    if (fd_ < 0)
        return fail("not connected");

    std::string wire_error;
    if (!wire::writeFrame(fd_, wire::FrameType::Batch,
                          encodeJobBatch(jobs), &wire_error))
        return fail("send failed: " + wire_error);
    wire::Frame reply;
    if (!wire::readFrame(fd_, &reply, options_.requestTimeoutMs,
                         &wire_error))
        return fail("no reply: " + wire_error);
    if (reply.type == wire::FrameType::Error) {
        // The server rejected the batch but the connection is fine.
        if (error)
            *error = "server: " + reply.payload;
        return std::nullopt;
    }
    if (reply.type != wire::FrameType::Results)
        return fail(std::string("unexpected reply frame: ") +
                    wire::frameTypeName(reply.type));
    auto output = decodeWorkerOutput(reply.payload, &wire_error);
    if (!output)
        return fail("corrupt results: " + wire_error);

    // The reply carries one record per unique canonical key; fan the
    // results back out to this batch's job order.
    auto results = resultsInJobOrder(jobs, *output, &wire_error);
    if (!results)
        return fail("server reply is missing a result for: " +
                    wire_error);
    ClientRun run;
    run.results = std::move(*results);
    run.simulationsPerformed = output->simulationsPerformed;
    run.analysesPerformed = output->analysesPerformed;
    return run;
}

std::optional<std::string>
SimClient::fetchStats(std::string *error)
{
    auto fail =
        [&](const std::string &reason) -> std::optional<std::string> {
        if (error)
            *error = reason;
        if (fd_ >= 0) {
            ::close(fd_);
            fd_ = -1;
        }
        return std::nullopt;
    };
    if (fd_ < 0)
        return fail("not connected");

    std::string wire_error;
    if (!wire::writeFrame(fd_, wire::FrameType::Stats, "",
                          &wire_error))
        return fail("send failed: " + wire_error);
    wire::Frame reply;
    if (!wire::readFrame(fd_, &reply, options_.requestTimeoutMs,
                         &wire_error))
        return fail("no reply: " + wire_error);
    if (reply.type == wire::FrameType::Error)
        return fail("server: " + reply.payload);
    if (reply.type != wire::FrameType::Stats)
        return fail(std::string("unexpected reply frame: ") +
                    wire::frameTypeName(reply.type));
    return reply.payload;
}

} // namespace vegeta::sim
