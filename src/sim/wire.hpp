/**
 * @file
 * Wire framing for the simulation service: how a SimClient talks to a
 * SimServer, and how the server feeds its persistent workers.
 *
 * One frame is an ASCII header line followed by an opaque payload:
 *
 *   vgw1 <type> <payload-bytes> <fnv1a-checksum-hex16>\n
 *   <payload-bytes bytes of payload>
 *
 * The header is strict (fixed magic, known type token, bounded
 * decimal length, 16-hex-digit checksum) and the checksum covers the
 * payload, so a torn, truncated, or corrupted frame parses to a clean
 * error, never to a wrong batch.  Payloads reuse the persistent
 * formats verbatim: a `batch` frame carries encodeJobBatch() bytes
 * and a `results` frame carries encodeWorkerOutput() bytes
 * (sim/job_io), which in turn ride on the checksummed sim/serial
 * records the persistent cache speaks too.
 *
 * Sessions open with a hello handshake: the client sends `hello`
 * whose payload names the wire version AND the job/result record
 * format versions; the server answers `helloack` with its own.  Any
 * disagreement -- a newer wire revision, a rebuilt record format --
 * fails the connection cleanly before any work is exchanged, so
 * mismatched builds can never exchange silently-misread records.
 *
 * The same framing runs over the worker pipes (sim/workers): frames
 * are transport-agnostic byte streams, readable from any fd.
 */

#ifndef VEGETA_SIM_WIRE_HPP
#define VEGETA_SIM_WIRE_HPP

#include <string>

#include "common/types.hpp"

namespace vegeta::sim::wire {

/** Hard ceiling on one frame's payload (rejects garbage lengths). */
constexpr u64 kMaxFramePayload = 256ull << 20;

/** What a frame carries. */
enum class FrameType
{
    Hello,    ///< client -> server: version handshake
    HelloAck, ///< server -> client: handshake accepted
    Batch,    ///< a job batch (encodeJobBatch payload)
    Results,  ///< batch results (encodeWorkerOutput payload)
    Stats,    ///< client: request (empty) / server: live stats JSON
    Error,    ///< one-line human-readable failure; connection closes
    Bye,      ///< clean goodbye (empty payload)
};

/** The header token of a frame type. */
const char *frameTypeName(FrameType type);

/** One parsed frame. */
struct Frame
{
    FrameType type = FrameType::Error;
    std::string payload;
};

/**
 * The handshake payload this build speaks: the wire revision plus the
 * record-format versions the payloads are encoded with.  Builds must
 * agree on the WHOLE string to talk.
 */
std::string helloPayload();

/** A frame as bytes (header line + payload). */
std::string encodeFrame(FrameType type, const std::string &payload);

/**
 * Write one frame to @p fd (handles short writes; sockets are
 * written with MSG_NOSIGNAL so a dead peer is an error, not a
 * SIGPIPE).  False with a one-line reason on failure.
 */
bool writeFrame(int fd, FrameType type, const std::string &payload,
                std::string *error);

/**
 * Read one frame from @p fd.  @p timeout_ms < 0 blocks indefinitely;
 * otherwise the WHOLE frame must arrive within the timeout.  Returns
 * false on timeout, corruption, or EOF; when the peer closed before
 * the first header byte (a clean goodbye-by-close), @p clean_eof is
 * set so callers can tell disconnect from damage.
 */
bool readFrame(int fd, Frame *frame, int timeout_ms,
               std::string *error, bool *clean_eof = nullptr);

} // namespace vegeta::sim::wire

#endif // VEGETA_SIM_WIRE_HPP
