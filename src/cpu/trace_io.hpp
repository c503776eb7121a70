/**
 * @file
 * Trace serialization.
 *
 * The paper's flow generates traces with a Pintool and replays them in
 * MacSim; this module provides the equivalent on-disk format so traces
 * can be generated once and replayed across engine configurations (or
 * inspected offline).
 *
 * The codec works in blocks in both directions: TraceReader fills a
 * fixed block of records with one read and decodes them one op at a
 * time, and TraceWriter is a TraceSink that encodes ops into a block
 * and writes it whole.  Either one holds a single block in memory,
 * whatever the trace's length, so `simulate_cli run --trace-in`
 * streams a file straight into the replayer and `--trace-out` tees the
 * generator into the replayer and the file: neither builds a
 * cpu::Trace, and memory stays flat as traces grow.
 *
 * Binary format v1 (little-endian), unchanged by the block codec:
 *   magic   "VGTR"             4 B
 *   version u32                4 B
 *   count   u64                8 B
 *   per op (33 B):
 *     kind  u8
 *     chain u32
 *     addr  u64
 *     bytes u32
 *     tile  EncodedInstruction (2 x u64)
 *
 * Telemetry: every stream read or written is one `trace_io.read` /
 * `trace_io.write` span and adds its ops and bytes to the
 * `trace_io.read.*` / `trace_io.write.*` counters once, at its end.
 */

#ifndef VEGETA_CPU_TRACE_IO_HPP
#define VEGETA_CPU_TRACE_IO_HPP

#include <array>
#include <fstream>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "cpu/trace_sink.hpp"
#include "cpu/uop.hpp"
#include "sim/telemetry.hpp"

namespace vegeta::cpu {

inline constexpr u32 kTraceFormatVersion = 1;

/** Records per I/O block of TraceReader and TraceWriter. */
inline constexpr u64 kTraceBlockOps = 2048;

/**
 * Incremental trace deserializer: validates the header on
 * construction, then hands out one op per next() call, decoded from a
 * block that one read fills (never past the header's op count), so an
 * on-disk trace can be replayed (fed into a TraceSink) holding one
 * block in memory.
 *
 * The on-disk op count is untrusted: on seekable streams it is
 * checked against the bytes actually remaining up front; otherwise
 * truncation surfaces as error() at the short block.
 */
class TraceReader
{
  public:
    explicit TraceReader(std::istream &is);

    /** Header parsed and plausible (magic, version, count). */
    bool valid() const { return header_ok_; }

    /** Op count promised by the header (0 if the header was bad). */
    u64 count() const { return count_; }

    /** Ops handed out so far. */
    u64 read() const { return read_; }

    /**
     * The next op, or nullopt when the stream is exhausted.  After a
     * nullopt, error() distinguishes a clean end from truncation or a
     * malformed op.
     */
    std::optional<TraceOp> next();

    /** True once a read failed before count() ops were delivered. */
    bool error() const { return error_; }

    /** How many ops to reserve when materializing (clamped). */
    u64 reserveHint() const { return reserve_hint_; }

  private:
    /** Read the next block of records; false on a short read. */
    bool refill();

    std::istream &is_;
    std::vector<char> block_;
    std::size_t at_ = 0;  ///< offset of the next record in block_
    std::size_t end_ = 0; ///< bytes of block_ holding records

    /** One decoded control word. */
    struct Decoded
    {
        u64 word = 0;
        isa::Instruction tile;
        bool valid = false;
    };
    static constexpr u32 kDecodedLog2 = 6;
    std::array<Decoded, 1u << kDecodedLog2> decoded_{};

    u64 count_ = 0;
    u64 read_ = 0;
    u64 reserve_hint_ = 0;
    bool header_ok_ = false;
    bool error_ = false;
};

/**
 * Incremental trace serializer: a TraceSink that encodes each op into
 * a block and writes whole blocks.  The header goes out on
 * construction promising @p count ops; finish() patches the count in
 * place when a different number was emitted, which needs a seekable
 * stream.  Pass the real count up front to write to any stream.
 */
class TraceWriter final : public TraceSink
{
  public:
    explicit TraceWriter(std::ostream &os, u64 count = 0);

    TraceWriter(const TraceWriter &) = delete;
    TraceWriter &operator=(const TraceWriter &) = delete;

    void emit(const TraceOp &op) override;

    /**
     * Write the last block, patch the header's count if needed, and
     * flush the stream.  True when every byte reached it.
     */
    bool finish();

    /** Ops emitted so far. */
    u64 written() const { return written_; }

  private:
    void writeBlock();

    std::ostream &os_;
    std::streamoff start_; ///< stream offset of the header (-1: none)
    std::vector<char> block_;
    std::size_t at_ = 0; ///< bytes of block_ holding records
    u64 promised_;
    u64 written_ = 0;
    telemetry::Span span_;
};

/**
 * Open @p path for writing a new trace; check the stream before use.
 * An existing regular file is removed first, so the trace lands in a
 * fresh inode instead of truncating the old one: on ext4 (with the
 * default auto_da_alloc) a file truncated and rewritten starts
 * writeback at close, and the next truncate of it waits for that
 * I/O, often for hundreds of milliseconds.  A symlink is written
 * through and a device is opened as it is.
 */
std::ofstream createTraceFile(const std::string &path);

/**
 * Serialize a trace to a stream / file; false when a byte could not
 * be written (the stream is flushed before the check).
 */
bool writeTrace(std::ostream &os, const Trace &trace);
bool writeTraceFile(const std::string &path, const Trace &trace);

/**
 * Stream every op of a serialized trace into @p sink; returns the op
 * count on success, nullopt on a bad header, truncation, or a
 * malformed op (the sink may have consumed a prefix by then).
 */
std::optional<u64> streamTrace(std::istream &is, TraceSink &sink);

/**
 * Deserialize; returns nullopt on bad magic/version/truncation or a
 * malformed embedded tile instruction.
 */
std::optional<Trace> readTrace(std::istream &is);
std::optional<Trace> readTraceFile(const std::string &path);

} // namespace vegeta::cpu

#endif // VEGETA_CPU_TRACE_IO_HPP
