#include "cpu/trace_io.hpp"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <istream>
#include <ostream>

#include "isa/encoding.hpp"

namespace vegeta::cpu {

namespace {

constexpr char kMagic[4] = {'V', 'G', 'T', 'R'};

// Format v1 byte layout: the header, then one fixed-size record per
// op (see trace_io.hpp).
constexpr std::size_t kVersionAt = 4;
constexpr std::size_t kCountAt = 8;
constexpr std::size_t kHeaderBytes = 16;

constexpr std::size_t kKindAt = 0;
constexpr std::size_t kChainAt = 1;
constexpr std::size_t kAddrAt = 5;
constexpr std::size_t kBytesAt = 13;
constexpr std::size_t kWordAt = 17;
constexpr std::size_t kTileAddrAt = 25;
constexpr std::size_t kRecordBytes = 33;
static_assert(kTileAddrAt + sizeof(u64) == kRecordBytes);

template <typename T>
void
put(char *at, const T &value)
{
    std::memcpy(at, &value, sizeof(T));
}

template <typename T>
T
get(const char *at)
{
    T value;
    std::memcpy(&value, at, sizeof(T));
    return value;
}

/** Count one finished read stream: ops delivered and their bytes. */
void
countRead(u64 ops)
{
    static const telemetry::MetricId ops_id =
        telemetry::counterId("trace_io.read.ops");
    static const telemetry::MetricId bytes_id =
        telemetry::counterId("trace_io.read.bytes");
    telemetry::add(ops_id, ops);
    telemetry::add(bytes_id, kHeaderBytes + ops * kRecordBytes);
}

/**
 * Hand every op of @p reader to @p consume inside one trace_io.read
 * span; the op count, or nullopt when the stream ended early or held
 * a malformed op.
 */
template <typename Consume>
std::optional<u64>
drain(TraceReader &reader, Consume &&consume)
{
    telemetry::Span span("trace_io.read", reader.count());
    while (auto op = reader.next())
        consume(*op);
    countRead(reader.read());
    if (reader.error())
        return std::nullopt;
    return reader.read();
}

/** Count one finished write stream: ops encoded and their bytes. */
void
countWrite(u64 ops)
{
    static const telemetry::MetricId ops_id =
        telemetry::counterId("trace_io.write.ops");
    static const telemetry::MetricId bytes_id =
        telemetry::counterId("trace_io.write.bytes");
    telemetry::add(ops_id, ops);
    telemetry::add(bytes_id, kHeaderBytes + ops * kRecordBytes);
}

} // namespace

TraceReader::TraceReader(std::istream &is) : is_(is)
{
    char header[kHeaderBytes];
    is_.read(header, kHeaderBytes);
    if (is_.gcount() != static_cast<std::streamsize>(kHeaderBytes) ||
        std::memcmp(header, kMagic, sizeof kMagic) != 0 ||
        get<u32>(header + kVersionAt) != kTraceFormatVersion)
        return;
    count_ = get<u64>(header + kCountAt);

    // The on-disk count is untrusted: a corrupt or truncated header
    // must not drive a multi-GB reserve before the first element read
    // fails.  On seekable streams the count is validated against the
    // bytes actually remaining; otherwise the reserve hint is clamped
    // and materializing callers grow on demand.
    constexpr u64 kReserveClampOps = u64(1) << 20;
    reserve_hint_ = std::min(count_, kReserveClampOps);
    const auto here = is_.tellg();
    if (here != std::istream::pos_type(-1)) {
        is_.seekg(0, std::ios::end);
        const auto end = is_.tellg();
        // A stream that can tell but not seek-to-end must still be
        // readable below: drop the failed-seek state, skip validation.
        is_.clear();
        is_.seekg(here);
        if (end != std::istream::pos_type(-1) && is_) {
            const u64 remaining =
                end >= here ? static_cast<u64>(end - here) : 0;
            if (count_ > remaining / kRecordBytes) {
                count_ = 0;
                return;
            }
            reserve_hint_ = count_;
        }
    }
    block_.resize(std::min(count_, kTraceBlockOps) * kRecordBytes);
    header_ok_ = true;
}

bool
TraceReader::refill()
{
    // Never past the header's count: a trailing byte stays unread.
    const std::size_t bytes =
        std::min(count_ - read_, kTraceBlockOps) * kRecordBytes;
    is_.read(block_.data(), static_cast<std::streamsize>(bytes));
    at_ = 0;
    end_ = bytes;
    return is_.gcount() == static_cast<std::streamsize>(bytes);
}

std::optional<TraceOp>
TraceReader::next()
{
    if (!header_ok_ || error_ || read_ >= count_)
        return std::nullopt;
    if (at_ == end_ && !refill()) {
        error_ = true;
        return std::nullopt;
    }
    const char *record = block_.data() + at_;
    const u8 kind = get<u8>(record + kKindAt);
    if (kind > static_cast<u8>(UopKind::TileCompute)) {
        error_ = true;
        return std::nullopt;
    }
    // A control word decodes the same wherever it appears (the
    // address word is copied through), and a kernel's trace holds a
    // dozen distinct words: each is decoded once into a small
    // direct-mapped table, a colliding word just decodes again.
    const u64 word = get<u64>(record + kWordAt);
    Decoded &slot =
        decoded_[(word * 0x9e3779b97f4a7c15ull) >> (64 - kDecodedLog2)];
    if (!slot.valid || slot.word != word) {
        const auto tile = isa::decode({word, 0});
        if (!tile) {
            error_ = true;
            return std::nullopt;
        }
        slot = {word, *tile, true};
    }
    TraceOp op;
    op.kind = static_cast<UopKind>(kind);
    op.tile = slot.tile;
    op.tile.addr = get<Addr>(record + kTileAddrAt);
    op.addr = get<Addr>(record + kAddrAt);
    op.bytes = get<u32>(record + kBytesAt);
    op.chain = get<u32>(record + kChainAt);
    at_ += kRecordBytes;
    ++read_;
    return op;
}

TraceWriter::TraceWriter(std::ostream &os, u64 count)
    : os_(os), start_(os.tellp()),
      block_(kTraceBlockOps * kRecordBytes), promised_(count),
      span_("trace_io.write")
{
    char header[kHeaderBytes];
    std::memcpy(header, kMagic, sizeof kMagic);
    put(header + kVersionAt, kTraceFormatVersion);
    put(header + kCountAt, count);
    os_.write(header, kHeaderBytes);
}

void
TraceWriter::emit(const TraceOp &op)
{
    if (at_ == block_.size())
        writeBlock();
    char *record = block_.data() + at_;
    const isa::EncodedInstruction enc = isa::encode(op.tile);
    put(record + kKindAt, static_cast<u8>(op.kind));
    put(record + kChainAt, op.chain);
    put(record + kAddrAt, op.addr);
    put(record + kBytesAt, op.bytes);
    put(record + kWordAt, enc.word);
    put(record + kTileAddrAt, enc.addr);
    at_ += kRecordBytes;
    ++written_;
}

void
TraceWriter::writeBlock()
{
    os_.write(block_.data(), static_cast<std::streamsize>(at_));
    at_ = 0;
}

bool
TraceWriter::finish()
{
    writeBlock();
    if (written_ != promised_) {
        // The count was not known up front: patch it in place.
        const auto end = os_.tellp();
        if (start_ < 0 || end == std::ostream::pos_type(-1)) {
            os_.setstate(std::ios::failbit);
        } else {
            char count[sizeof(u64)];
            put(count, written_);
            os_.seekp(start_ + static_cast<std::streamoff>(kCountAt));
            os_.write(count, sizeof count);
            os_.seekp(end);
        }
    }
    // Check after the flush: the end of the trace may still sit in
    // the stream's buffer until then.
    os_.flush();
    countWrite(written_);
    span_.close();
    return static_cast<bool>(os_);
}

bool
writeTrace(std::ostream &os, const Trace &trace)
{
    TraceWriter writer(os, trace.size());
    for (const auto &op : trace)
        writer.emit(op);
    return writer.finish();
}

std::ofstream
createTraceFile(const std::string &path)
{
    namespace fs = std::filesystem;
    std::error_code ec;
    if (fs::is_regular_file(fs::symlink_status(path, ec)))
        fs::remove(path, ec);
    return std::ofstream(path, std::ios::binary);
}

bool
writeTraceFile(const std::string &path, const Trace &trace)
{
    std::ofstream os = createTraceFile(path);
    return os && writeTrace(os, trace);
}

std::optional<u64>
streamTrace(std::istream &is, TraceSink &sink)
{
    TraceReader reader(is);
    if (!reader.valid())
        return std::nullopt;
    return drain(reader, [&](const TraceOp &op) { sink.emit(op); });
}

std::optional<Trace>
readTrace(std::istream &is)
{
    TraceReader reader(is);
    if (!reader.valid())
        return std::nullopt;
    Trace trace;
    trace.reserve(reader.reserveHint());
    if (!drain(reader, [&](const TraceOp &op) { trace.push_back(op); }))
        return std::nullopt;
    return trace;
}

std::optional<Trace>
readTraceFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        return std::nullopt;
    return readTrace(is);
}

} // namespace vegeta::cpu
