/**
 * @file
 * Trace serialization tests: generate-once / replay-anywhere, the
 * Pin-trace-file equivalent of the paper's methodology.  The block
 * codec is pinned to format v1 byte for byte, and its reader is
 * driven through a stream that stalls at random so records straddle
 * every kind of refill.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <streambuf>

#include <sys/stat.h>

#include "common/random.hpp"
#include "cpu/trace_cpu.hpp"
#include "cpu/trace_io.hpp"
#include "isa/encoding.hpp"
#include "kernels/gemm_kernels.hpp"
#include "sim/serial.hpp"

namespace vegeta::cpu {
namespace {

Trace
sampleTrace()
{
    kernels::KernelOptions opts;
    opts.traceOnly = true;
    return kernels::runSpmmKernel({32, 32, 128}, 2, opts).trace;
}

/** A trace of a few reader blocks (6635 ops at 4:4). */
Trace
multiBlockTrace()
{
    kernels::KernelOptions opts;
    opts.traceOnly = true;
    return kernels::runSpmmKernel({128, 128, 512}, 4, opts).trace;
}

std::string
bytesOf(const Trace &trace)
{
    std::ostringstream os;
    EXPECT_TRUE(writeTrace(os, trace));
    return os.str();
}

void
expectSameOps(const Trace &a, const Trace &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].kind, b[i].kind) << i;
        EXPECT_EQ(a[i].addr, b[i].addr) << i;
        EXPECT_EQ(a[i].bytes, b[i].bytes) << i;
        EXPECT_EQ(a[i].chain, b[i].chain) << i;
        EXPECT_EQ(isa::encode(a[i].tile), isa::encode(b[i].tile)) << i;
    }
}

/**
 * A read-only stream buffer that cannot seek and hands out its bytes
 * in seeded short reads of 1-40 bytes, like a pipe whose writer
 * stalls at random: records straddle refills everywhere.
 */
class StallingBuf : public std::streambuf
{
  public:
    StallingBuf(std::string bytes, u64 seed)
        : bytes_(std::move(bytes)), rng_(seed)
    {
    }

  protected:
    int_type
    underflow() override
    {
        if (gptr() < egptr())
            return traits_type::to_int_type(*gptr());
        if (pos_ >= bytes_.size())
            return traits_type::eof();
        const std::size_t n = std::min<std::size_t>(
            1 + rng_.nextBelow(40), bytes_.size() - pos_);
        char *base = bytes_.data() + pos_;
        setg(base, base, base + n);
        pos_ += n;
        return traits_type::to_int_type(*base);
    }

  private:
    std::string bytes_;
    Rng rng_;
    std::size_t pos_ = 0;
};

TEST(TraceIo, StreamRoundTrip)
{
    const Trace trace = sampleTrace();
    std::stringstream buffer;
    writeTrace(buffer, trace);
    const auto back = readTrace(buffer);
    ASSERT_TRUE(back.has_value());
    ASSERT_EQ(back->size(), trace.size());
    for (std::size_t i = 0; i < trace.size(); ++i) {
        EXPECT_EQ((*back)[i].kind, trace[i].kind) << i;
        EXPECT_EQ((*back)[i].addr, trace[i].addr) << i;
        EXPECT_EQ((*back)[i].bytes, trace[i].bytes) << i;
        EXPECT_EQ((*back)[i].chain, trace[i].chain) << i;
        EXPECT_EQ((*back)[i].tile.toString(), trace[i].tile.toString())
            << i;
    }
}

TEST(TraceIo, ReplayedTraceSimulatesIdentically)
{
    const Trace trace = sampleTrace();
    std::stringstream buffer;
    writeTrace(buffer, trace);
    const auto back = readTrace(buffer);
    ASSERT_TRUE(back.has_value());

    CoreConfig core;
    const auto direct =
        TraceCpu(core, engine::vegetaS162()).run(trace);
    const auto replayed =
        TraceCpu(core, engine::vegetaS162()).run(*back);
    EXPECT_EQ(direct.totalCycles, replayed.totalCycles);
    EXPECT_EQ(direct.retiredOps, replayed.retiredOps);
    EXPECT_EQ(direct.cacheMisses, replayed.cacheMisses);
}

TEST(TraceIo, FileRoundTrip)
{
    const Trace trace = sampleTrace();
    const std::string path = "/tmp/vegeta_trace_test.vgtr";
    ASSERT_TRUE(writeTraceFile(path, trace));
    const auto back = readTraceFile(path);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->size(), trace.size());
    std::remove(path.c_str());
}

TEST(TraceIo, RejectsBadMagic)
{
    std::stringstream buffer;
    buffer << "NOPE" << std::string(64, '\0');
    EXPECT_FALSE(readTrace(buffer).has_value());
}

TEST(TraceIo, RejectsTruncation)
{
    const Trace trace = sampleTrace();
    std::stringstream buffer;
    writeTrace(buffer, trace);
    std::string bytes = buffer.str();
    bytes.resize(bytes.size() / 2);
    std::stringstream truncated(bytes);
    EXPECT_FALSE(readTrace(truncated).has_value());
}

TEST(TraceIo, RejectsWrongVersion)
{
    const Trace trace = sampleTrace();
    std::stringstream buffer;
    writeTrace(buffer, trace);
    std::string bytes = buffer.str();
    bytes[4] = 99; // version field
    std::stringstream bad(bytes);
    EXPECT_FALSE(readTrace(bad).has_value());
}

TEST(TraceIo, RejectsCountLargerThanStream)
{
    // A corrupt header promising billions of ops must fail cleanly
    // before any element read -- and, critically, without reserving
    // a multi-GB vector for the lie.
    const Trace trace = sampleTrace();
    std::stringstream buffer;
    writeTrace(buffer, trace);
    std::string bytes = buffer.str();
    const u64 huge = u64(1) << 60;
    std::memcpy(&bytes[8], &huge, sizeof(huge)); // count field
    std::stringstream corrupt(bytes);
    EXPECT_FALSE(readTrace(corrupt).has_value());
}

TEST(TraceIo, RejectsCountBeyondTruncatedBody)
{
    const Trace trace = sampleTrace();
    std::stringstream buffer;
    writeTrace(buffer, trace);
    std::string bytes = buffer.str();
    // Keep the header (magic + version + count) but drop most of the
    // body: the recorded count now exceeds the remaining bytes.
    bytes.resize(16 + 8);
    std::stringstream truncated(bytes);
    EXPECT_FALSE(readTrace(truncated).has_value());
}

TEST(TraceIo, RejectsOverCountedHeaderOnFile)
{
    const Trace trace = sampleTrace();
    const std::string path = "/tmp/vegeta_trace_corrupt.vgtr";
    ASSERT_TRUE(writeTraceFile(path, trace));

    std::fstream file(path, std::ios::in | std::ios::out |
                                std::ios::binary);
    ASSERT_TRUE(file.good());
    file.seekp(8);
    const u64 huge = u64(0xffffffffffff);
    file.write(reinterpret_cast<const char *>(&huge), sizeof(huge));
    file.close();

    EXPECT_FALSE(readTraceFile(path).has_value());
    std::remove(path.c_str());
}

TEST(TraceIo, MissingFileReturnsNullopt)
{
    EXPECT_FALSE(
        readTraceFile("/tmp/definitely_not_here.vgtr").has_value());
}

TEST(TraceIo, EmptyTraceRoundTrips)
{
    std::stringstream buffer;
    writeTrace(buffer, {});
    const auto back = readTrace(buffer);
    ASSERT_TRUE(back.has_value());
    EXPECT_TRUE(back->empty());
}

TEST(TraceIo, FormatV1BytesArePinned)
{
    // The FNV-1a checksum of this trace's bytes as the per-field
    // writer that preceded the block codec wrote them: format v1
    // cannot drift.
    const std::string bytes = bytesOf(sampleTrace());
    EXPECT_EQ(bytes.size(), 16u + 179u * 33u);
    EXPECT_EQ(sim::serial::checksum(bytes), 0x665dcd93684c38c1ull);
}

TEST(TraceIo, WriterPatchesAnUnknownCount)
{
    // A TraceWriter that did not know its op count up front (the
    // teed --trace-out run) writes the same bytes as writeTrace.
    const Trace trace = multiBlockTrace();
    std::stringstream buffer;
    TraceWriter writer(buffer);
    for (const TraceOp &op : trace)
        writer.emit(op);
    ASSERT_TRUE(writer.finish());
    EXPECT_EQ(writer.written(), trace.size());
    EXPECT_EQ(buffer.str(), bytesOf(trace));
}

TEST(TraceIo, ManyDistinctControlWordsRoundTrip)
{
    // More distinct tile instructions than the reader's decode table
    // has slots, so colliding words must decode again.
    Trace trace;
    for (u32 i = 0; i < 1000; ++i) {
        trace.push_back(TraceOp::fromTileInstruction(isa::makeTileLoadT(
            isa::TileReg{isa::RegClass::Treg, u8(i % 8)}, 0x1000 + i,
            64 * (i + 1))));
        trace.push_back(TraceOp::alu());
    }
    std::istringstream bytes(bytesOf(trace));
    const auto back = readTrace(bytes);
    ASSERT_TRUE(back.has_value());
    expectSameOps(*back, trace);
}

TEST(TraceIo, StalledStreamMatchesBlockReads)
{
    // Short reads of 1-40 bytes from a stream that cannot seek: the
    // streamed ops equal readTrace of the same bytes op for op, and
    // any truncation fails (the header count cannot be checked up
    // front here, so the short block has to catch it).
    const Trace trace = multiBlockTrace();
    ASSERT_GT(trace.size(), 3 * kTraceBlockOps);
    const std::string bytes = bytesOf(trace);
    std::istringstream whole(bytes);
    const auto reference = readTrace(whole);
    ASSERT_TRUE(reference.has_value());
    expectSameOps(*reference, trace);

    for (const u64 seed : {1u, 2u, 3u}) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        StallingBuf stalling(bytes, seed);
        std::istream is(&stalling);
        TraceCollector streamed;
        const auto count = streamTrace(is, streamed);
        ASSERT_TRUE(count.has_value());
        EXPECT_EQ(*count, trace.size());
        expectSameOps(streamed.trace(), *reference);
    }

    const std::size_t block_bytes = kTraceBlockOps * 33;
    for (const std::size_t cut :
         {bytes.size() - 1, bytes.size() - 33, 16 + block_bytes,
          16 + block_bytes + 17, std::size_t(20)}) {
        SCOPED_TRACE("cut at " + std::to_string(cut));
        StallingBuf stalling(bytes.substr(0, cut), cut);
        std::istream is(&stalling);
        TraceCollector sink;
        EXPECT_FALSE(streamTrace(is, sink).has_value());
    }
}

/** An empty scratch directory for one file test. */
std::filesystem::path
scratchDir(const std::string &name)
{
    const auto dir = std::filesystem::path(::testing::TempDir()) /
                     ("vegeta_trace_io_" + name);
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

ino_t
inodeOf(const std::string &path)
{
    struct stat st = {};
    EXPECT_EQ(::stat(path.c_str(), &st), 0) << path;
    return st.st_ino;
}

TEST(TraceIo, OverwriteWritesAFreshFile)
{
    // Rewriting a trace removes the old file instead of truncating
    // it: the path names a new inode, a reader of the old one still
    // sees the old trace, and a shorter trace over a longer one reads
    // back exactly.
    const std::string path =
        (scratchDir("overwrite") / "t.vgtr").string();
    ASSERT_TRUE(writeTraceFile(path, multiBlockTrace()));
    const ino_t old_inode = inodeOf(path);
    std::ifstream held(path, std::ios::binary); // pins the old inode

    ASSERT_TRUE(writeTraceFile(path, sampleTrace()));
    EXPECT_NE(inodeOf(path), old_inode);
    const auto back = readTraceFile(path);
    ASSERT_TRUE(back.has_value());
    expectSameOps(*back, sampleTrace());
    EXPECT_EQ(std::filesystem::file_size(path),
              bytesOf(sampleTrace()).size());

    const auto old = readTrace(held);
    ASSERT_TRUE(old.has_value());
    expectSameOps(*old, multiBlockTrace());
}

TEST(TraceIo, SymlinkIsWrittenThrough)
{
    namespace fs = std::filesystem;
    const auto dir = scratchDir("symlink");
    const auto target = dir / "target.vgtr";
    const auto link = dir / "link.vgtr";
    ASSERT_TRUE(writeTraceFile(target.string(), multiBlockTrace()));
    fs::create_symlink(target, link);

    ASSERT_TRUE(writeTraceFile(link.string(), sampleTrace()));
    EXPECT_TRUE(fs::is_symlink(fs::symlink_status(link)));
    const auto back = readTraceFile(target.string());
    ASSERT_TRUE(back.has_value());
    expectSameOps(*back, sampleTrace());
}

TEST(TraceIo, WriteToFullDeviceFails)
{
    // A trace small enough to sit in the file buffer until the final
    // flush must still report the failed write, and the device stays
    // a device: only regular files are replaced.
    if (!std::filesystem::exists("/dev/full"))
        GTEST_SKIP() << "no /dev/full on this host";
    EXPECT_FALSE(writeTraceFile(
        "/dev/full", {TraceOp::alu(), TraceOp::load(0x1000, 64)}));
    EXPECT_FALSE(writeTraceFile("/dev/full", sampleTrace()));
    EXPECT_FALSE(writeTraceFile("/dev/full", multiBlockTrace()));
    EXPECT_TRUE(std::filesystem::is_character_file("/dev/full"));

    std::ofstream os("/dev/full", std::ios::binary);
    TraceWriter writer(os);
    for (const TraceOp &op : sampleTrace())
        writer.emit(op);
    EXPECT_FALSE(writer.finish());
}

TEST(TraceIo, CountsEachStreamOnce)
{
    const Trace trace = multiBlockTrace();
    telemetry::resetMetrics();
    const std::string bytes = bytesOf(trace);
    std::istringstream is(bytes);
    ASSERT_TRUE(readTrace(is).has_value());
    const telemetry::MetricsSnapshot snap = telemetry::snapshot();
    EXPECT_EQ(snap.counter("trace_io.write.ops"), trace.size());
    EXPECT_EQ(snap.counter("trace_io.write.bytes"), bytes.size());
    EXPECT_EQ(snap.counter("trace_io.read.ops"), trace.size());
    EXPECT_EQ(snap.counter("trace_io.read.bytes"), bytes.size());
}

} // namespace
} // namespace vegeta::cpu
