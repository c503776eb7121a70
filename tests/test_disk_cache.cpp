/**
 * @file
 * Persistent result-cache tests: round-trips are bit-identical,
 * a version-mismatched file is invalidated wholesale, corrupt or
 * truncated records degrade to misses (never wrong results), and two
 * sequential Sessions share results through the same cache directory.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "expect_identical.hpp"
#include "sim/session.hpp"

namespace vegeta::sim {
namespace {

namespace fs = std::filesystem;

/** A fresh (empty) cache directory under the test temp dir. */
std::string
freshDir(const std::string &name)
{
    const fs::path dir =
        fs::path(::testing::TempDir()) / "vegeta_disk_cache" / name;
    fs::remove_all(dir);
    return dir.string();
}

SimulationResult
sampleResult(const std::string &tag, double util)
{
    SimulationResult result;
    result.workload = tag;
    result.engine = "VEGETA-S-2-2";
    result.layerN = 2;
    result.executedN = 2;
    result.outputForwarding = true;
    result.kernel = "optimized";
    result.coreCycles = 12345;
    result.instructions = 678;
    result.engineInstructions = 90;
    result.tileComputes = 12;
    result.macUtilization = util;
    result.cacheHits = 3;
    result.cacheMisses = 4;
    return result;
}

TEST(DiskCache, RoundTripsAcrossInstances)
{
    const std::string dir = freshDir("roundtrip");
    // 0.1 has no exact double representation: the bit-pattern
    // serialization must still round-trip it exactly.
    const SimulationResult original = sampleResult("w", 0.1);
    {
        DiskResultCache cache(dir);
        ASSERT_TRUE(cache.ok());
        EXPECT_FALSE(cache.find("key-a").has_value());
        cache.insert("key-a", original);
        EXPECT_EQ(cache.size(), 1u);
    }
    DiskResultCache reopened(dir);
    ASSERT_TRUE(reopened.ok());
    EXPECT_EQ(reopened.size(), 1u);
    EXPECT_EQ(reopened.stats().loaded, 1u);
    const auto hit = reopened.find("key-a");
    ASSERT_TRUE(hit.has_value());
    expectIdenticalSim(*hit, original);
    EXPECT_EQ(reopened.stats().hits, 1u);
}

TEST(DiskCache, FirstInsertWins)
{
    const std::string dir = freshDir("first_wins");
    DiskResultCache cache(dir);
    cache.insert("k", sampleResult("first", 0.5));
    cache.insert("k", sampleResult("second", 0.75));
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_EQ(cache.stats().insertions, 1u);
    EXPECT_EQ(cache.find("k")->workload, "first");
}

TEST(DiskCache, VersionMismatchInvalidatesWholeFile)
{
    const std::string dir = freshDir("version");
    {
        DiskResultCache cache(dir);
        cache.insert("k", sampleResult("w", 0.5));
    }
    // Rewrite the header to a future version: every record after it
    // must be ignored (a format change never risks misreads).
    const fs::path file = fs::path(dir) / "results.vgc";
    std::string text;
    {
        std::ifstream is(file);
        std::stringstream buffer;
        buffer << is.rdbuf();
        text = buffer.str();
    }
    text.replace(text.find("v2"), 2, "v9");
    {
        std::ofstream os(file, std::ios::trunc);
        os << text;
    }

    DiskResultCache reopened(dir);
    ASSERT_TRUE(reopened.ok());
    EXPECT_EQ(reopened.size(), 0u);
    EXPECT_TRUE(reopened.stats().versionMismatch);
    EXPECT_FALSE(reopened.find("k").has_value());

    // The next insert rewrites the file under the current header...
    reopened.insert("k2", sampleResult("w2", 0.25));
    DiskResultCache third(dir);
    EXPECT_FALSE(third.stats().versionMismatch);
    EXPECT_EQ(third.size(), 1u);
    ASSERT_TRUE(third.find("k2").has_value());
}

TEST(DiskCache, TruncatedAndCorruptRecordsDegradeToMisses)
{
    const std::string dir = freshDir("corrupt");
    const SimulationResult good = sampleResult("good", 0.5);
    {
        DiskResultCache cache(dir);
        cache.insert("good-key", good);
        cache.insert("rotten-key", sampleResult("rotten", 0.25));
    }
    const fs::path file = fs::path(dir) / "results.vgc";
    std::string text;
    {
        std::ifstream is(file);
        std::stringstream buffer;
        buffer << is.rdbuf();
        text = buffer.str();
    }
    // Silent bit rot inside a value field: tamper the coreCycles
    // digits of the second record without touching its shape.  The
    // per-record checksum must reject it (a miss, not a wrong hit).
    const auto rotten = text.find("\t12345\t", text.find("rotten"));
    ASSERT_NE(rotten, std::string::npos);
    text.replace(rotten, 7, "\t19345\t");
    {
        // Plus a field-count-corrupt record, a number-corrupt record,
        // and a truncated tail (no newline, cut mid-record).
        std::ofstream os(file, std::ios::trunc);
        os << text;
        os << "short-key\tonly\tthree\n";
        os << "bad-num\tw\te\tNaN\t2\t1\topt\t1\t1\t1\t1\tzz\t0\t0\n";
        os << "trunc-key\tw\te\t2";
    }
    DiskResultCache reopened(dir);
    ASSERT_TRUE(reopened.ok());
    EXPECT_EQ(reopened.size(), 1u);
    EXPECT_EQ(reopened.stats().loaded, 1u);
    EXPECT_EQ(reopened.stats().rejected, 4u);
    const auto hit = reopened.find("good-key");
    ASSERT_TRUE(hit.has_value());
    expectIdenticalSim(*hit, good);
    EXPECT_FALSE(reopened.find("rotten-key").has_value());
    EXPECT_FALSE(reopened.find("trunc-key").has_value());
}

TEST(DiskCache, LegacyV1FileIsInvalidatedWholesale)
{
    const std::string dir = freshDir("legacy_v1");
    fs::create_directories(dir);
    {
        // A file exactly as the pre-analytical v1 build wrote it
        // (no type tag, checksum over the old record shape).  The
        // version bump must invalidate it wholesale rather than
        // guess at its records.
        std::ofstream os(fs::path(dir) / "results.vgc");
        os << "vegeta-result-cache v1\n";
        os << "some-key\tw\tVEGETA-S-2-2\t2\t2\t1\toptimized\t12345"
              "\t678\t90\t12\t3fb999999999999a\t3\t4\t"
              "0123456789abcdef\n";
    }
    DiskResultCache cache(dir);
    ASSERT_TRUE(cache.ok());
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_TRUE(cache.stats().versionMismatch);
    EXPECT_FALSE(cache.find("some-key").has_value());
    // The next insert rewrites the file under the v2 header.
    cache.insert("k", sampleResult("w", 0.5));
    DiskResultCache reopened(dir);
    EXPECT_FALSE(reopened.stats().versionMismatch);
    EXPECT_EQ(reopened.size(), 1u);
}

AnalyticalResult
sampleAnalysis(const std::string &model)
{
    AnalyticalResult result;
    result.model = model;
    result.columns = {"design", "value"};
    auto &first = result.row();
    first.push_back(AnalyticalCell::text("VEGETA-S-16-2"));
    // 0.1 exercises the bit-pattern round trip; precision -1 the
    // signed field.
    first.push_back(AnalyticalCell::number(0.1, 4));
    auto &second = result.row();
    second.push_back(AnalyticalCell::text("odd\ttext %25\nlines"));
    second.push_back(AnalyticalCell::number(-3.25e-17, 0));
    result.notes = {"a note", "another\twith tabs"};
    return result;
}

TEST(DiskCache, AnalyticalResultsRoundTripAcrossInstances)
{
    const std::string dir = freshDir("analytical");
    const AnalyticalResult original = sampleAnalysis("fig15");
    {
        DiskResultCache cache(dir);
        ASSERT_TRUE(cache.ok());
        EXPECT_FALSE(cache.findAnalysis("ana-key").has_value());
        cache.insertAnalysis("ana-key", original);
        // Simulation and analysis entries coexist in one file and
        // never collide, even under the same key text.
        cache.insert("ana-key", sampleResult("sim-under-same-key",
                                             0.5));
        EXPECT_EQ(cache.size(), 2u);
    }
    DiskResultCache reopened(dir);
    ASSERT_TRUE(reopened.ok());
    EXPECT_EQ(reopened.size(), 2u);
    EXPECT_EQ(reopened.stats().loaded, 2u);
    EXPECT_EQ(reopened.stats().simulationEntries, 1u);
    EXPECT_EQ(reopened.stats().analysisEntries, 1u);
    const auto hit = reopened.findAnalysis("ana-key");
    ASSERT_TRUE(hit.has_value());
    expectIdenticalAnalysis(*hit, original);
    EXPECT_EQ(reopened.find("ana-key")->workload,
              "sim-under-same-key");
}

TEST(DiskCache, MergeFromUnionsFirstInsertWins)
{
    const std::string dst_dir = freshDir("merge_dst");
    const std::string src_dir = freshDir("merge_src");
    {
        DiskResultCache dst(dst_dir);
        dst.insert("shared", sampleResult("dst-version", 0.25));
        dst.insert("dst-only", sampleResult("dst", 0.5));
    }
    {
        DiskResultCache src(src_dir);
        src.insert("shared", sampleResult("src-version", 0.75));
        src.insert("src-only", sampleResult("src", 0.1));
        src.insertAnalysis("src-analysis", sampleAnalysis("fig15"));
    }

    DiskResultCache dst(dst_dir);
    DiskResultCache src(src_dir);
    const auto merge = dst.mergeFrom(src);
    EXPECT_EQ(merge.added, 2u);   // src-only + src-analysis
    EXPECT_EQ(merge.skipped, 1u); // "shared": dst already has it
    EXPECT_EQ(dst.size(), 4u);
    // First insert wins across caches too: the destination's value
    // survives the merge.
    EXPECT_EQ(dst.find("shared")->workload, "dst-version");
    EXPECT_EQ(dst.find("src-only")->workload, "src");
    ASSERT_TRUE(dst.findAnalysis("src-analysis").has_value());

    // The union persisted: a reopened destination sees everything,
    // bit-identical, and the source is untouched.
    DiskResultCache reopened(dst_dir);
    ASSERT_TRUE(reopened.ok());
    EXPECT_EQ(reopened.stats().loaded, 4u);
    expectIdenticalSim(*reopened.find("src-only"),
                       *src.find("src-only"));
    expectIdenticalAnalysis(*reopened.findAnalysis("src-analysis"),
                            *src.findAnalysis("src-analysis"));
    DiskResultCache src_reopened(src_dir);
    EXPECT_EQ(src_reopened.size(), 3u);
    EXPECT_EQ(src_reopened.find("shared")->workload, "src-version");
}

TEST(DiskCache, MergeFromEmptySourceAddsNothing)
{
    const std::string dst_dir = freshDir("merge_empty_dst");
    const std::string src_dir = freshDir("merge_empty_src");
    DiskResultCache dst(dst_dir);
    dst.insert("k", sampleResult("w", 0.5));
    DiskResultCache src(src_dir);
    const auto merge = dst.mergeFrom(src);
    EXPECT_EQ(merge.added, 0u);
    EXPECT_EQ(merge.skipped, 0u);
    EXPECT_EQ(dst.size(), 1u);
}

TEST(DiskCache, MergeChainsAcrossSeveralSources)
{
    // The CLI's `cache merge DST SRC...` shape: fold several sweep
    // shards into one, then merge the union into a populated cache.
    const std::string a_dir = freshDir("merge_chain_a");
    const std::string b_dir = freshDir("merge_chain_b");
    const std::string dst_dir = freshDir("merge_chain_dst");
    {
        DiskResultCache a(a_dir);
        a.insert("ka", sampleResult("a", 0.1));
        a.insert("shared", sampleResult("a-shared", 0.2));
        DiskResultCache b(b_dir);
        b.insert("kb", sampleResult("b", 0.3));
        b.insert("shared", sampleResult("b-shared", 0.4));
    }
    DiskResultCache dst(dst_dir);
    DiskResultCache a(a_dir);
    DiskResultCache b(b_dir);
    const auto first = dst.mergeFrom(a);
    EXPECT_EQ(first.added, 2u);
    const auto second = dst.mergeFrom(b);
    EXPECT_EQ(second.added, 1u);
    EXPECT_EQ(second.skipped, 1u); // "shared" came from a first
    EXPECT_EQ(dst.find("shared")->workload, "a-shared");
    DiskResultCache reopened(dst_dir);
    EXPECT_EQ(reopened.size(), 3u);
}

TEST(DiskCache, SessionPersistsAnalyticalResults)
{
    const std::string dir = freshDir("session_analytical");

    Session first;
    first.attachDiskCache(dir);
    auto builder = first.job()
                       .model("fig15-unstructured")
                       .param("degree", 0.95);
    const auto job = builder.build();
    ASSERT_TRUE(job.has_value()) << builder.error();
    const auto cold = first.run(*job).analysis;
    EXPECT_EQ(first.analysesPerformed(), 1u);

    // A second session on the same directory serves the analysis
    // from disk without evaluating the backend.
    Session second;
    second.attachDiskCache(dir);
    const auto warm = second.run(*job).analysis;
    expectIdenticalAnalysis(warm, cold);
    EXPECT_EQ(second.analysesPerformed(), 0u);
    EXPECT_EQ(second.diskCache()->stats().hits, 1u);
}

TEST(DiskCache, PruneKeepsTheMostRecentlyAppendedEntries)
{
    const std::string dir = freshDir("prune_entries");
    DiskResultCache cache(dir);
    for (int i = 0; i < 6; ++i)
        cache.insert("k" + std::to_string(i),
                     sampleResult("w" + std::to_string(i), 0.5));
    cache.insertAnalysis("a0", sampleAnalysis("m0"));

    const auto pruned = cache.prune(std::nullopt, 3);
    EXPECT_EQ(pruned.kept, 3u);
    EXPECT_EQ(pruned.dropped, 4u);
    EXPECT_GT(pruned.fileBytes, 0u);

    // Most-recently-appended survive: k4, k5, and the analysis.
    EXPECT_FALSE(cache.find("k0").has_value());
    EXPECT_FALSE(cache.find("k3").has_value());
    EXPECT_TRUE(cache.find("k4").has_value());
    EXPECT_TRUE(cache.find("k5").has_value());
    EXPECT_TRUE(cache.findAnalysis("a0").has_value());

    // The compaction persisted: a reopen sees only the kept set.
    DiskResultCache reopened(dir);
    EXPECT_EQ(reopened.size(), 3u);
    EXPECT_FALSE(reopened.find("k0").has_value());
    EXPECT_TRUE(reopened.findAnalysis("a0").has_value());
}

TEST(DiskCache, PruneByBytesBoundsTheFile)
{
    const std::string dir = freshDir("prune_bytes");
    DiskResultCache cache(dir);
    for (int i = 0; i < 8; ++i)
        cache.insert("k" + std::to_string(i),
                     sampleResult("w" + std::to_string(i), 0.25));
    const u64 before = cache.stats().fileBytes;
    ASSERT_GT(before, 0u);

    const u64 budget = before / 2;
    const auto pruned = cache.prune(budget, std::nullopt);
    EXPECT_LE(pruned.fileBytes, budget);
    EXPECT_EQ(pruned.fileBytes, cache.stats().fileBytes);
    EXPECT_GT(pruned.kept, 0u);
    EXPECT_EQ(pruned.kept + pruned.dropped, 8u);
    // Newest survive, oldest go.
    EXPECT_TRUE(cache.find("k7").has_value());
    EXPECT_FALSE(cache.find("k0").has_value());

    // A no-op prune (already under budget) drops nothing.
    const auto again = cache.prune(before, 8u);
    EXPECT_EQ(again.dropped, 0u);
    EXPECT_EQ(again.kept, pruned.kept);
}

TEST(DiskCache, HitRateTracksTraffic)
{
    const std::string dir = freshDir("hit_rate");
    DiskResultCache cache(dir);
    EXPECT_EQ(cache.stats().hitRate(), 0.0); // no traffic yet
    cache.insert("k", sampleResult("w", 0.5));
    EXPECT_TRUE(cache.find("k").has_value());  // hit
    EXPECT_FALSE(cache.find("x").has_value()); // miss
    EXPECT_FALSE(cache.find("y").has_value()); // miss
    const DiskCacheStats stats = cache.stats();
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.misses, 2u);
    EXPECT_DOUBLE_EQ(stats.hitRate(), 1.0 / 3.0);
}

TEST(DiskCache, LastPruneBytesPersistsAcrossProcesses)
{
    const std::string dir = freshDir("last_prune");
    u64 reclaimed = 0;
    {
        DiskResultCache cache(dir);
        for (int i = 0; i < 8; ++i)
            cache.insert("k" + std::to_string(i),
                         sampleResult("w" + std::to_string(i), 0.25));
        EXPECT_EQ(cache.stats().lastPruneBytes, 0u);
        const auto pruned = cache.prune(std::nullopt, 2u);
        reclaimed = pruned.reclaimedBytes;
        ASSERT_GT(reclaimed, 0u);
        EXPECT_EQ(cache.stats().lastPruneBytes, reclaimed);
    }
    // A fresh instance (a new process in real life) reads the
    // persisted prune note back from the cache directory.
    DiskResultCache reopened(dir);
    EXPECT_EQ(reopened.stats().lastPruneBytes, reclaimed);
}

TEST(DiskCache, PruneCompactsDuplicateAndGarbageLines)
{
    const std::string dir = freshDir("prune_compact");
    std::string duplicate;
    {
        DiskResultCache cache(dir);
        cache.insert("k0", sampleResult("w0", 0.5));
        cache.insert("k1", sampleResult("w1", 0.5));
    }
    const fs::path file = fs::path(dir) / "results.vgc";
    {
        // Simulate a concurrent writer appending the same key again
        // (load dedupes it, but the line stays on disk) plus a
        // rejected garbage line.
        std::ifstream is(file);
        std::string header, record;
        std::getline(is, header);
        std::getline(is, record);
        duplicate = record;
    }
    {
        std::ofstream os(file, std::ios::app);
        os << duplicate << "\n";
        os << "garbage line that fails its checksum\n";
    }

    DiskResultCache cache(dir);
    EXPECT_EQ(cache.size(), 2u);
    const u64 bloated = cache.stats().fileBytes;

    // Nothing needs dropping under this budget, but the file itself
    // is over it: prune must still compact the dup/garbage away.
    const auto pruned = cache.prune(bloated - 1, std::nullopt);
    EXPECT_EQ(pruned.dropped, 0u);
    EXPECT_EQ(pruned.kept, 2u);
    EXPECT_LT(pruned.fileBytes, bloated);
    EXPECT_TRUE(cache.find("k0").has_value());
    EXPECT_TRUE(cache.find("k1").has_value());
    DiskResultCache reopened(dir);
    EXPECT_EQ(reopened.size(), 2u);
    EXPECT_EQ(reopened.stats().rejected, 0u);
}

TEST(DiskCache, GarbageFileIsAnEmptyCache)
{
    const std::string dir = freshDir("garbage");
    fs::create_directories(dir);
    {
        std::ofstream os(fs::path(dir) / "results.vgc",
                         std::ios::binary);
        os << "\x7f\x45\x4c\x46 not a cache at all\n\x00\x01\x02";
    }
    DiskResultCache cache(dir);
    ASSERT_TRUE(cache.ok());
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_TRUE(cache.stats().versionMismatch);
    // Still usable: inserts repair the file.
    cache.insert("k", sampleResult("w", 1.0));
    DiskResultCache reopened(dir);
    EXPECT_EQ(reopened.size(), 1u);
}

TEST(DiskCache, ClearTruncatesTheFile)
{
    const std::string dir = freshDir("clear");
    {
        DiskResultCache cache(dir);
        cache.insert("k", sampleResult("w", 0.5));
        cache.clear();
        EXPECT_EQ(cache.size(), 0u);
    }
    DiskResultCache reopened(dir);
    EXPECT_EQ(reopened.size(), 0u);
    EXPECT_FALSE(reopened.stats().versionMismatch);
}

TEST(DiskCache, TraceOutRunsStillWarmTheCache)
{
    const std::string dir = freshDir("trace_out");

    Session first;
    first.attachDiskCache(dir);
    const auto job = first.job()
                         .gemm(kernels::GemmDims{32, 32, 128})
                         .engine("VEGETA-S-2-2")
                         .pattern(2)
                         .build();
    ASSERT_TRUE(job.has_value());
    const SimulationRequest &request = job->simulation;
    cpu::TraceCollector trace;
    const auto with_trace = first.run(request, &trace);
    EXPECT_FALSE(trace.trace().empty());

    // The trace-saving run paid the generation pass, but its result
    // still landed in the persistent cache.
    Session second;
    second.attachDiskCache(dir);
    const auto warm = second.run(request);
    expectIdenticalSim(warm, with_trace);
    EXPECT_EQ(second.simulationsPerformed(), 0u);
}

TEST(DiskCache, TwoSequentialSessionsShareResults)
{
    const std::string dir = freshDir("sessions");

    Session first;
    first.attachDiskCache(dir);
    const auto job = first.job()
                         .gemm(kernels::GemmDims{32, 32, 128})
                         .engine("VEGETA-S-2-2")
                         .pattern(2)
                         .build();
    ASSERT_TRUE(job.has_value());
    const SimulationRequest &request = job->simulation;
    const auto cold = first.run(request);
    EXPECT_EQ(first.simulationsPerformed(), 1u);

    // A second Session (a "second process") on the same directory
    // serves the request from disk without simulating anything.
    Session second;
    second.attachDiskCache(dir);
    const auto warm = second.run(request);
    expectIdenticalSim(warm, cold);
    EXPECT_EQ(second.simulationsPerformed(), 0u);
    EXPECT_EQ(second.diskCache()->stats().hits, 1u);
}

} // namespace
} // namespace vegeta::sim
