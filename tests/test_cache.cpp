/**
 * @file
 * Cache latency-model tests.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/random.hpp"
#include "cpu/cache.hpp"

namespace vegeta::cpu {
namespace {

TEST(Cache, FirstTouchPaysL2)
{
    CacheModel cache;
    EXPECT_EQ(cache.accessLine(0x1000), cache.config().l2Latency);
    EXPECT_EQ(cache.misses(), 1u);
}

TEST(Cache, ReReferenceHitsL1)
{
    CacheModel cache;
    cache.accessLine(0x1000);
    EXPECT_EQ(cache.accessLine(0x1000), cache.config().l1Latency);
    EXPECT_EQ(cache.accessLine(0x1010), cache.config().l1Latency)
        << "same 64 B line";
    EXPECT_EQ(cache.hits(), 2u);
}

TEST(Cache, DistinctLinesMissSeparately)
{
    CacheModel cache;
    cache.accessLine(0);
    cache.accessLine(64);
    cache.accessLine(128);
    EXPECT_EQ(cache.misses(), 3u);
}

TEST(Cache, LruEvictionWithinSet)
{
    CacheConfig cfg;
    cfg.l1Sets = 1;
    cfg.l1Ways = 2;
    CacheModel cache(cfg);
    cache.accessLine(0);        // miss, {0}
    cache.accessLine(64);       // miss, {64, 0}
    cache.accessLine(0);        // hit,  {0, 64}
    cache.accessLine(128);      // miss, evicts 64
    EXPECT_EQ(cache.accessLine(0), cfg.l1Latency);
    EXPECT_EQ(cache.accessLine(64), cfg.l2Latency) << "was evicted";
}

TEST(Cache, RangeAccessTouchesEveryLine)
{
    CacheModel cache;
    const CacheConfig &cfg = cache.config();
    Cycles out[16];
    cache.probeSpan(0x2000, 64, 16, out); // a 1 KB tile = 16 lines
    for (const Cycles latency : out)
        EXPECT_EQ(latency, cfg.l2Latency);
    EXPECT_EQ(cache.misses(), 16u);
    // Re-access: every line hits.
    cache.probeSpan(0x2000, 64, 16, out);
    for (const Cycles latency : out)
        EXPECT_EQ(latency, cfg.l1Latency);
    EXPECT_EQ(cache.hits(), 16u);
    // An unaligned base probes each address's containing line.
    cache.probeSpan(0x5020, 64, 3, out);
    EXPECT_EQ(cache.misses(), 19u);
    for (const Addr line : {0x5000u, 0x5040u, 0x5080u})
        EXPECT_EQ(cache.accessLine(line), cfg.l1Latency);
    EXPECT_EQ(cache.accessLine(0x50c0), cfg.l2Latency);
}

TEST(Cache, ResetClearsState)
{
    CacheModel cache;
    cache.accessLine(0);
    cache.reset();
    EXPECT_EQ(cache.hits(), 0u);
    EXPECT_EQ(cache.misses(), 0u);
    EXPECT_EQ(cache.accessLine(0), cache.config().l2Latency);
}

TEST(Cache, WorkingSetLargerThanL1Thrashes)
{
    CacheConfig cfg;
    CacheModel cache(cfg);
    const u32 lines = cfg.l1Sets * cfg.l1Ways * 2;
    for (u32 pass = 0; pass < 2; ++pass)
        for (u32 l = 0; l < lines; ++l)
            cache.accessLine(static_cast<Addr>(l) * cfg.lineBytes);
    // Sequential sweep over 2x capacity with LRU never hits.
    EXPECT_EQ(cache.hits(), 0u);
    EXPECT_EQ(cache.misses(), 2ull * lines);
}

/** Textbook LRU: per set, a recency list, MRU first. */
class ReferenceLru
{
  public:
    explicit ReferenceLru(const CacheConfig &config)
        : config_(config), sets_(config.l1Sets)
    {
    }

    Cycles
    access(Addr addr)
    {
        const u64 line = addr / config_.lineBytes;
        std::vector<u64> &set = sets_[line % config_.l1Sets];
        const auto it = std::find(set.begin(), set.end(), line);
        const bool hit = it != set.end();
        if (hit)
            set.erase(it);
        else if (set.size() == config_.l1Ways)
            set.pop_back();
        set.insert(set.begin(), line);
        ++(hit ? hits : misses);
        return hit ? config_.l1Latency : config_.l2Latency;
    }

    u64 hits = 0;
    u64 misses = 0;

  private:
    CacheConfig config_;
    std::vector<std::vector<u64>> sets_;
};

TEST(Cache, ProbeSpanMatchesAccessLineAndTextbookLru)
{
    // 4/8/12/16 ways run probeSpan's compile-time specializations, 6
    // its per-line fallback.  Every span's latencies, and the running
    // hit/miss counts, must agree three ways.
    for (const u32 ways : {4u, 8u, 12u, 16u, 6u}) {
        SCOPED_TRACE(std::to_string(ways) + " ways");
        CacheConfig cfg;
        cfg.l1Sets = 16;
        cfg.l1Ways = ways;
        CacheModel spans(cfg);
        CacheModel lines(cfg);
        ReferenceLru reference(cfg);
        // A region of 1.5x the capacity, so lines both survive and
        // get evicted; strides walk consecutive lines or hammer one
        // set at a time, hitting at every recency depth.
        const u64 region = u64{cfg.l1Sets} * ways * 3 / 2;
        const u64 strides[] = {1, 1, 2, cfg.l1Sets, 3 * cfg.l1Sets};
        Rng rng(0xcac4e5eedu + ways);
        for (u32 span = 0; span < 2000; ++span) {
            const u64 stride = strides[rng.nextBelow(5)] * 64;
            const u64 count = 1 + rng.nextBelow(64);
            const Addr addr = rng.nextBelow(region) * 64 +
                              rng.nextBelow(64); // unaligned base
            Cycles out[64];
            spans.probeSpan(addr, stride, count, out);
            for (u64 i = 0; i < count; ++i) {
                const Addr a = addr + i * stride;
                const Cycles want = reference.access(a);
                ASSERT_EQ(lines.accessLine(a), want)
                    << "span " << span << " line " << i;
                ASSERT_EQ(out[i], want)
                    << "span " << span << " line " << i;
            }
            ASSERT_EQ(spans.hits(), reference.hits);
            ASSERT_EQ(spans.misses(), reference.misses);
            ASSERT_EQ(lines.hits(), reference.hits);
            ASSERT_EQ(lines.misses(), reference.misses);
        }
        EXPECT_GT(reference.hits, 10000u);
        EXPECT_GT(reference.misses, 10000u);
    }
}

} // namespace
} // namespace vegeta::cpu
