/**
 * @file
 * Simple data-cache latency model.
 *
 * The Figure 13 experiments assume the working set is prefetched into
 * the L2 cache (Section VI-B), so the model is a set-associative L1D
 * with LRU backed by an always-hitting L2: the first touch of a line
 * pays the L2 hit latency, re-references within L1 residency pay the
 * L1 latency.
 *
 * Tags live in one contiguous array of l1Sets x l1Ways entries, so an
 * access is a short linear scan with no allocation after
 * construction.  Each set is a *circular* MRU list: a per-set head
 * index marks the MRU slot and logical recency position d lives at
 * physical slot (head + d) % ways.  A miss inserts by stepping the
 * head back onto the LRU tail and overwriting it in place -- one
 * store where a flat MRU-first array shifts ways-1 words -- and the
 * GEMM streams miss almost always, so the miss path is the one that
 * pays.  Hits rotate the short logical prefix.  The hit/miss sequence
 * is exact LRU.
 */

#ifndef VEGETA_CPU_CACHE_HPP
#define VEGETA_CPU_CACHE_HPP

#include <optional>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace vegeta::cpu {

struct CacheConfig
{
    u32 lineBytes = 64;     ///< must be a power of two
    u32 l1Sets = 64;        ///< must be a power of two
    u32 l1Ways = 12;        ///< 48 KB L1D
    Cycles l1Latency = 4;
    Cycles l2Latency = 14;  ///< all misses hit in the prefetched L2
};

/** L1-with-L2-backing latency model. */
class CacheModel
{
  public:
    /**
     * @p config must pass configError; the constructor asserts its
     * power-of-two and non-empty geometry.
     */
    explicit CacheModel(CacheConfig config = {});

    /**
     * Why @p config cannot build a cache (a line size or set count
     * that is no power of two, no ways, or a tag array over 2^20
     * lines), or nullopt.
     */
    static std::optional<std::string>
    configError(const CacheConfig &config);

    /** Access one line; returns its load-use latency. */
    Cycles
    accessLine(Addr addr)
    {
        Cycles latency = 0;
        probeSpan(addr, 0, 1, &latency);
        return latency;
    }

    /**
     * Access @p count lines in order: out[i] receives the latency of
     * addr + i * stride.  The replayer batches each op's line probes
     * through this: the geometry stays in registers across the span
     * and the scan + eviction bodies run with a compile-time way
     * count (specialized for 4, 8, 12 and 16 ways), neither of which
     * the compiler does for repeated single-line calls.
     */
    void probeSpan(Addr addr, u64 stride, u64 count, Cycles *out);

    u64 hits() const { return hits_; }
    u64 misses() const { return misses_; }

    /** Invalidate every line and zero the counters. */
    void reset();

    const CacheConfig &config() const { return config_; }

  private:
    static constexpr u64 kInvalidTag = ~u64{0};

    CacheConfig config_;
    u32 line_shift_ = 6; ///< log2(lineBytes)
    u64 set_mask_ = 63;  ///< l1Sets - 1
    /** l1Sets x l1Ways line tags (kInvalidTag = empty). */
    std::vector<u64> tags_;
    /** Per-set MRU slot index (circular recency order). */
    std::vector<u32> heads_;
    u64 hits_ = 0;
    u64 misses_ = 0;
};

} // namespace vegeta::cpu

#endif // VEGETA_CPU_CACHE_HPP
