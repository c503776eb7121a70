#include "cpu/cache.hpp"

#include <algorithm>

#include "common/logging.hpp"

namespace vegeta::cpu {

namespace {

bool
isPowerOfTwo(u32 value)
{
    return value > 0 && (value & (value - 1)) == 0;
}

u32
log2u(u32 value)
{
    u32 shift = 0;
    while ((u32{1} << shift) < value)
        ++shift;
    return shift;
}

/**
 * probeSpan's loop for a compile-time way count (Ways = 0 reads
 * @p runtime_ways instead): the scan fully unrolls and the geometry
 * lives in registers across the whole span.  Returns the number of
 * hits.
 */
template <u32 Ways>
u64
probeSpanWays(u64 *tags, u32 *heads, u32 runtime_ways, u64 set_mask,
              u32 line_shift, Cycles l1, Cycles l2, Addr addr,
              u64 stride, u64 count, Cycles *out)
{
    const u32 ways = Ways != 0 ? Ways : runtime_ways;
    u64 hits = 0;
    for (u64 i = 0; i < count; ++i) {
        const u64 line = (addr + i * stride) >> line_shift;
        const u64 set_idx = line & set_mask;
        u64 *set = tags + set_idx * ways;
        u32 *head = heads + set_idx;
        // Branchless fixed-length scan over the physical slots (a tag
        // can match at most one way; empty ways hold kInvalidTag and
        // never match).
        u32 hit_way = ways;
        for (u32 w = 0; w < ways; ++w)
            if (set[w] == line)
                hit_way = w;
        if (hit_way == ways) {
            // Miss: step the head back onto the LRU tail and
            // overwrite it -- one store instead of a ways-1 rotate.
            const u32 h = *head == 0 ? ways - 1 : *head - 1;
            set[h] = line;
            *head = h;
            out[i] = l2;
        } else {
            // Hit at logical depth d: rotate the logical prefix
            // [0, d) one step so the line becomes MRU.
            const u32 h = *head;
            u32 d = hit_way >= h ? hit_way - h : hit_way + ways - h;
            for (; d > 0; --d) {
                const u32 to = h + d >= ways ? h + d - ways : h + d;
                const u32 from = to == 0 ? ways - 1 : to - 1;
                set[to] = set[from];
            }
            set[h] = line;
            out[i] = l1;
            ++hits;
        }
    }
    return hits;
}

} // namespace

CacheModel::CacheModel(CacheConfig config) : config_(config)
{
    VEGETA_ASSERT(config_.l1Ways > 0, "degenerate cache configuration");
    VEGETA_ASSERT(isPowerOfTwo(config_.lineBytes) &&
                      isPowerOfTwo(config_.l1Sets),
                  "lineBytes and l1Sets must be powers of two");
    line_shift_ = log2u(config_.lineBytes);
    set_mask_ = config_.l1Sets - 1;
    tags_.assign(std::size_t{config_.l1Sets} * config_.l1Ways,
                 kInvalidTag);
    heads_.assign(config_.l1Sets, 0);
}

void
CacheModel::probeSpan(Addr addr, u64 stride, u64 count, Cycles *out)
{
    // The set geometry and latencies, bound once for the span.
    const auto span = [&](auto probe) {
        return probe(tags_.data(), heads_.data(), config_.l1Ways,
                     set_mask_, line_shift_, config_.l1Latency,
                     config_.l2Latency, addr, stride, count, out);
    };
    u64 hits = 0;
    switch (config_.l1Ways) {
      case 4:
        hits = span(probeSpanWays<4>);
        break;
      case 8:
        hits = span(probeSpanWays<8>);
        break;
      case 12:
        hits = span(probeSpanWays<12>);
        break;
      case 16:
        hits = span(probeSpanWays<16>);
        break;
      default:
        hits = span(probeSpanWays<0>);
        break;
    }
    hits_ += hits;
    misses_ += count - hits;
}

void
CacheModel::reset()
{
    std::fill(tags_.begin(), tags_.end(), kInvalidTag);
    std::fill(heads_.begin(), heads_.end(), u32{0});
    hits_ = 0;
    misses_ = 0;
}

} // namespace vegeta::cpu
