/**
 * @file
 * Request-keyed result caching.
 *
 * Simulation is a pure function of the request: the same
 * SimulationRequest always produces the same SimulationResult.  The
 * ResultCache exploits that to make repeated sweeps cheap -- the
 * Figure 13 grid followed by the geomean speed-up summaries replays
 * dozens of identical requests, and every `geomeanSpeedup` ratio
 * re-simulates the shared dense baseline.
 *
 * Keys are a canonical serialization of every result-affecting request
 * field (cacheKey); two requests with equal keys are guaranteed to
 * produce bit-identical results, so consulting the cache never changes
 * an answer -- only how often the simulator actually runs.
 *
 * The cache is sharded by key hash with one mutex per shard so
 * Session::runBatch's threads do not serialize on a single lock
 * ("When More Cores Hurts"-style contention is the failure mode this
 * avoids); hit/miss/insert counters are lock-free atomics.
 */

#ifndef VEGETA_SIM_CACHE_HPP
#define VEGETA_SIM_CACHE_HPP

#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/request.hpp"
#include "sim/result.hpp"

namespace vegeta::sim {

/**
 * Canonical cache key of a request: every field that can influence the
 * produced SimulationResult (label echo, GEMM dims, engine, pattern,
 * OF, kernel variant, C blocking, and the full core configuration),
 * joined with '|' in a fixed order.  Version-prefixed so persisted
 * keys can never collide across format changes.
 */
std::string cacheKey(const SimulationRequest &request);

/** Lock-free snapshot of cache traffic. */
struct CacheStats
{
    u64 hits = 0;
    u64 misses = 0;
    u64 insertions = 0;
};

/**
 * Thread-safe, sharded map from canonical request keys to results.
 * Safe for concurrent find/insert from any number of runBatch
 * threads; inserting an existing key is a no-op (the first result
 * wins, and equal keys imply equal results anyway).
 */
class ResultCache
{
  public:
    ResultCache();

    /** The cached result for key, or nullopt (counts a hit/miss). */
    std::optional<SimulationResult> find(const std::string &key) const;

    /** Cache a result under key (first insert wins). */
    void insert(const std::string &key, const SimulationResult &result);

    /** Number of cached results. */
    std::size_t size() const;

    /** Drop every entry (counters are preserved). */
    void clear();

    CacheStats stats() const;

  private:
    struct Shard
    {
        mutable std::mutex mutex;
        std::unordered_map<std::string, SimulationResult> entries;
    };

    /** Shards, each behind its own mutex. */
    static constexpr std::size_t kShards = 16;

    Shard &shardFor(const std::string &key) const;

    std::vector<std::unique_ptr<Shard>> shards_;
    mutable std::atomic<u64> hits_{0};
    mutable std::atomic<u64> misses_{0};
    std::atomic<u64> insertions_{0};
};

} // namespace vegeta::sim

#endif // VEGETA_SIM_CACHE_HPP
