#include "sim/cache.hpp"

#include <functional>
#include <sstream>

namespace vegeta::sim {

std::string
cacheKey(const SimulationRequest &request)
{
    const cpu::CoreConfig &core = request.core;
    const cpu::CacheConfig &l1 = core.cache;
    std::ostringstream key;
    key << "v1|" << request.label << '|' << request.gemm.m << 'x'
        << request.gemm.n << 'x' << request.gemm.k << '|'
        << request.engine << '|' << request.patternN << '|'
        << (request.outputForwarding ? 1 : 0) << '|'
        << kernelVariantName(request.kernel) << '|' << request.cBlocking
        << '|' << core.fetchWidth << ',' << core.retireWidth << ','
        << core.robEntries << ',' << core.loadBufferEntries << ','
        << core.frontEndDepth << ',' << core.numAlus << ','
        << core.numLsuPorts << ',' << core.numVectorFus << ','
        << core.vectorFmaLatency << ',' << core.engineClockDivider
        << ',' << (core.outputForwarding ? 1 : 0) << '|' << l1.lineBytes
        << ',' << l1.l1Sets << ',' << l1.l1Ways << ',' << l1.l1Latency
        << ',' << l1.l2Latency;
    return key.str();
}

ResultCache::ResultCache()
{
    shards_.reserve(kShards);
    for (std::size_t s = 0; s < kShards; ++s)
        shards_.push_back(std::make_unique<Shard>());
}

ResultCache::Shard &
ResultCache::shardFor(const std::string &key) const
{
    const std::size_t hash = std::hash<std::string>{}(key);
    return *shards_[hash % kShards];
}

std::optional<SimulationResult>
ResultCache::find(const std::string &key) const
{
    Shard &shard = shardFor(key);
    std::lock_guard<std::mutex> lock(shard.mutex);
    const auto it = shard.entries.find(key);
    if (it == shard.entries.end()) {
        misses_.fetch_add(1, std::memory_order_relaxed);
        return std::nullopt;
    }
    hits_.fetch_add(1, std::memory_order_relaxed);
    return it->second;
}

void
ResultCache::insert(const std::string &key,
                    const SimulationResult &result)
{
    Shard &shard = shardFor(key);
    std::lock_guard<std::mutex> lock(shard.mutex);
    if (shard.entries.emplace(key, result).second)
        insertions_.fetch_add(1, std::memory_order_relaxed);
}

std::size_t
ResultCache::size() const
{
    std::size_t total = 0;
    for (const auto &shard : shards_) {
        std::lock_guard<std::mutex> lock(shard->mutex);
        total += shard->entries.size();
    }
    return total;
}

void
ResultCache::clear()
{
    for (const auto &shard : shards_) {
        std::lock_guard<std::mutex> lock(shard->mutex);
        shard->entries.clear();
    }
}

CacheStats
ResultCache::stats() const
{
    CacheStats stats;
    stats.hits = hits_.load(std::memory_order_relaxed);
    stats.misses = misses_.load(std::memory_order_relaxed);
    stats.insertions = insertions_.load(std::memory_order_relaxed);
    return stats;
}

} // namespace vegeta::sim
