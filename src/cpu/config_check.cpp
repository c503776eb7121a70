/**
 * @file
 * The core and cache configurations the replay model accepts.
 *
 * Kept apart from trace_cpu.cpp and cache.cpp: the replay loop's
 * speed moves by several percent with those files' code layout, and
 * these checks run once per job, never per op.
 */

#include <bit>

#include "cpu/trace_cpu.hpp"

namespace vegeta::cpu {

std::optional<std::string>
CacheModel::configError(const CacheConfig &config)
{
    constexpr u64 kMaxLines = u64{1} << 20;
    if (!std::has_single_bit(config.lineBytes))
        return "cache.lineBytes must be a power of two (got " +
               std::to_string(config.lineBytes) + ")";
    if (!std::has_single_bit(config.l1Sets))
        return "cache.l1Sets must be a power of two (got " +
               std::to_string(config.l1Sets) + ")";
    if (config.l1Ways == 0 ||
        u64{config.l1Sets} * config.l1Ways > kMaxLines)
        return "cache.l1Ways must be positive, and l1Sets x l1Ways at "
               "most " +
               std::to_string(kMaxLines) + " lines (got " +
               std::to_string(config.l1Sets) + " x " +
               std::to_string(config.l1Ways) + ")";
    return std::nullopt;
}

std::optional<std::string>
TraceCpu::configError(const CoreConfig &core)
{
    const struct
    {
        const char *name;
        u32 value;
        u32 max;
    } fields[] = {
        {"fetchWidth", core.fetchWidth, kMaxWindow},
        {"retireWidth", core.retireWidth, kMaxWindow},
        {"robEntries", core.robEntries, kMaxWindow},
        {"loadBufferEntries", core.loadBufferEntries, kMaxWindow},
        {"numAlus", core.numAlus, kMaxUnits},
        {"numLsuPorts", core.numLsuPorts, kMaxUnits},
        {"numVectorFus", core.numVectorFus, kMaxUnits},
        {"engineClockDivider", core.engineClockDivider, ~u32{0}},
    };
    for (const auto &field : fields)
        if (field.value < 1 || field.value > field.max)
            return std::string("core.") + field.name +
                   " must be in [1, " + std::to_string(field.max) +
                   "] (got " + std::to_string(field.value) + ")";
    return CacheModel::configError(core.cache);
}

} // namespace vegeta::cpu
