#include "sim/request.hpp"

#include <cstdio>

namespace vegeta::sim {

const char *
kernelVariantName(KernelVariant variant)
{
    return variant == KernelVariant::Naive ? "naive" : "optimized";
}

std::optional<kernels::GemmDims>
parseGemmSpec(const std::string &spec)
{
    unsigned m = 0, n = 0, k = 0;
    char trailing = '\0';
    // %c after the dims catches trailing garbage ("256x256x2048x9").
    const int matched = std::sscanf(spec.c_str(), "%ux%ux%u%c", &m, &n,
                                    &k, &trailing);
    if (matched != 3 || m == 0 || n == 0 || k == 0)
        return std::nullopt;
    return kernels::GemmDims{m, n, k};
}

std::optional<u32>
parseU32(const std::string &text)
{
    if (text.empty() || text.size() > 10)
        return std::nullopt;
    u64 value = 0;
    for (const char c : text) {
        if (c < '0' || c > '9')
            return std::nullopt;
        value = value * 10 + static_cast<u64>(c - '0');
    }
    if (value > 0xffffffffULL)
        return std::nullopt;
    return static_cast<u32>(value);
}

} // namespace vegeta::sim
