#include "sim/request.hpp"

#include <cstdio>

namespace vegeta::sim {

const char *
kernelVariantName(KernelVariant variant)
{
    return variant == KernelVariant::Naive ? "naive" : "optimized";
}

std::optional<std::string>
requestError(const SimulationRequest &request)
{
    const kernels::GemmDims &gemm = request.gemm;
    if (gemm.m == 0 || gemm.n == 0 || gemm.k == 0)
        return std::string("GEMM dimensions must be non-zero");
    if (request.patternN != 1 && request.patternN != 2 &&
        request.patternN != 4)
        return "pattern must be 1, 2, or 4 (got " +
               std::to_string(request.patternN) + ")";
    if (request.cBlocking < 1 || request.cBlocking > 3)
        return "cBlocking must be 1..3 (got " +
               std::to_string(request.cBlocking) + ")";
    return cpu::TraceCpu::configError(request.core);
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
