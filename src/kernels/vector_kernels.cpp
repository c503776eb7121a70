#include "kernels/vector_kernels.hpp"

#include "common/logging.hpp"

namespace vegeta::kernels {

namespace {

constexpr Addr kVecBaseA = 0x5000'0000;
constexpr Addr kVecBaseB = 0x6000'0000;
constexpr Addr kVecBaseC = 0x7000'0000;

/** k-pairs per loop-overhead bundle. */
constexpr u32 kVecUnrollFactor = 8;
/** One-time kernel prologue ops. */
constexpr u32 kVecPrologueAlu = 50;
/** Per output-strip pointer setup ops. */
constexpr u32 kVecStripSetupAlu = 2;

} // namespace

cpu::Trace
generateVectorGemmTrace(GemmDims dims)
{
    auto round_up = [](u32 v, u32 to) { return (v + to - 1) / to * to; };
    const u32 m = dims.m;
    const u32 n = round_up(dims.n, 16);
    const u32 k = round_up(dims.k, 2);
    const u32 n_strips = n / 16;
    const u32 k_pairs = k / 2;

    cpu::Trace trace;
    trace.reserve(std::size_t{m} * n_strips * (std::size_t{k_pairs} * 3 +
                                               8));

    for (u32 p = 0; p < kVecPrologueAlu; ++p)
        trace.push_back(cpu::TraceOp::alu());

    u32 chain = 1;
    for (u32 i = 0; i < m; ++i) {
        for (u32 jb = 0; jb < n_strips; ++jb) {
            for (u32 s = 0; s < kVecStripSetupAlu; ++s)
                trace.push_back(cpu::TraceOp::alu());
            for (u32 kp = 0; kp < k_pairs; ++kp) {
                // B vector: 2 k-rows x 16 columns of BF16 = 64 B.
                const Addr b_addr =
                    kVecBaseB +
                    (std::size_t{kp} * n_strips + jb) * 64ull;
                trace.push_back(cpu::TraceOp::load(b_addr, 64));
                // A broadcast pair (one line touch per 32 pairs).
                const Addr a_addr =
                    kVecBaseA + (std::size_t{i} * k_pairs + kp) * 4ull;
                trace.push_back(cpu::TraceOp::load(a_addr, 4));
                trace.push_back(cpu::TraceOp::vectorFma(chain));
                if ((kp + 1) % kVecUnrollFactor == 0) {
                    trace.push_back(cpu::TraceOp::alu());
                    trace.push_back(cpu::TraceOp::alu());
                    trace.push_back(cpu::TraceOp::branch());
                }
            }
            const Addr c_addr =
                kVecBaseC + (std::size_t{i} * n_strips + jb) * 64ull;
            trace.push_back(cpu::TraceOp::store(c_addr, 64));
            trace.push_back(cpu::TraceOp::alu());
            trace.push_back(cpu::TraceOp::branch());
            ++chain;
        }
    }
    return trace;
}

u64
vectorGemmInstructionCount(GemmDims dims)
{
    return generateVectorGemmTrace(dims).size();
}

} // namespace vegeta::kernels
