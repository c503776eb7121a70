/**
 * @file
 * Vector-engine GEMM kernel model (paper Section III-A, Figure 4).
 *
 * Models a straightforward AVX-512-BF16-style kernel the way a
 * compiler emits it: for each 16-wide FP32 output strip, one
 * accumulator register is updated by a chain of VDPBF16PS-like FMAs
 * (each consuming 32 BF16 B elements and a broadcast A pair), so
 * consecutive FMAs of a strip serialize at FMA latency.  Per k-pair
 * the kernel issues one B vector load, one A broadcast load, and one
 * FMA; loop overhead is unrolled 8x.
 *
 * The trace is consumed by the same TraceCpu model as the matrix
 * kernels, which is how the Figure 4 instruction-count and runtime
 * ratios are produced.
 */

#ifndef VEGETA_KERNELS_VECTOR_KERNELS_HPP
#define VEGETA_KERNELS_VECTOR_KERNELS_HPP

#include "cpu/uop.hpp"
#include "kernels/workloads.hpp"

namespace vegeta::kernels {

/** Generate the vector GEMM trace for C (m x n) = A (m x k) x B. */
cpu::Trace generateVectorGemmTrace(GemmDims dims);

/** Closed-form executed-instruction count of the same kernel. */
u64 vectorGemmInstructionCount(GemmDims dims);

} // namespace vegeta::kernels

#endif // VEGETA_KERNELS_VECTOR_KERNELS_HPP
