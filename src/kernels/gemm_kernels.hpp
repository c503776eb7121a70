/**
 * @file
 * Tiled GEMM / SPMM kernels written against the VEGETA ISA.
 *
 * These are the software half of the paper: Listing 1's SPMM loop nest
 * (naive: C loaded/stored inside the k loop) and the optimized variant
 * used for the evaluation (C register-blocked across the k loop).  The
 * same generator runs in two modes:
 *
 *  - functional: data is staged into FlatMemory, every instruction also
 *    executes on the emulator, and the numeric result is returned;
 *  - trace-only: no data is touched, only the dynamic instruction trace
 *    is produced (what Pin hands to MacSim in the paper) -- this keeps
 *    full Table IV layers fast to simulate.
 *
 * Layer-wise N:4 execution: a layer pruned to N:4 runs with
 * executed N' = max(N, engine minimum), so a dense engine executes the
 * sparse layer as 4:4 and an STC-like engine executes 1:4 as 2:4 --
 * reproducing the Figure 13 behaviour.
 *
 * Register allocation (fixed): B tile in treg0 / ureg0 / vreg0
 * (tregs 0-3), A values in treg4 (paired metadata in mreg4), C in
 * treg5.  The row-wise kernel uses ureg1 (tregs 2-3) for its R x 16 C
 * tile.
 */

#ifndef VEGETA_KERNELS_GEMM_KERNELS_HPP
#define VEGETA_KERNELS_GEMM_KERNELS_HPP

#include <optional>

#include "cpu/trace_sink.hpp"
#include "cpu/uop.hpp"
#include "isa/emulator.hpp"
#include "kernels/workloads.hpp"
#include "numerics/matrix.hpp"
#include "sparsity/rowwise_transform.hpp"

namespace vegeta::kernels {

/** Kernel generation options. */
struct KernelOptions
{
    /** Hoist the C tile out of the k loop (false = Listing 1). */
    bool optimized = true;
    /**
     * C tile registers the optimized kernel blocks the j loop over
     * (1..3).  Three keeps every Table III design stall-free without
     * OF; one leaves the accumulate dependency exposed (the
     * dependence-limited stream OF is designed for).
     */
    u32 cBlocking = 3;
    /** Skip data staging / functional execution; trace only. */
    bool traceOnly = false;
};

// The generated kernels' scalar instruction mix (the tuner's
// prefilter counts the same ops in closed form).

/** Scalar address-generation ops emitted per tile load/store. */
inline constexpr u32 kScalarOpsPerTileOp = 1;
/** Scalar bookkeeping ops per loop iteration (+1 branch). */
inline constexpr u32 kLoopOverheadAlu = 2;
/** Per-(i,j) tile-pointer setup ops. */
inline constexpr u32 kTileSetupAlu = 8;
/** One-time kernel prologue ops (the epilogue emits half). */
inline constexpr u32 kPrologueAlu = 50;

/** Instruction-mix statistics of one generated kernel. */
struct KernelStats
{
    u64 instructions = 0; ///< total trace ops emitted
    u64 tileComputes = 0;
    u64 tileLoads = 0;
    u64 tileStores = 0;
};

/** Outcome of generating (and optionally executing) a kernel. */
struct KernelRun
{
    cpu::Trace trace;
    u64 tileComputes = 0;
    u64 tileLoads = 0;
    u64 tileStores = 0;
    /** Functional result (m x n, unpadded); empty in trace-only mode. */
    MatrixF c;
};

/** k-dimension tile size for an executed pattern N:4 (32 * 4 / N). */
u32 kTileForN(u32 executed_n);

/** Pad (m, n) to multiples of 16 and k to a multiple of kTileForN. */
GemmDims padProblem(GemmDims dims, u32 executed_n);

/**
 * Layer-wise N:4 SPMM kernel, C = A x B.
 *
 * @param dims        logical (unpadded) GEMM dimensions
 * @param executed_n  the N the engine executes (1, 2, or 4)
 * @param opts        generation options
 * @param a           m x k weights (required unless traceOnly); must
 *                    satisfy executed_n:4 sparsity
 * @param b           k x n inputs (required unless traceOnly)
 */
KernelRun runSpmmKernel(GemmDims dims, u32 executed_n,
                        const KernelOptions &opts,
                        const MatrixBF16 *a = nullptr,
                        const MatrixBF16 *b = nullptr);

/**
 * Streaming variant of runSpmmKernel: emit the dynamic uop trace
 * directly into @p sink, one op at a time, materializing no
 * cpu::Trace.  Requires opts.traceOnly (a functional run needs the
 * staged matrices and returns C, which only the batch entry point
 * carries).  Feeding a cpu::TraceCpu as the sink replays the kernel
 * with memory independent of trace length.
 */
KernelStats streamSpmmKernel(GemmDims dims, u32 executed_n,
                             const KernelOptions &opts,
                             cpu::TraceSink &sink);

/**
 * Row-wise N:4 SPMM kernel using TILE_SPMM_R (Section V-E): every
 * 64-wide column chunk of A is losslessly transformed to row-wise N:4,
 * rows are DMA-reordered by N, packed into full tiles (sum of N = 32),
 * and executed with full MAC-column utilization.  Functional only.
 */
KernelRun runRowWiseSpmmKernel(const MatrixBF16 &a, const MatrixBF16 &b,
                               const KernelOptions &opts = {});

} // namespace vegeta::kernels

#endif // VEGETA_KERNELS_GEMM_KERNELS_HPP
