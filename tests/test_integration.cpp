/**
 * @file
 * End-to-end integration tests: prune -> compress -> kernel -> trace
 * -> cycle simulation, cross-checked against the detailed systolic
 * dataflow, on a reduced BERT-like layer.
 */

#include <gtest/gtest.h>

#include "common/random.hpp"
#include "engine/systolic.hpp"
#include "kernels/driver.hpp"
#include "kernels/gemm_kernels.hpp"
#include "kernels/im2col.hpp"
#include "sparsity/pruning.hpp"

namespace vegeta {
namespace {

TEST(Integration, PrunedLayerEndToEnd)
{
    // A reduced transformer projection: prune dense weights to 2:4,
    // run the VEGETA kernel, compare against the dense reference on
    // the pruned weights.
    Rng rng(1);
    const kernels::GemmDims dims{64, 48, 256};
    const MatrixBF16 dense_w = randomMatrixBF16(dims.m, dims.k, rng);
    const MatrixBF16 pruned = magnitudePruneNM(dense_w, pattern24());
    const MatrixBF16 acts = randomMatrixBF16(dims.k, dims.n, rng);

    kernels::KernelOptions opts;
    const auto run =
        kernels::runSpmmKernel(dims, 2, opts, &pruned, &acts);

    MatrixF want(dims.m, dims.n);
    referenceGemm(pruned, acts, want);
    EXPECT_EQ(maxAbsDiff(run.c, want), 0.0f);

    // The same trace drives the cycle model end to end.
    cpu::TraceCpu cpu_model({}, engine::vegetaS22());
    const auto sim = cpu_model.run(run.trace);
    EXPECT_GT(sim.totalCycles, 0u);
    EXPECT_EQ(sim.engineInstructions, run.tileComputes);
}

TEST(Integration, ConvLayerViaIm2col)
{
    // Small conv layer: im2col -> pruned GEMM -> compare with direct
    // conv on the pruned weights.
    Rng rng(2);
    const kernels::ConvDims conv{16, 8, 6, 6, 3, 3};
    const MatrixBF16 weights =
        magnitudePruneNM(randomMatrixBF16(conv.k, conv.c * 9, rng),
                         pattern24());
    const MatrixBF16 input =
        randomMatrixBF16(conv.c, conv.y * conv.x, rng);
    const MatrixBF16 patches = kernels::im2colPatches(input, conv);

    const kernels::GemmDims dims{conv.k, conv.y * conv.x, conv.c * 9};
    kernels::KernelOptions opts;
    const auto run =
        kernels::runSpmmKernel(dims, 2, opts, &weights, &patches);

    const MatrixF direct = kernels::directConv(weights, input, conv);
    EXPECT_EQ(maxAbsDiff(run.c, direct), 0.0f);
}

TEST(Integration, SystolicAgreesWithKernelTile)
{
    // One 2:4 tile executed (a) through the kernel/emulator and (b)
    // through the detailed systolic dataflow on VEGETA-S-2-2.
    Rng rng(3);
    const MatrixBF16 a_eff = randomNMMatrix(16, 64, pattern24(), rng);
    const MatrixBF16 b = randomMatrixBF16(64, 16, rng);

    kernels::KernelOptions opts;
    const auto run = kernels::runSpmmKernel({16, 16, 64}, 2, opts,
                                            &a_eff, &b);

    engine::SystolicSimulator sim(engine::vegetaS22());
    const auto ct = CompressedTile::compress(a_eff, pattern24());
    const auto result =
        sim.runSpmm(ct, b.transposed(), MatrixF(16, 16));
    EXPECT_LT(maxAbsDiff(result.c, run.c), 1e-3f);
}

TEST(Integration, SparsitySpeedupCarriesToFullStack)
{
    // The whole pipeline (kernel trace -> OOO core -> engine) shows
    // the Figure 13 effect: a 1:4 layer on VEGETA-S-16-2 with OF runs
    // ~3-4x faster than on the dense RASA-DM baseline.
    kernels::Workload w;
    w.name = "reduced-bert";
    w.gemm = {64, 64, 768};
    const auto dense =
        kernels::simulateLayer(w, 1, engine::vegetaD12(), false);
    const auto sparse =
        kernels::simulateLayer(w, 1, engine::vegetaS162(), true);
    const double speedup =
        double(dense.coreCycles) / double(sparse.coreCycles);
    EXPECT_GT(speedup, 2.5);
    EXPECT_LT(speedup, 5.0);
}

TEST(Integration, UnstructuredPathLossless)
{
    // Unstructured weights -> row-wise transform -> TILE_SPMM_R kernel
    // -> exact result.
    Rng rng(4);
    const MatrixBF16 w = randomUnstructuredMatrix(40, 192, 0.93, rng);
    const MatrixBF16 x = randomMatrixBF16(192, 24, rng);
    const auto run = kernels::runRowWiseSpmmKernel(w, x);
    MatrixF want(40, 24);
    referenceGemm(w, x, want);
    EXPECT_EQ(maxAbsDiff(run.c, want), 0.0f);
}

} // namespace
} // namespace vegeta
