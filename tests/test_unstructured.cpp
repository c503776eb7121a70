/**
 * @file
 * Figure 15 study tests: granularity speed-ups at 60-95% unstructured
 * sparsity against the paper's reported shape.
 */

#include <gtest/gtest.h>

#include "model/unstructured_analysis.hpp"

namespace vegeta::model {
namespace {

std::vector<kernels::Workload>
smallSet()
{
    // A representative subset keeps the test fast; statistics converge
    // quickly at these matrix sizes.
    auto all = kernels::tableIVWorkloads();
    return {all[0], all[6], all[9]};
}

TEST(Figure15, GranularityOrderingAtEveryDegree)
{
    for (const auto &p : figure15Series(smallSet())) {
        EXPECT_GE(p.tileWise, p.layerWise) << p.degree;
        EXPECT_GE(p.pseudoRowWise, p.layerWise) << p.degree;
        EXPECT_GE(p.rowWise, p.pseudoRowWise) << p.degree;
        EXPECT_GE(p.rowWise, p.tileWise) << p.degree;
        EXPECT_DOUBLE_EQ(p.dense, 1.0);
    }
}

TEST(Figure15, LayerWiseBarelyHelpsOnUnstructured)
{
    // "It is unlikely that an entire unstructured sparse layer
    // exhibits a certain N:M sparsity; thus, layer-wise does not show
    // much performance improvement over dense."
    for (const auto &p : figure15Series(smallSet()))
        EXPECT_LT(p.layerWise, 1.35) << p.degree;
}

TEST(Figure15, SigmaCrossoverNear95Percent)
{
    // SIGMA wins only at extreme sparsity (>~95%); it is inefficient
    // at modest degrees.
    const auto series = figure15Series(smallSet(), {0.60, 0.90, 0.95});
    EXPECT_LT(series[0].sigmaLike, series[0].rowWise);
    EXPECT_LT(series[1].sigmaLike, series[1].rowWise);
    EXPECT_NEAR(series[2].sigmaLike, series[2].rowWise,
                0.25 * series[2].rowWise);
}

TEST(Figure15, SpeedupsGrowWithDegree)
{
    const auto series = figure15Series(smallSet());
    for (std::size_t i = 1; i < series.size(); ++i) {
        EXPECT_GE(series[i].rowWise, series[i - 1].rowWise * 0.98);
        EXPECT_GE(series[i].sigmaLike, series[i - 1].sigmaLike);
    }
}

TEST(Figure15, DeterministicGivenSeed)
{
    const auto a = figure15Series(smallSet(), {0.9}, 123);
    const auto b = figure15Series(smallSet(), {0.9}, 123);
    EXPECT_DOUBLE_EQ(a[0].rowWise, b[0].rowWise);
    EXPECT_DOUBLE_EQ(a[0].tileWise, b[0].tileWise);
}

TEST(Figure15, DefaultGridIs60To95)
{
    const auto series = figure15Series(smallSet());
    ASSERT_EQ(series.size(), 8u);
    EXPECT_DOUBLE_EQ(series.front().degree, 0.60);
    EXPECT_DOUBLE_EQ(series.back().degree, 0.95);
}

} // namespace
} // namespace vegeta::model
