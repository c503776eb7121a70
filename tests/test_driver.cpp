/**
 * @file
 * Experiment-driver tests: qualitative Figure 13 behaviours on
 * reduced-size workloads.
 */

#include <gtest/gtest.h>

#include "kernels/driver.hpp"
#include "sim/session.hpp"

namespace vegeta::kernels {
namespace {

Workload
quick()
{
    Workload w;
    w.name = "quick";
    w.gemm = {64, 64, 512};
    return w;
}

/** RASA-DM cycles over VEGETA-S-16-2+OF cycles at one pattern. */
double
speedupVsDense(u32 layer_n)
{
    const auto base =
        simulateLayer(quick(), layer_n, engine::vegetaD12(), false);
    const auto test =
        simulateLayer(quick(), layer_n, engine::vegetaS162(), true);
    return double(base.coreCycles) / double(test.coreCycles);
}

TEST(Driver, DenseEngineIgnoresSparsity)
{
    // VEGETA-D engines "show the same performance with 2:4 and 1:4
    // structured sparsity" (Section VI-C).
    const auto w = quick();
    const auto d44 = simulateLayer(w, 4, engine::vegetaD12(), false);
    const auto d24 = simulateLayer(w, 2, engine::vegetaD12(), false);
    const auto d14 = simulateLayer(w, 1, engine::vegetaD12(), false);
    EXPECT_EQ(d44.coreCycles, d24.coreCycles);
    EXPECT_EQ(d24.coreCycles, d14.coreCycles);
    EXPECT_EQ(d24.executedN, 4u);
}

TEST(Driver, SparseEngineSkipsWork)
{
    const auto w = quick();
    const auto dense =
        simulateLayer(w, 4, engine::vegetaS162(), false);
    const auto s24 = simulateLayer(w, 2, engine::vegetaS162(), false);
    const auto s14 = simulateLayer(w, 1, engine::vegetaS162(), false);
    EXPECT_LT(s24.coreCycles, dense.coreCycles);
    EXPECT_LT(s14.coreCycles, s24.coreCycles);
    EXPECT_EQ(s24.tileComputes, dense.tileComputes / 2);
    EXPECT_EQ(s14.tileComputes, dense.tileComputes / 4);
}

TEST(Driver, StcLikeCannotExploitOneFour)
{
    // "The design with the STC-like config does not show better
    // performance [for 1:4] compared with 2:4" (Section VI-C).
    const auto w = quick();
    const auto s24 = simulateLayer(w, 2, engine::stcLike(), false);
    const auto s14 = simulateLayer(w, 1, engine::stcLike(), false);
    EXPECT_EQ(s14.coreCycles, s24.coreCycles);
    EXPECT_EQ(s14.executedN, 2u);
}

TEST(Driver, RasaSmSlowerThanRasaDm)
{
    // RASA-SM's imbalanced stages (II = 32 vs 16) hurt utilization.
    const auto w = quick();
    const auto sm = simulateLayer(w, 4, engine::vegetaD11(), false);
    const auto dm = simulateLayer(w, 4, engine::vegetaD12(), false);
    EXPECT_GT(sm.coreCycles, dm.coreCycles);
}

TEST(Driver, OutputForwardingHelpsDependentStreams)
{
    const auto w = quick();
    const auto no_of =
        simulateLayer(w, 2, engine::vegetaS162(), false);
    const auto with_of =
        simulateLayer(w, 2, engine::vegetaS162(), true);
    EXPECT_LE(with_of.coreCycles, no_of.coreCycles);
}

TEST(Driver, SpeedupOrderingAcrossPatterns)
{
    // Headline shape: 4:4 ~1x, 2:4 ~2x, 1:4 ~3-4x vs RASA-DM.
    const double s44 = speedupVsDense(4);
    const double s24 = speedupVsDense(2);
    const double s14 = speedupVsDense(1);
    EXPECT_GT(s44, 0.9);
    EXPECT_GT(s24, 1.5);
    EXPECT_GT(s14, s24);
    EXPECT_LT(s14, 5.0);
}

TEST(Driver, SweepCoversAllCombinations)
{
    sim::WorkloadRegistry workloads;
    workloads.add(quick(), "sweep");
    sim::EngineRegistry engines;
    engines.add(engine::vegetaD12());
    engines.add(engine::vegetaS162());
    const sim::Session session(std::move(engines),
                               std::move(workloads));
    const auto grid = sim::figure13Grid(
        session, {"quick"}, {"VEGETA-D-1-2", "VEGETA-S-16-2"}, {4, 2});
    // Per (workload, pattern): dense 1 run, sparse 2 runs (OF off/on).
    ASSERT_EQ(grid.size(), 1u * 2 * (1 + 2));
    for (const auto &m : session.runBatch(grid, 2)) {
        EXPECT_GT(m.coreCycles, 0u);
        EXPECT_GT(m.instructions, 0u);
    }
}

TEST(Driver, UtilizationWithinBounds)
{
    const auto m =
        simulateLayer(quick(), 4, engine::vegetaD12(), false);
    EXPECT_GT(m.macUtilization, 0.05);
    EXPECT_LE(m.macUtilization, 1.0);
}

} // namespace
} // namespace vegeta::kernels
