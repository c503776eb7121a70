/**
 * @file
 * Shared bit-identity assertions for result types.
 *
 * Several suites pin the facade's determinism guarantee -- equal
 * inputs produce bit-for-bit equal results across threads, caches,
 * and processes -- and they must all compare EVERY field, so
 * the field lists live here once: a new SimulationResult or
 * AnalyticalCell field only needs to be added in this header for all
 * of them to start asserting it.
 */

#ifndef VEGETA_TESTS_EXPECT_IDENTICAL_HPP
#define VEGETA_TESTS_EXPECT_IDENTICAL_HPP

#include <gtest/gtest.h>

#include "sim/job.hpp"

namespace vegeta::sim {

inline void
expectIdenticalSim(const SimulationResult &a, const SimulationResult &b)
{
    EXPECT_EQ(a.workload, b.workload);
    EXPECT_EQ(a.engine, b.engine);
    EXPECT_EQ(a.layerN, b.layerN);
    EXPECT_EQ(a.executedN, b.executedN);
    EXPECT_EQ(a.outputForwarding, b.outputForwarding);
    EXPECT_EQ(a.kernel, b.kernel);
    EXPECT_EQ(a.coreCycles, b.coreCycles);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.engineInstructions, b.engineInstructions);
    EXPECT_EQ(a.tileComputes, b.tileComputes);
    // bit-for-bit: exact double equality, not a tolerance.
    EXPECT_EQ(a.macUtilization, b.macUtilization);
    EXPECT_EQ(a.cacheHits, b.cacheHits);
    EXPECT_EQ(a.cacheMisses, b.cacheMisses);
}

inline void
expectIdenticalAnalysis(const AnalyticalResult &a,
                        const AnalyticalResult &b)
{
    EXPECT_EQ(a.model, b.model);
    ASSERT_EQ(a.columns, b.columns);
    ASSERT_EQ(a.rows.size(), b.rows.size());
    for (std::size_t r = 0; r < a.rows.size(); ++r) {
        ASSERT_EQ(a.rows[r].size(), b.rows[r].size());
        for (std::size_t c = 0; c < a.rows[r].size(); ++c) {
            EXPECT_EQ(a.rows[r][c].label, b.rows[r][c].label);
            // bit-for-bit: exact double equality.
            EXPECT_EQ(a.rows[r][c].value, b.rows[r][c].value);
            EXPECT_EQ(a.rows[r][c].precision, b.rows[r][c].precision);
        }
    }
    EXPECT_EQ(a.notes, b.notes);
}

inline void
expectIdenticalBatches(const std::vector<JobResult> &a,
                       const std::vector<JobResult> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a[i].kind, b[i].kind) << i;
        if (a[i].kind == JobKind::Simulation)
            expectIdenticalSim(a[i].simulation, b[i].simulation);
        else
            expectIdenticalAnalysis(a[i].analysis, b[i].analysis);
    }
}

} // namespace vegeta::sim

#endif // VEGETA_TESTS_EXPECT_IDENTICAL_HPP
