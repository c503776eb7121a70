/**
 * @file
 * sim::Tuner and its search-space / cost-model helpers.
 *
 * Pins the funnel's contracts: the validity predicates are
 * conservative (they never reject a configuration the Figure 13 /
 * Table IV evaluation actually runs), budgets are strictly honored,
 * seeded search is bit-deterministic across thread counts,
 * the capped-exhaustive strategy on the 45-point figure13 space finds
 * the same optimum as a full-replay sweep, and the ridge cost model
 * round-trips both a synthetic monotone space and a real cache record.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <sstream>

#include "sim/cache.hpp"
#include "sim/cost_model.hpp"
#include "sim/session.hpp"
#include "sim/tune.hpp"

namespace vegeta::sim {
namespace {

std::vector<std::string>
tableIVNames(const Session &session)
{
    std::vector<std::string> names;
    for (const auto &w : session.workloads().group("tableIV"))
        names.push_back(w.name);
    return names;
}

std::string
reportJson(const TuneReport &report)
{
    std::ostringstream os;
    writeJson(os, report);
    return os.str();
}

// --- stage 1: validity predicates ------------------------------------

TEST(TuneSpace, PredicateNeverRejectsFigure13GridRequests)
{
    // Every request the paper-evaluation grid actually replays must be
    // scoreable: the predicates are conservative by contract.
    Session session;
    const auto workloads = tableIVNames(session);
    const auto engines = session.engines().names();
    const auto space = TuneSpace::figure13(session, workloads);
    const auto grid = figure13Grid(session, workloads, engines);
    ASSERT_FALSE(grid.empty());
    for (const auto &request : grid) {
        TunePoint point;
        point.workload = request.label;
        point.engine = request.engine;
        point.patternN = request.patternN;
        point.outputForwarding = request.outputForwarding;
        point.kernel = request.kernel;
        point.cBlocking = request.cBlocking;
        const auto reason = invalidReason(session, space, point);
        EXPECT_FALSE(reason) << tunePointKey(point) << " rejected: "
                             << reason.value_or("");
    }
}

TEST(TuneSpace, Figure13EnumerationAndRejectionCounts)
{
    Session session;
    const auto space = TuneSpace::figure13(session, {"quick-small"});
    const auto points = space.enumerate();
    EXPECT_EQ(points.size(), space.rawSize());

    u64 valid = 0;
    for (const auto &point : points) {
        const auto reason = invalidReason(session, space, point);
        if (!reason) {
            ++valid;
            continue;
        }
        EXPECT_FALSE(reason->empty()); // rejections carry a reason
    }
    // 9 engines x 3 patterns x 2 OF = 54 raw; OF on the dense design
    // is infeasible for all 3 patterns x 2 dense-capable engines.
    EXPECT_EQ(points.size(), 54u);
    EXPECT_EQ(valid, 45u);
}

TEST(TuneSpace, PointKeyIsPinned)
{
    // The key orders every ranking tie and prints in reports.
    TunePoint point;
    point.workload = "GPT-L3";
    point.engine = "VEGETA-S-16-2";
    point.patternN = 2;
    point.outputForwarding = true;
    point.kernel = KernelVariant::Naive;
    point.cBlocking = 3;
    EXPECT_EQ(tunePointKey(point), "GPT-L3|VEGETA-S-16-2|2|1|naive|3");
    point.outputForwarding = false;
    point.kernel = KernelVariant::Optimized;
    EXPECT_EQ(tunePointKey(point),
              "GPT-L3|VEGETA-S-16-2|2|0|optimized|3");
}

TEST(TuneSpace, AreaBudgetRejectsLargeDesigns)
{
    Session session;
    auto space = TuneSpace::figure13(session, {"quick-small"});
    space.maxAreaUnits = 1e-6; // below every real design
    for (const auto &point : space.enumerate())
        EXPECT_TRUE(invalidReason(session, space, point));
}

// --- budget accounting -----------------------------------------------

TEST(Tuner, ReplayBudgetStrictlyHonored)
{
    Session session;
    session.enableCache();
    const auto space = TuneSpace::full(session, {"quick-small"});
    for (const auto strategy : {TuneStrategy::CappedExhaustive,
                                TuneStrategy::RandomHalving}) {
        for (const u32 replays : {1u, 3u, 5u, 8u}) {
            TuneOptions options;
            options.strategy = strategy;
            options.budget.replays = replays;
            options.threads = 1;
            const auto report = Tuner(session, options).run(space);
            SCOPED_TRACE(std::string(tuneStrategyName(strategy)) +
                         " budget " + std::to_string(replays));
            EXPECT_LE(report.replayedPoints, replays);
            EXPECT_GE(report.replayedPoints, 1u);
            EXPECT_EQ(report.confirmed.size(),
                      report.replayedPoints);
            EXPECT_EQ(report.rawPoints,
                      report.validPoints + report.rejectedPoints);
            ASSERT_NE(report.best(), nullptr);
            EXPECT_TRUE(report.best()->replayed);
        }
    }
}

TEST(Tuner, AnalysisBudgetCapsStageTwo)
{
    Session session;
    session.enableCache();
    const auto space = TuneSpace::full(session, {"quick-small"});
    TuneOptions options;
    options.budget.replays = 2;
    options.budget.analyses = 10;
    options.threads = 1;
    const auto report = Tuner(session, options).run(space);
    EXPECT_LE(report.analyzedPoints, 10u);
    EXPECT_LE(report.replayedPoints, 2u);
    ASSERT_NE(report.best(), nullptr);
}

TEST(Tuner, DiskCacheKeepsOnlyTheReplays)
{
    // Scoring a point is no analysis: a tune leaves its replays in
    // the persistent cache and none of its prefilter rows, and the
    // cache changes no report byte.
    const auto dir = std::filesystem::path(::testing::TempDir()) /
                     "vegeta_tune_disk_cache";
    std::filesystem::remove_all(dir);
    TuneOptions options;
    options.budget.replays = 3;
    options.threads = 2;

    Session cached;
    const auto disk = cached.attachDiskCache(dir.string());
    ASSERT_TRUE(disk->ok());
    const auto space = TuneSpace::full(cached, {"quick-small"});
    const auto report = Tuner(cached, options).run(space);
    EXPECT_GT(report.analyzedPoints, report.replayedPoints);
    EXPECT_EQ(disk->stats().analysisEntries, 0u);
    EXPECT_EQ(disk->stats().simulationEntries, report.replayedPoints);
    EXPECT_EQ(cached.analysesPerformed(), 0u);

    const Session plain;
    EXPECT_EQ(reportJson(report),
              reportJson(Tuner(plain, options).run(space)));
}

// --- determinism -----------------------------------------------------

TEST(Tuner, SeededHalvingIdenticalAcrossThreads)
{
    const auto search = [](u32 threads) {
        Session session; // fresh per run: equal cache state
        const auto space =
            TuneSpace::full(session, {"quick-small"});
        TuneOptions options;
        options.strategy = TuneStrategy::RandomHalving;
        options.budget.replays = 6;
        options.seed = 7;
        options.threads = threads;
        return reportJson(Tuner(session, options).run(space));
    };
    const auto baseline = search(1);
    EXPECT_EQ(baseline, search(3));
    EXPECT_EQ(baseline, search(2));
}

TEST(Tuner, DifferentSeedsMayDrawDifferentPoolsButStayValid)
{
    Session session;
    session.enableCache();
    const auto space = TuneSpace::full(session, {"quick-small"});
    for (const u64 seed : {1u, 2u, 99u}) {
        TuneOptions options;
        options.strategy = TuneStrategy::RandomHalving;
        options.budget.replays = 3;
        options.seed = seed;
        options.threads = 1;
        const auto report = Tuner(session, options).run(space);
        ASSERT_NE(report.best(), nullptr);
        EXPECT_FALSE(
            invalidReason(session, space, report.best()->point));
    }
}

// --- search quality --------------------------------------------------

TEST(Tuner, CappedExhaustiveFindsFullSweepOptimum)
{
    Session session;
    session.enableCache(); // the sweep shares replays with the search
    const auto space =
        TuneSpace::figure13(session, {"quick-small"});

    TuneOptions sweep_options;
    sweep_options.budget.replays = u32(space.rawSize());
    sweep_options.threads = 1;
    const auto sweep = Tuner(session, sweep_options).run(space);
    ASSERT_NE(sweep.best(), nullptr);
    EXPECT_EQ(sweep.replayedPoints, sweep.validPoints); // all 45

    TuneOptions options;
    options.budget.replays = 8;
    options.threads = 1;
    const auto report = Tuner(session, options).run(space);
    ASSERT_NE(report.best(), nullptr);
    EXPECT_EQ(report.replayedPoints, 8u);
    EXPECT_EQ(tunePointKey(report.best()->point),
              tunePointKey(sweep.best()->point));
    EXPECT_EQ(report.best()->measuredCoreCycles,
              sweep.best()->measuredCoreCycles);
}

TEST(Tuner, ParetoFrontIsSortedAndNonDominated)
{
    Session session;
    session.enableCache();
    const auto space =
        TuneSpace::figure13(session, {"quick-small"});
    TuneOptions options;
    options.budget.replays = 12;
    options.threads = 1;
    const auto report = Tuner(session, options).run(space);
    ASSERT_FALSE(report.paretoFront.empty());
    for (std::size_t i = 1; i < report.paretoFront.size(); ++i) {
        // Ascending area, strictly improving cycles/MAC.
        EXPECT_GT(report.paretoFront[i].areaUnits,
                  report.paretoFront[i - 1].areaUnits);
        EXPECT_LT(report.paretoFront[i].measuredCyclesPerMac,
                  report.paretoFront[i - 1].measuredCyclesPerMac);
    }
    // The winner is on the front.
    const auto best_key = tunePointKey(report.best()->point);
    bool found = false;
    for (const auto &candidate : report.paretoFront)
        found = found || tunePointKey(candidate.point) == best_key;
    EXPECT_TRUE(found);
}

// --- cost model ------------------------------------------------------

TEST(CostModel, SyntheticMonotoneSpaceRoundTrips)
{
    // y = 2 + 0.5 * t: the fit must recover the line and predictions
    // must stay monotone in t.
    std::vector<CostSample> samples;
    for (u32 t = 0; t < 40; ++t) {
        CostSample sample;
        sample.features[0] = 1.0;
        sample.features[1] = double(t);
        sample.log2Cycles = 2.0 + 0.5 * double(t);
        samples.push_back(sample);
    }
    const auto model = CostModel::fit(samples);
    ASSERT_TRUE(model);
    EXPECT_EQ(model->sampleCount(), 40u);
    EXPECT_LT(model->trainRmse(), 1e-3);

    double previous = -1e300;
    for (u32 t = 0; t < 40; ++t) {
        const double predicted =
            model->predictLog2Cycles(samples[t].features);
        EXPECT_NEAR(predicted, samples[t].log2Cycles, 1e-2);
        EXPECT_GT(predicted, previous);
        previous = predicted;
    }

    // Closed-form fit: refitting the same data is bit-identical.
    const auto again = CostModel::fit(samples);
    ASSERT_TRUE(again);
    for (const auto &sample : samples)
        EXPECT_EQ(model->predictLog2Cycles(sample.features),
                  again->predictLog2Cycles(sample.features));
}

TEST(CostModel, FitRejectsDegenerateInputs)
{
    EXPECT_FALSE(CostModel::fit({}));
}

TEST(CostModel, CacheEntryRoundTripsThroughKey)
{
    Session session;
    const auto job = session.job()
                         .workload("quick-small")
                         .engine("VEGETA-S-16-2")
                         .pattern(2)
                         .outputForwarding(true)
                         .cBlocking(2)
                         .build();
    ASSERT_TRUE(job);
    const auto result = session.run(job->simulation);
    const auto sample = costSampleFromCacheEntry(
        session, cacheKey(job->simulation), result);
    ASSERT_TRUE(sample);
    EXPECT_EQ(sample->features[0], 1.0); // bias term
    EXPECT_NEAR(sample->log2Cycles,
                std::log2(double(result.coreCycles)), 1e-12);

    // A corrupted key must be skipped, not mis-featurized.
    EXPECT_FALSE(costSampleFromCacheEntry(session, "v0|broken|key",
                                          result));
}

} // namespace
} // namespace vegeta::sim
