/**
 * @file
 * sim::Tuner and its search-space helpers.
 *
 * Pins the funnel's contracts: the validity predicates are
 * conservative (they never reject a configuration the Figure 13 /
 * Table IV evaluation actually runs), budgets are strictly honored,
 * a repeated axis entry spends no replay twice, the report is
 * bit-identical across thread counts, cache states and an unreachable
 * service, and the two-round search finds the full-replay optimum on
 * the figure13 space and on ResNet50-L3's full space at budget 8.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>

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
    for (const u32 replays : {1u, 2u, 3u, 8u}) {
        TuneOptions options;
        options.budget.replays = replays;
        options.threads = 1;
        const auto report = Tuner(session, options).run(space);
        SCOPED_TRACE("budget " + std::to_string(replays));
        EXPECT_EQ(report.replayedPoints, replays);
        EXPECT_EQ(report.confirmed.size(), report.replayedPoints);
        EXPECT_EQ(report.analyzedPoints, report.validPoints);
        EXPECT_EQ(report.rawPoints,
                  report.validPoints + report.rejectedPoints);
        ASSERT_NE(report.best(), nullptr);
        EXPECT_TRUE(report.best()->replayed);
    }
}

TEST(Tuner, RepeatedWorkloadSpendsNoReplayTwice)
{
    // A workload named twice enumerates every point twice; the
    // search keeps one of each, so it confirms what one name does.
    Session session;
    session.enableCache();
    TuneOptions options;
    options.budget.replays = 4;
    options.threads = 1;
    const auto once =
        Tuner(session, options)
            .run(TuneSpace::full(session, {"quick-small"}));
    const auto twice =
        Tuner(session, options)
            .run(TuneSpace::full(session,
                                 {"quick-small", "quick-small"}));
    EXPECT_EQ(twice.rawPoints, 2 * once.rawPoints);
    EXPECT_EQ(twice.validPoints, once.validPoints);
    EXPECT_EQ(twice.rawPoints,
              twice.validPoints + twice.rejectedPoints);
    ASSERT_EQ(twice.confirmed.size(), once.confirmed.size());
    for (std::size_t i = 0; i < once.confirmed.size(); ++i) {
        EXPECT_EQ(tunePointKey(twice.confirmed[i].point),
                  tunePointKey(once.confirmed[i].point));
        EXPECT_EQ(twice.confirmed[i].measuredCoreCycles,
                  once.confirmed[i].measuredCoreCycles);
    }
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

TEST(Tuner, ReportIdenticalAcrossThreads)
{
    const auto search = [](u32 threads) {
        Session session; // fresh per run: equal cache state
        const auto space =
            TuneSpace::full(session, {"quick-small"});
        TuneOptions options;
        options.budget.replays = 6;
        options.threads = threads;
        return reportJson(Tuner(session, options).run(space));
    };
    const auto baseline = search(1);
    EXPECT_EQ(baseline, search(3));
    EXPECT_EQ(baseline, search(2));
}

TEST(Tuner, WarmCacheChangesNoReportByte)
{
    // A persistent cache full of earlier replays only memoizes: the
    // report is the cacheless one, whatever the cache holds.
    const auto dir = std::filesystem::path(::testing::TempDir()) /
                     "vegeta_tune_warm_cache";
    std::filesystem::remove_all(dir);
    {
        Session warm;
        ASSERT_TRUE(warm.attachDiskCache(dir.string())->ok());
        const auto grid =
            figure13Grid(warm, {"quick-small", "quick-square"},
                         warm.engines().names());
        warm.runBatch(grid, 2);
    }
    Session cached;
    const auto disk = cached.attachDiskCache(dir.string());
    ASSERT_TRUE(disk->ok());
    ASSERT_GE(disk->stats().simulationEntries, 32u);

    TuneOptions options;
    options.threads = 2;
    const auto space = TuneSpace::full(cached, {"quick-small"});
    const Session plain;
    EXPECT_EQ(reportJson(Tuner(cached, options).run(space)),
              reportJson(Tuner(plain, options).run(space)));
}

// --- search quality --------------------------------------------------

TEST(Tuner, BudgetEightFindsFigure13SweepOptimum)
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

TEST(Tuner, BudgetEightReachesResNet50L3Optimum)
{
    // ResNet50-L3 is where the prefilter's ranking is worst: measured
    // cycles/MAC run 1.30-4.76x above its estimate, so its top 8
    // miss the optimum by 22%.  The recalibrated second round must
    // reach the best of all 135 valid points.
    Session session;
    session.enableCache(); // the search reuses the truth's replays
    const auto space = TuneSpace::full(session, {"ResNet50-L3"});

    TuneOptions truth_options;
    truth_options.budget.replays = u32(space.rawSize());
    truth_options.threads = 2;
    const auto truth = Tuner(session, truth_options).run(space);
    ASSERT_EQ(truth.replayedPoints, 135u);

    TuneOptions options;
    options.threads = 2;
    const auto report = Tuner(session, options).run(space);
    EXPECT_EQ(report.replayedPoints, 8u);
    ASSERT_NE(report.best(), nullptr);
    EXPECT_EQ(report.best()->measuredCoreCycles,
              truth.best()->measuredCoreCycles);
}

TEST(Tuner, UnreachableServiceWarnsOnceAndReplaysLocally)
{
    // Budget 4 replays in two rounds.  A search connects once for
    // both: an unreachable service costs one warning, every replay
    // runs locally, and the report bytes match a local search.
    Session session;
    session.enableCache();
    const auto space = TuneSpace::full(session, {"quick-small"});
    TuneOptions options;
    options.budget.replays = 4;
    options.threads = 1;
    const TuneReport local = Tuner(session, options).run(space);
    EXPECT_EQ(local.serverReplays, 0u);

    // A malformed address fails at once, without a connect window.
    options.connectAddress = "tcp:no-port";
    ::testing::internal::CaptureStderr();
    const TuneReport fallback = Tuner(session, options).run(space);
    const std::string warnings =
        ::testing::internal::GetCapturedStderr();
    std::size_t count = 0;
    for (auto at = warnings.find("unavailable");
         at != std::string::npos;
         at = warnings.find("unavailable", at + 1))
        ++count;
    EXPECT_EQ(count, 1u) << warnings;
    EXPECT_EQ(fallback.replayedPoints, 4u);
    EXPECT_EQ(fallback.serverReplays, 0u);
    EXPECT_EQ(reportJson(fallback), reportJson(local));
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

} // namespace
} // namespace vegeta::sim
