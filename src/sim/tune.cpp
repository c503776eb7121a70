#include "sim/tune.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <numeric>
#include <ostream>
#include <string_view>
#include <tuple>

#include "common/logging.hpp"
#include "sim/client.hpp"
#include "sim/session.hpp"
#include "sim/telemetry.hpp"

namespace vegeta::sim {

namespace {

/** Fixed-format double for byte-stable reports. */
std::string
formatDouble(double value)
{
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%.9g", value);
    return buffer;
}

bool
candidateMeasuredLess(const TuneCandidate &a, const TuneCandidate &b)
{
    if (a.measuredCyclesPerMac != b.measuredCyclesPerMac)
        return a.measuredCyclesPerMac < b.measuredCyclesPerMac;
    return tunePointKey(a.point) < tunePointKey(b.point);
}

/** Calibration group: points the estimator errs on the same way. */
using CalibrationGroup =
    std::tuple<std::string_view, u32, bool, KernelVariant>;

CalibrationGroup
calibrationGroup(const TunePoint &point)
{
    return {point.engine, point.patternN, point.outputForwarding,
            point.kernel};
}

/**
 * Rescale every estimate not yet replayed by the mean measured /
 * estimated ratio of its calibration group's replays, or of all
 * replays when its group has none.
 */
void
recalibrate(std::vector<TuneCandidate> &scored)
{
    std::map<CalibrationGroup, std::pair<double, u64>> group_ratio;
    double global_ratio_sum = 0.0;
    u64 global_ratio_count = 0;
    for (const auto &candidate : scored) {
        if (!candidate.replayed || candidate.estCyclesPerMac <= 0.0)
            continue;
        const double ratio =
            candidate.measuredCyclesPerMac / candidate.estCyclesPerMac;
        auto &entry = group_ratio[calibrationGroup(candidate.point)];
        entry.first += ratio;
        entry.second += 1;
        global_ratio_sum += ratio;
        global_ratio_count += 1;
    }
    if (global_ratio_count == 0)
        return;
    const double global_ratio =
        global_ratio_sum / double(global_ratio_count);
    for (auto &candidate : scored) {
        if (candidate.replayed)
            continue;
        const auto entry =
            group_ratio.find(calibrationGroup(candidate.point));
        const double ratio =
            entry != group_ratio.end()
                ? entry->second.first / double(entry->second.second)
                : global_ratio;
        candidate.predictedCyclesPerMac =
            candidate.estCyclesPerMac * ratio;
    }
}

SimulationRequest
requestFor(const Session &session, const TunePoint &point)
{
    auto builder = session.job()
                       .workload(point.workload)
                       .engine(point.engine)
                       .pattern(point.patternN)
                       .outputForwarding(point.outputForwarding)
                       .kernel(point.kernel)
                       .cBlocking(point.cBlocking);
    auto job = builder.build();
    VEGETA_ASSERT(job.has_value(), "tuner replayed invalid point: ",
                  builder.error());
    return std::move(job->simulation);
}

/** The measured Pareto front: ascending area, strictly better speed. */
std::vector<TuneCandidate>
paretoFrontOf(std::vector<TuneCandidate> confirmed)
{
    std::sort(confirmed.begin(), confirmed.end(),
              [](const TuneCandidate &a, const TuneCandidate &b) {
                  if (a.areaUnits != b.areaUnits)
                      return a.areaUnits < b.areaUnits;
                  return candidateMeasuredLess(a, b);
              });
    std::vector<TuneCandidate> front;
    for (const auto &candidate : confirmed)
        if (front.empty() || candidate.measuredCyclesPerMac <
                                 front.back().measuredCyclesPerMac)
            front.push_back(candidate);
    return front;
}

void
writeCandidateJson(std::ostream &os, const TuneCandidate &c)
{
    os << "{\"workload\": \"" << jsonEscape(c.point.workload)
       << "\", \"engine\": \"" << jsonEscape(c.point.engine)
       << "\", \"pattern\": " << c.point.patternN
       << ", \"output_forwarding\": "
       << (c.point.outputForwarding ? "true" : "false")
       << ", \"kernel\": \"" << kernelVariantName(c.point.kernel)
       << "\", \"c_blocking\": " << c.point.cBlocking
       << ", \"est_cycles_per_mac\": " << formatDouble(c.estCyclesPerMac)
       << ", \"predicted_cycles_per_mac\": "
       << formatDouble(c.predictedCyclesPerMac)
       << ", \"area_units\": " << formatDouble(c.areaUnits)
       << ", \"replayed\": " << (c.replayed ? "true" : "false")
       << ", \"measured_core_cycles\": " << c.measuredCoreCycles
       << ", \"measured_cycles_per_mac\": "
       << formatDouble(c.measuredCyclesPerMac)
       << ", \"mac_utilization\": "
       << formatDouble(c.measuredMacUtilization) << "}";
}

} // namespace

Tuner::Tuner(const Session &session, TuneOptions options)
    : session_(session), options_(std::move(options))
{
}

std::vector<TuneCandidate>
Tuner::scoreCandidates(std::vector<TunePoint> valid) const
{
    std::vector<TuneCandidate> scored;
    scored.reserve(valid.size());
    for (auto &point : valid) {
        // The estimator itself, not the "tune-prefilter" backend that
        // serves `analyze`: a scored point is no analysis to count or
        // to persist in the disk cache.
        const auto workload = session_.workloads().find(point.workload);
        const auto engine = session_.engines().find(point.engine);
        VEGETA_ASSERT(workload && engine,
                      "scored point lost its registry entries");
        const bool naive = point.kernel == KernelVariant::Naive;
        const PrefilterEstimate est = prefilterEstimate(
            workload->gemm, *engine, point.patternN,
            point.outputForwarding, naive, point.cBlocking);

        TuneCandidate candidate;
        candidate.point = std::move(point);
        candidate.estCyclesPerMac = est.estCyclesPerMac;
        candidate.areaUnits = est.areaUnits;
        candidate.predictedCyclesPerMac = est.estCyclesPerMac;
        scored.push_back(std::move(candidate));
    }
    return scored;
}

bool
Tuner::replayCandidates(std::vector<TuneCandidate *> &picks,
                        SimClient *client) const
{
    if (picks.empty())
        return client != nullptr;
    std::vector<SimulationRequest> requests;
    requests.reserve(picks.size());
    for (const TuneCandidate *candidate : picks)
        requests.push_back(requestFor(session_, candidate->point));

    std::vector<SimulationResult> results;
    if (client) {
        std::vector<Job> jobs;
        jobs.reserve(requests.size());
        for (const auto &request : requests)
            jobs.push_back(Job::simulate(request));
        std::string error;
        if (const auto run = client->runBatch(jobs, &error))
            for (const auto &job_result : run->results)
                results.push_back(job_result.simulation);
        else
            VEGETA_WARN("tune: service ", options_.connectAddress,
                        " failed (", error, "); confirming locally");
    }
    const bool by_server = !results.empty();
    if (!by_server)
        results = session_.runBatch(requests, options_.threads);

    VEGETA_ASSERT(results.size() == picks.size(),
                  "replay batch size mismatch");
    for (std::size_t i = 0; i < picks.size(); ++i) {
        const auto workload =
            session_.workloads().find(picks[i]->point.workload);
        VEGETA_ASSERT(workload.has_value(),
                      "replayed point lost its workload");
        picks[i]->replayed = true;
        picks[i]->measuredCoreCycles = results[i].coreCycles;
        picks[i]->measuredCyclesPerMac =
            double(results[i].coreCycles) /
            double(workload->gemm.macs());
        picks[i]->measuredMacUtilization = results[i].macUtilization;
    }
    return by_server;
}

TuneReport
Tuner::run(const TuneSpace &space) const
{
    TuneReport report;
    report.budget = options_.budget;
    report.rawPoints = space.rawSize();

    static const telemetry::MetricId validity_timer =
        telemetry::timerId("tune.validity");
    static const telemetry::MetricId analyze_timer =
        telemetry::timerId("tune.analyze");
    static const telemetry::MetricId replay_timer =
        telemetry::timerId("tune.replay");

    // Stage 1: validity.  Canonical key order makes every later
    // ranking (and therefore the report bytes) independent of
    // enumeration details, and a point that a repeated axis entry
    // enumerates twice is kept once.  Each key is built once, not
    // once per sort comparison.
    const u64 validity_start = telemetry::nowNs();
    std::vector<TunePoint> valid;
    {
        telemetry::Span span("tune.validity", report.rawPoints);
        std::vector<TunePoint> points;
        std::vector<std::string> keys;
        for (auto &point : space.enumerate()) {
            if (invalidReason(session_, space, point))
                continue;
            keys.push_back(tunePointKey(point));
            points.push_back(std::move(point));
        }
        std::vector<std::size_t> order(points.size());
        std::iota(order.begin(), order.end(), std::size_t{0});
        std::sort(order.begin(), order.end(),
                  [&](std::size_t a, std::size_t b) {
                      return keys[a] < keys[b];
                  });
        for (std::size_t n = 0; n < order.size(); ++n)
            if (n == 0 || keys[order[n]] != keys[order[n - 1]])
                valid.push_back(std::move(points[order[n]]));
    }
    const u64 validity_ns = telemetry::nowNs() - validity_start;
    telemetry::recordNs(validity_timer, validity_ns);
    report.validityMs = double(validity_ns) / 1e6;
    report.validPoints = valid.size();
    report.rejectedPoints = report.rawPoints - report.validPoints;

    // Stage 2: score every valid point, still in key order.
    const u64 analyze_start = telemetry::nowNs();
    telemetry::Span analyze_span("tune.analyze", valid.size());
    std::vector<TuneCandidate> scored =
        scoreCandidates(std::move(valid));
    report.analyzedPoints = scored.size();
    analyze_span.close();
    const u64 analyze_ns = telemetry::nowNs() - analyze_start;
    telemetry::recordNs(analyze_timer, analyze_ns);
    report.analyzeMs = double(analyze_ns) / 1e6;

    // Stage 3: two replay rounds, strictly bounded by the budget.
    // The first takes the top half of the budget from the
    // prefilter's ranking; the second spends the rest on the ranking
    // recalibrated against those measurements.  Ties rank by index,
    // which is key order.
    const u64 replay_start = telemetry::nowNs();
    telemetry::Span replay_span("tune.replay",
                                options_.budget.replays);
    std::vector<std::size_t> ranking(scored.size());
    std::iota(ranking.begin(), ranking.end(), std::size_t{0});
    const auto rank = [&](std::size_t from) {
        std::sort(ranking.begin() + from, ranking.end(),
                  [&](std::size_t a, std::size_t b) {
                      const double pa = scored[a].predictedCyclesPerMac;
                      const double pb = scored[b].predictedCyclesPerMac;
                      return pa != pb ? pa < pb : a < b;
                  });
    };
    // One connection serves both rounds: an unreachable service
    // costs one connect window and one warning, and a failed one is
    // not asked again.
    std::unique_ptr<SimClient> client;
    if (!options_.connectAddress.empty() && !scored.empty()) {
        ClientOptions client_options;
        client_options.address = options_.connectAddress;
        client = std::make_unique<SimClient>(client_options);
        std::string error;
        if (!client->connect(&error)) {
            VEGETA_WARN("tune: service ", options_.connectAddress,
                        " unavailable (", error,
                        "); confirming locally");
            client.reset();
        }
    }
    const auto replay = [&](std::size_t from, std::size_t to) {
        std::vector<TuneCandidate *> picks;
        for (std::size_t i = from; i < to; ++i)
            picks.push_back(&scored[ranking[i]]);
        if (replayCandidates(picks, client.get()))
            report.serverReplays += picks.size();
        else
            client.reset();
    };
    const std::size_t budget = options_.budget.replays;
    const std::size_t first_round = std::min<std::size_t>(
        {scored.size(), budget, std::max<std::size_t>(1, budget / 2)});
    const std::size_t replayed = std::min(scored.size(), budget);
    rank(0);
    replay(0, first_round);
    if (replayed > first_round) {
        recalibrate(scored);
        rank(first_round);
        replay(first_round, replayed);
    }
    report.replayedPoints = replayed;

    replay_span.close();
    const u64 replay_ns = telemetry::nowNs() - replay_start;
    telemetry::recordNs(replay_timer, replay_ns);
    report.replayMs = double(replay_ns) / 1e6;

    for (auto &candidate : scored)
        if (candidate.replayed)
            report.confirmed.push_back(candidate);
    std::sort(report.confirmed.begin(), report.confirmed.end(),
              candidateMeasuredLess);
    report.paretoFront = paretoFrontOf(report.confirmed);
    return report;
}

void
writeJson(std::ostream &os, const TuneReport &report)
{
    os << "{\n";
    os << "  \"budget\": {\"replays\": " << report.budget.replays
       << "},\n";
    os << "  \"raw_points\": " << report.rawPoints << ",\n";
    os << "  \"valid_points\": " << report.validPoints << ",\n";
    os << "  \"rejected_points\": " << report.rejectedPoints << ",\n";
    os << "  \"analyzed_points\": " << report.analyzedPoints << ",\n";
    os << "  \"replayed_points\": " << report.replayedPoints << ",\n";
    os << "  \"best\": ";
    if (const TuneCandidate *best = report.best())
        writeCandidateJson(os, *best);
    else
        os << "null";
    os << ",\n";
    os << "  \"pareto_front\": [";
    for (std::size_t i = 0; i < report.paretoFront.size(); ++i) {
        os << (i ? ", " : "");
        writeCandidateJson(os, report.paretoFront[i]);
    }
    os << "],\n";
    os << "  \"confirmed\": [";
    for (std::size_t i = 0; i < report.confirmed.size(); ++i) {
        os << (i ? ", " : "");
        writeCandidateJson(os, report.confirmed[i]);
    }
    os << "]\n";
    os << "}\n";
}

void
writeCsv(std::ostream &os, const TuneReport &report)
{
    os << "workload,engine,pattern,output_forwarding,kernel,"
          "c_blocking,est_cycles_per_mac,predicted_cycles_per_mac,"
          "area_units,measured_core_cycles,measured_cycles_per_mac,"
          "mac_utilization\n";
    for (const auto &c : report.confirmed) {
        os << c.point.workload << "," << c.point.engine << ","
           << c.point.patternN << ","
           << (c.point.outputForwarding ? 1 : 0) << ","
           << kernelVariantName(c.point.kernel) << ","
           << c.point.cBlocking << ","
           << formatDouble(c.estCyclesPerMac) << ","
           << formatDouble(c.predictedCyclesPerMac) << ","
           << formatDouble(c.areaUnits) << "," << c.measuredCoreCycles
           << "," << formatDouble(c.measuredCyclesPerMac) << ","
           << formatDouble(c.measuredMacUtilization) << "\n";
    }
}

} // namespace vegeta::sim
