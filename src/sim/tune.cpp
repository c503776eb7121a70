#include "sim/tune.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <ostream>

#include "common/logging.hpp"
#include "common/random.hpp"
#include "sim/client.hpp"
#include "sim/cost_model.hpp"
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
candidateScoreLess(const TuneCandidate &a, const TuneCandidate &b)
{
    if (a.predictedCyclesPerMac != b.predictedCyclesPerMac)
        return a.predictedCyclesPerMac < b.predictedCyclesPerMac;
    return tunePointKey(a.point) < tunePointKey(b.point);
}

bool
candidateMeasuredLess(const TuneCandidate &a, const TuneCandidate &b)
{
    if (a.measuredCyclesPerMac != b.measuredCyclesPerMac)
        return a.measuredCyclesPerMac < b.measuredCyclesPerMac;
    return tunePointKey(a.point) < tunePointKey(b.point);
}

/** Calibration group: points the estimator errs on the same way. */
std::string
calibrationGroup(const TunePoint &point)
{
    return point.engine + "|" + std::to_string(point.patternN) + "|" +
           (point.outputForwarding ? "1" : "0") + "|" +
           kernelVariantName(point.kernel);
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
    VEGETA_ASSERT(job.has_value(), "tuner replayed invalid point: %s",
                  builder.error().c_str());
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

const char *
tuneStrategyName(TuneStrategy strategy)
{
    switch (strategy) {
    case TuneStrategy::CappedExhaustive:
        return "exhaustive";
    case TuneStrategy::RandomHalving:
        return "halving";
    }
    return "unknown";
}

std::optional<TuneStrategy>
parseTuneStrategy(const std::string &name)
{
    if (name == "exhaustive")
        return TuneStrategy::CappedExhaustive;
    if (name == "halving")
        return TuneStrategy::RandomHalving;
    return std::nullopt;
}

Tuner::Tuner(const Session &session, TuneOptions options)
    : session_(session), options_(std::move(options))
{
}

std::vector<TuneCandidate>
Tuner::scoreCandidates(const std::vector<TunePoint> &valid,
                       u64 analysis_cap, TuneReport &report) const
{
    // Train the optional cost model off the persistent cache once per
    // search.  Below the sample threshold the prefilter rules alone.
    std::optional<CostModel> model;
    if (options_.useCostModel && session_.diskCache()) {
        const auto samples =
            harvestCostSamples(session_, *session_.diskCache());
        report.costModelSamples = samples.size();
        if (samples.size() >= kMinCostSamples)
            model = CostModel::fit(samples);
    }
    report.costModelUsed = model.has_value();
    if (model)
        report.costModelRmse = model->trainRmse();

    std::vector<TuneCandidate> scored;
    for (const auto &point : valid) {
        if (scored.size() >= analysis_cap)
            break;
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
        candidate.point = point;
        candidate.estCyclesPerMac = est.estCyclesPerMac;
        candidate.areaUnits = est.areaUnits;
        candidate.predictedCyclesPerMac = est.estCyclesPerMac;

        if (model) {
            const auto x = CostModel::features(
                workload->gemm, *engine, point.patternN,
                point.outputForwarding, naive, point.cBlocking);
            candidate.predictedCyclesPerMac =
                std::exp2(model->predictLog2Cycles(x)) /
                double(workload->gemm.macs());
        }
        scored.push_back(std::move(candidate));
    }
    report.analyzedPoints = scored.size();
    return scored;
}

void
Tuner::replayCandidates(std::vector<TuneCandidate *> &picks) const
{
    if (picks.empty())
        return;
    std::vector<SimulationRequest> requests;
    requests.reserve(picks.size());
    for (const TuneCandidate *candidate : picks)
        requests.push_back(requestFor(session_, candidate->point));

    std::vector<SimulationResult> results;
    if (!options_.connectAddress.empty()) {
        ClientOptions client_options;
        client_options.address = options_.connectAddress;
        SimClient client(client_options);
        std::string error;
        std::vector<Job> jobs;
        jobs.reserve(requests.size());
        for (const auto &request : requests)
            jobs.push_back(Job::simulate(request));
        if (client.connect(&error)) {
            if (const auto run = client.runBatch(jobs, &error)) {
                for (const auto &job_result : run->results)
                    results.push_back(job_result.simulation);
            }
        }
        if (results.empty())
            VEGETA_WARN("tune: service %s unavailable (%s); "
                        "confirming locally",
                        options_.connectAddress.c_str(),
                        error.c_str());
    }
    if (results.empty())
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
}

TuneReport
Tuner::run(const TuneSpace &space) const
{
    TuneReport report;
    report.strategy = options_.strategy;
    report.seed = options_.seed;
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
    // enumeration details.
    const u64 validity_start = telemetry::nowNs();
    std::vector<TunePoint> valid;
    {
        telemetry::Span span("tune.validity", report.rawPoints);
        for (auto &point : space.enumerate())
            if (!invalidReason(session_, space, point))
                valid.push_back(std::move(point));
        std::sort(valid.begin(), valid.end(),
                  [](const TunePoint &a, const TunePoint &b) {
                      return tunePointKey(a) < tunePointKey(b);
                  });
    }
    const u64 validity_ns = telemetry::nowNs() - validity_start;
    telemetry::recordNs(validity_timer, validity_ns);
    report.validityMs = double(validity_ns) / 1e6;
    report.validPoints = valid.size();
    report.rejectedPoints = report.rawPoints - report.validPoints;

    const u64 analysis_cap = options_.budget.analyses == 0
                                 ? u64(valid.size())
                                 : options_.budget.analyses;

    // Stage 2 candidate set: everything (exhaustive) or a seeded
    // random pool sized to the replay budget (halving).
    const u64 analyze_start = telemetry::nowNs();
    telemetry::Span analyze_span("tune.analyze", valid.size());
    std::vector<TuneCandidate> scored;
    if (options_.strategy == TuneStrategy::RandomHalving &&
        !valid.empty()) {
        const u64 pool_target =
            std::min<u64>(valid.size(),
                          std::max<u64>(1, options_.budget.replays) * 8);
        Rng rng(options_.seed);
        const auto picks =
            rng.choose(u32(valid.size()), u32(pool_target));
        std::vector<TunePoint> pool;
        pool.reserve(picks.size());
        for (u32 index : picks)
            pool.push_back(valid[index]);
        scored = scoreCandidates(pool, analysis_cap, report);
    } else {
        scored = scoreCandidates(valid, analysis_cap, report);
    }
    analyze_span.close();
    const u64 analyze_ns = telemetry::nowNs() - analyze_start;
    telemetry::recordNs(analyze_timer, analyze_ns);
    report.analyzeMs = double(analyze_ns) / 1e6;

    // Stage 3: replay confirmation, strictly bounded by the budget.
    const u64 replay_start = telemetry::nowNs();
    telemetry::Span replay_span("tune.replay",
                                options_.budget.replays);
    u32 replays_left = options_.budget.replays;
    if (options_.strategy == TuneStrategy::CappedExhaustive) {
        std::sort(scored.begin(), scored.end(), candidateScoreLess);
        std::vector<TuneCandidate *> picks;
        for (auto &candidate : scored) {
            if (picks.size() >= replays_left)
                break;
            picks.push_back(&candidate);
        }
        replayCandidates(picks);
        report.replayedPoints = picks.size();
    } else {
        // Successive halving: spend the budget over shrinking rounds
        // (R/2, R/4, ..., 1), recalibrating the analytical ranking
        // against each round's measurements so later rounds chase the
        // estimator's corrected ordering, not its raw one.
        std::map<std::string, std::pair<double, u64>> group_ratio;
        double global_ratio_sum = 0.0;
        u64 global_ratio_count = 0;
        while (replays_left > 0) {
            std::vector<TuneCandidate *> unreplayed;
            for (auto &candidate : scored)
                if (!candidate.replayed)
                    unreplayed.push_back(&candidate);
            if (unreplayed.empty())
                break;
            std::sort(unreplayed.begin(), unreplayed.end(),
                      [](const TuneCandidate *a,
                         const TuneCandidate *b) {
                          return candidateScoreLess(*a, *b);
                      });
            const u32 round = std::min<u32>(
                u32(unreplayed.size()),
                std::max<u32>(1, replays_left / 2));
            std::vector<TuneCandidate *> picks(
                unreplayed.begin(), unreplayed.begin() + round);
            replayCandidates(picks);
            replays_left -= round;
            report.replayedPoints += round;

            for (const TuneCandidate *candidate : picks) {
                if (candidate->estCyclesPerMac <= 0.0)
                    continue;
                const double ratio = candidate->measuredCyclesPerMac /
                                     candidate->estCyclesPerMac;
                auto &entry =
                    group_ratio[calibrationGroup(candidate->point)];
                entry.first += ratio;
                entry.second += 1;
                global_ratio_sum += ratio;
                global_ratio_count += 1;
            }
            if (global_ratio_count == 0)
                continue;
            const double global_ratio =
                global_ratio_sum / double(global_ratio_count);
            for (auto &candidate : scored) {
                if (candidate.replayed)
                    continue;
                const auto entry =
                    group_ratio.find(calibrationGroup(candidate.point));
                const double ratio = entry != group_ratio.end()
                                         ? entry->second.first /
                                               double(entry->second.second)
                                         : global_ratio;
                candidate.predictedCyclesPerMac =
                    candidate.estCyclesPerMac * ratio;
            }
        }
    }

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
    os << "  \"strategy\": \"" << tuneStrategyName(report.strategy)
       << "\",\n";
    os << "  \"seed\": " << report.seed << ",\n";
    os << "  \"budget\": {\"replays\": " << report.budget.replays
       << ", \"analyses\": " << report.budget.analyses << "},\n";
    os << "  \"raw_points\": " << report.rawPoints << ",\n";
    os << "  \"valid_points\": " << report.validPoints << ",\n";
    os << "  \"rejected_points\": " << report.rejectedPoints << ",\n";
    os << "  \"analyzed_points\": " << report.analyzedPoints << ",\n";
    os << "  \"replayed_points\": " << report.replayedPoints << ",\n";
    os << "  \"cost_model\": {\"used\": "
       << (report.costModelUsed ? "true" : "false")
       << ", \"samples\": " << report.costModelSamples
       << ", \"train_rmse\": " << formatDouble(report.costModelRmse)
       << "},\n";
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
