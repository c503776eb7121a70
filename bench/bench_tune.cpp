/**
 * @file
 * Search-quality-vs-budget bench for the sim::Tuner.
 *
 * For each Table IV layer's full search space (135 valid points) the
 * bench first establishes ground truth -- it replays every valid
 * point -- and then runs the tuner at replay budgets 1, 2, 4 and 8,
 * recording its regret (best found / true optimum - 1, in measured
 * cycles per MAC).  Beside it, parent_regret is the regret of capped
 * exhaustive search, the tuner's default before its recalibrated
 * second replay round: replay the top B points of the prefilter's
 * ranking and keep the best, read off the same ground truth.  Regret
 * is a function of the cycle model only, so it reads the same on any
 * host.  The rows land in the BENCH_replay.json trajectory as the
 * "tune" family of the current commit's entry (bench/trajectory.hpp),
 * next to the replay-throughput and service families.
 *
 * Usage: bench_tune [--smoke] [--out FILE] [--commit KEY]
 *                   [--workload NAME]... [--max-regret X]
 *
 * --smoke measures ResNet50-L3 alone, the layer the prefilter ranks
 * worst (135 replays).  --max-regret X exits non-zero when, on any
 * measured layer, the tuner's regret at budget 8 exceeds X or its
 * regret at any budget exceeds parent_regret -- the CI gate that the
 * search keeps finding the true optimum.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "sim/session.hpp"
#include "sim/tune.hpp"
#include "trajectory.hpp"

using namespace vegeta;

namespace {

struct BudgetRow
{
    u32 budget = 0;
    double regret = 0.0;
    double parentRegret = 0.0;
};

struct LayerRow
{
    std::string workload;
    u64 validPoints = 0;
    double optimum = 0.0;
    std::vector<BudgetRow> budgets;
};

/**
 * Capped exhaustive search over a fully replayed space: the best
 * measured cycles/MAC among the top @p budget points of the
 * prefilter's ranking (ties broken by tunePointKey).
 */
double
cappedExhaustiveBest(std::vector<sim::TuneCandidate> truth, u32 budget)
{
    std::sort(truth.begin(), truth.end(),
              [](const sim::TuneCandidate &a,
                 const sim::TuneCandidate &b) {
                  if (a.estCyclesPerMac != b.estCyclesPerMac)
                      return a.estCyclesPerMac < b.estCyclesPerMac;
                  return sim::tunePointKey(a.point) <
                         sim::tunePointKey(b.point);
              });
    const std::size_t top = std::min<std::size_t>(budget, truth.size());
    double best = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < top; ++i)
        best = std::min(best, truth[i].measuredCyclesPerMac);
    return best;
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    std::string out_path = "BENCH_replay.json";
    std::string commit;
    std::vector<std::string> workloads;
    double max_regret = -1.0;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto next = [&]() -> std::string {
            if (i + 1 >= argc) {
                std::cerr << arg << " needs a value\n";
                std::exit(1);
            }
            return argv[++i];
        };
        if (arg == "--smoke") {
            smoke = true;
        } else if (arg == "--out") {
            out_path = next();
        } else if (arg == "--commit") {
            commit = next();
        } else if (arg == "--workload") {
            workloads.push_back(next());
        } else if (arg == "--max-regret") {
            max_regret = std::atof(next().c_str());
        } else {
            std::cerr << "usage: bench_tune [--smoke] [--out FILE] "
                         "[--commit KEY] [--workload NAME]... "
                         "[--max-regret X]\n";
            return 1;
        }
    }

    sim::Session session;
    session.enableCache(); // budgets share the ground truth's replays
    if (workloads.empty()) {
        if (smoke)
            workloads.push_back("ResNet50-L3");
        else
            for (const auto &w : session.workloads().group("tableIV"))
                workloads.push_back(w.name);
    }
    for (const auto &workload : workloads) {
        if (!session.workloads().contains(workload)) {
            std::cerr << "unknown workload: " << workload << "\n";
            return 1;
        }
    }

    const std::vector<u32> budgets{1, 2, 4, 8};
    std::vector<LayerRow> layers;
    bool gate_failed = false;
    for (const auto &workload : workloads) {
        const auto space = sim::TuneSpace::full(session, {workload});

        // Ground truth: replay every valid point.
        sim::TuneOptions truth_options;
        truth_options.budget.replays = u32(space.rawSize());
        const auto truth =
            sim::Tuner(session, truth_options).run(space);
        if (!truth.best()) {
            std::cerr << workload
                      << ": ground-truth sweep confirmed nothing\n";
            return 2;
        }
        LayerRow layer;
        layer.workload = workload;
        layer.validPoints = truth.validPoints;
        layer.optimum = truth.best()->measuredCyclesPerMac;
        std::printf("%s: %llu valid points, optimum %s at %.6f "
                    "cycles/MAC\n",
                    workload.c_str(),
                    static_cast<unsigned long long>(truth.validPoints),
                    sim::tunePointKey(truth.best()->point).c_str(),
                    layer.optimum);

        for (const u32 budget : budgets) {
            sim::TuneOptions options;
            options.budget.replays = budget;
            const auto report = sim::Tuner(session, options).run(space);
            BudgetRow row;
            row.budget = budget;
            row.regret =
                report.best()->measuredCyclesPerMac / layer.optimum -
                1.0;
            row.parentRegret =
                cappedExhaustiveBest(truth.confirmed, budget) /
                    layer.optimum -
                1.0;
            std::printf("  budget %u: regret %.4f (parent %.4f)\n",
                        budget, row.regret, row.parentRegret);
            if (max_regret >= 0 && row.regret > row.parentRegret) {
                std::cerr << "FAIL: " << workload << " regret at "
                          << "budget " << budget << " is "
                          << row.regret << ", above capped "
                          << "exhaustive's " << row.parentRegret
                          << "\n";
                gate_failed = true;
            }
            layer.budgets.push_back(row);
        }
        const BudgetRow &largest = layer.budgets.back();
        if (max_regret >= 0 && largest.regret > max_regret) {
            std::cerr << "FAIL: " << workload << " regret at budget "
                      << largest.budget << " is " << largest.regret
                      << ", above the required " << max_regret
                      << "\n";
            gate_failed = true;
        }
        layers.push_back(std::move(layer));
    }

    // --- merge the "tune" row family into the trajectory -----------
    if (commit.empty())
        commit = bench::gitShortHead();
    std::ostringstream tune;
    tune << "{\"space\": \"full\", \"parent_search\": "
            "\"capped-exhaustive\", \"layers\": [";
    for (std::size_t l = 0; l < layers.size(); ++l) {
        const auto &layer = layers[l];
        tune << (l ? ", " : "") << "{\"workload\": \"" << layer.workload
             << "\", \"valid_points\": " << layer.validPoints
             << ", \"optimum_cycles_per_mac\": " << layer.optimum
             << ", \"budgets\": [";
        for (std::size_t i = 0; i < layer.budgets.size(); ++i)
            tune << (i ? ", " : "") << "{\"budget\": "
                 << layer.budgets[i].budget
                 << ", \"regret\": " << layer.budgets[i].regret
                 << ", \"parent_regret\": "
                 << layer.budgets[i].parentRegret << "}";
        tune << "]}";
    }
    tune << "]}";

    std::string entry;
    for (const auto &old :
         bench::trajectoryEntries(bench::readFileText(out_path)))
        if (bench::entryCommit(old) == commit)
            entry = old;
    if (entry.empty())
        entry = "{\"commit\": \"" + commit + "\", \"mode\": \"" +
                (smoke ? "smoke" : "full") + "\"}";
    entry = bench::upsertEntryField(entry, "tune", tune.str(),
                                    /*owned=*/true, nullptr);
    std::size_t total_entries = 0;
    if (!bench::mergeTrajectoryEntry(out_path, commit, entry,
                                     &total_entries)) {
        std::cerr << "cannot write " << out_path << "\n";
        return 2;
    }
    std::printf("wrote %s (%zu entries)\n", out_path.c_str(),
                total_entries);
    return gate_failed ? 1 : 0;
}
