/**
 * @file
 * sim::Tuner -- budgeted design-space search over the model.
 *
 * The tuner answers "which (engine, kernel blocking, sparsity
 * pattern) point is fastest for these workloads" without replaying
 * the whole cross product.  Points flow through a three-stage funnel:
 *
 *  1. validity -- every raw point of the TuneSpace passes the cheap
 *     structural predicates of sim/tune_space.hpp; infeasible points
 *     are rejected with a reason and cost a few integer checks.
 *  2. analytical prefilter -- surviving points are scored by the
 *     closed-form prefilterEstimate() of sim/tune_space.hpp (the same
 *     function the "tune-prefilter" backend serves to `analyze`) and
 *     ranked by estimated cycles per MAC.  When a persistent cache
 *     holds enough prior simulations (sim/cost_model.hpp), a ridge
 *     cost model trained on those records re-ranks the estimates.
 *  3. replay confirmation -- only the top-ranked points, strictly
 *     bounded by TuneBudget::replays, run the real cycle model via
 *     Session::runBatch (inheriting thread pooling and both caches) or
 *     via a SimClient when an address is configured.
 *
 * Two search strategies share this funnel: CappedExhaustive scores
 * every valid point before confirming, RandomHalving samples a seeded
 * random pool and spends the replay budget over successive-halving
 * rounds, recalibrating the analytical ranking against measurements
 * between rounds.
 *
 * Determinism contract: for a fixed space, options, and persistent
 * cache state, run() -- and the byte stream of writeJson/writeCsv --
 * is identical for any thread count and execution path (local or
 * service), because replay itself is bit-deterministic and every
 * ranking step sorts with a total order (ties broken by
 * tunePointKey).
 */

#ifndef VEGETA_SIM_TUNE_HPP
#define VEGETA_SIM_TUNE_HPP

#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "sim/tune_space.hpp"

namespace vegeta::sim {

class Session;

/** How the tuner spends its budget. */
enum class TuneStrategy
{
    /** Score every valid point, replay the top of the ranking. */
    CappedExhaustive,

    /** Seeded random pool + successive-halving replay rounds. */
    RandomHalving,
};

const char *tuneStrategyName(TuneStrategy strategy);

/** Parse a strategy name ("exhaustive" / "halving"). */
std::optional<TuneStrategy>
parseTuneStrategy(const std::string &name);

/** Explicit evaluation budget; replays are the scarce resource. */
struct TuneBudget
{
    /** Max cycle-model confirmations (strictly honored). */
    u32 replays = 8;

    /** Max analytical scorings; 0 = every valid point. */
    u64 analyses = 0;
};

/** Everything run() needs besides the space. */
struct TuneOptions
{
    TuneStrategy strategy = TuneStrategy::CappedExhaustive;
    TuneBudget budget;

    /** PRNG seed (RandomHalving pool sampling). */
    u64 seed = 1;

    /** Replay batch threads (0 = hardware concurrency). */
    u32 threads = 0;

    /** When non-empty, confirm replays on this sim service address. */
    std::string connectAddress;

    /**
     * Consult the cache-trained cost model when the session's
     * persistent cache holds >= kMinCostSamples eligible records.
     */
    bool useCostModel = true;
};

/** One scored (and possibly confirmed) search point. */
struct TuneCandidate
{
    TunePoint point;

    /** Closed-form prefilter estimate (stage 2). */
    double estCyclesPerMac = 0.0;

    /** Cost-model re-ranked estimate (= est when model unused). */
    double predictedCyclesPerMac = 0.0;

    double areaUnits = 0.0;

    /** True once the point was confirmed on the cycle model. */
    bool replayed = false;
    u64 measuredCoreCycles = 0;
    double measuredCyclesPerMac = 0.0;
    double measuredMacUtilization = 0.0;
};

/** The full, serializable outcome of one search. */
struct TuneReport
{
    TuneStrategy strategy = TuneStrategy::CappedExhaustive;
    u64 seed = 1;
    TuneBudget budget;

    u64 rawPoints = 0;      ///< |space cross product|
    u64 validPoints = 0;    ///< survived the validity predicates
    u64 rejectedPoints = 0; ///< rawPoints - validPoints
    u64 analyzedPoints = 0; ///< analytically scored (stage 2)
    u64 replayedPoints = 0; ///< cycle-model confirmations (stage 3)

    /**
     * Wall-clock milliseconds spent per funnel stage.  Deliberately
     * NOT serialized by writeJson/writeCsv: the rendered report is
     * byte-identical across runs (pinned by CI), so timings live only
     * here and on the `tune.*` telemetry timers.
     */
    double validityMs = 0.0;
    double analyzeMs = 0.0;
    double replayMs = 0.0;

    bool costModelUsed = false;
    u64 costModelSamples = 0; ///< harvested cache records
    double costModelRmse = 0.0;

    /**
     * Replayed candidates, best (lowest measured cycles/MAC) first,
     * ties broken by tunePointKey.  best() is confirmed.front().
     */
    std::vector<TuneCandidate> confirmed;

    /**
     * The measured area/performance Pareto front: confirmed points no
     * other confirmed point beats on both cycles/MAC and area,
     * ascending by area.
     */
    std::vector<TuneCandidate> paretoFront;

    /** The winner (confirmed.front()); nullopt when nothing ran. */
    const TuneCandidate *best() const
    {
        return confirmed.empty() ? nullptr : &confirmed.front();
    }
};

/** Render a report as one JSON object (stable field order). */
void writeJson(std::ostream &os, const TuneReport &report);

/** Render the confirmed candidates as CSV with a header row. */
void writeCsv(std::ostream &os, const TuneReport &report);

/** The budgeted searcher; borrows the session for its lifetime. */
class Tuner
{
  public:
    Tuner(const Session &session, TuneOptions options);

    /**
     * Run the three-stage funnel over @p space and return the report.
     * The space must name at least one registered workload and engine
     * (figure13()/full() guarantee this).
     */
    TuneReport run(const TuneSpace &space) const;

  private:
    std::vector<TuneCandidate>
    scoreCandidates(const std::vector<TunePoint> &valid,
                    u64 analysis_cap, TuneReport &report) const;

    void replayCandidates(std::vector<TuneCandidate *> &picks) const;

    const Session &session_;
    TuneOptions options_;
};

} // namespace vegeta::sim

#endif // VEGETA_SIM_TUNE_HPP
