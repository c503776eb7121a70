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
 *  2. analytical prefilter -- every surviving point is scored by the
 *     closed-form prefilterEstimate() of sim/tune_space.hpp (the same
 *     function the "tune-prefilter" backend serves to `analyze`) and
 *     ranked by estimated cycles per MAC.
 *  3. replay confirmation -- at most TuneBudget::replays points run
 *     the real cycle model via Session::runBatch (inheriting thread
 *     pooling and both caches) or, when an address is configured,
 *     on that service over one connection per search (a service that
 *     cannot be reached or fails leaves the rest of the replays to
 *     the session).  They run in two rounds: the top half of the budget
 *     (at least one point) straight from the ranking, then the rest
 *     from the ranking rescaled by the first round's measured /
 *     estimated ratios, so a systematic prefilter bias on some
 *     engine/pattern/OF/kernel group is corrected before the budget
 *     is spent.
 *
 * Determinism contract: for a fixed space and options, run() -- and
 * the byte stream of writeJson/writeCsv -- is identical for any
 * thread count, execution path (local or service) and cache state,
 * because replay itself is bit-deterministic, caches only memoize
 * it, and every ranking step sorts with a total order (ties broken
 * by tunePointKey).
 */

#ifndef VEGETA_SIM_TUNE_HPP
#define VEGETA_SIM_TUNE_HPP

#include <iosfwd>
#include <string>
#include <vector>

#include "sim/tune_space.hpp"

namespace vegeta::sim {

class Session;
class SimClient;

/** Explicit evaluation budget; replays are the scarce resource. */
struct TuneBudget
{
    /** Max cycle-model confirmations (strictly honored). */
    u32 replays = 8;
};

/** Everything run() needs besides the space. */
struct TuneOptions
{
    TuneBudget budget;

    /** Replay batch threads (0 = hardware concurrency). */
    u32 threads = 0;

    /** When non-empty, confirm replays on this sim service address. */
    std::string connectAddress;
};

/** One scored (and possibly confirmed) search point. */
struct TuneCandidate
{
    TunePoint point;

    /** Closed-form prefilter estimate (stage 2). */
    double estCyclesPerMac = 0.0;

    /**
     * The estimate the second replay round ranked by: est rescaled by
     * the first round's measured/estimated ratio (= est for points
     * the first round replayed, or when no second round ran).
     */
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
    TuneBudget budget;

    u64 rawPoints = 0;      ///< |space cross product|
    u64 validPoints = 0;    ///< distinct points passing the predicates
    u64 rejectedPoints = 0; ///< invalid or repeated raw points
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

    /**
     * Replays the service at TuneOptions::connectAddress answered;
     * the local session ran the rest.  Not serialized either: the
     * rendered report does not depend on where replays ran.
     */
    u64 serverReplays = 0;

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
    scoreCandidates(std::vector<TunePoint> valid) const;

    /**
     * Replay @p picks on @p client, or on the session when it is
     * nullptr or its batch fails; true when the service answered.
     */
    bool replayCandidates(std::vector<TuneCandidate *> &picks,
                          SimClient *client) const;

    const Session &session_;
    TuneOptions options_;
};

} // namespace vegeta::sim

#endif // VEGETA_SIM_TUNE_HPP
