/**
 * @file
 * Structured simulation results and their serializations.
 *
 * Every Session run produces one SimulationResult: the request echo
 * (so a result is self-describing inside a batch) plus the
 * measurements the benches and the paper figures consume.  Batches
 * serialize to an aligned text table or CSV (via common/table) and to
 * a JSON array for downstream tooling.
 */

#ifndef VEGETA_SIM_RESULT_HPP
#define VEGETA_SIM_RESULT_HPP

#include <iosfwd>
#include <string>
#include <vector>

#include "common/table.hpp"
#include "common/types.hpp"

namespace vegeta::sim {

/** Minimal JSON string escaping (quotes, backslashes, control). */
std::string jsonEscape(const std::string &text);

/** One simulator run, request echo + measurements. */
struct SimulationResult
{
    // --- Request echo -------------------------------------------------
    std::string workload;
    std::string engine;
    u32 layerN = 4;    ///< the layer's pruned pattern N:4
    u32 executedN = 4; ///< N the engine actually executed
    bool outputForwarding = false;
    std::string kernel; ///< "optimized" / "naive" / "replay"

    // --- Measurements -------------------------------------------------
    Cycles coreCycles = 0; ///< core cycles until last retirement
    u64 instructions = 0;  ///< retired trace ops
    u64 engineInstructions = 0;
    u64 tileComputes = 0; ///< 0 for trace replays
    double macUtilization = 0.0;
    u64 cacheHits = 0;
    u64 cacheMisses = 0;

    /** Wall-clock runtime at the paper's 2 GHz core clock. */
    double runtimeMs() const;
};

/** Batch rendered as an aligned text table (one row per result). */
Table resultsTable(const std::vector<SimulationResult> &results);

/** Batch rendered as CSV with a header row. */
void writeCsv(std::ostream &os,
              const std::vector<SimulationResult> &results);

/** Batch rendered as a JSON array of objects. */
void writeJson(std::ostream &os,
               const std::vector<SimulationResult> &results);

} // namespace vegeta::sim

#endif // VEGETA_SIM_RESULT_HPP
