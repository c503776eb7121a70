/**
 * @file
 * Analytical-model backends behind the facade.
 *
 * Half of the paper's evaluation is not trace simulation but closed
 * analytical models: the Figure 3 roofline, the Figure 4
 * vector-vs-matrix comparison, the Figure 10 pipelining schedules, the
 * Figure 14 area/power/frequency model, the Figure 15 unstructured
 * granularity study, and the block-size ablation.  These follow the
 * same registry/request/result pattern as trace simulation: an
 * AnalyticalRegistry resolves model names to backends, an
 * AnalyticalRequest carries the parameters (validated against the
 * simulator's engine/workload registries and the model's own
 * parameter check), and every backend returns a uniform
 * AnalyticalResult -- a typed table the CLI prints directly and tools
 * consume cell by cell.  The paper-fidelity model sets the paper's
 * quantitative claims next to the model's values for them.
 *
 * Nothing above the facade wires src/model or src/engine by hand; new
 * analytical studies become one `add()` call on the registry.
 */

#ifndef VEGETA_SIM_ANALYTICAL_HPP
#define VEGETA_SIM_ANALYTICAL_HPP

#include <functional>
#include <iosfwd>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/table.hpp"
#include "common/types.hpp"

namespace vegeta::sim {

class EngineRegistry;
class Session;

/** One table cell: either text or a number with print precision. */
struct AnalyticalCell
{
    std::string label;   ///< set for text cells
    double value = 0.0;  ///< set for number cells
    int precision = -1;  ///< < 0 marks a text cell

    static AnalyticalCell text(std::string text);
    static AnalyticalCell number(double value, int precision = 3);

    bool isNumber() const { return precision >= 0; }

    /** The cell as it prints (text, or the formatted number). */
    std::string render() const;
};

/**
 * One analytical-model evaluation: which registered model, over which
 * registered workloads/engines (empty lists pick the backend's paper
 * defaults), with numeric and string parameters.
 */
struct AnalyticalRequest
{
    std::string model;

    /** Workload names, resolved against the WorkloadRegistry. */
    std::vector<std::string> workloads;

    /** Engine names, resolved against the EngineRegistry. */
    std::vector<std::string> engines;

    std::map<std::string, double> params;
    std::map<std::string, std::string> options;

    double param(const std::string &name, double fallback) const;
    std::string option(const std::string &name,
                       std::string fallback) const;
};

/** Uniform output of every analytical backend: a typed table. */
struct AnalyticalResult
{
    std::string model;
    std::vector<std::string> columns;
    std::vector<std::vector<AnalyticalCell>> rows;

    /** Human-readable footnotes (units, network shapes). */
    std::vector<std::string> notes;

    /** Start a new row and return it. */
    std::vector<AnalyticalCell> &row();

    /** Index of a named column; asserts the name exists. */
    std::size_t columnIndex(const std::string &column) const;

    /** Numeric cell accessors; assert on range or cell type. */
    double number(std::size_t row, const std::string &column) const;
    const std::string &text(std::size_t row,
                            const std::string &column) const;

    /** Render as an aligned text table (common/table). */
    Table table() const;
};

/**
 * Render as a JSON object: model, columns, one object per row keyed
 * by column name (numbers stay numbers), and notes.
 */
void writeJson(std::ostream &os, const AnalyticalResult &result);

/** Render as CSV with a header row (cells as they print). */
void writeCsv(std::ostream &os, const AnalyticalResult &result);

/**
 * Named analytical backends, in registration order.  A backend maps
 * a validated request to a result using the session's registries
 * for engine/workload resolution; re-registering a name replaces the
 * previous entry (keeping its position).
 */
class AnalyticalRegistry
{
  public:
    using Backend = std::function<AnalyticalResult(
        const Session &, const AnalyticalRequest &)>;

    /**
     * Why a request's params and options are outside what its
     * backend accepts, or nullopt.  Every value is checked before
     * the backend casts or sizes anything with it, so a backend may
     * trust its inputs.
     */
    using Check = std::function<std::optional<std::string>(
        const EngineRegistry &, const AnalyticalRequest &)>;

    /** The param and option names a backend reads. */
    struct Inputs
    {
        std::vector<std::string> params;
        std::vector<std::string> options;
    };

    AnalyticalRegistry &add(const std::string &name,
                            const std::string &description,
                            Backend backend, Inputs inputs = {},
                            Check check = {});

    bool contains(const std::string &name) const;

    /** The backend for a model name (nullptr if unknown). */
    const Backend *find(const std::string &name) const;

    std::vector<std::string> names() const;

    /** One-line description of a model ("" if unknown). */
    std::string description(const std::string &name) const;

    /**
     * The model's Check on @p request, then any param or option name
     * outside its Inputs (nullopt for an unknown model, or when both
     * pass).
     */
    std::optional<std::string>
    paramError(const EngineRegistry &engines,
               const AnalyticalRequest &request) const;

    std::size_t size() const { return entries_.size(); }

    /**
     * The paper's analytical models: fig3-roofline,
     * fig4-vector-vs-matrix, fig10-pipelining, fig14-area-power,
     * fig14-area-breakdown, fig15-unstructured, blocksize-coverage,
     * blocksize-hardware, micro-latency, network-policy,
     * dynamic-sparsity, the tuner's tune-prefilter estimator, and
     * paper-fidelity.
     */
    static AnalyticalRegistry builtin();

  private:
    struct Entry
    {
        std::string name;
        std::string description;
        Backend backend;
        Inputs inputs;
        Check check;
    };

    std::vector<Entry> entries_;
};

} // namespace vegeta::sim

#endif // VEGETA_SIM_ANALYTICAL_HPP
