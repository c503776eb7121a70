/**
 * @file
 * Polymorphic jobs: one description type for both halves of the
 * evaluation.
 *
 * The facade used to expose two parallel entry paths -- a
 * SimulationRequest for trace replay and an AnalyticalRequest for the
 * closed-form models -- so sweeps, caching, and dedupe only covered
 * the first.  A Job is the tagged union of the two: a batch can mix
 * trace simulations and analytical queries freely and
 * Session::runBatch treats them uniformly (keyed dedupe, thread pool,
 * deterministic output order).
 *
 * JobBuilder is the one validating builder: every name is checked
 * against the session's registries, errors are collected first-wins,
 * and build() only returns a Job that the Session is guaranteed to
 * run.  A caller that needs the plain SimulationRequest takes
 * `job->simulation`.
 */

#ifndef VEGETA_SIM_JOB_HPP
#define VEGETA_SIM_JOB_HPP

#include "sim/analytical.hpp"
#include "sim/cache.hpp"
#include "sim/registry.hpp"
#include "sim/request.hpp"
#include "sim/result.hpp"

namespace vegeta::sim {

/** What a Job asks the Session to do. */
enum class JobKind
{
    Simulation, ///< generate + replay a kernel trace (cycle model)
    Analysis,   ///< evaluate a registered analytical model
};

const char *jobKindName(JobKind kind);

/** One unit of Session work: a trace simulation OR an analysis. */
struct Job
{
    JobKind kind = JobKind::Simulation;

    /** Valid when kind == Simulation. */
    SimulationRequest simulation;

    /** Valid when kind == Analysis. */
    AnalyticalRequest analysis;

    static Job simulate(SimulationRequest request);
    static Job analyze(AnalyticalRequest request);
};

/**
 * Canonical serialization of an analytical request: model, workload
 * and engine lists, and every parameter/option, in a fixed order with
 * full double precision.  Version-prefixed like cacheKey.
 */
std::string analyticalKey(const AnalyticalRequest &request);

/**
 * Canonical key of a job, kind-prefixed so a simulation and an
 * analysis can never collide.  Simulation jobs reuse cacheKey, so a
 * Job keyed for batch dedupe and a request keyed for the result
 * caches agree about what "the same work" means.
 */
std::string jobKey(const Job &job);

/** The result of one Job, tagged like the job that produced it. */
struct JobResult
{
    JobKind kind = JobKind::Simulation;

    /** Valid when kind == Simulation. */
    SimulationResult simulation;

    /** Valid when kind == Analysis. */
    AnalyticalResult analysis;
};

/**
 * Fluent, validating builder for both job kinds.  Calling model()
 * makes the job analytical; otherwise build() produces a simulation
 * job: one workload or GEMM target and one engine, and whatever
 * requestError accepts (a pattern of 1, 2 or 4, a C blocking of 1..3,
 * a core the replay model takes).  Name lookups fail eagerly (first
 * error wins); cross-kind constraints (a pattern on an analytical
 * job, a param on a simulation job), requestError and the model's
 * parameter check run at build().
 *
 *   auto job = session.job()
 *                  .workload("BERT-L1")
 *                  .engine("VEGETA-S-16-2")
 *                  .pattern(2)
 *                  .build();              // simulation job
 *
 *   auto study = session.job()
 *                    .model("fig15-unstructured")
 *                    .workload("BERT-L1")
 *                    .param("degree", 0.95)
 *                    .build();            // analysis job
 */
class JobBuilder
{
  public:
    JobBuilder(const EngineRegistry &engines,
               const WorkloadRegistry &workloads,
               const AnalyticalRegistry &analytics);

    /** Target workload (repeatable for analysis jobs). */
    JobBuilder &workload(const std::string &name);

    /** Explicit GEMM dimensions (simulation jobs only). */
    JobBuilder &gemm(const kernels::GemmDims &dims);

    /** A "MxNxK" spec string (simulation jobs only). */
    JobBuilder &gemm(const std::string &spec);

    /** Engine design point (repeatable for analysis jobs). */
    JobBuilder &engine(const std::string &name);

    // --- Simulation-only knobs ---------------------------------------
    JobBuilder &pattern(u32 layer_n);
    JobBuilder &outputForwarding(bool enabled);
    JobBuilder &kernel(KernelVariant variant);
    JobBuilder &cBlocking(u32 c_tiles);
    JobBuilder &core(const cpu::CoreConfig &config);

    // --- Analysis-only knobs -----------------------------------------
    /** Select a registered analytical model (makes the job one). */
    JobBuilder &model(const std::string &name);
    JobBuilder &param(const std::string &name, double value);
    JobBuilder &option(const std::string &name, std::string value);

    /** The job, or nullopt if any setter failed validation. */
    std::optional<Job> build();

    /** First validation error ("" while the builder is clean). */
    const std::string &error() const { return error_; }

  private:
    void fail(const std::string &message);

    const EngineRegistry &engines_;
    const WorkloadRegistry &workloads_;
    const AnalyticalRegistry &analytics_;

    std::vector<std::string> workload_names_;
    std::vector<std::string> engine_names_;
    std::optional<kernels::GemmDims> gemm_;

    std::string model_;
    std::map<std::string, double> params_;
    std::map<std::string, std::string> options_;

    u32 pattern_ = 4;
    bool output_forwarding_ = false;
    KernelVariant kernel_ = KernelVariant::Optimized;
    u32 c_blocking_ = 3;
    cpu::CoreConfig core_;
    bool have_sim_knob_ = false; ///< any simulation-only setter used

    std::string error_;
};

} // namespace vegeta::sim

#endif // VEGETA_SIM_JOB_HPP
