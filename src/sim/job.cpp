#include "sim/job.hpp"

#include <iomanip>
#include <sstream>

namespace vegeta::sim {

const char *
jobKindName(JobKind kind)
{
    return kind == JobKind::Analysis ? "analysis" : "simulation";
}

Job
Job::simulate(SimulationRequest request)
{
    Job job;
    job.kind = JobKind::Simulation;
    job.simulation = std::move(request);
    return job;
}

Job
Job::analyze(AnalyticalRequest request)
{
    Job job;
    job.kind = JobKind::Analysis;
    job.analysis = std::move(request);
    return job;
}

std::string
analyticalKey(const AnalyticalRequest &request)
{
    std::ostringstream key;
    // max_digits10 keeps distinct doubles distinct in the key, so
    // equal keys imply bit-identical requests.
    key << std::setprecision(17);
    key << "v1|" << request.model << '|';
    for (const auto &name : request.workloads)
        key << name << ',';
    key << '|';
    for (const auto &name : request.engines)
        key << name << ',';
    key << '|';
    for (const auto &[name, value] : request.params)
        key << name << '=' << value << ';';
    key << '|';
    for (const auto &[name, value] : request.options)
        key << name << '=' << value << ';';
    return key.str();
}

std::string
jobKey(const Job &job)
{
    if (job.kind == JobKind::Analysis)
        return "ana|" + analyticalKey(job.analysis);
    return "sim|" + cacheKey(job.simulation);
}

JobBuilder::JobBuilder(const EngineRegistry &engines,
                       const WorkloadRegistry &workloads,
                       const AnalyticalRegistry &analytics)
    : engines_(engines), workloads_(workloads), analytics_(analytics)
{
}

JobBuilder &
JobBuilder::workload(const std::string &name)
{
    if (!workloads_.contains(name)) {
        fail("unknown workload: " + name);
        return *this;
    }
    workload_names_.push_back(name);
    return *this;
}

JobBuilder &
JobBuilder::gemm(const kernels::GemmDims &dims)
{
    gemm_ = dims;
    return *this;
}

JobBuilder &
JobBuilder::gemm(const std::string &spec)
{
    const auto dims = parseGemmSpec(spec);
    if (!dims) {
        fail("bad GEMM spec (expected MxNxK): " + spec);
        return *this;
    }
    return gemm(*dims);
}

JobBuilder &
JobBuilder::engine(const std::string &name)
{
    if (!engines_.contains(name)) {
        fail("unknown engine: " + name);
        return *this;
    }
    engine_names_.push_back(name);
    return *this;
}

JobBuilder &
JobBuilder::pattern(u32 layer_n)
{
    pattern_ = layer_n;
    have_sim_knob_ = true;
    return *this;
}

JobBuilder &
JobBuilder::outputForwarding(bool enabled)
{
    output_forwarding_ = enabled;
    have_sim_knob_ = true;
    return *this;
}

JobBuilder &
JobBuilder::kernel(KernelVariant variant)
{
    kernel_ = variant;
    have_sim_knob_ = true;
    return *this;
}

JobBuilder &
JobBuilder::cBlocking(u32 c_tiles)
{
    c_blocking_ = c_tiles;
    have_sim_knob_ = true;
    return *this;
}

JobBuilder &
JobBuilder::core(const cpu::CoreConfig &config)
{
    core_ = config;
    have_sim_knob_ = true;
    return *this;
}

JobBuilder &
JobBuilder::model(const std::string &name)
{
    if (!analytics_.contains(name)) {
        fail("unknown analytical model: " + name);
        return *this;
    }
    model_ = name;
    return *this;
}

JobBuilder &
JobBuilder::param(const std::string &name, double value)
{
    params_[name] = value;
    return *this;
}

JobBuilder &
JobBuilder::option(const std::string &name, std::string value)
{
    options_[name] = std::move(value);
    return *this;
}

std::optional<Job>
JobBuilder::build()
{
    if (!error_.empty())
        return std::nullopt;

    if (!model_.empty()) {
        // Analysis job: list-valued workloads/engines, no trace knobs.
        if (gemm_)
            fail("a GEMM target only applies to simulation jobs");
        else if (have_sim_knob_)
            fail("pattern/outputForwarding/kernel/cBlocking/core only "
                 "apply to simulation jobs");
        if (!error_.empty())
            return std::nullopt;
        AnalyticalRequest request;
        request.model = model_;
        request.workloads = workload_names_;
        request.engines = engine_names_;
        request.params = params_;
        request.options = options_;
        if (const auto error =
                analytics_.paramError(engines_, request)) {
            fail(*error);
            return std::nullopt;
        }
        return Job::analyze(std::move(request));
    }

    // Simulation job: exactly one target and one engine.
    if (!params_.empty() || !options_.empty())
        fail("param/option require an analytical model()");
    else if (workload_names_.size() > 1)
        fail("a simulation job takes exactly one workload");
    else if (engine_names_.size() > 1)
        fail("a simulation job takes exactly one engine");
    else if (gemm_ && !workload_names_.empty())
        fail("give either a workload or GEMM dimensions, not both");
    else if (!gemm_ && workload_names_.empty())
        fail("no workload or GEMM dimensions given");
    else if (engine_names_.empty())
        fail("no engine given");
    if (!error_.empty())
        return std::nullopt;

    SimulationRequest request;
    if (gemm_) {
        std::ostringstream label;
        label << gemm_->m << "x" << gemm_->n << "x" << gemm_->k;
        request.label = label.str();
        request.gemm = *gemm_;
    } else {
        const auto found = workloads_.find(workload_names_.front());
        request.label = found->name;
        request.gemm = found->gemm;
    }
    request.engine = engine_names_.front();
    request.patternN = pattern_;
    request.outputForwarding = output_forwarding_;
    request.kernel = kernel_;
    request.cBlocking = c_blocking_;
    request.core = core_;
    if (const auto error = requestError(request)) {
        fail(*error);
        return std::nullopt;
    }
    return Job::simulate(std::move(request));
}

void
JobBuilder::fail(const std::string &message)
{
    if (error_.empty())
        error_ = message;
}

} // namespace vegeta::sim
