#include "sim/session.hpp"

#include <thread>
#include <unordered_map>

#include "common/logging.hpp"
#include "common/stats.hpp"
#include "cpu/trace_cpu.hpp"
#include "cpu/trace_io.hpp"
#include "sim/telemetry.hpp"

namespace vegeta::sim {

namespace {

/**
 * The replay sink: checks each TileCompute's opcode against the
 * engine, then steps the op into the core model.  From the first op
 * the engine cannot execute (the pipeline model would abort on it)
 * it only remembers why and lets the rest of the stream drain.
 */
class CheckedReplay final : public cpu::TraceSink
{
  public:
    CheckedReplay(const cpu::CoreConfig &core,
                  const engine::EngineConfig &engine)
        : cpu_(core, engine)
    {
    }

    void
    emit(const cpu::TraceOp &op) override
    {
        if (!error_.empty())
            return;
        const engine::EngineConfig &engine = cpu_.engineConfig();
        if (op.kind == cpu::UopKind::TileCompute &&
            !engine.supportsOpcode(op.tile.op)) {
            error_ = engine.name + " cannot execute " +
                     isa::opcodeName(op.tile.op);
            return;
        }
        cpu_.step(op);
    }

    /** Why the engine refused the stream ("" when it did not). */
    const std::string &error() const { return error_; }

    cpu::SimResult finish() { return cpu_.finish(); }

  private:
    cpu::TraceCpu cpu_;
    std::string error_;
};

// Cache-probe outcome counters, shared by the simulation and
// analysis probe sequences.
void
countMemoryHit()
{
    static const telemetry::MetricId id =
        telemetry::counterId("session.cache.hit.memory");
    telemetry::add(id, 1);
}

void
countDiskHit()
{
    static const telemetry::MetricId id =
        telemetry::counterId("session.cache.hit.disk");
    telemetry::add(id, 1);
}

void
countMiss()
{
    static const telemetry::MetricId id =
        telemetry::counterId("session.cache.miss");
    telemetry::add(id, 1);
}

} // namespace

Session::Session()
    : Session(EngineRegistry::builtin(), WorkloadRegistry::builtin())
{
}

Session::Session(EngineRegistry engines, WorkloadRegistry workloads)
    : Session(std::move(engines), std::move(workloads),
              AnalyticalRegistry::builtin())
{
}

Session::Session(EngineRegistry engines, WorkloadRegistry workloads,
                 AnalyticalRegistry analytics)
    : engines_(std::move(engines)), workloads_(std::move(workloads)),
      analytics_(std::move(analytics))
{
}

JobBuilder
Session::job() const
{
    return JobBuilder(engines_, workloads_, analytics_);
}

std::shared_ptr<ResultCache>
Session::enableCache()
{
    cache_ = std::make_shared<ResultCache>();
    return cache_;
}

std::shared_ptr<DiskResultCache>
Session::attachDiskCache(const std::string &directory)
{
    disk_cache_ = std::make_shared<DiskResultCache>(directory);
    return disk_cache_;
}

SimulationResult
Session::run(const SimulationRequest &request,
             cpu::TraceSink *tee) const
{
    if (!cache_ && !disk_cache_)
        return runUncached(request, tee);

    const std::string key = cacheKey(request);
    // Teed runs always pay the generation pass -- a cache hit has no
    // ops to hand the tee -- but their result still warms the caches
    // for later plain runs.
    if (!tee) {
        if (cache_) {
            if (auto hit = cache_->find(key)) {
                countMemoryHit();
                return *hit;
            }
        }
        if (disk_cache_) {
            if (auto hit = disk_cache_->find(key)) {
                // Promote: later repeats hit memory, not the disk
                // map.
                countDiskHit();
                if (cache_)
                    cache_->insert(key, *hit);
                return *hit;
            }
        }
        countMiss();
    }
    const SimulationResult result = runUncached(request, tee);
    if (cache_)
        cache_->insert(key, result);
    if (disk_cache_)
        disk_cache_->insert(key, result);
    return result;
}

SimulationResult
Session::runUncached(const SimulationRequest &request,
                     cpu::TraceSink *tee) const
{
    const auto engine = engines_.find(request.engine);
    VEGETA_ASSERT(engine.has_value(), "unregistered engine ",
                  request.engine);
    simulations_.fetch_add(1, std::memory_order_relaxed);
    static const telemetry::MetricId sims_id =
        telemetry::counterId("session.simulations");
    telemetry::add(sims_id, 1);

    const u32 executed_n = engine->effectiveN(request.patternN);
    kernels::KernelOptions opts;
    opts.optimized = request.kernel == KernelVariant::Optimized;
    opts.cBlocking = request.cBlocking;
    opts.traceOnly = true;

    // Streaming replay: the kernel generator emits uops straight into
    // the scheduler -- and through a tee into the caller's sink -- so
    // peak memory is independent of trace length.
    cpu::TraceCpu cpu_model(coreFor(request, *engine), *engine);
    kernels::KernelStats stats;
    if (tee) {
        cpu::TraceTee both(cpu_model, *tee);
        stats = kernels::streamSpmmKernel(request.gemm, executed_n,
                                          opts, both);
    } else {
        stats = kernels::streamSpmmKernel(request.gemm, executed_n,
                                          opts, cpu_model);
    }
    return fromSimResult(cpu_model.finish(), *engine, request,
                         kernelVariantName(request.kernel), executed_n,
                         stats.tileComputes);
}

ReplayRun
Session::replay(std::istream &trace,
                const SimulationRequest &request) const
{
    return replayFrom(request, [&](cpu::TraceSink &sink) {
        return cpu::streamTrace(trace, sink).has_value();
    });
}

ReplayRun
Session::replay(const cpu::Trace &trace,
                const SimulationRequest &request) const
{
    return replayFrom(request, [&](cpu::TraceSink &sink) {
        for (const cpu::TraceOp &op : trace)
            sink.emit(op);
        return true;
    });
}

ReplayRun
Session::replayFrom(
    const SimulationRequest &request,
    const std::function<bool(cpu::TraceSink &)> &feed) const
{
    const auto engine = engines_.find(request.engine);
    VEGETA_ASSERT(engine.has_value(), "unregistered engine ",
                  request.engine);
    CheckedReplay replayer(coreFor(request, *engine), *engine);
    ReplayRun run;
    if (!feed(replayer)) {
        run.status = ReplayRun::Status::Unreadable;
    } else if (!replayer.error().empty()) {
        run.status = ReplayRun::Status::Unsupported;
        run.error = replayer.error();
    } else {
        simulations_.fetch_add(1, std::memory_order_relaxed);
        run.result = fromSimResult(
            replayer.finish(), *engine, request, "replay",
            engine->effectiveN(request.patternN), /*tile_computes=*/0);
    }
    return run;
}

std::optional<std::string>
Session::analyzeError(const AnalyticalRequest &request) const
{
    if (!analytics_.contains(request.model))
        return "unknown analytical model: " + request.model;
    for (const auto &name : request.engines)
        if (!engines_.contains(name))
            return "unknown engine: " + name;
    for (const auto &name : request.workloads)
        if (!workloads_.contains(name))
            return "unknown workload: " + name;
    return analytics_.paramError(engines_, request);
}

AnalyticalResult
Session::analyze(const AnalyticalRequest &request) const
{
    const auto error = analyzeError(request);
    VEGETA_ASSERT(!error.has_value(), "bad analytical request: ",
                  error.value_or(""));
    const AnalyticalRegistry::Backend *backend =
        analytics_.find(request.model);
    static const telemetry::MetricId analyses_id =
        telemetry::counterId("session.analyses");
    if (!disk_cache_) {
        analyses_.fetch_add(1, std::memory_order_relaxed);
        telemetry::add(analyses_id, 1);
        return (*backend)(*this, request);
    }
    // Analytical results persist like simulation results: equal
    // canonical keys imply bit-identical tables (backends are pure
    // functions of the request), so a warm cache skips the backend.
    const std::string key = analyticalKey(request);
    if (auto hit = disk_cache_->findAnalysis(key)) {
        countDiskHit();
        return *hit;
    }
    analyses_.fetch_add(1, std::memory_order_relaxed);
    telemetry::add(analyses_id, 1);
    countMiss();
    AnalyticalResult result = (*backend)(*this, request);
    disk_cache_->insertAnalysis(key, result);
    return result;
}

std::optional<std::string>
Session::jobError(const Job &job) const
{
    if (job.kind == JobKind::Analysis)
        return analyzeError(job.analysis);
    if (!engines_.contains(job.simulation.engine))
        return "unknown engine: " + job.simulation.engine;
    return requestError(job.simulation);
}

JobResult
Session::run(const Job &job) const
{
    // One "session.job" span per job run here: runBatch runs each
    // unique job once through this, so a trace's span count equals
    // the batch's unique job count.
    telemetry::Span span("session.job");
    JobResult result;
    result.kind = job.kind;
    if (job.kind == JobKind::Analysis)
        result.analysis = analyze(job.analysis);
    else
        result.simulation = run(job.simulation);
    return result;
}

std::vector<JobResult>
Session::runBatch(const std::vector<Job> &jobs, u32 threads) const
{
    std::vector<JobResult> results(jobs.size());
    if (jobs.empty())
        return results;

    static const telemetry::MetricId batches_id =
        telemetry::counterId("session.batches");
    static const telemetry::MetricId jobs_id =
        telemetry::counterId("session.batch.jobs");
    static const telemetry::MetricId unique_id =
        telemetry::counterId("session.batch.unique");
    static const telemetry::MetricId batch_timer =
        telemetry::timerId("session.batch");
    telemetry::add(batches_id, 1);
    telemetry::add(jobs_id, jobs.size());
    telemetry::ScopedTimer batch_scope(batch_timer);

    if (threads == 0) {
        const unsigned hw = std::thread::hardware_concurrency();
        threads = hw == 0 ? 1 : static_cast<u32>(hw);
    }

    // Batch-level dedupe before dispatch: jobs with equal canonical
    // keys are guaranteed to produce bit-identical results, so only
    // the first occurrence runs; duplicates copy its slot afterwards.
    // The output is therefore identical to running every job -- for
    // any thread count, caches on or off.
    std::vector<std::size_t> unique;
    std::vector<std::size_t> source(jobs.size());
    {
        telemetry::Span plan_span("session.batch.plan", jobs.size());
        std::unordered_map<std::string, std::size_t> first;
        first.reserve(jobs.size());
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            const auto [it, inserted] =
                first.emplace(jobKey(jobs[i]), i);
            source[i] = it->second;
            if (inserted)
                unique.push_back(i);
        }
    }
    telemetry::add(unique_id, unique.size());

    const u32 workers =
        std::min<u32>(threads, static_cast<u32>(unique.size()));
    if (workers <= 1) {
        for (const std::size_t i : unique)
            results[i] = run(jobs[i]);
    } else {
        // Work-stealing by atomic index: each worker claims the next
        // unclaimed unique job and writes its slot, so the result
        // vector is independent of scheduling.
        std::atomic<std::size_t> next{0};
        auto worker = [&]() {
            for (;;) {
                const std::size_t t =
                    next.fetch_add(1, std::memory_order_relaxed);
                if (t >= unique.size())
                    return;
                results[unique[t]] = run(jobs[unique[t]]);
            }
        };

        std::vector<std::thread> pool;
        pool.reserve(workers);
        for (u32 t = 0; t < workers; ++t)
            pool.emplace_back(worker);
        for (auto &thread : pool)
            thread.join();
    }

    for (std::size_t i = 0; i < jobs.size(); ++i)
        if (source[i] != i)
            results[i] = results[source[i]];
    return results;
}

std::vector<SimulationResult>
Session::runBatch(const std::vector<SimulationRequest> &requests,
                  u32 threads) const
{
    std::vector<Job> jobs;
    jobs.reserve(requests.size());
    for (const auto &request : requests)
        jobs.push_back(Job::simulate(request));
    auto job_results = runBatch(jobs, threads);
    std::vector<SimulationResult> results;
    results.reserve(job_results.size());
    for (auto &r : job_results)
        results.push_back(std::move(r.simulation));
    return results;
}

cpu::CoreConfig
Session::coreFor(const SimulationRequest &request,
                 const engine::EngineConfig &engine)
{
    cpu::CoreConfig core = request.core;
    core.outputForwarding = request.outputForwarding && engine.sparse;
    return core;
}

SimulationResult
Session::fromSimResult(const cpu::SimResult &sim,
                       const engine::EngineConfig &engine,
                       const SimulationRequest &request,
                       const char *kernel_label, u32 executed_n,
                       u64 tile_computes)
{
    SimulationResult result;
    result.workload = request.label;
    result.engine = engine.name;
    result.layerN = request.patternN;
    result.executedN = executed_n;
    result.outputForwarding =
        request.outputForwarding && engine.sparse;
    result.kernel = kernel_label;
    result.coreCycles = sim.totalCycles;
    result.instructions = sim.retiredOps;
    result.engineInstructions = sim.engineInstructions;
    result.tileComputes = tile_computes;
    result.macUtilization = sim.macUtilization;
    result.cacheHits = sim.cacheHits;
    result.cacheMisses = sim.cacheMisses;
    return result;
}

std::vector<SimulationRequest>
figure13Grid(const Session &session,
             const std::vector<std::string> &workload_names,
             const std::vector<std::string> &engine_names,
             const std::vector<u32> &patterns)
{
    std::vector<SimulationRequest> grid;
    for (const auto &workload : workload_names) {
        for (const u32 pattern : patterns) {
            for (const auto &engine : engine_names) {
                const auto config = session.engines().find(engine);
                VEGETA_ASSERT(config.has_value(),
                              "unregistered engine ", engine);
                for (const bool of : {false, true}) {
                    if (of && !config->sparse)
                        break;
                    auto builder = session.job()
                                       .workload(workload)
                                       .engine(engine)
                                       .pattern(pattern)
                                       .outputForwarding(of);
                    const auto job = builder.build();
                    VEGETA_ASSERT(job.has_value(), "bad grid request: ",
                                  builder.error());
                    grid.push_back(job->simulation);
                }
            }
        }
    }
    return grid;
}

double
geomeanSpeedup(const Session &session,
               const std::vector<std::string> &workload_names,
               u32 layer_n, const std::string &engine_name,
               bool output_forwarding,
               const std::string &baseline_name, u32 threads)
{
    VEGETA_ASSERT(!workload_names.empty(),
                  "geomeanSpeedup over no workloads");

    // Baseline requests first, then the engine under test, so
    // results[i] / results[i + n] pair up per workload.
    std::vector<SimulationRequest> requests;
    requests.reserve(workload_names.size() * 2);
    for (const bool test : {false, true}) {
        for (const auto &workload : workload_names) {
            auto builder =
                session.job()
                    .workload(workload)
                    .engine(test ? engine_name : baseline_name)
                    .pattern(layer_n)
                    .outputForwarding(test && output_forwarding);
            const auto job = builder.build();
            VEGETA_ASSERT(job.has_value(), "bad speedup request: ",
                          builder.error());
            requests.push_back(job->simulation);
        }
    }

    const auto results = session.runBatch(requests, threads);
    const std::size_t n = workload_names.size();
    std::vector<double> speedups;
    speedups.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        VEGETA_ASSERT(results[i + n].coreCycles > 0,
                      "zero-cycle simulation");
        speedups.push_back(
            static_cast<double>(results[i].coreCycles) /
            static_cast<double>(results[i + n].coreCycles));
    }
    return geomean(speedups);
}

} // namespace vegeta::sim
