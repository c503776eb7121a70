#include "kernels/driver.hpp"

namespace vegeta::kernels {

Measurement
simulateLayer(const Workload &workload, u32 layer_n,
              const engine::EngineConfig &engine, bool output_forwarding,
              const cpu::CoreConfig &core)
{
    const u32 executed_n = engine.effectiveN(layer_n);

    KernelOptions opts;
    opts.traceOnly = true;
    const KernelRun run = runSpmmKernel(workload.gemm, executed_n, opts);

    cpu::CoreConfig core_cfg = core;
    core_cfg.outputForwarding = output_forwarding;
    cpu::TraceCpu cpu_model(core_cfg, engine);
    const cpu::SimResult sim = cpu_model.run(run.trace);

    Measurement m;
    m.workload = workload.name;
    m.engineName = engine.name;
    m.layerN = layer_n;
    m.executedN = executed_n;
    m.outputForwarding = output_forwarding;
    m.coreCycles = sim.totalCycles;
    m.instructions = sim.retiredOps;
    m.tileComputes = run.tileComputes;
    m.macUtilization = sim.macUtilization;
    return m;
}

} // namespace vegeta::kernels
