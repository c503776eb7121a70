/**
 * @file
 * End-to-end experiment primitive: workload -> materialized kernel
 * trace -> cycle-level CPU simulation of one layer.
 *
 * Tests use it as the materialized-trace reference for
 * sim::Session's streaming path.
 * Grids and speed-ups (Figure 13, the headline numbers) are
 * sim::figure13Grid + Session::runBatch and sim::geomeanSpeedup.
 */

#ifndef VEGETA_KERNELS_DRIVER_HPP
#define VEGETA_KERNELS_DRIVER_HPP

#include <string>

#include "cpu/trace_cpu.hpp"
#include "engine/config.hpp"
#include "kernels/gemm_kernels.hpp"
#include "kernels/workloads.hpp"

namespace vegeta::kernels {

/** One simulated (workload, sparsity, engine) measurement. */
struct Measurement
{
    std::string workload;
    std::string engineName;
    u32 layerN = 4;            ///< the layer's pruned pattern N:4
    u32 executedN = 4;         ///< N actually executed by the engine
    bool outputForwarding = false;
    Cycles coreCycles = 0;
    u64 instructions = 0;
    u64 tileComputes = 0;
    double macUtilization = 0.0;
};

/** Simulate one layer with layer-wise N:4 sparsity on one engine. */
Measurement simulateLayer(const Workload &workload, u32 layer_n,
                          const engine::EngineConfig &engine,
                          bool output_forwarding,
                          const cpu::CoreConfig &core = {});

} // namespace vegeta::kernels

#endif // VEGETA_KERNELS_DRIVER_HPP
