/**
 * @file
 * google-benchmark microbenchmarks of the simulator stack itself:
 * functional emulation, compression, kernel/trace generation, and the
 * sim-facade replay paths (streaming and batch).  Engine timing is
 * exercised through the facade's micro-latency analytical backend --
 * nothing here wires engine models by hand.
 */

#include <benchmark/benchmark.h>

#include "common/random.hpp"
#include "kernels/gemm_kernels.hpp"
#include "sim/session.hpp"
#include "sparsity/pruning.hpp"
#include "sparsity/rowwise_transform.hpp"

namespace {

using namespace vegeta;

void
BM_EmulatorTileGemm(benchmark::State &state)
{
    isa::FlatMemory mem;
    isa::Emulator emu(mem);
    Rng rng(1);
    emu.writeTileBF16(isa::treg(4), randomMatrixBF16(16, 32, rng));
    emu.writeTileBF16(isa::treg(0), randomMatrixBF16(16, 32, rng));
    const auto instr =
        isa::makeTileGemm(isa::treg(5), isa::treg(4), isa::treg(0));
    for (auto _ : state)
        emu.execute(instr);
    state.SetItemsProcessed(state.iterations() *
                            isa::effectualMacs(instr.op));
}
BENCHMARK(BM_EmulatorTileGemm);

void
BM_EmulatorTileSpmmV(benchmark::State &state)
{
    isa::FlatMemory mem;
    isa::Emulator emu(mem);
    Rng rng(2);
    const auto tile = randomNMMatrix(16, 128, pattern14(), rng);
    const auto ct = CompressedTile::compress(tile, pattern14());
    emu.writeTileBF16(isa::treg(4), ct.values());
    emu.setMetadata(4, ct.packMetadata());
    emu.writeTileBF16(isa::vreg(0),
                      randomMatrixBF16(128, 16, rng).transposed());
    const auto instr =
        isa::makeTileSpmmV(isa::treg(5), isa::treg(4), isa::vreg(0));
    for (auto _ : state)
        emu.execute(instr);
    state.SetItemsProcessed(state.iterations() *
                            isa::effectualMacs(instr.op));
}
BENCHMARK(BM_EmulatorTileSpmmV);

void
BM_CompressTile(benchmark::State &state)
{
    Rng rng(3);
    const auto tile = randomNMMatrix(16, 64, pattern24(), rng);
    for (auto _ : state) {
        auto ct = CompressedTile::compress(tile, pattern24());
        benchmark::DoNotOptimize(ct);
    }
}
BENCHMARK(BM_CompressTile);

void
BM_RowWiseTransform(benchmark::State &state)
{
    Rng rng(4);
    const auto chunk = randomUnstructuredMatrix(32, 64, 0.9, rng);
    for (auto _ : state) {
        auto rwt = transformChunkToRowWise(chunk);
        benchmark::DoNotOptimize(rwt);
    }
}
BENCHMARK(BM_RowWiseTransform);

sim::SimulationRequest
microRequest(const sim::Session &simulator)
{
    auto job = simulator.job()
                   .gemm(kernels::GemmDims{64, 64, 512})
                   .engine("VEGETA-S-16-2")
                   .pattern(2)
                   .build();
    return job->simulation;
}

void
BM_FacadeStreamingRun(benchmark::State &state)
{
    const sim::Session simulator; // no cache: measure the replay
    const auto request = microRequest(simulator);
    u64 uops = 0;
    for (auto _ : state) {
        auto result = simulator.run(request);
        uops = result.instructions;
        benchmark::DoNotOptimize(result);
    }
    state.SetItemsProcessed(state.iterations() * uops);
}
BENCHMARK(BM_FacadeStreamingRun);

void
BM_FacadeBatchReplay(benchmark::State &state)
{
    const sim::Session simulator;
    const auto request = microRequest(simulator);
    cpu::TraceCollector collector;
    simulator.run(request, &collector);
    const cpu::Trace &trace = collector.trace();
    for (auto _ : state) {
        auto result = simulator.replay(trace, request);
        benchmark::DoNotOptimize(result);
    }
    state.SetItemsProcessed(state.iterations() * trace.size());
}
BENCHMARK(BM_FacadeBatchReplay);

void
BM_TraceGeneration(benchmark::State &state)
{
    kernels::KernelOptions opts;
    opts.traceOnly = true;
    for (auto _ : state) {
        auto run = kernels::runSpmmKernel({64, 64, 512}, 2, opts);
        benchmark::DoNotOptimize(run);
    }
}
BENCHMARK(BM_TraceGeneration);

void
BM_AnalyticalMicroLatency(benchmark::State &state)
{
    const sim::Session simulator;
    sim::AnalyticalRequest request;
    request.model = "micro-latency";
    for (auto _ : state) {
        auto result = simulator.analyze(request);
        benchmark::DoNotOptimize(result);
    }
}
BENCHMARK(BM_AnalyticalMicroLatency);

} // namespace

BENCHMARK_MAIN();
