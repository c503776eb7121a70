#include "sim/tune_space.hpp"

#include <algorithm>
#include <sstream>

#include "engine/area_model.hpp"
#include "engine/pipeline.hpp"
#include "sim/session.hpp"

namespace vegeta::sim {

std::string
tunePointKey(const TunePoint &point)
{
    // Concatenation, not a stream: the validity stage sorts every
    // valid point by this key.
    return point.workload + '|' + point.engine + '|' +
           std::to_string(point.patternN) + '|' +
           (point.outputForwarding ? '1' : '0') + '|' +
           kernelVariantName(point.kernel) + '|' +
           std::to_string(point.cBlocking);
}

u64
TuneSpace::rawSize() const
{
    return u64{workloads.size()} * engines.size() * patterns.size() *
           outputForwarding.size() * kernels.size() *
           cBlockings.size();
}

std::vector<TunePoint>
TuneSpace::enumerate() const
{
    std::vector<TunePoint> points;
    points.reserve(rawSize());
    for (const auto &workload : workloads)
        for (const auto &engine : engines)
            for (const u32 pattern : patterns)
                for (const bool of : outputForwarding)
                    for (const KernelVariant kernel : kernels)
                        for (const u32 cb : cBlockings) {
                            TunePoint p;
                            p.workload = workload;
                            p.engine = engine;
                            p.patternN = pattern;
                            p.outputForwarding = of;
                            p.kernel = kernel;
                            p.cBlocking = cb;
                            points.push_back(std::move(p));
                        }
    return points;
}

TuneSpace
TuneSpace::figure13(const Session &session,
                    std::vector<std::string> workload_names)
{
    TuneSpace space;
    space.workloads = std::move(workload_names);
    space.engines = session.engines().names();
    space.patterns = {4, 2, 1};
    space.outputForwarding = {false, true};
    space.kernels = {KernelVariant::Optimized};
    space.cBlockings = {3};
    return space;
}

TuneSpace
TuneSpace::full(const Session &session,
                std::vector<std::string> workload_names)
{
    TuneSpace space =
        figure13(session, std::move(workload_names));
    space.cBlockings = {1, 2, 3};
    return space;
}

std::optional<std::string>
invalidReason(const Session &session, const TuneSpace &space,
              const TunePoint &point)
{
    if (!session.workloads().contains(point.workload))
        return "unknown workload: " + point.workload;
    const auto config = session.engines().find(point.engine);
    if (!config)
        return "unknown engine: " + point.engine;

    if (point.patternN != 1 && point.patternN != 2 &&
        point.patternN != 4)
        return "pattern must be 1, 2, or 4";
    if (point.cBlocking < 1 || point.cBlocking > 3)
        return "cBlocking must be 1..3 (C tiles live in tregs 5-7)";

    // The naive (Listing 1) kernel reloads C inside the k loop and
    // has no blocking knob: cBlocking > 1 would alias the cBlocking=1
    // point under a different key, so only one spelling is feasible.
    if (point.kernel == KernelVariant::Naive && point.cBlocking != 1)
        return "the naive kernel has no C blocking (cBlocking must "
               "be 1)";

    // Output forwarding is a sparse-PE datapath feature (Section
    // V-C); a dense engine has no forwarding path, and the request
    // would alias the no-OF point.
    if (point.outputForwarding && !config->sparse)
        return "output forwarding needs a sparse engine (no "
               "forwarding path on " +
               point.engine + ")";

    // Structural geometry checks, cheap-predicate style: every legal
    // design keeps the paper's 512-MAC invariant with integral grid
    // dimensions.  Registered Table III rows satisfy these by
    // construction; generated candidates must too.
    if (config->alpha == 0 || config->beta == 0)
        return "engine geometry: alpha and beta must be positive";
    if (engine::kMacsPerOutput % config->beta != 0)
        return "engine geometry: beta must divide " +
               std::to_string(engine::kMacsPerOutput);
    const u32 rows = config->nRows();
    if (engine::kTotalMacs % (rows * config->alpha * config->beta) !=
        0)
        return "engine geometry: grid does not tile " +
               std::to_string(engine::kTotalMacs) + " MACs";
    if (rows * config->nCols() * config->alpha * config->beta !=
        engine::kTotalMacs)
        return "engine geometry: grid is not " +
               std::to_string(engine::kTotalMacs) + " MACs";
    if (!config->sparse && config->minSupportedN != 4)
        return "engine geometry: a dense engine executes 4:4 only";
    if (config->sparse && config->minSupportedN != 1 &&
        config->minSupportedN != 2)
        return "engine geometry: sparse minSupportedN must be 1 or 2";

    if (space.maxAreaUnits) {
        const auto physical = engine::estimatePhysical(*config);
        if (physical.areaUnits > *space.maxAreaUnits) {
            std::ostringstream reason;
            reason << "area budget: " << physical.areaUnits
                   << " units exceeds " << *space.maxAreaUnits;
            return reason.str();
        }
    }
    return std::nullopt;
}

namespace {

/** The tile-compute instruction an executed pattern N:4 issues. */
isa::Instruction
computeInstruction(u32 executed_n, u32 c_slot)
{
    const auto c = isa::treg(static_cast<u8>(5 + c_slot));
    const auto a = isa::treg(4);
    switch (executed_n) {
      case 4:
        return isa::makeTileGemm(c, a, isa::treg(0));
      case 2:
        return isa::makeTileSpmmU(c, a, isa::ureg(0));
      default:
        return isa::makeTileSpmmV(c, a, isa::vreg(0));
    }
}

/**
 * Steady-state engine cycles one k-loop round of @p group compute
 * instructions takes: replay a short window of rounds on the real
 * PipelineModel (C registers rotating over tregs 5..5+group-1, the
 * accumulate chain and output forwarding exactly as the cycle model
 * schedules them) and difference the second half of the window.
 */
double
engineRoundCycles(const engine::EngineConfig &config,
                  bool output_forwarding, u32 executed_n, u32 group)
{
    engine::PipelineModel model(config, output_forwarding);
    constexpr u32 kWarmupRounds = 4;
    constexpr u32 kMeasuredRounds = 4;
    Cycles warm = 0;
    for (u32 round = 0; round < kWarmupRounds + kMeasuredRounds;
         ++round) {
        for (u32 s = 0; s < group; ++s)
            model.issue(computeInstruction(executed_n, s), 0);
        if (round + 1 == kWarmupRounds)
            warm = model.busyUntil();
    }
    return double(model.busyUntil() - warm) / kMeasuredRounds;
}

} // namespace

PrefilterEstimate
prefilterEstimate(const kernels::GemmDims &gemm,
                  const engine::EngineConfig &engine, u32 pattern_n,
                  bool output_forwarding, bool naive, u32 c_blocking,
                  const cpu::CoreConfig &core)
{
    PrefilterEstimate est;
    est.executedN = engine.effectiveN(pattern_n);
    const u32 tk = kernels::kTileForN(est.executedN);
    const kernels::GemmDims p =
        kernels::padProblem(gemm, est.executedN);
    const u64 mt = p.m / 16, nt = p.n / 16, kt = p.k / tk;

    const u32 unroll =
        naive ? 1 : std::min<u32>(c_blocking, u32(nt ? nt : 1));
    const u64 full_groups = nt / unroll;
    const u32 remainder = u32(nt % unroll);
    const u64 groups_per_i = full_groups + (remainder ? 1 : 0);
    const bool sparse_exec = est.executedN < 4;

    // --- Instruction counts: the generator's loop structure in
    // closed form (prologue; per (i, j-group): setup + hoisted C
    // traffic; per k: A (+metadata) load and per slot a B load and a
    // compute, the naive kernel adding C load/store per compute).
    est.tileComputes = mt * nt * kt;
    const u64 a_loads = mt * groups_per_i * kt;
    const u64 md_loads = sparse_exec ? a_loads : 0;
    const u64 b_loads = mt * kt * nt;
    const u64 c_loads = naive ? est.tileComputes : mt * nt;
    const u64 c_stores = naive ? est.tileComputes : mt * nt;
    est.tileLoads = a_loads + md_loads + b_loads + c_loads;
    est.tileStores = c_stores;
    const u64 tile_ops =
        est.tileLoads + est.tileStores + est.tileComputes;
    const u64 loop_ends = mt * groups_per_i * (kt + 1) + mt;
    const u64 scalars = kernels::kPrologueAlu +
                        kernels::kPrologueAlu / 2 +
                        mt * groups_per_i * kernels::kTileSetupAlu +
                        tile_ops * kernels::kScalarOpsPerTileOp +
                        loop_ends * kernels::kLoopOverheadAlu;
    est.instructions = scalars + loop_ends + tile_ops;

    // --- Engine occupancy (engine cycles -> core cycles).  The
    // optimized kernel's steady state comes from the PipelineModel
    // window; the naive kernel's C register is renamed by the
    // per-iteration C load, so its chain is compute -> store -> load
    // -> compute: one isolated latency plus the L1 round trip.
    const bool of_effective = output_forwarding && engine.sparse;
    const auto instr = computeInstruction(est.executedN, 0);
    engine::PipelineModel stage_model(engine, of_effective);
    const auto stages = stage_model.stages(instr);
    double engine_cycles;
    if (naive) {
        const double round =
            double(stages.total()) +
            2.0 * double(core.cache.l1Latency) /
                core.engineClockDivider;
        engine_cycles = double(mt * nt * kt) * round;
    } else {
        engine_cycles =
            double(mt * kt) *
            (double(full_groups) *
                 engineRoundCycles(engine, of_effective,
                                   est.executedN, unroll) +
             (remainder ? engineRoundCycles(engine, of_effective,
                                            est.executedN, remainder)
                        : 0.0));
    }
    engine_cycles += double(stages.total()); // fill/drain tail
    est.engineBoundCoreCycles =
        engine_cycles * core.engineClockDivider;

    // --- Core-side bounds: retire width, scalar ALU ports, LSU
    // ports for the tile memory traffic.
    const double retire =
        double(est.instructions) / core.retireWidth;
    const double alu = double(scalars) / core.numAlus;
    const double lsu = double(est.tileLoads + est.tileStores) /
                       core.numLsuPorts;
    est.frontendBoundCoreCycles = std::max({retire, alu, lsu});

    est.estCoreCycles = std::max(est.engineBoundCoreCycles,
                                 est.frontendBoundCoreCycles) +
                        core.frontEndDepth;
    est.estCyclesPerMac =
        est.estCoreCycles / double(gemm.macs() ? gemm.macs() : 1);
    est.areaUnits = engine::estimatePhysical(engine).areaUnits;
    return est;
}

std::vector<engine::EngineConfig>
candidateEngineConfigs()
{
    // Geometries the builtin registry already covers, as
    // (sparse, alpha, beta, minN) tuples.
    const auto covered = [](bool sparse, u32 alpha, u32 beta,
                            u32 min_n) {
        if (!sparse)
            return (alpha == 1 && beta == 1) ||
                   (alpha == 1 && beta == 2) ||
                   (alpha == 16 && beta == 1);
        if (beta != 2)
            return false;
        const bool table_alpha = alpha == 1 || alpha == 2 ||
                                 alpha == 4 || alpha == 8 ||
                                 alpha == 16;
        if (min_n == 1)
            return table_alpha; // VEGETA-S-alpha-2 rows
        return alpha == 1 && min_n == 2; // the STC-like config
    };

    std::vector<engine::EngineConfig> candidates;
    const u32 alphas[] = {1, 2, 4, 8, 16};

    // Dense sweep: beta over the divisors of kMacsPerOutput (Nrows =
    // 32/beta stays integral); Ncols = 16/alpha is integral for every
    // alpha in the sweep, preserving the 512-MAC invariant.
    const u32 betas[] = {1, 2, 4, 8, 16, 32};
    for (const u32 beta : betas) {
        for (const u32 alpha : alphas) {
            if (covered(false, alpha, beta, 4))
                continue;
            engine::EngineConfig config;
            config.name = "CAND-D-" + std::to_string(alpha) + "-" +
                          std::to_string(beta);
            config.sparse = false;
            config.alpha = alpha;
            config.beta = beta;
            config.minSupportedN = 4;
            config.priorWorkLabel = "tuner candidate";
            candidates.push_back(std::move(config));
        }
    }

    // Sparse sweep: the paper fixes beta = M/2 = 2 (Section V-A);
    // minSupportedN = 2 generalizes the STC-like restriction to
    // every alpha.
    for (const u32 min_n : {1u, 2u}) {
        for (const u32 alpha : alphas) {
            if (covered(true, alpha, 2, min_n))
                continue;
            engine::EngineConfig config;
            config.name = "CAND-S-" + std::to_string(alpha) + "-2";
            if (min_n == 2)
                config.name += "-N2";
            config.sparse = true;
            config.alpha = alpha;
            config.beta = 2;
            config.minSupportedN = min_n;
            config.priorWorkLabel = "tuner candidate";
            candidates.push_back(std::move(config));
        }
    }
    return candidates;
}

} // namespace vegeta::sim
