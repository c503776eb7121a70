/**
 * @file
 * Design-space exploration example: performance (cycle model), area,
 * power, and frequency for every Table III engine on one workload --
 * the trade-off study of paper Sections VI-C / VI-D in one table,
 * driven entirely through the vegeta::sim facade (trace requests for
 * the cycle numbers, the fig14-area-power analytical backend for the
 * physical numbers).
 */

#include <cstdlib>
#include <iostream>

#include "common/table.hpp"
#include "sim/session.hpp"

int
main()
{
    using namespace vegeta;

    const char *workload = "GPT-L1";
    sim::Session simulator;
    simulator.enableCache();

    const auto layer = simulator.workloads().find(workload);
    if (!layer) {
        std::cerr << "unknown workload: " << workload << "\n";
        return 1;
    }
    std::cout << "Design-space exploration on " << layer->name << " ("
              << layer->gemm.m << "x" << layer->gemm.n << "x"
              << layer->gemm.k << "), 2:4 layer-wise sparsity\n\n";

    // Physical numbers from the analytical registry.
    sim::AnalyticalRequest physical_request;
    physical_request.model = "fig14-area-power";
    const auto physical = simulator.analyze(physical_request);

    // Cycle numbers from one deduplicated parallel sweep: each Table
    // III engine (OF on the sparse ones) plus the RASA-DM baseline.
    const auto configs = simulator.engines().tableIIIConfigs();
    std::vector<sim::SimulationRequest> requests;
    auto build = [&](const std::string &engine, bool of) {
        auto builder = simulator.job()
                           .workload(workload)
                           .engine(engine)
                           .pattern(2)
                           .outputForwarding(of);
        const auto job = builder.build();
        if (!job) {
            std::cerr << "bad request: " << builder.error() << "\n";
            std::exit(1);
        }
        requests.push_back(job->simulation);
    };
    build("VEGETA-D-1-2", false); // baseline first
    for (const auto &cfg : configs)
        build(cfg.name, cfg.sparse);
    const auto results = simulator.runBatch(requests);
    const Cycles baseline_cycles = results[0].coreCycles;

    Table table({"engine", "cycles", "speedup", "norm_area",
                 "norm_power", "max_GHz", "perf/area"});
    for (std::size_t i = 0; i < configs.size(); ++i) {
        const auto &cfg = configs[i];
        const auto &m = results[i + 1];
        const double speedup =
            static_cast<double>(baseline_cycles) /
            static_cast<double>(m.coreCycles);
        double area = 1.0, power = 1.0, freq = 0.0;
        for (std::size_t r = 0; r < physical.rows.size(); ++r) {
            if (physical.text(r, "engine") == cfg.name) {
                area = physical.number(r, "norm_area");
                power = physical.number(r, "norm_power");
                freq = physical.number(r, "max_freq_GHz");
            }
        }
        table.row()
            .cell(cfg.name + (cfg.sparse ? " +OF" : ""))
            .cell(static_cast<unsigned long long>(m.coreCycles))
            .cell(speedup, 2)
            .cell(area, 3)
            .cell(power, 3)
            .cell(freq, 2)
            .cell(speedup / area, 2);
    }
    table.print(std::cout);

    std::cout << "\nVEGETA-S-8-2 / S-16-2 pair the full sparse "
                 "speed-up with *less* area than the dense baseline "
                 "(Section VI-D) -- the paper's recommended design "
                 "points.\n";
    return 0;
}
