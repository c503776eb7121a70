/**
 * @file
 * Sparse DNN inference example: a transformer projection layer
 * (reduced BERT shape) pruned to each supported N:4 pattern, executed
 * with the VEGETA kernels, verified against the dense reference, and
 * timed on the full engine sweep -- a miniature Figure 13 expressed
 * as one deduplicated vegeta::sim request batch.
 */

#include <cstdlib>
#include <iostream>

#include "common/random.hpp"
#include "common/table.hpp"
#include "kernels/gemm_kernels.hpp"
#include "sim/session.hpp"
#include "sparsity/pruning.hpp"

int
main()
{
    using namespace vegeta;
    using namespace vegeta::kernels;

    // Reduced BERT-L2-like projection: Y = W x X.
    const GemmDims dims{128, 128, 768};
    Rng rng(7);
    const MatrixBF16 dense_w = randomMatrixBF16(dims.m, dims.k, rng);
    const MatrixBF16 acts = randomMatrixBF16(dims.k, dims.n, rng);

    std::cout << "Layer: " << dims.m << "x" << dims.n << "x" << dims.k
              << " (" << dims.macs() << " MACs)\n\n";

    // --- Functional pass per pattern ---------------------------------
    std::cout << "Functional verification (kernel vs reference):\n";
    for (u32 n : {4u, 2u, 1u}) {
        const MatrixBF16 w =
            n == 4 ? dense_w : magnitudePruneNM(dense_w, {n, 4});
        KernelOptions opts;
        const auto run = runSpmmKernel(dims, n, opts, &w, &acts);
        MatrixF want(dims.m, dims.n);
        referenceGemm(w, acts, want);
        std::cout << "  " << n << ":4 -> " << run.tileComputes
                  << " tile computes, max abs error "
                  << maxAbsDiff(run.c, want) << "\n";
    }

    // --- Cycle-level sweep (miniature Figure 13) ---------------------
    std::cout << "\nSimulated runtime (core cycles, engines at "
                 "0.5 GHz):\n\n";
    const sim::Session simulator;

    // One batch: every evaluated engine x each pattern (OF on sparse
    // engines), plus the RASA-DM 2:4 baseline -- which duplicates a
    // grid entry, so the sweep's dedupe runs it only once.
    const auto engines = simulator.engines().names();
    std::vector<sim::SimulationRequest> requests;
    auto build = [&](const std::string &engine, u32 pattern, bool of) {
        auto builder = simulator.job()
                           .gemm(dims)
                           .engine(engine)
                           .pattern(pattern)
                           .outputForwarding(of);
        const auto job = builder.build();
        if (!job) {
            std::cerr << "bad request: " << builder.error() << "\n";
            std::exit(1);
        }
        requests.push_back(job->simulation);
    };
    build("VEGETA-D-1-2", 2, false); // speed-up baseline
    for (const auto &name : engines) {
        const bool of = simulator.engines().find(name)->sparse;
        for (u32 pattern : {4u, 2u, 1u})
            build(name, pattern, of);
    }
    const auto results = simulator.runBatch(requests);
    const Cycles baseline_cycles = results[0].coreCycles;

    Table table({"engine", "4:4", "2:4", "1:4", "2:4 speedup"});
    for (std::size_t e = 0; e < engines.size(); ++e) {
        const bool of = simulator.engines().find(engines[e])->sparse;
        const auto &d = results[1 + e * 3];
        const auto &s24 = results[1 + e * 3 + 1];
        const auto &s14 = results[1 + e * 3 + 2];
        table.row()
            .cell(engines[e] + (of ? " +OF" : ""))
            .cell(static_cast<unsigned long long>(d.coreCycles))
            .cell(static_cast<unsigned long long>(s24.coreCycles))
            .cell(static_cast<unsigned long long>(s14.coreCycles))
            .cell(static_cast<double>(baseline_cycles) /
                      static_cast<double>(s24.coreCycles),
                  2);
    }
    table.print(std::cout);
    std::cout << "\n(2:4 speedup is vs RASA-DM running the same "
                 "pruned layer densely.)\n";
    return 0;
}
