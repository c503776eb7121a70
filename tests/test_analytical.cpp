/**
 * @file
 * Analytical-registry tests: the facade's analytical backends must
 * reproduce the direct src/model and src/engine calls they wrap,
 * requests must validate against the registries and each model's
 * parameter check, and the paper-fidelity table is pinned row by row.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iterator>
#include <sstream>

#include "engine/area_model.hpp"
#include "engine/pipeline.hpp"
#include "kernels/driver.hpp"
#include "kernels/network.hpp"
#include "model/dynamic_sparsity.hpp"
#include "model/vector_vs_matrix.hpp"
#include "sim/session.hpp"

namespace vegeta::sim {
namespace {

TEST(AnalyticalRegistry, BuiltinModelsRegistered)
{
    const auto registry = AnalyticalRegistry::builtin();
    for (const char *model :
         {"fig3-roofline", "fig4-vector-vs-matrix", "fig10-pipelining",
          "fig14-area-power", "fig14-area-breakdown",
          "fig15-unstructured", "blocksize-coverage",
          "blocksize-hardware", "micro-latency", "network-policy",
          "dynamic-sparsity", "tune-prefilter", "paper-fidelity"}) {
        EXPECT_TRUE(registry.contains(model)) << model;
        EXPECT_FALSE(registry.description(model).empty()) << model;
    }
    EXPECT_FALSE(registry.contains("no-such-model"));
    EXPECT_EQ(registry.find("no-such-model"), nullptr);
}

TEST(AnalyticalRegistry, AddReplacesByName)
{
    AnalyticalRegistry registry;
    registry.add("m", "first", [](const Session &,
                                  const AnalyticalRequest &) {
        return AnalyticalResult{};
    });
    registry.add("m", "second", [](const Session &,
                                   const AnalyticalRequest &) {
        return AnalyticalResult{};
    });
    EXPECT_EQ(registry.size(), 1u);
    EXPECT_EQ(registry.description("m"), "second");
}

TEST(Analytical, RequestValidation)
{
    const Session session;

    AnalyticalRequest request;
    request.model = "no-such-model";
    auto error = session.analyzeError(request);
    ASSERT_TRUE(error.has_value());
    EXPECT_NE(error->find("no-such-model"), std::string::npos);

    request.model = "fig10-pipelining";
    request.engines = {"NOT-AN-ENGINE"};
    error = session.analyzeError(request);
    ASSERT_TRUE(error.has_value());
    EXPECT_NE(error->find("NOT-AN-ENGINE"), std::string::npos);

    request.engines = {"VEGETA-S-16-2"};
    request.workloads = {"NOT-A-WORKLOAD"};
    error = session.analyzeError(request);
    ASSERT_TRUE(error.has_value());

    request.workloads = {"BERT-L1"};
    EXPECT_FALSE(session.analyzeError(request).has_value());
}

TEST(Analytical, ParamChecksRejectBeforeTheBackend)
{
    // Each of these reached a VEGETA_ASSERT, a cast of a negative or
    // huge double, or an unbounded allocation inside the backend.
    const Session session;
    const struct
    {
        const char *model;
        std::map<std::string, double> params;
        std::map<std::string, std::string> options;
        std::vector<std::string> engines;
        const char *mentions;
    } bad[] = {
        {"micro-latency", {}, {{"op", "bogus"}}, {}, "op"},
        {"fig10-pipelining", {}, {{"op", "bogus"}}, {}, "op"},
        {"fig10-pipelining", {}, {{"op", "spmm_u"}}, {"VEGETA-D-1-2"},
         "TILE_SPMM_U"},
        {"fig10-pipelining", {{"instructions", -1}}, {}, {},
         "instructions"},
        {"fig10-pipelining", {{"instructions", 1e12}}, {}, {},
         "instructions"},
        {"fig10-pipelining", {{"instructions", 2.5}}, {}, {},
         "instructions"},
        {"tune-prefilter", {{"pattern", 3}}, {}, {}, "pattern"},
        {"tune-prefilter", {{"cblocking", 0}}, {}, {}, "cblocking"},
        {"tune-prefilter", {}, {{"kernel", "fast"}}, {}, "kernel"},
        {"blocksize-coverage", {{"trials", 0}}, {}, {}, "trials"},
        {"blocksize-coverage", {{"rows", 1e9}}, {}, {}, "rows"},
        {"blocksize-coverage", {{"cols", 100}}, {}, {}, "cols"},
        {"blocksize-coverage", {{"cols", 1000}}, {}, {}, "cols"},
        {"blocksize-hardware", {}, {{"baseline", "nope"}}, {},
         "baseline"},
        {"fig14-area-breakdown", {{"block_size", 5}}, {}, {},
         "block_size"},
        {"dynamic-sparsity", {{"registers", 0}}, {}, {}, "registers"},
        {"dynamic-sparsity", {{"trials", -3}}, {}, {}, "trials"},
        {"dynamic-sparsity", {{"density", 2}}, {}, {}, "density"},
        {"dynamic-sparsity", {{"seed", -1}}, {}, {}, "seed"},
        {"network-policy", {}, {{"network", "nope"}}, {}, "network"},
        {"fig15-unstructured", {{"degree", 1.5}}, {}, {}, "degree"},
        {"fig15-unstructured", {{"degree", 1}}, {}, {}, "degree"},
        {"fig15-unstructured", {{"seed", 1e300}}, {}, {}, "seed"},
        {"fig3-roofline", {{"memory_gbs", 0}}, {}, {}, "memory_gbs"},
        {"fig3-roofline", {{"vector_gflops", std::nan("")}}, {}, {},
         "vector_gflops"},
        {"paper-fidelity", {{"degree", 0.9}}, {}, {}, "no workloads"},
        {"paper-fidelity", {}, {}, {"VEGETA-S-2-2"}, "no workloads"},
        // A name the backend never reads, one per model: each used to
        // run the model's default silently.
        {"fig3-roofline", {{"memory_gb", 1}}, {}, {},
         "fig3-roofline has no param 'memory_gb' (params: "
         "vector_gflops, matrix_gflops, memory_gbs)"},
        {"fig4-vector-vs-matrix", {{"size", 64}}, {}, {},
         "has no param 'size' (params: none)"},
        {"fig10-pipelining", {}, {{"opcode", "gemm"}}, {},
         "has no option 'opcode' (options: op)"},
        {"fig14-area-power", {}, {{"engine", "x"}}, {},
         "has no option 'engine' (options: none)"},
        {"fig14-area-breakdown", {{"blocksize", 8}}, {}, {},
         "has no param 'blocksize' (params: block_size)"},
        {"fig15-unstructured", {{"degre", 0.9}}, {}, {},
         "fig15-unstructured has no param 'degre' (params: degree, "
         "seed)"},
        {"blocksize-coverage", {{"row", 8}}, {}, {},
         "has no param 'row'"},
        {"blocksize-hardware", {}, {{"base", "VEGETA-D-1-1"}}, {},
         "has no option 'base' (options: baseline)"},
        {"micro-latency", {{"op", 1}}, {}, {},
         "has no param 'op' (params: none)"},
        {"network-policy", {}, {{"netwrok", "bert-encoder"}}, {},
         "network-policy has no option 'netwrok' (options: network)"},
        {"dynamic-sparsity", {{"register", 8}}, {}, {},
         "has no param 'register'"},
        {"tune-prefilter", {{"cblock", 2}}, {}, {},
         "has no param 'cblock' (params: pattern, of, cblocking)"},
        {"paper-fidelity", {}, {{"anchor", "x"}}, {}, "no workloads"},
    };
    for (const auto &b : bad) {
        AnalyticalRequest request;
        request.model = b.model;
        request.params = b.params;
        request.options = b.options;
        request.engines = b.engines;
        const auto error = session.analyzeError(request);
        ASSERT_TRUE(error.has_value()) << b.model << " " << b.mentions;
        EXPECT_NE(error->find(b.mentions), std::string::npos) << *error;
        EXPECT_EQ(session.jobError(Job::analyze(request)), error);

        // The builder runs the same check.
        auto builder = session.job().model(b.model);
        for (const auto &[name, value] : b.params)
            builder.param(name, value);
        for (const auto &[name, value] : b.options)
            builder.option(name, value);
        for (const auto &name : b.engines)
            builder.engine(name);
        EXPECT_FALSE(builder.build().has_value()) << *error;
        EXPECT_EQ(builder.error(), *error);
    }
}

TEST(Analytical, EveryDefaultAndBoundaryPassesItsCheck)
{
    const Session session;
    for (const auto &model : session.analytics().names()) {
        AnalyticalRequest request;
        request.model = model;
        EXPECT_EQ(session.analyzeError(request), std::nullopt) << model;
    }
    const struct
    {
        const char *model;
        std::map<std::string, double> params;
        std::map<std::string, std::string> options;
    } good[] = {
        {"fig10-pipelining",
         {{"instructions", 1024}},
         {{"op", "spmm_u"}}},
        {"blocksize-coverage", {{"cols", 256}, {"trials", 64}}, {}},
        {"fig15-unstructured", {{"degree", 0}, {"seed", 0}}, {}},
        {"dynamic-sparsity", {{"density", 1}}, {}},
        {"fig14-area-breakdown", {{"block_size", 16}}, {}},
        {"tune-prefilter", {{"pattern", 1}, {"cblocking", 3}},
         {{"kernel", "naive"}}},
        {"network-policy", {}, {{"network", "all"}}},
        {"micro-latency", {}, {{"op", "spmm_v"}}},
        // Every name a backend reads is accepted.
        {"fig3-roofline",
         {{"vector_gflops", 1}, {"matrix_gflops", 1}, {"memory_gbs", 1}},
         {}},
        {"fig10-pipelining",
         {{"dependent", 1}, {"output_forwarding", 1}},
         {}},
        {"network-policy", {{"output_forwarding", 0}}, {}},
        {"dynamic-sparsity",
         {{"registers", 8}, {"trials", 8}, {"seed", 1}},
         {}},
        {"tune-prefilter", {{"of", 1}}, {}},
        {"blocksize-hardware", {}, {{"baseline", "VEGETA-D-1-2"}}},
    };
    for (const auto &g : good) {
        AnalyticalRequest request;
        request.model = g.model;
        request.params = g.params;
        request.options = g.options;
        EXPECT_EQ(session.analyzeError(request), std::nullopt)
            << g.model;
    }
}

TEST(Analytical, PaperFidelityRowsArePinned)
{
    // The paper's quantitative claims against the model.  Each model
    // value is pinned to 1e-9 relative: a change that moves one must
    // update its pin here, and may only narrow a gap past its
    // tolerance by re-declaring the tolerance.
    const Session session;
    AnalyticalRequest request;
    request.model = "paper-fidelity";
    const auto result = session.analyze(request);
    const struct
    {
        const char *figure;
        double paper;
        double model;
        double tolerance;
    } pinned[] = {
        {"abstract, Fig 13", 1.09, 1.0633522044554764, 3},
        {"abstract, Fig 13", 2.20, 1.9686343021785653, 11},
        {"abstract, Fig 13", 3.74, 3.3350737890000985, 11},
        {"abstract, Fig 15", 3.28, 3.2467917477400454, 3},
        {"Fig 15", 2.36, 2.3428240679059074, 3},
        {"Fig 15", 1.00, 1.0266544922856611, 3},
        {"Fig 14", 1.06, 1.0598088752196835, 3},
        {"Fig 14, Sec VI-D", 1.17, 1.1639176963812885, 3},
        {"Fig 14, Sec VI-D", 1.08, 1.0835999558693734, 3},
        {"Fig 14, Sec VI-D", 1.04, 1.0434410856134155, 3},
        {"Fig 14, Sec VI-D", 1.03, 1.023361650485437, 3},
        {"Fig 14, Sec VI-D", 1.01, 1.0133219329214476, 3},
        {"Fig 10(d)", 17, 17, 0},
    };
    ASSERT_EQ(result.rows.size(), std::size(pinned));
    double headline_gap = 0;
    for (std::size_t i = 0; i < result.rows.size(); ++i) {
        SCOPED_TRACE(result.text(i, "anchor"));
        const auto &pin = pinned[i];
        EXPECT_EQ(result.text(i, "figure"), pin.figure);
        EXPECT_EQ(result.number(i, "paper"), pin.paper);
        EXPECT_NEAR(result.number(i, "model"), pin.model,
                    1e-9 * pin.model);
        EXPECT_EQ(result.number(i, "tolerance_%"), pin.tolerance);
        const double error = result.number(i, "rel_error_%");
        const double model = result.number(i, "model");
        EXPECT_DOUBLE_EQ(error, 100.0 * (model / pin.paper - 1.0));
        EXPECT_LE(std::abs(error), pin.tolerance);
        if (i < 3)
            headline_gap += std::abs(error) / 3;
    }
    // The benchmark ledger's paper_gap_pct: the mean |rel. error| of
    // the three headline rows.
    EXPECT_NEAR(headline_gap, 7.929426, 5e-7);
}

TEST(Analytical, MicroLatencyCarriesTableIII)
{
    const Session session;
    AnalyticalRequest request;
    request.model = "micro-latency";
    const auto result = session.analyze(request);
    const auto configs = session.engines().tableIIIConfigs();
    ASSERT_EQ(result.rows.size(), configs.size());
    for (std::size_t i = 0; i < configs.size(); ++i) {
        const auto &cfg = configs[i];
        EXPECT_EQ(result.text(i, "engine"), cfg.name);
        // Every Table III design keeps the same MAC count.
        EXPECT_EQ(result.number(i, "Nrows") *
                      result.number(i, "Ncols") *
                      result.number(i, "MACs/PE"),
                  double(engine::kTotalMacs))
            << cfg.name;
        EXPECT_EQ(result.number(i, "inputs/PE"),
                  double(cfg.inputsPerPe()));
        EXPECT_EQ(result.number(i, "alpha"), double(cfg.alpha));
        EXPECT_EQ(result.number(i, "drain"),
                  double(cfg.drainLatency()));
        EXPECT_EQ(result.text(i, "sparsity"),
                  cfg.sparse ? "1:4, 2:4, 4:4" : "Dense");
        EXPECT_EQ(result.text(i, "prior_work"), cfg.priorWorkLabel);
        EXPECT_EQ(result.number(i, "initiation_interval"),
                  double(engine::initiationInterval(cfg)));
    }
}

TEST(Analytical, VectorVsMatrixMatchesDirectModel)
{
    const Session session;
    AnalyticalRequest request;
    request.model = "fig4-vector-vs-matrix";
    const auto result = session.analyze(request);

    const auto direct = model::figure4Series({32, 64, 128});
    ASSERT_EQ(result.rows.size(), direct.size());
    for (std::size_t i = 0; i < direct.size(); ++i) {
        EXPECT_EQ(result.number(i, "dim"), double(direct[i].dim));
        EXPECT_EQ(result.number(i, "vector_instrs"),
                  double(direct[i].vectorInstructions));
        EXPECT_EQ(result.number(i, "matrix_cycles"),
                  double(direct[i].matrixCycles));
    }
}

TEST(Analytical, AreaPowerMatchesDirectModel)
{
    const Session session;
    AnalyticalRequest request;
    request.model = "fig14-area-power";
    const auto result = session.analyze(request);

    const auto direct =
        engine::figure14Series(engine::allTableIIIConfigs());
    ASSERT_EQ(result.rows.size(), direct.size());
    for (std::size_t i = 0; i < direct.size(); ++i) {
        EXPECT_EQ(result.text(i, "engine"), direct[i].name);
        EXPECT_NEAR(result.number(i, "norm_area"),
                    direct[i].normalizedArea, 1e-12);
        EXPECT_NEAR(result.number(i, "norm_power"),
                    direct[i].normalizedPower, 1e-12);
    }
    // Explicit engine selection narrows the series.
    request.engines = {"VEGETA-S-16-2"};
    const auto narrowed = session.analyze(request);
    ASSERT_EQ(narrowed.rows.size(), 1u);
    EXPECT_EQ(narrowed.text(0, "engine"), "VEGETA-S-16-2");
}

TEST(Analytical, PipeliningMatchesDirectSchedule)
{
    const Session session;
    AnalyticalRequest request;
    request.model = "fig10-pipelining";
    request.engines = {"VEGETA-S-16-2"};
    request.params["dependent"] = 1;
    request.params["output_forwarding"] = 1;
    const auto result = session.analyze(request);
    ASSERT_EQ(result.rows.size(), 4u);

    engine::PipelineModel model(engine::vegetaS162(), true);
    for (std::size_t i = 0; i < 4; ++i) {
        const auto op = model.issue(
            isa::makeTileGemm(isa::treg(5), isa::treg(4),
                              isa::treg(0)),
            0);
        EXPECT_EQ(result.number(i, "start"), double(op.start)) << i;
        EXPECT_EQ(result.number(i, "finish"), double(op.finish)) << i;
    }
}

TEST(Analytical, UnstructuredDegreeParamNarrowsSeries)
{
    const Session session;
    AnalyticalRequest request;
    request.model = "fig15-unstructured";
    request.workloads = {"BERT-L1", "BERT-L2"};
    request.params["degree"] = 0.95;
    const auto result = session.analyze(request);
    ASSERT_EQ(result.rows.size(), 1u);
    EXPECT_EQ(result.number(0, "degree_%"), 95.0);
    EXPECT_GT(result.number(0, "row-wise"), 1.0);
}

TEST(Analytical, BlockSizeBackendsProduceTradeoff)
{
    const Session session;

    AnalyticalRequest coverage;
    coverage.model = "blocksize-coverage";
    coverage.params["trials"] = 1;
    coverage.params["rows"] = 32;
    coverage.params["cols"] = 256;
    const auto cov = session.analyze(coverage);
    ASSERT_EQ(cov.rows.size(), 4u);
    // Larger M covers at least as tightly at every degree.
    for (std::size_t i = 0; i < cov.rows.size(); ++i)
        EXPECT_GE(cov.number(i, "M=16"), cov.number(i, "M=4")) << i;

    AnalyticalRequest hardware;
    hardware.model = "blocksize-hardware";
    const auto hw = session.analyze(hardware);
    ASSERT_EQ(hw.rows.size(), 3u);
    // ...but costs monotonically more area.
    EXPECT_LT(hw.number(0, "norm_area"), hw.number(1, "norm_area"));
    EXPECT_LT(hw.number(1, "norm_area"), hw.number(2, "norm_area"));
    EXPECT_EQ(hw.number(0, "metadata_bits/value"), 2.0);
    EXPECT_EQ(hw.number(2, "metadata_bits/value"), 4.0);
}

TEST(Analytical, ResultCellAccessorsAndTable)
{
    AnalyticalResult result;
    result.columns = {"name", "value"};
    auto &row = result.row();
    row.push_back(AnalyticalCell::text("alpha"));
    row.push_back(AnalyticalCell::number(1.25, 2));

    EXPECT_EQ(result.columnIndex("value"), 1u);
    EXPECT_EQ(result.text(0, "name"), "alpha");
    EXPECT_EQ(result.number(0, "value"), 1.25);
    EXPECT_EQ(result.rows[0][1].render(), "1.25");

    const Table table = result.table();
    EXPECT_EQ(table.numRows(), 1u);
}

TEST(Analytical, NetworkPolicyMatchesDirectModel)
{
    const Session session;
    AnalyticalRequest request;
    request.model = "network-policy";
    request.options["network"] = "resnet-front";
    request.engines = {"VEGETA-S-16-2"};
    const auto result = session.analyze(request);
    ASSERT_EQ(result.rows.size(), 1u);

    // Reference: each layer's materialized-trace replay, at its own
    // N and at the network's densest N, summed.
    const auto net = kernels::resnetFrontNetwork();
    const auto config = session.engines().find("VEGETA-S-16-2");
    u32 network_n = 1;
    for (const auto &layer : net.layers)
        network_n = std::max(network_n, layer.layerN);
    Cycles layer_wise = 0, network_wise = 0;
    for (const auto &layer : net.layers) {
        layer_wise += kernels::simulateLayer(layer.workload,
                                             layer.layerN, *config,
                                             true)
                          .coreCycles;
        network_wise += kernels::simulateLayer(layer.workload,
                                               network_n, *config,
                                               true)
                            .coreCycles;
    }
    EXPECT_EQ(result.number(0, "layer_wise_cycles"),
              double(layer_wise));
    EXPECT_EQ(result.number(0, "network_wise_cycles"),
              double(network_wise));
    // Flexible hardware beats the network-wide pattern on a mixed net.
    EXPECT_GT(result.number(0, "network_wise_slowdown"), 1.0);
}

TEST(Analytical, DynamicSparsityMatchesDirectModel)
{
    const Session session;
    AnalyticalRequest request;
    request.model = "dynamic-sparsity";
    request.params["registers"] = 16;
    request.params["trials"] = 64;
    request.params["density"] = 0.2;
    const auto result = session.analyze(request);
    ASSERT_EQ(result.rows.size(), 1u);
    EXPECT_EQ(result.number(0, "density_%"), 20.0);

    const auto direct = model::compactionStudy({0.2}, 16, 64, 0xd15c0);
    ASSERT_EQ(direct.size(), 1u);
    EXPECT_EQ(result.number(0, "vector_merge_prob"),
              direct[0].vectorMergeProb);
    EXPECT_EQ(result.number(0, "tile_merge_prob"),
              direct[0].tileMergeProb);
    // Merging 32-lane registers stays practical far past the point
    // where 512-lane tiles stop merging (the Section VII argument).
    EXPECT_GT(result.number(0, "vector_merge_prob"),
              result.number(0, "tile_merge_prob"));
}

TEST(Analytical, JsonAndCsvWritersAreWellFormedEnough)
{
    AnalyticalResult result;
    result.model = "demo";
    result.columns = {"name", "value"};
    auto &row = result.row();
    row.push_back(AnalyticalCell::text("alpha \"quoted\""));
    row.push_back(AnalyticalCell::number(1.25, 2));
    result.notes = {"a note"};

    std::ostringstream json;
    writeJson(json, result);
    const std::string text = json.str();
    EXPECT_EQ(text.front(), '{');
    EXPECT_NE(text.find("\"model\": \"demo\""), std::string::npos);
    EXPECT_NE(text.find("\"name\": \"alpha \\\"quoted\\\"\""),
              std::string::npos);
    EXPECT_NE(text.find("\"value\": 1.25"), std::string::npos);
    EXPECT_NE(text.find("\"notes\": [\"a note\"]"), std::string::npos);

    std::ostringstream csv;
    writeCsv(csv, result);
    EXPECT_NE(csv.str().find("name,value"), std::string::npos);
}

TEST(Analytical, RooflineShapeChecks)
{
    const Session session;
    AnalyticalRequest request;
    request.model = "fig3-roofline";
    const auto result = session.analyze(request);
    ASSERT_GT(result.rows.size(), 0u);

    const std::size_t last = result.rows.size() - 1;
    // At 100% density, dense == sparse per engine class.
    EXPECT_EQ(result.number(last, "density_%"), 100.0);
    EXPECT_NEAR(result.number(last, "dense_matrix"),
                result.number(last, "sparse_matrix"), 1e-9);
    // At low density, sparse engines beat dense ones.
    EXPECT_GT(result.number(0, "sparse_matrix"),
              result.number(0, "dense_matrix"));
}

} // namespace
} // namespace vegeta::sim
