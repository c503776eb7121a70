/**
 * @file
 * Analytical-registry tests: the facade's analytical backends must
 * reproduce the direct src/model and src/engine calls they wrap, and
 * requests must validate against the registries.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "engine/area_model.hpp"
#include "engine/pipeline.hpp"
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
          "blocksize-hardware"}) {
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

    const auto net = kernels::resnetFrontNetwork();
    const auto config = session.engines().find("VEGETA-S-16-2");
    const auto lw = kernels::simulateNetwork(
        net, *config, kernels::NetworkPolicy::LayerWise);
    const auto nw = kernels::simulateNetwork(
        net, *config, kernels::NetworkPolicy::NetworkWise);
    EXPECT_EQ(result.number(0, "layer_wise_cycles"),
              double(lw.totalCycles));
    EXPECT_EQ(result.number(0, "network_wise_cycles"),
              double(nw.totalCycles));
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
