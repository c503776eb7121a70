/**
 * @file
 * Network-level sparsity tests: the reference networks, and the
 * layer-wise vs network-wise policy rows of the `network-policy`
 * model.
 */

#include <gtest/gtest.h>

#include "kernels/network.hpp"
#include "sim/session.hpp"

namespace vegeta::kernels {
namespace {

Network
tinyNetwork()
{
    Workload a;
    a.name = "tiny-a";
    a.gemm = {32, 32, 256};
    Workload b;
    b.name = "tiny-b";
    b.gemm = {32, 32, 512};
    Network net;
    net.name = "tiny";
    net.layers = {{a, 2}, {b, 1}};
    return net;
}

/**
 * The model's rows for both reference networks on a dense, a
 * single-pattern and a flexible sparse engine (computed once).
 */
const sim::AnalyticalResult &
policyRows()
{
    static const sim::AnalyticalResult result = [] {
        const sim::Session session;
        sim::AnalyticalRequest request;
        request.model = "network-policy";
        request.engines = {"VEGETA-D-1-2", "STC-like", "VEGETA-S-16-2"};
        return session.analyze(request);
    }();
    return result;
}

/** The row index of (@p network, @p engine); fails when absent. */
std::size_t
rowOf(const std::string &network, const std::string &engine)
{
    const auto &result = policyRows();
    for (std::size_t i = 0; i < result.rows.size(); ++i)
        if (result.text(i, "network") == network &&
            result.text(i, "engine") == engine)
            return i;
    ADD_FAILURE() << "no row for " << network << " on " << engine;
    return 0;
}

TEST(Network, TotalMacsSumsLayers)
{
    const auto net = tinyNetwork();
    EXPECT_EQ(net.totalMacs(),
              32ull * 32 * 256 + 32ull * 32 * 512);
}

TEST(Network, LayerWiseBeatsNetworkWiseOnFlexibleHw)
{
    // Network-wise runs every 1:4 layer at the network's densest
    // pattern; VEGETA-S-16-2 would have run it faster at 1:4.
    for (const char *net : {"ResNet50-front", "BERT-encoder"}) {
        const std::size_t row = rowOf(net, "VEGETA-S-16-2");
        const auto &result = policyRows();
        EXPECT_LT(result.number(row, "layer_wise_cycles"),
                  result.number(row, "network_wise_cycles"))
            << net;
        EXPECT_GT(result.number(row, "network_wise_slowdown"), 1.0)
            << net;
    }
}

TEST(Network, PoliciesEqualWhenHardwarePatternCoversMix)
{
    // STC-like executes 1:4 as 2:4, and BERT-encoder's densest layer
    // is 2:4: both policies run the same N on every layer.
    const std::size_t row = rowOf("BERT-encoder", "STC-like");
    const auto &result = policyRows();
    EXPECT_EQ(result.number(row, "layer_wise_cycles"),
              result.number(row, "network_wise_cycles"));
    EXPECT_EQ(result.number(row, "network_wise_slowdown"), 1.0);
}

TEST(Network, DenseEngineIndifferentToPolicy)
{
    for (const char *net : {"ResNet50-front", "BERT-encoder"}) {
        const std::size_t row = rowOf(net, "VEGETA-D-1-2");
        const auto &result = policyRows();
        EXPECT_EQ(result.number(row, "layer_wise_cycles"),
                  result.number(row, "network_wise_cycles"))
            << net;
        EXPECT_EQ(result.number(row, "network_wise_slowdown"), 1.0)
            << net;
    }
}

TEST(Network, ReferenceNetworksBuild)
{
    const auto resnet = resnetFrontNetwork();
    EXPECT_EQ(resnet.layers.size(), 6u);
    const auto bert = bertEncoderNetwork();
    EXPECT_EQ(bert.layers.size(), 5u);
    for (const auto &l : bert.layers)
        EXPECT_TRUE(l.layerN == 1 || l.layerN == 2 || l.layerN == 4);
}

} // namespace
} // namespace vegeta::kernels
