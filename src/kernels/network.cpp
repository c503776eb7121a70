#include "kernels/network.hpp"

#include "common/logging.hpp"

namespace vegeta::kernels {

u64
Network::totalMacs() const
{
    u64 total = 0;
    for (const auto &layer : layers)
        total += layer.workload.gemm.macs();
    return total;
}

namespace {

NetworkLayer
layer(const std::string &name, u32 n)
{
    for (const auto &w : tableIVWorkloads())
        if (w.name == name)
            return {w, n};
    VEGETA_PANIC("unknown Table IV layer: ", name);
}

} // namespace

Network
resnetFrontNetwork()
{
    // A DominoSearch-style mix: early layers stay denser (accuracy
    // sensitive), deeper layers prune harder.
    Network net;
    net.name = "ResNet50-front";
    net.layers = {
        layer("ResNet50-L1", 4), layer("ResNet50-L2", 2),
        layer("ResNet50-L3", 2), layer("ResNet50-L4", 2),
        layer("ResNet50-L5", 1), layer("ResNet50-L6", 1),
    };
    return net;
}

Network
bertEncoderNetwork()
{
    // One encoder block: QKV + attention-out + FFN layers with the
    // FFN pruned harder than the attention projections.
    Network net;
    net.name = "BERT-encoder";
    net.layers = {
        layer("BERT-L1", 2), layer("BERT-L2", 2), layer("BERT-L3", 2),
        layer("BERT-L1", 1), layer("BERT-L3", 1),
    };
    return net;
}

} // namespace vegeta::kernels
