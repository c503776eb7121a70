/**
 * @file
 * Network-level sparsity studies.
 *
 * VEGETA's design is motivated by layer-wise N:M sparsity: "adopting
 * layer-wise N:M sparsity shows better accuracy compared to
 * network-wise" (Section III-B, citing DominoSearch).  Hardware that
 * only supports one network-wide pattern (e.g. an STC-like 2:4 engine)
 * must run every layer at the densest pattern any layer needs; VEGETA
 * executes each layer at its own N.
 *
 * This module models a network as a sequence of layers with per-layer
 * patterns.  The analytical `network-policy` model (sim/analytical)
 * replays each network on an engine under both execution policies.
 */

#ifndef VEGETA_KERNELS_NETWORK_HPP
#define VEGETA_KERNELS_NETWORK_HPP

#include "kernels/workloads.hpp"

namespace vegeta::kernels {

/** One layer of a sparse network. */
struct NetworkLayer
{
    Workload workload;
    u32 layerN = 4; ///< the pattern this layer is pruned to (1/2/4)
};

/** A named network: an ordered list of sparse layers. */
struct Network
{
    std::string name;
    std::vector<NetworkLayer> layers;

    u64 totalMacs() const;
};

/**
 * Reference networks built from Table IV layers with the mixed
 * per-layer patterns a DominoSearch-style pruner would produce.
 */
Network resnetFrontNetwork();
Network bertEncoderNetwork();

} // namespace vegeta::kernels

#endif // VEGETA_KERNELS_NETWORK_HPP
