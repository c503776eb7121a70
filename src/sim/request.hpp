/**
 * @file
 * Typed simulation requests.
 *
 * A SimulationRequest is the full description of one simulator run:
 * what to simulate (a registered workload or explicit GEMM dims),
 * where (engine design point), and how (layer-wise N:4 pattern,
 * output forwarding, kernel variant, core overrides).  Requests are
 * plain data so they can be stored, compared, and sharded across
 * threads; sim/job.hpp's JobBuilder validates against the registries
 * and requestError so every request handed to the Session is
 * known-runnable.
 */

#ifndef VEGETA_SIM_REQUEST_HPP
#define VEGETA_SIM_REQUEST_HPP

#include <optional>
#include <string>

#include "cpu/trace_cpu.hpp"
#include "kernels/gemm_kernels.hpp"

namespace vegeta::sim {

/** Software kernel variant to generate the trace with. */
enum class KernelVariant
{
    Optimized, ///< C register-blocked across the k loop (evaluation)
    Naive,     ///< Listing 1: C loaded/stored inside the k loop
};

const char *kernelVariantName(KernelVariant variant);

/** One fully-specified simulator run. */
struct SimulationRequest
{
    /** Display label: the workload name or "MxNxK" for raw dims. */
    std::string label;
    kernels::GemmDims gemm;

    std::string engine;

    /** The layer's pruned pattern N:4 (1, 2, or 4). */
    u32 patternN = 4;

    /** Request OF; only takes effect on sparse engines. */
    bool outputForwarding = false;

    KernelVariant kernel = KernelVariant::Optimized;

    /** C tile registers blocked over the j loop (1..3, optimized). */
    u32 cBlocking = 3;

    /** Core model overrides (OF flag is set from the request). */
    cpu::CoreConfig core;
};

/**
 * Why @p request cannot run, its engine name aside (the registry's
 * business): zero GEMM dimensions, a pattern other than 1, 2 or 4, a
 * C blocking outside 1..3, or a core the replay model refuses
 * (cpu::TraceCpu::configError).  JobBuilder::build and
 * Session::jobError both call it, so a job from the wire is held to
 * what a built one is.
 */
std::optional<std::string>
requestError(const SimulationRequest &request);

/**
 * Strict "MxNxK" parser (rejects trailing garbage and zero dims),
 * shared by the CLI and JobBuilder.
 */
std::optional<kernels::GemmDims>
parseGemmSpec(const std::string &spec);

/**
 * Strict decimal u32 parser for CLI flags: digits only (no sign, no
 * trailing garbage, no empty string) and the value must fit in u32.
 * Unlike atoi, garbage and negatives are errors, not silent zeros.
 */
std::optional<u32> parseU32(const std::string &text);

} // namespace vegeta::sim

#endif // VEGETA_SIM_REQUEST_HPP
