/**
 * @file
 * Engine timing model: WL/FF/FS/DR staged execution with
 * multi-instruction pipelining and output forwarding (paper Sections
 * V-C, Figure 10).
 *
 * Stages of one tile GEMM/SPMM instruction on an Nrows x Ncols engine:
 *
 *   WL (weight load)  : Nrows cycles -- stationary weights trickle in.
 *   FF (feed first)   : Tn  cycles  -- inputs + C stream from west/north
 *                       until the top-left PE stops receiving.
 *   FS (feed second)  : Nrows - 1 cycles -- skewed tail of the feed.
 *   DR (drain)        : max(Ncols, log2(beta)+1) cycles -- horizontal
 *                       traversal + bottom reduction.
 *
 * Pipelining: consecutive instructions may overlap but no two can be in
 * the same stage at once.  Dependencies: a consumer of a register fully
 * written at producer completion waits for completion; an *accumulate*
 * (C) dependency can instead use output forwarding: C elements are
 * written back Nrows + log2(beta) cycles after being fed, in feed
 * order, so the dependent instruction's FF may start that many cycles
 * after the producer's FF.
 */

#ifndef VEGETA_ENGINE_PIPELINE_HPP
#define VEGETA_ENGINE_PIPELINE_HPP

#include <array>
#include <vector>

#include "engine/config.hpp"
#include "isa/instructions.hpp"

namespace vegeta::engine {

/** Per-stage latencies of one instruction. */
struct StageLatencies
{
    Cycles wl = 0;
    Cycles ff = 0;
    Cycles fs = 0;
    Cycles dr = 0;

    Cycles total() const { return wl + ff + fs + dr; }
    /** Offset of the FF stage from instruction start. */
    Cycles ffOffset() const { return wl; }
};

/** Timing of one scheduled instruction. */
struct ScheduledOp
{
    isa::Instruction instr;
    Cycles start = 0;    ///< WL begin
    Cycles ffStart = 0;  ///< FF begin (C read begins here)
    Cycles finish = 0;   ///< full C written back
};

/**
 * Incremental engine scheduler.  Feed tile-compute instructions in
 * program order with the cycle their register operands become available
 * (from the CPU model); the scheduler accounts for stage occupancy,
 * in-engine dependencies, and output forwarding, and reports when each
 * instruction starts and completes.
 */
class PipelineModel
{
  public:
    explicit PipelineModel(EngineConfig config,
                           bool output_forwarding = false);

    const EngineConfig &config() const { return config_; }
    bool outputForwarding() const { return output_forwarding_; }

    /** Stage latencies for one instruction on this engine. */
    StageLatencies stages(const isa::Instruction &instr) const;

    /**
     * Schedule one instruction whose non-tile operand constraints allow
     * it to start no earlier than earliest_start.  Returns its timing.
     */
    ScheduledOp issue(const isa::Instruction &instr, Cycles earliest_start);

    /**
     * Cycle at which reg (physical dep id) is available for a
     * *non-accumulate* read (i.e., full write-back done).
     */
    Cycles regReadyFull(u32 reg) const;

    /**
     * Forget the engine's write to reg because a younger non-engine
     * instruction (a tile load) has renamed it; with register renaming
     * the engine's old value can no longer be a RAW source.
     */
    void invalidateReg(u32 reg);

    /** Reset all scheduling state. */
    void reset();

    /** Words normalizedState() writes. */
    static constexpr u32 kStateWords = 1 + 4 + 2 * isa::kNumDepRegs;

    /**
     * The scheduling state as every later issue() sees it when no
     * instruction starts before engine cycle @p floor, relative to
     * the floor.  A time that can no longer win the max() it meets
     * is clamped to that max()'s floor, and the never-written
     * sentinel stays distinct.  Two states with equal words schedule
     * any later instruction stream identically, shifted by the
     * difference of their floors.
     */
    std::array<u64, kStateWords> normalizedState(Cycles floor) const;

    /** Delay every stored time by @p delta engine cycles. */
    void shift(Cycles delta);

    /** Convenience: schedule a whole instruction stream starting at 0,
     *  with only in-engine dependencies (used by timing studies). */
    std::vector<ScheduledOp>
    scheduleAll(const std::vector<isa::Instruction> &instrs);

    /** Completion time of everything issued so far. */
    Cycles busyUntil() const { return busy_until_; }

  private:
    EngineConfig config_;
    bool output_forwarding_;

    /** Stage exit times of the most recent instruction, per stage. */
    std::array<Cycles, 4> last_stage_exit_{};
    bool any_issued_ = false;

    // Per-register state, directly indexed by physical dependency id
    // (the space is 16 entries: tregs 0-7, mregs 8-15).  Zero is the
    // "never written / invalidated" sentinel in both arrays: a finish
    // time is start + wl + ff + dr >= 3 and an accumulate producer's
    // FF begin is start + wl >= 1, so no real entry can collide with
    // it.  Sentinel instead of paired valid flags keeps the register
    // accounting two flat cycle arrays -- max() against the sentinel
    // is a no-op, so the dependence scan stays branch-light, and a
    // bank of lane-replicated PipelineModels carries half the state.
    /** Per-register full write-back completion time (0 = invalid). */
    std::array<Cycles, isa::kNumDepRegs> reg_full_ready_{};
    /** FF start of the register's last *accumulate* producer (0 =
     *  none: never written, invalidated, or a non-accumulate write). */
    std::array<Cycles, isa::kNumDepRegs> reg_of_producer_ff_{};

    Cycles busy_until_ = 0;
};

/**
 * Back-to-back initiation interval of independent instructions: the
 * largest single stage latency (Figure 10a/b: 16 cycles for both
 * VEGETA-D-1-2 and VEGETA-S-16-2, bounded by total MAC throughput).
 */
Cycles initiationInterval(const EngineConfig &config);

/**
 * Latency in engine cycles of one isolated instruction (fill + feed +
 * drain with no overlap).
 */
Cycles isolatedLatency(const EngineConfig &config,
                       const isa::Instruction &instr);

} // namespace vegeta::engine

#endif // VEGETA_ENGINE_PIPELINE_HPP
