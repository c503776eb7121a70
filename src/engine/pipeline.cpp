#include "engine/pipeline.hpp"

#include <algorithm>

#include "common/logging.hpp"

namespace vegeta::engine {

PipelineModel::PipelineModel(EngineConfig config, bool output_forwarding)
    : config_(std::move(config)), output_forwarding_(output_forwarding)
{
}

StageLatencies
PipelineModel::stages(const isa::Instruction &instr) const
{
    VEGETA_ASSERT(isa::isTileCompute(instr.op), "engine executes only ",
                  "tile-compute instructions, got ",
                  isa::opcodeName(instr.op));
    VEGETA_ASSERT(config_.supportsOpcode(instr.op), config_.name,
                  " cannot execute ", isa::opcodeName(instr.op));

    StageLatencies lat;
    lat.wl = config_.nRows();
    lat.ff = kTileN;
    lat.fs = config_.nRows() - 1;
    lat.dr = config_.drainLatency();
    return lat;
}

ScheduledOp
PipelineModel::issue(const isa::Instruction &instr, Cycles earliest_start)
{
    const StageLatencies lat = stages(instr);
    const std::array<Cycles, 4> len = {lat.wl, lat.ff, lat.fs, lat.dr};

    Cycles start = earliest_start;

    // Stage occupancy: instruction i's entry into stage s must wait for
    // instruction i-1 to leave stage s.  Stage s of this instruction
    // begins at start + offset(s).
    if (any_issued_) {
        Cycles offset = 0;
        for (u32 s = 0; s < 4; ++s) {
            if (last_stage_exit_[s] > offset)
                start = std::max(start, last_stage_exit_[s] - offset);
            offset += len[s];
        }
    }

    // Register dependencies.
    const isa::RegList accumulate = instr.accumulateRegList();
    auto is_accumulate = [&](u32 reg) {
        return accumulate.contains(reg);
    };

    for (u32 reg : instr.readRegList()) {
        const Cycles full_ready = reg_full_ready_[reg];
        if (full_ready == 0) // sentinel: never engine-written
            continue;
        if (is_accumulate(reg)) {
            // The C operand is not needed until the FF stage begins
            // (Figure 10c: the dependent instruction's WL overlaps the
            // producer's tail even without OF).
            Cycles ff_earliest = full_ready;
            if (output_forwarding_) {
                // OF: C may be read once the producer has begun
                // writing it back, Nrows + log2(beta) cycles after the
                // producer's FF begin, element by element in the same
                // order (Figure 10d).
                const Cycles producer_ff =
                    reg_of_producer_ff_[reg];
                if (producer_ff != 0) {
                    const Cycles of_delay =
                        config_.nRows() + config_.reductionDepth();
                    ff_earliest = producer_ff + of_delay;
                }
            }
            if (ff_earliest > lat.ffOffset())
                start = std::max(start, ff_earliest - lat.ffOffset());
        } else {
            // A/B operands are stationary weights / west inputs needed
            // from WL onward: wait for the full write-back.
            start = std::max(start, full_ready);
        }
    }

    // WAW on outputs: never reorder write-back of the same register
    // (the zero sentinel makes the max() a no-op for untouched regs).
    for (u32 reg : instr.writeRegList()) {
        if (!is_accumulate(reg))
            start = std::max(start, reg_full_ready_[reg]);
    }

    ScheduledOp op;
    op.instr = instr;
    op.start = start;
    op.ffStart = start + lat.ffOffset();
    op.finish = start + lat.total();

    // Update stage exits.
    Cycles offset = 0;
    for (u32 s = 0; s < 4; ++s) {
        last_stage_exit_[s] = start + offset + len[s];
        offset += len[s];
    }
    any_issued_ = true;

    for (u32 reg : instr.writeRegList()) {
        reg_full_ready_[reg] = op.finish;
        reg_of_producer_ff_[reg] = is_accumulate(reg) ? op.ffStart : 0;
    }

    busy_until_ = std::max(busy_until_, op.finish);
    return op;
}

Cycles
PipelineModel::regReadyFull(u32 reg) const
{
    VEGETA_ASSERT(reg < isa::kNumDepRegs, "dep-reg id out of range");
    return reg_full_ready_[reg]; // 0 = never written, same contract
}

void
PipelineModel::invalidateReg(u32 reg)
{
    VEGETA_ASSERT(reg < isa::kNumDepRegs, "dep-reg id out of range");
    reg_full_ready_[reg] = 0;
    reg_of_producer_ff_[reg] = 0;
}

void
PipelineModel::reset()
{
    last_stage_exit_.fill(0);
    any_issued_ = false;
    reg_full_ready_.fill(0);
    reg_of_producer_ff_.fill(0);
    busy_until_ = 0;
}

std::array<u64, PipelineModel::kStateWords>
PipelineModel::normalizedState(Cycles floor) const
{
    std::array<u64, kStateWords> words;
    u64 *out = words.data();
    // Every later start is >= floor, and issue() maxes stage exits
    // and full-ready times into the start (less a non-negative
    // offset), so neither wins at or below the floor.  An OF
    // producer's FF is read only with OF, plus the forwarding delay.
    const Cycles of_delay = config_.nRows() + config_.reductionDepth();
    *out++ = any_issued_;
    for (const Cycles exit : last_stage_exit_)
        *out++ = std::max(exit, floor) - floor;
    for (const Cycles ready : reg_full_ready_)
        *out++ = ready == 0 ? 0 : std::max(ready, floor) - floor + 1;
    for (const Cycles ff : reg_of_producer_ff_) {
        // max(ff + of_delay, floor) - floor + 1, kept non-zero.
        *out++ = ff == 0 || !output_forwarding_
                     ? 0
                     : std::max(ff + of_delay, floor) - floor + 1;
    }
    return words;
}

void
PipelineModel::shift(Cycles delta)
{
    if (!any_issued_)
        return;
    for (Cycles &exit : last_stage_exit_)
        exit += delta;
    for (Cycles &ready : reg_full_ready_)
        if (ready != 0)
            ready += delta;
    for (Cycles &ff : reg_of_producer_ff_)
        if (ff != 0)
            ff += delta;
    busy_until_ += delta;
}

std::vector<ScheduledOp>
PipelineModel::scheduleAll(const std::vector<isa::Instruction> &instrs)
{
    std::vector<ScheduledOp> out;
    out.reserve(instrs.size());
    for (const auto &instr : instrs)
        out.push_back(issue(instr, 0));
    return out;
}

Cycles
initiationInterval(const EngineConfig &config)
{
    const StageLatencies lat = {config.nRows(), kTileN,
                                config.nRows() - 1,
                                config.drainLatency()};
    return std::max({lat.wl, lat.ff, lat.fs, lat.dr});
}

Cycles
isolatedLatency(const EngineConfig &config, const isa::Instruction &instr)
{
    PipelineModel model(config);
    return model.issue(instr, 0).finish;
}

} // namespace vegeta::engine
