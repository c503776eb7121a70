#include "cpu/trace_cpu.hpp"

#include <algorithm>

#include "common/logging.hpp"
#include "sim/telemetry.hpp"

namespace vegeta::cpu {

namespace {

u64
ringSize(u64 min_entries)
{
    u64 size = 1;
    while (size < min_entries)
        size *= 2;
    return size;
}

} // namespace

/** The steady-state skip's state (see the section below). */
struct TraceCpu::Skip
{
    /** One op of the segment a skip repeats. */
    struct SegmentOp
    {
        TraceOp op;
        u64 shape = 0; ///< kind, opcode, registers and line count
        u64 hits = 0;  ///< L1-hit mask of its lines
    };

    /** Equal safe segments in a row, skipped ones included. */
    u64 streak = 0;
    /** Length of the last run that reached kArmAfter (0 = none). */
    u64 last_run = 0;
    /** Run length at which a skip is attempted. */
    u64 arm_after = kArmAfter;
    /** Whether an attempt failed, or a skip ran, in this run. */
    bool run_failed = false;
    bool run_skipped = false;
    /** tryArm's settle check at the last boundary. */
    std::array<Cycles, 3> settle{};
    /** segmentSignature at the last boundary, and its last delta. */
    u64 segment_start = 0;
    u64 segment_delta = 0;

    /** Normalized state at the recorded segment's start. */
    std::vector<u64> snapshot;
    Cycles snapshot_base = 0;
    std::array<SegmentOp, kMaxSegment> segment{};
    u32 segment_len = 0;
    // The recorded segment's share of the statistics.
    std::array<u64, 8> segment_kinds{};
    u64 segment_engine = 0;
    u64 segment_macs = 0;
    u64 segment_fills = 0;
    /** Latencies the skip probed for the op step() schedules next. */
    std::array<Cycles, kProbeBatch> probe_buffer{};

    /** Core cycles each repeated segment advances every time. */
    Cycles delta = 0;
    /** Segments matched so far, and ops into the current one. */
    u64 count = 0;
    u32 pos = 0;
    /** L1 hits at the last matched segment boundary. */
    u64 boundary_hits = 0;

    // replay.memo.{hits,misses,ops} of the current stream.
    u64 hits = 0;
    u64 misses = 0;
    u64 skipped_ops = 0;

    /** Forget the stream's runs and counts; keeps the buffers. */
    void
    resetStream()
    {
        streak = 0;
        last_run = 0;
        arm_after = kArmAfter;
        run_failed = false;
        run_skipped = false;
        settle = {};
        segment_start = 0;
        segment_delta = 0;
        count = 0;
        pos = 0;
        hits = 0;
        misses = 0;
        skipped_ops = 0;
    }
};

TraceCpu::TraceCpu(CoreConfig core, engine::EngineConfig engine)
    : core_(std::move(core)), engine_config_(std::move(engine)),
      cache_(core_.cache),
      engine_(engine_config_, core_.outputForwarding)
{
    VEGETA_ASSERT(core_.fetchWidth > 0 && core_.retireWidth > 0 &&
                      core_.robEntries > 0,
                  "degenerate core configuration");
    VEGETA_ASSERT(core_.loadBufferEntries > 0,
                  "degenerate load buffer");
    VEGETA_ASSERT(core_.numAlus > 0 && core_.numAlus <= kMaxUnits &&
                      core_.numLsuPorts > 0 &&
                      core_.numLsuPorts <= kMaxUnits &&
                      core_.numVectorFus > 0 &&
                      core_.numVectorFus <= kMaxUnits,
                  "resource pools support 1..16 units");

    // The rings and load buffer need no clearing, here or in reset():
    // every slot is written before the op-index guards allow it to be
    // read.
    const u64 ring = ringSize(
        std::max<u64>({core_.fetchWidth, core_.retireWidth,
                       core_.robEntries}) +
        1);
    ring_mask_ = ring - 1;
    dispatch_ring_.assign(ring, 0);
    retire_ring_.assign(ring, 0);
    load_buffer_.assign(core_.loadBufferEntries, 0);
    skip_ = std::make_unique<Skip>();
    u64 words = 0;
    visitNormalizedState([&](u64) { return ++words, true; });
    skip_->snapshot.assign(words, 0);
}

TraceCpu::~TraceCpu() = default;

Cycles
TraceCpu::toEngineCycles(Cycles core) const
{
    // Round up: an engine instruction can begin at the next engine
    // clock edge at or after the core-cycle issue.
    const u32 div = core_.engineClockDivider;
    return (core + div - 1) / div;
}

Cycles
TraceCpu::toCoreCycles(Cycles eng) const
{
    return eng * core_.engineClockDivider;
}

Cycles
TraceCpu::acquireUnit(UnitPool &pool, u32 units, Cycles earliest)
{
    u32 best = 0;
    for (u32 u = 1; u < units; ++u)
        if (pool[u] < pool[best])
            best = u;
    const Cycles start = std::max(earliest, pool[best]);
    pool[best] = start + 1;
    return start;
}

Cycles
TraceCpu::issueLineRange(Cycles earliest, Addr addr, u64 bytes)
{
    // Span from the first to the last touched line: a 64 B load at
    // line offset 32 touches two lines, which a ceil(bytes / 64)
    // would undercount for unaligned addresses.
    const u64 first = addr / kLineBytes;
    const u64 last = (addr + std::max<u64>(bytes, 1) - 1) / kLineBytes;
    const u64 count = last - first + 1;
    bool may_alias_store =
        first <= stored_line_max_ && last >= stored_line_min_;

    // Phase 1: cache probes.  They take no input from the port/
    // load-buffer chain, so probing the whole range up front, in
    // range order, evolves the cache exactly as the serial loop
    // would -- as one specialized span instead of a tag scan threaded
    // through the issue chain.  Only the scratch size bounds the
    // batch; a longer range (no real kernel emits one) probes inside
    // the loop.
    Cycles scratch[kProbeBatch];
    const Cycles *probe = scratch;
    const bool batched = count <= kProbeBatch;
    if (probed_ != nullptr) [[unlikely]] {
        // The steady-state skip probed this range already and found
        // none of its lines stored.
        probe = probed_;
        probed_ = nullptr;
        may_alias_store = false;
    } else if (batched) {
        cache_.probeSpan(first * u64{kLineBytes}, kLineBytes, count,
                         scratch);
    }

    // Phase 2: the serial issue loop (port contention + load-buffer
    // occupancy + store forwarding).  The ring state lives in locals:
    // member stores would otherwise force a reload per line.
    const u32 lb_entries = core_.loadBufferEntries;
    const u32 lsu_units = core_.numLsuPorts;
    Cycles *lb = load_buffer_.data();
    u64 lb_fills = lb_fills_;
    u32 lb_cursor = lb_cursor_;
    Cycles complete = earliest;
    for (u64 line = first; line <= last; ++line) {
        // A new line fill needs a free load-buffer entry: wait for
        // the entry allocated lb_entries fills ago, whose completion
        // time still sits in the ring slot about to be overwritten.
        Cycles line_earliest = earliest;
        if (lb_fills >= lb_entries)
            line_earliest = std::max(line_earliest, lb[lb_cursor]);
        if (may_alias_store) {
            if (const Cycles *st = store_line_ready_.find(line))
                line_earliest = std::max(line_earliest, *st);
        }
        const Cycles port =
            acquireUnit(lsu_free_, lsu_units, line_earliest);
        const Cycles latency =
            batched ? probe[line - first]
                    : cache_.accessLine(line * u64{kLineBytes});
        const Cycles line_done = port + latency;
        lb[lb_cursor] = line_done;
        if (++lb_cursor == lb_entries)
            lb_cursor = 0;
        ++lb_fills;
        complete = std::max(complete, line_done);
    }
    lb_fills_ = lb_fills;
    lb_cursor_ = lb_cursor;
    return complete;
}

void
TraceCpu::recordStoreRange(Cycles data_ready, Addr addr, u64 bytes)
{
    const u64 first = addr / kLineBytes;
    const u64 last = (addr + std::max<u64>(bytes, 1) - 1) / kLineBytes;
    stored_line_min_ = std::min(stored_line_min_, first);
    stored_line_max_ = std::max(stored_line_max_, last);
    for (u64 line = first; line <= last; ++line)
        store_line_ready_.insertOrAssign(line, data_ready);
}

namespace {

/** Bytes a tile load brings in. */
u32
tileLoadBytes(const isa::Instruction &tile)
{
    return tile.op == isa::Opcode::TileLoadM
               ? isa::kMregBytes + isa::kMregDescBytes
               : isa::regClassBytes(tile.dst.cls);
}

} // namespace

void
TraceCpu::reset()
{
    cache_.reset();
    engine_.reset();
    alu_free_.fill(0);
    lsu_free_.fill(0);
    vec_free_.fill(0);
    lb_fills_ = 0;
    lb_cursor_ = 0;
    rename_ready_.fill(0);
    rename_engine_.fill(0);
    vector_chains_.clear();
    store_line_ready_.clear();
    stored_line_min_ = ~u64{0};
    stored_line_max_ = 0;
    ops_ = 0;
    last_retire_ = 0;
    kind_counts_.fill(0);
    engine_instructions_ = 0;
    engine_last_finish_ = 0;
    effectual_macs_ = 0;
    memo_ = Memo::Off;
    probed_ = nullptr;
    skip_->resetStream();
}

void
TraceCpu::step(const TraceOp &op)
{
    // Reject ops that would index outside the fixed kind/register
    // tables: step() is a public sink fed by arbitrary producers,
    // trace files included.
    VEGETA_ASSERT(static_cast<u32>(op.kind) < kind_counts_.size(),
                  "trace op with invalid kind");
    if (memo_ != Memo::Off && memoStep(op)) [[unlikely]]
        return;
    const u64 i = ops_++;
    ++kind_counts_[static_cast<u32>(op.kind)];

    // Dispatch: fetch width, program order, ROB space.
    Cycles d = core_.frontEndDepth;
    if (i > 0)
        d = std::max(d, dispatch_ring_[(i - 1) & ring_mask_]);
    if (i >= core_.fetchWidth)
        d = std::max(
            d, dispatch_ring_[(i - core_.fetchWidth) & ring_mask_] + 1);
    if (i >= core_.robEntries)
        d = std::max(d,
                     retire_ring_[(i - core_.robEntries) & ring_mask_]);
    dispatch_ring_[i & ring_mask_] = d;

    Cycles complete = d;
    switch (op.kind) {
      case UopKind::Alu: {
        complete = acquireUnit(alu_free_, core_.numAlus, d) + 1;
        break;
      }
      case UopKind::Branch: {
        complete = acquireUnit(alu_free_, core_.numAlus, d) + 1;
        endSegment();
        break;
      }
      case UopKind::Load: {
        complete = issueLineRange(d, op.addr, op.bytes);
        break;
      }
      case UopKind::Store: {
        // Stores retire from the store queue post-commit; occupy a
        // port for address generation only.
        complete = acquireUnit(lsu_free_, core_.numLsuPorts, d) + 1;
        recordStoreRange(complete, op.addr, op.bytes);
        break;
      }
      case UopKind::VectorFma: {
        Cycles ready = d;
        if (op.chain != 0) {
            if (const Cycles *it = vector_chains_.find(op.chain))
                ready = std::max(ready, *it);
        }
        complete = acquireUnit(vec_free_, core_.numVectorFus, ready) +
                   core_.vectorFmaLatency;
        if (op.chain != 0)
            vector_chains_.insertOrAssign(op.chain, complete);
        break;
      }
      case UopKind::TileLoad: {
        complete =
            issueLineRange(d, op.tile.addr, tileLoadBytes(op.tile));
        for (u32 reg : op.tile.writeRegList()) {
            rename_ready_[reg] = complete;
            rename_engine_[reg] = 0;
            engine_.invalidateReg(reg);
        }
        break;
      }
      case UopKind::TileStore: {
        Cycles ready = d;
        for (u32 reg : op.tile.readRegList()) {
            Cycles reg_ready = rename_ready_[reg];
            if (rename_engine_[reg])
                reg_ready = std::max(
                    reg_ready, toCoreCycles(engine_.regReadyFull(reg)));
            ready = std::max(ready, reg_ready);
        }
        complete = issueLineRange(ready, op.tile.addr, isa::kTregBytes);
        recordStoreRange(complete, op.tile.addr, isa::kTregBytes);
        break;
      }
      case UopKind::TileCompute: {
        // Non-engine (load-produced) operand readiness; engine-
        // produced operands are sequenced inside PipelineModel,
        // including output forwarding on the accumulator.
        Cycles ready = d;
        for (u32 reg : op.tile.readRegList()) {
            if (!rename_engine_[reg])
                ready = std::max(ready, rename_ready_[reg]);
        }
        const engine::ScheduledOp sched =
            engine_.issue(op.tile, toEngineCycles(ready));
        complete = toCoreCycles(sched.finish);
        for (u32 reg : op.tile.writeRegList()) {
            rename_ready_[reg] = complete;
            rename_engine_[reg] = 1;
        }
        ++engine_instructions_;
        engine_last_finish_ = std::max(engine_last_finish_, complete);
        effectual_macs_ += isa::effectualMacs(op.tile.op);
        break;
      }
    }

    // In-order retirement, retireWidth per cycle.
    Cycles r = complete;
    if (i > 0)
        r = std::max(r, retire_ring_[(i - 1) & ring_mask_]);
    if (i >= core_.retireWidth)
        r = std::max(
            r, retire_ring_[(i - core_.retireWidth) & ring_mask_] + 1);
    retire_ring_[i & ring_mask_] = r;
    last_retire_ = r;
}

// --- Steady-state skip ---------------------------------------------
//
// A segment is the run of ops after one Branch up to and including
// the next.  After kArmAfter equal segments (equal deltas of ops,
// load-buffer fills, L1 hits and engine instructions, and no store or
// vector op) the core snapshots its normalized state at a boundary,
// records the next segment op by op, and compares the state at the
// segment's end with the snapshot.  Equal: the segment is a fixed
// point -- replaying it again leaves the same state shifted by the
// difference of the two boundaries' bases -- and every later segment
// that matches it op for op, latency for latency, is counted instead
// of scheduled.  docs/REPLAY.md has the proof obligations.

u64
TraceCpu::segmentSignature(u64 hits) const
{
    // One bit field per counter, so that one subtraction yields every
    // per-segment delta.  A delta that overflows its field only makes
    // two segments look alike or different to the arming heuristic;
    // what is skipped is decided by the exact check.
    const auto count = [&](UopKind kind) {
        return kind_counts_[static_cast<u32>(kind)];
    };
    const u64 unsafe = count(UopKind::Store) +
                       count(UopKind::VectorFma) +
                       count(UopKind::TileStore);
    return ops_ + (lb_fills_ << 16) + (hits << 32) +
           (engine_instructions_ << 44) + (unsafe << 56);
}

void
TraceCpu::endSegment()
{
    // Called once per scheduled Branch, after its counts; kept short,
    // since layers that never repeat pay it too.
    Skip &s = *skip_;
    ++s.misses;
    const u64 now = segmentSignature(cache_.hits());
    const u64 delta = now - s.segment_start;
    const bool same = delta == s.segment_delta;
    s.segment_start = now;
    s.segment_delta = delta;
    if (!same || delta >> 56 != 0)
        endRun(delta >> 56 == 0);
    else if (++s.streak >= s.arm_after && memo_ == Memo::Off)
        tryArm();
}

void
TraceCpu::endRun(bool safe)
{
    Skip &s = *skip_;
    if (s.streak >= kArmAfter) {
        // A run long enough to arm in has ended.  If every attempt
        // in it failed, start later in the next ones; a run with no
        // attempt moves the start back by one, so that one odd run
        // cannot rule out the stream's later ones for good.
        s.last_run = s.streak;
        if (s.run_failed && !s.run_skipped)
            s.arm_after =
                std::min(s.arm_after + s.arm_after / 2, kMaxArmAfter);
        else if (!s.run_failed && !s.run_skipped)
            s.arm_after = std::max<u64>(s.arm_after - 1, kArmAfter);
    }
    s.streak = safe ? 1 : 0;
    s.run_failed = false;
    s.run_skipped = false;
}

void
TraceCpu::tryArm()
{
    // Arm only when the last run of this length suggests enough
    // segments remain to pay for the snapshot and the recorded one.
    Skip &s = *skip_;
    const u64 window = std::max<u64>(
        {core_.fetchWidth, core_.retireWidth, core_.robEntries});
    if (ops_ < window ||
        (s.last_run != 0 && s.last_run < s.streak + 1 + kMinSkip))
        return;
    if (s.run_failed) {
        // After a failed attempt, retry only once a cheap part of the
        // state -- the dispatch phase and when the next LSU port and
        // load-buffer entry free up -- repeats between boundaries.
        const Cycles d = dispatch_ring_[(ops_ - 1) & ring_mask_];
        Cycles lsu = lsu_free_[0];
        for (u32 u = 1; u < core_.numLsuPorts; ++u)
            lsu = std::min(lsu, lsu_free_[u]);
        const std::array<Cycles, 3> settle = {
            d % core_.engineClockDivider, std::max(lsu, d) - d,
            std::max(load_buffer_[lb_cursor_], d) - d};
        const bool settled = settle == s.settle;
        s.settle = settle;
        if (!settled)
            return;
    }
    memo_ = Memo::Armed;
}

void
TraceCpu::backOff()
{
    Skip &s = *skip_;
    memo_ = Memo::Off;
    s.run_failed = true;
    s.settle = {};
}

Cycles
TraceCpu::boundaryBase() const
{
    const Cycles d = dispatch_ring_[(ops_ - 1) & ring_mask_];
    return d - d % core_.engineClockDivider;
}

/**
 * Feed @p word the normalized state at a segment boundary, cheapest
 * and most telling parts first; stops early (returning false) when
 * @p word does.  With D the last op's dispatch and B = D rounded
 * down to an engine clock edge, every time is stored relative to B
 * and clamped to the floor below which the max() consuming it can
 * no longer pick it: every later op dispatches at or after D, so
 * issues, completes and starts engine work no earlier.
 */
template <typename Word>
bool
TraceCpu::visitNormalizedState(Word &&word) const
{
    const u64 last = ops_ - 1;
    const Cycles d = dispatch_ring_[last & ring_mask_];
    const Cycles base = d - d % core_.engineClockDivider;
    const auto at_least = [&](Cycles t, Cycles floor) {
        return std::max(t, floor) - base;
    };

    // d = max(disp[i-1], disp[i-fetchWidth] + 1, ...): kept exact.
    for (u64 j = 0; j < core_.fetchWidth; ++j)
        if (!word(dispatch_ring_[(last - j) & ring_mask_] - base))
            return false;
    // Units are interchangeable: compare each pool as a sorted set.
    const auto pool = [&](const UnitPool &units, u32 count) {
        UnitPool sorted = units;
        std::sort(sorted.begin(), sorted.begin() + count);
        for (u32 u = 0; u < count; ++u)
            if (!word(at_least(sorted[u], d)))
                return false;
        return true;
    };
    if (!pool(alu_free_, core_.numAlus) ||
        !pool(lsu_free_, core_.numLsuPorts) ||
        !pool(vec_free_, core_.numVectorFus))
        return false;
    u64 engine_produced = 0;
    for (u32 reg = 0; reg < isa::kNumDepRegs; ++reg) {
        if (!word(at_least(rename_ready_[reg], d)))
            return false;
        engine_produced |= u64{rename_engine_[reg]} << reg;
    }
    if (!word(engine_produced))
        return false;
    for (const u64 w :
         engine_.normalizedState(base / core_.engineClockDivider))
        if (!word(w))
            return false;
    // r = max(complete >= D, r[i-1], r[i-retireWidth] + 1) and
    // d >= r[i-robEntries]: a retire time wins only above D - 1.
    const u64 retire_window =
        std::max(core_.retireWidth, core_.robEntries);
    for (u64 j = 0; j < retire_window; ++j) {
        const Cycles r = retire_ring_[(last - j) & ring_mask_];
        if (!word(std::max(r + 1, d) - 1 - base))
            return false;
    }
    // The load buffer in the order its entries are reused; only
    // "full yet?" of the fill count matters, and an entry not yet
    // written is never read.
    const u64 entries = core_.loadBufferEntries;
    if (!word(std::min(lb_fills_, entries)))
        return false;
    for (u64 k = 0; k < entries; ++k) {
        const u64 slot = (lb_cursor_ + k) % entries;
        const bool unread = lb_fills_ < entries && slot >= lb_fills_;
        if (!word(unread ? 0 : at_least(load_buffer_[slot], d)))
            return false;
    }
    return true;
}

bool
TraceCpu::segmentShape(const TraceOp &op, u64 &shape, u64 &first,
                       u64 &lines) const
{
    const auto reg = [](const isa::TileReg &r) {
        return u64{static_cast<u8>(r.cls)} << 4 | r.index;
    };
    shape = static_cast<u64>(op.kind);
    lines = 0;
    Addr addr = op.addr;
    u64 bytes = op.bytes;
    switch (op.kind) {
      case UopKind::Alu:
      case UopKind::Branch:
        return true;
      case UopKind::Load:
        break;
      case UopKind::TileLoad:
        shape |= u64{static_cast<u8>(op.tile.op)} << 8 |
                 reg(op.tile.dst) << 16 | u64{op.tile.mreg} << 24;
        addr = op.tile.addr;
        bytes = tileLoadBytes(op.tile);
        break;
      case UopKind::TileCompute:
        shape |= u64{static_cast<u8>(op.tile.op)} << 8 |
                 reg(op.tile.dst) << 16 | reg(op.tile.srcA) << 32 |
                 reg(op.tile.srcB) << 40;
        return true;
      default: // stores and vector chains write state no skip keeps
        return false;
    }
    first = addr / kLineBytes;
    const u64 last = (addr + std::max<u64>(bytes, 1) - 1) / kLineBytes;
    lines = last - first + 1;
    if (lines > kProbeBatch)
        return false;
    if (first <= stored_line_max_ && last >= stored_line_min_)
        for (u64 line = first; line <= last; ++line)
            if (store_line_ready_.find(line) != nullptr)
                return false;
    shape |= lines << 48;
    return true;
}

u64
TraceCpu::probeLines(u64 first, u64 lines, Cycles *latency)
{
    cache_.probeSpan(first * u64{kLineBytes}, kLineBytes, lines,
                     latency);
    u64 hits = 0;
    for (u64 k = 0; k < lines; ++k)
        hits |= u64{latency[k] == core_.cache.l1Latency} << k;
    return hits;
}

bool
TraceCpu::memoStep(const TraceOp &op)
{
    Skip &s = *skip_;
    if (memo_ == Memo::Armed) {
        visitNormalizedState([out = s.snapshot.data()](u64 w) mutable {
            *out++ = w;
            return true;
        });
        s.snapshot_base = boundaryBase();
        s.segment_len = 0;
        s.segment_kinds = kind_counts_;
        s.segment_engine = engine_instructions_;
        s.segment_macs = effectual_macs_;
        s.segment_fills = lb_fills_;
        memo_ = Memo::Recording;
    } else if (memo_ == Memo::Recorded) {
        for (u32 k = 0; k < kind_counts_.size(); ++k)
            s.segment_kinds[k] = kind_counts_[k] - s.segment_kinds[k];
        s.segment_engine = engine_instructions_ - s.segment_engine;
        s.segment_macs = effectual_macs_ - s.segment_macs;
        s.segment_fills = lb_fills_ - s.segment_fills;
        const bool fixed_point = visitNormalizedState(
            [in = s.snapshot.data()](u64 w) mutable {
                return *in++ == w;
            });
        if (!fixed_point) {
            backOff();
            return false;
        }
        s.delta = boundaryBase() - s.snapshot_base;
        s.count = 0;
        s.pos = 0;
        s.boundary_hits = cache_.hits();
        memo_ = Memo::Skipping;
    }
    return memo_ == Memo::Recording ? recordOp(op) : skipOp(op);
}

bool
TraceCpu::recordOp(const TraceOp &op)
{
    // The op is scheduled by step() either way, with the latencies
    // probed here when it joins the recorded segment.
    Skip &s = *skip_;
    u64 shape = 0, first = 0, lines = 0;
    if (s.segment_len == kMaxSegment ||
        !segmentShape(op, shape, first, lines)) {
        backOff();
        return false;
    }
    u64 hits = 0;
    if (lines > 0) {
        hits = probeLines(first, lines, s.probe_buffer.data());
        probed_ = s.probe_buffer.data();
    }
    s.segment[s.segment_len++] = {op, shape, hits};
    if (op.kind == UopKind::Branch)
        memo_ = Memo::Recorded;
    return false;
}

bool
TraceCpu::skipOp(const TraceOp &op)
{
    Skip &s = *skip_;
    const Skip::SegmentOp &expected = s.segment[s.pos];
    u64 shape = 0, first = 0, lines = 0;
    if (!segmentShape(op, shape, first, lines) ||
        shape != expected.shape) {
        endSkip();
        return false;
    }
    if (lines > 0) {
        Cycles latency[kProbeBatch];
        if (probeLines(first, lines, latency) != expected.hits) {
            endSkip();
            std::copy(latency, latency + lines, s.probe_buffer.data());
            probed_ = s.probe_buffer.data();
            return false;
        }
    }
    if (++s.pos == s.segment_len) {
        s.pos = 0;
        ++s.count;
        s.boundary_hits = cache_.hits();
    }
    return true;
}

void
TraceCpu::endSkip()
{
    Skip &s = *skip_;
    const u64 n = s.count;
    if (n > 0) {
        // Every skipped segment left the state as the recorded one
        // did, s.delta later: advance every live time by the
        // total, and move each ring entry to its op's new index.
        const Cycles dt = n * s.delta;
        const u64 skipped = n * s.segment_len;
        const u64 ring = ring_mask_ + 1;
        const u64 rotate = (ring - skipped % ring) % ring;
        for (std::vector<Cycles> *window :
             {&dispatch_ring_, &retire_ring_}) {
            std::rotate(window->begin(),
                        window->begin() + static_cast<long>(rotate),
                        window->end());
            for (Cycles &t : *window)
                t += dt;
        }
        for (Cycles &t : load_buffer_)
            t += dt;
        for (UnitPool *pool : {&alu_free_, &lsu_free_, &vec_free_})
            for (Cycles &t : *pool)
                t += dt;
        for (Cycles &t : rename_ready_)
            t += dt;
        engine_.shift(dt / core_.engineClockDivider);

        ops_ += skipped;
        for (u32 k = 0; k < kind_counts_.size(); ++k)
            kind_counts_[k] += n * s.segment_kinds[k];
        engine_instructions_ += n * s.segment_engine;
        effectual_macs_ += n * s.segment_macs;
        lb_fills_ += n * s.segment_fills;
        // Engine finishes and retirements are in order, so the
        // latest of each is the last skipped segment's.
        if (s.segment_engine > 0)
            engine_last_finish_ += dt;
        last_retire_ += dt;
        s.hits += n;
        s.skipped_ops += skipped;
        s.streak += n;
        s.run_skipped = true;
        s.arm_after = kArmAfter;
        memo_ = Memo::Off;
    } else {
        backOff();
    }
    s.segment_start = segmentSignature(s.boundary_hits);

    // The ops of the cut-short segment matched the recorded ones,
    // latencies included: schedule those with the recorded hits.
    const u32 partial = s.pos;
    s.pos = 0;
    s.count = 0;
    const CacheConfig &cache = core_.cache;
    for (u32 k = 0; k < partial; ++k) {
        const Skip::SegmentOp &recorded = s.segment[k];
        const u64 lines = recorded.shape >> 48;
        for (u64 line = 0; line < lines; ++line)
            s.probe_buffer[line] = recorded.hits >> line & 1
                                      ? cache.l1Latency
                                      : cache.l2Latency;
        if (lines > 0)
            probed_ = s.probe_buffer.data();
        step(recorded.op);
    }
}

SimResult
TraceCpu::finish()
{
    if (memo_ == Memo::Skipping)
        endSkip();
    SimResult result;
    if (ops_ > 0) {
        result.totalCycles = last_retire_;
        result.retiredOps = ops_;
        for (u32 k = 0; k < kind_counts_.size(); ++k)
            if (kind_counts_[k] > 0)
                result.kindCounts[static_cast<UopKind>(k)] =
                    kind_counts_[k];
        result.engineInstructions = engine_instructions_;
        result.engineLastFinish = engine_last_finish_;
        result.cacheHits = cache_.hits();
        result.cacheMisses = cache_.misses();
        if (result.totalCycles > 0) {
            const double engine_cycles =
                static_cast<double>(result.totalCycles) /
                core_.engineClockDivider;
            result.macUtilization =
                static_cast<double>(effectual_macs_) /
                (engine_cycles * engine::kTotalMacs);
        }
    }

    // Coarse counters, once per stream and nothing per op: they
    // reconcile with the results' own op and cache-line totals.
    static const telemetry::MetricId streams_id =
        telemetry::counterId("replay.streams");
    static const telemetry::MetricId ops_id =
        telemetry::counterId("replay.ops");
    static const telemetry::MetricId lines_id =
        telemetry::counterId("replay.lines");
    static const telemetry::MetricId memo_hits_id =
        telemetry::counterId("replay.memo.hits");
    static const telemetry::MetricId memo_misses_id =
        telemetry::counterId("replay.memo.misses");
    static const telemetry::MetricId memo_ops_id =
        telemetry::counterId("replay.memo.ops");
    telemetry::add(streams_id, 1);
    telemetry::add(ops_id, result.retiredOps);
    telemetry::add(lines_id, result.cacheHits + result.cacheMisses);
    telemetry::add(memo_hits_id, skip_->hits);
    telemetry::add(memo_misses_id, skip_->misses);
    telemetry::add(memo_ops_id, skip_->skipped_ops);

    reset();
    return result;
}

SimResult
TraceCpu::run(const Trace &trace)
{
    reset();
    for (const TraceOp &op : trace)
        step(op);
    return finish();
}

} // namespace vegeta::cpu
