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
}

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
    const bool may_alias_store =
        first <= stored_line_max_ && last >= stored_line_min_;

    // Phase 1: cache probes.  They take no input from the port/
    // load-buffer chain, so probing the whole range up front, in
    // range order, evolves the cache exactly as the serial loop
    // would -- as one specialized span instead of a tag scan threaded
    // through the issue chain.  Only the scratch size bounds the
    // batch; a longer range (no real kernel emits one) probes inside
    // the loop.
    Cycles probe[kProbeBatch];
    const bool batched = count <= kProbeBatch;
    if (batched)
        cache_.probeSpan(first * u64{kLineBytes}, kLineBytes, count,
                         probe);

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
}

void
TraceCpu::step(const TraceOp &op)
{
    // Reject ops that would index outside the fixed kind/register
    // tables: step() is a public sink fed by arbitrary producers,
    // trace files included.
    VEGETA_ASSERT(static_cast<u32>(op.kind) < kind_counts_.size(),
                  "trace op with invalid kind");
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
      case UopKind::Alu:
      case UopKind::Branch: {
        complete = acquireUnit(alu_free_, core_.numAlus, d) + 1;
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
        const u32 bytes =
            op.tile.op == isa::Opcode::TileLoadM
                ? isa::kMregBytes + isa::kMregDescBytes
                : isa::regClassBytes(op.tile.dst.cls);
        complete = issueLineRange(d, op.tile.addr, bytes);
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

SimResult
TraceCpu::finish()
{
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
    telemetry::add(streams_id, 1);
    telemetry::add(ops_id, result.retiredOps);
    telemetry::add(lines_id, result.cacheHits + result.cacheMisses);

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
