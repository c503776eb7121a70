/**
 * @file
 * Trace-driven out-of-order CPU model with an integrated VEGETA engine
 * (the MacSim substitute of Section VI-A/B).
 *
 * Modeled per the paper's configuration: 4-wide fetch/issue/retire,
 * 16-stage front end, 97-entry ROB, 96-entry load buffer, data
 * prefetched into L2, core at 2 GHz with matrix engines at 0.5 GHz
 * (engine cycles are 4 core cycles in the Figure 13 setup).
 *
 * The model schedules each trace op analytically: dispatch is limited
 * by fetch width and ROB occupancy, issue by operand readiness and
 * functional-unit ports, retirement is in order.  Tile registers are
 * renamed: dependencies are RAW-only, and tile-compute scheduling
 * (stage pipelining + output forwarding) is delegated to
 * engine::PipelineModel.
 *
 * The replayer is a streaming consumer of one trace: feed ops one at
 * a time with step() (or as a TraceSink via emit()) and collect
 * statistics with finish().  Nothing on the per-op path allocates:
 * the unit pools and rename table are fixed arrays, the dispatch/
 * retire windows and the load buffer are rings sized at
 * construction, and the two dependence maps are open-addressed
 * FlatCycleMaps that keep their capacity across streams.  A memory
 * op's cache probes run as one CacheModel::probeSpan call ahead of
 * its serial issue loop (docs/REPLAY.md).
 *
 * Steady-state skip: once a loop iteration (the ops after one Branch
 * up to the next) leaves the scheduler state exactly as it found it,
 * shifted in time, the core stops scheduling the iterations that
 * repeat it.  It still probes the cache for every line and compares
 * each op with the repeated iteration; the first op that differs, or
 * finish(), advances every time by the skipped iterations' shift.
 * The results are bit-identical to scheduling every op
 * (docs/REPLAY.md, "Steady-state skip").
 */

#ifndef VEGETA_CPU_TRACE_CPU_HPP
#define VEGETA_CPU_TRACE_CPU_HPP

#include <array>
#include <map>
#include <memory>
#include <vector>

#include "cpu/cache.hpp"
#include "cpu/flat_map.hpp"
#include "cpu/trace_sink.hpp"
#include "engine/pipeline.hpp"

namespace vegeta::cpu {

/** Core parameters (defaults follow Section VI-B). */
struct CoreConfig
{
    u32 fetchWidth = 4;
    u32 retireWidth = 4;
    u32 robEntries = 97;
    u32 loadBufferEntries = 96;
    u32 frontEndDepth = 16; ///< 16-stage pipeline fill
    u32 numAlus = 4;
    u32 numLsuPorts = 2;
    u32 numVectorFus = 2;
    Cycles vectorFmaLatency = 4;
    /** Core-to-engine clock ratio (2 GHz core / 0.5 GHz engine). */
    u32 engineClockDivider = 4;
    bool outputForwarding = false;
    CacheConfig cache;
};

/** Simulation outputs. */
struct SimResult
{
    Cycles totalCycles = 0; ///< core cycles until last retirement
    u64 retiredOps = 0;
    std::map<UopKind, u64> kindCounts;
    u64 engineInstructions = 0;
    Cycles engineLastFinish = 0; ///< core cycle of last engine finish
    u64 cacheHits = 0;
    u64 cacheMisses = 0;

    /** Engine MAC utilization over the whole run (0..1). */
    double macUtilization = 0.0;
};

/** The trace-driven core: a streaming single-trace replayer. */
class TraceCpu final : public TraceSink
{
  public:
    /**
     * @p core must pass configError; the constructor asserts the part
     * of it that indexes a unit pool or ring.
     */
    TraceCpu(CoreConfig core, engine::EngineConfig engine);
    ~TraceCpu() override;

    /**
     * Why @p core cannot be replayed, or nullopt: every field the
     * model divides by, masks with, sizes a ring or a unit pool
     * with, and the cache geometry (CacheModel::configError).
     * sim::requestError calls it for every simulation job.
     */
    static std::optional<std::string>
    configError(const CoreConfig &core);

    /**
     * Begin a fresh simulation from a cold pipeline, discarding any
     * partially-stepped stream.  Keeps every allocation.
     */
    void reset();

    /** Schedule the next op of the stream. */
    void step(const TraceOp &op);

    /** TraceSink: kernels emit uops straight into the scheduler. */
    void
    emit(const TraceOp &op) override
    {
        step(op);
    }

    /**
     * Statistics of the stream stepped since the last reset; leaves
     * the model reset for the next stream.
     */
    SimResult finish();

    /** Batch convenience: reset, step every op, finish. */
    SimResult run(const Trace &trace);

    const CoreConfig &coreConfig() const { return core_; }
    const engine::EngineConfig &engineConfig() const
    {
        return engine_config_;
    }

  private:
    /** Line size memory traffic splits at (Section V-F). */
    static constexpr u32 kLineBytes = 64;
    /** Widest supported functional-unit pool. */
    static constexpr u32 kMaxUnits = 16;
    /** Largest fetch/retire width, ROB and load buffer. */
    static constexpr u32 kMaxWindow = 1u << 16;
    /** Longest line range whose cache probes are batched. */
    static constexpr u32 kProbeBatch = 64;
    /** Longest segment (loop iteration) a skip repeats. */
    static constexpr u32 kMaxSegment = 64;
    /** Equal segments in a row before a skip is first attempted. */
    static constexpr u32 kArmAfter = 6;
    /** Cap on the run length a skip waits for after failures. */
    static constexpr u64 kMaxArmAfter = u64{1} << 32;
    /** Fewest segments a skip must be expected to advance. */
    static constexpr u32 kMinSkip = 3;

    using UnitPool = std::array<Cycles, kMaxUnits>;

    /** Where the steady-state skip stands. */
    enum class Memo : u8
    {
        Off,       ///< scheduling; counting equal segments
        Armed,     ///< snapshot the state at the next op
        Recording, ///< scheduling the segment that may repeat
        Recorded,  ///< compare the state with the snapshot
        Skipping,  ///< matching segments against the recorded one
    };

    Cycles toEngineCycles(Cycles core) const;
    Cycles toCoreCycles(Cycles eng) const;

    /**
     * Acquire the earliest-free of the pool's first @p units units;
     * each issue occupies the unit for 1 cycle.
     */
    static Cycles acquireUnit(UnitPool &pool, u32 units,
                              Cycles earliest);

    /**
     * Issue [addr, addr+bytes) line by line; returns completion.
     * Takes the lines' latencies from probed_ when it is set.
     */
    Cycles issueLineRange(Cycles earliest, Addr addr, u64 bytes);
    /** Mark every line of [addr, addr+bytes) store-owned. */
    void recordStoreRange(Cycles data_ready, Addr addr, u64 bytes);

    // Steady-state skip (trace_cpu.cpp).  memoStep, recordOp and
    // skipOp return false when step() is to schedule the op.  The
    // rare paths stay out of line, so step()'s hot path stays as
    // compact as a core without the skip.
    [[gnu::noinline]] bool memoStep(const TraceOp &op);
    void endSegment();
    [[gnu::noinline]] void endRun(bool safe);
    [[gnu::noinline]] void tryArm();
    u64 segmentSignature(u64 hits) const;
    bool segmentShape(const TraceOp &op, u64 &shape, u64 &first,
                      u64 &lines) const;
    u64 probeLines(u64 first, u64 lines, Cycles *latency);
    bool recordOp(const TraceOp &op);
    bool skipOp(const TraceOp &op);
    void endSkip();
    void backOff();
    Cycles boundaryBase() const;
    template <typename Word>
    bool visitNormalizedState(Word &&word) const;

    CoreConfig core_;
    engine::EngineConfig engine_config_;
    CacheModel cache_;
    engine::PipelineModel engine_;

    UnitPool alu_free_{};
    UnitPool lsu_free_{};
    UnitPool vec_free_{};

    // Dispatch/retire windows: the scheduler looks back at most
    // max(fetchWidth, retireWidth, robEntries) ops, so op i lives at
    // slot i & ring_mask_ of a power-of-two ring.
    std::vector<Cycles> dispatch_ring_;
    std::vector<Cycles> retire_ring_;
    u64 ring_mask_ = 0;

    /** Completion time of each of the last loadBufferEntries fills. */
    std::vector<Cycles> load_buffer_;
    u64 lb_fills_ = 0;
    u32 lb_cursor_ = 0;

    // Rename table over the 16-entry physical dep-id space: when each
    // register's value is ready, and whether the engine produced it.
    std::array<Cycles, isa::kNumDepRegs> rename_ready_{};
    std::array<u8, isa::kNumDepRegs> rename_engine_{};

    FlatCycleMap vector_chains_;
    /** Store-to-load memory dependence at cache-line granularity. */
    FlatCycleMap store_line_ready_;
    // Bounding box of all stored lines: loads outside it (the bulk of
    // A/B tile traffic) skip the dependence probe.
    u64 stored_line_min_ = ~u64{0};
    u64 stored_line_max_ = 0;

    // Statistics of the current stream.
    u64 ops_ = 0;
    Cycles last_retire_ = 0;
    std::array<u64, 8> kind_counts_{};
    u64 engine_instructions_ = 0;
    Cycles engine_last_finish_ = 0;
    u64 effectual_macs_ = 0;

    // Steady-state skip.  Off, the per-op path pays one test of
    // memo_ and each memory op one of probed_; the bookkeeping runs
    // once per Branch.  The rest of its state lives on the heap, so
    // a TraceCpu on the stack keeps its hot fields where they were.
    Memo memo_ = Memo::Off;
    /** Latencies of the next line range, probed ahead by the skip. */
    const Cycles *probed_ = nullptr;
    struct Skip;
    std::unique_ptr<Skip> skip_;
};

} // namespace vegeta::cpu

#endif // VEGETA_CPU_TRACE_CPU_HPP
