#include "kernels/gemm_kernels.hpp"

#include <algorithm>
#include <numeric>

#include "common/logging.hpp"
#include "isa/memory.hpp"

namespace vegeta::kernels {

namespace {

// Fixed staging regions in the emulated flat memory.
constexpr Addr kBaseA = 0x1000'0000;
constexpr Addr kBaseMd = 0x2000'0000;
constexpr Addr kBaseB = 0x3000'0000;
constexpr Addr kBaseC = 0x4000'0000;

constexpr u32 kATileBytes = 1024; ///< values always fill one treg
constexpr u32 kMdTileBytes = 192; ///< 136 B image, padded for alignment
constexpr u32 kCTileBytes = 1024; ///< 16 x 16 FP32

/** Emits trace ops into a sink, optionally executing them. */
class Emitter
{
  public:
    Emitter(isa::Emulator *emu, cpu::TraceSink &sink)
        : emu_(emu), sink_(sink)
    {
    }

    void
    scalar(u32 count)
    {
        for (u32 i = 0; i < count; ++i)
            sink_.emit(cpu::TraceOp::alu());
        stats_.instructions += count;
    }

    void
    loopEnd()
    {
        scalar(kLoopOverheadAlu);
        sink_.emit(cpu::TraceOp::branch());
        ++stats_.instructions;
    }

    void
    tile(const isa::Instruction &in)
    {
        scalar(kScalarOpsPerTileOp);
        sink_.emit(cpu::TraceOp::fromTileInstruction(in));
        ++stats_.instructions;
        if (isa::isTileCompute(in.op))
            ++stats_.tileComputes;
        else if (isa::isTileLoad(in.op))
            ++stats_.tileLoads;
        else
            ++stats_.tileStores;
        if (emu_ != nullptr)
            emu_->execute(in);
    }

    const KernelStats &stats() const { return stats_; }

  private:
    isa::Emulator *emu_;
    cpu::TraceSink &sink_;
    KernelStats stats_;
};

MatrixBF16
padMatrix(const MatrixBF16 &m, u32 rows, u32 cols)
{
    MatrixBF16 padded(rows, cols);
    padded.setBlock(0, 0, m);
    return padded;
}

} // namespace

u32
kTileForN(u32 executed_n)
{
    switch (executed_n) {
      case 4:
        return 32;
      case 2:
        return 64;
      case 1:
        return 128;
      default:
        VEGETA_PANIC("executed N must be 1, 2, or 4, got ", executed_n);
    }
}

GemmDims
padProblem(GemmDims dims, u32 executed_n)
{
    const u32 tk = kTileForN(executed_n);
    auto round_up = [](u32 v, u32 to) { return (v + to - 1) / to * to; };
    GemmDims padded;
    padded.m = round_up(dims.m, 16);
    padded.n = round_up(dims.n, 16);
    padded.k = round_up(dims.k, tk);
    return padded;
}

namespace {

/** Shared generator behind the batch and streaming entry points. */
KernelStats
spmmKernelImpl(GemmDims dims, u32 executed_n, const KernelOptions &opts,
               const MatrixBF16 *a, const MatrixBF16 *b,
               cpu::TraceSink &sink, MatrixF *c_out)
{
    const u32 tk = kTileForN(executed_n);
    const GemmDims p = padProblem(dims, executed_n);
    const u32 mt = p.m / 16, nt = p.n / 16, kt = p.k / tk;
    const u32 b_tile_bytes = tk * 32; // 16 rows x tk BF16

    auto addr_a = [&](u32 i, u32 kk) {
        return kBaseA + (std::size_t{i} * kt + kk) * kATileBytes;
    };
    auto addr_md = [&](u32 i, u32 kk) {
        return kBaseMd + (std::size_t{i} * kt + kk) * kMdTileBytes;
    };
    auto addr_b = [&](u32 j, u32 kk) {
        return kBaseB + (std::size_t{j} * kt + kk) * b_tile_bytes;
    };
    auto addr_c = [&](u32 i, u32 j) {
        return kBaseC + (std::size_t{i} * nt + j) * kCTileBytes;
    };

    isa::FlatMemory mem;
    std::optional<isa::Emulator> emu;

    if (!opts.traceOnly) {
        VEGETA_ASSERT(a != nullptr && b != nullptr,
                      "functional mode needs A and B matrices");
        VEGETA_ASSERT(a->rows() == dims.m && a->cols() == dims.k,
                      "A must be m x k");
        VEGETA_ASSERT(b->rows() == dims.k && b->cols() == dims.n,
                      "B must be k x n");
        const MatrixBF16 a_pad = padMatrix(*a, p.m, p.k);
        const MatrixBF16 b_pad = padMatrix(*b, p.k, p.n);
        VEGETA_ASSERT(satisfiesNM(a_pad, {executed_n, 4}),
                      "A does not satisfy the executed pattern ",
                      executed_n, ":4");

        for (u32 i = 0; i < mt; ++i) {
            for (u32 kk = 0; kk < kt; ++kk) {
                const MatrixBF16 chunk =
                    a_pad.block(i * 16, kk * tk, 16, tk);
                if (executed_n == 4) {
                    isa::storeMatrixBF16(mem, addr_a(i, kk), chunk, 64);
                } else {
                    const auto ct = CompressedTile::compress(
                        chunk, {executed_n, 4});
                    isa::storeMatrixBF16(mem, addr_a(i, kk), ct.values(),
                                         64);
                    isa::storeMetadata(mem, addr_md(i, kk),
                                       ct.packMetadata());
                }
            }
        }
        for (u32 j = 0; j < nt; ++j) {
            for (u32 kk = 0; kk < kt; ++kk) {
                const MatrixBF16 bt =
                    b_pad.block(kk * tk, j * 16, tk, 16).transposed();
                isa::storeMatrixBF16(mem, addr_b(j, kk), bt, tk * 2);
            }
        }
        emu.emplace(mem);
    }

    Emitter emit(emu ? &*emu : nullptr, sink);

    // Register plan: B in treg0/ureg0/vreg0 (backing tregs 0-3), A
    // values treg4 (+mreg4), C tiles treg5-7.  The optimized kernel
    // unrolls the j loop over the three C registers so back-to-back
    // accumulations onto the same C tile are three engine
    // instructions apart -- enough to keep a stall-free pipeline on
    // every Table III design (gap 3 x II = 48 >= FF + FS + DR).
    const isa::TileReg a_reg = isa::treg(4);
    VEGETA_ASSERT(opts.cBlocking >= 1 && opts.cBlocking <= 3,
                  "cBlocking must be 1..3 (C tiles live in tregs 5-7)");
    const u32 unroll = opts.optimized ? opts.cBlocking : 1;

    auto c_reg = [](u32 slot) { return isa::treg(static_cast<u8>(5 + slot)); };

    auto emit_b_load = [&](u32 j, u32 kk) {
        switch (executed_n) {
          case 4:
            emit.tile(isa::makeTileLoadT(isa::treg(0), addr_b(j, kk), 64));
            break;
          case 2:
            emit.tile(isa::makeTileLoadU(isa::ureg(0), addr_b(j, kk),
                                         128));
            break;
          default:
            emit.tile(isa::makeTileLoadV(isa::vreg(0), addr_b(j, kk),
                                         256));
            break;
        }
    };
    auto emit_compute = [&](u32 slot) {
        switch (executed_n) {
          case 4:
            emit.tile(isa::makeTileGemm(c_reg(slot), a_reg,
                                        isa::treg(0)));
            break;
          case 2:
            emit.tile(isa::makeTileSpmmU(c_reg(slot), a_reg,
                                         isa::ureg(0)));
            break;
          default:
            emit.tile(isa::makeTileSpmmV(c_reg(slot), a_reg,
                                         isa::vreg(0)));
            break;
        }
    };

    emit.scalar(kPrologueAlu);
    for (u32 i = 0; i < mt; ++i) {
        for (u32 j0 = 0; j0 < nt; j0 += unroll) {
            const u32 group = std::min(unroll, nt - j0);
            emit.scalar(kTileSetupAlu);
            if (opts.optimized)
                for (u32 s = 0; s < group; ++s)
                    emit.tile(isa::makeTileLoadT(
                        c_reg(s), addr_c(i, j0 + s), 64));
            for (u32 kk = 0; kk < kt; ++kk) {
                emit.tile(isa::makeTileLoadT(a_reg, addr_a(i, kk), 64));
                if (executed_n < 4)
                    emit.tile(isa::makeTileLoadM(4, addr_md(i, kk)));
                for (u32 s = 0; s < group; ++s) {
                    emit_b_load(j0 + s, kk);
                    if (!opts.optimized)
                        emit.tile(isa::makeTileLoadT(
                            c_reg(s), addr_c(i, j0 + s), 64));
                    emit_compute(s);
                    if (!opts.optimized)
                        emit.tile(isa::makeTileStoreT(
                            addr_c(i, j0 + s), 64, c_reg(s)));
                }
                emit.loopEnd();
            }
            if (opts.optimized)
                for (u32 s = 0; s < group; ++s)
                    emit.tile(isa::makeTileStoreT(addr_c(i, j0 + s), 64,
                                                  c_reg(s)));
            emit.loopEnd();
        }
        emit.loopEnd();
    }
    emit.scalar(kPrologueAlu / 2); // epilogue

    if (!opts.traceOnly && c_out != nullptr) {
        MatrixF c_pad(p.m, p.n);
        for (u32 i = 0; i < mt; ++i)
            for (u32 j = 0; j < nt; ++j)
                c_pad.setBlock(i * 16, j * 16,
                               isa::loadMatrixF32(mem, addr_c(i, j), 16,
                                                  16, 64));
        *c_out = c_pad.block(0, 0, dims.m, dims.n);
    }
    return emit.stats();
}

} // namespace

KernelRun
runSpmmKernel(GemmDims dims, u32 executed_n, const KernelOptions &opts,
              const MatrixBF16 *a, const MatrixBF16 *b)
{
    cpu::TraceCollector collector;
    KernelRun run;
    const KernelStats stats = spmmKernelImpl(dims, executed_n, opts, a,
                                             b, collector, &run.c);
    run.trace = collector.take();
    run.tileComputes = stats.tileComputes;
    run.tileLoads = stats.tileLoads;
    run.tileStores = stats.tileStores;
    return run;
}

KernelStats
streamSpmmKernel(GemmDims dims, u32 executed_n,
                 const KernelOptions &opts, cpu::TraceSink &sink)
{
    VEGETA_ASSERT(opts.traceOnly,
                  "streaming kernel generation is trace-only (a "
                  "functional run returns C through runSpmmKernel)");
    return spmmKernelImpl(dims, executed_n, opts, nullptr, nullptr,
                          sink, nullptr);
}

KernelRun
runRowWiseSpmmKernel(const MatrixBF16 &a, const MatrixBF16 &b,
                     const KernelOptions &opts)
{
    VEGETA_ASSERT(!opts.traceOnly,
                  "row-wise kernel is functional only (Section VI-E "
                  "evaluates row-wise analytically)");
    VEGETA_ASSERT(a.cols() == b.rows(), "GEMM inner dims mismatch");

    const u32 m = a.rows();
    auto round_up = [](u32 v, u32 to) { return (v + to - 1) / to * to; };
    const u32 k_pad = round_up(a.cols(), 64);
    const u32 n_pad = round_up(b.cols(), 16);
    const MatrixBF16 a_pad = padMatrix(a, m, k_pad);
    const MatrixBF16 b_pad = padMatrix(b, k_pad, n_pad);
    const u32 kt = k_pad / 64;
    const u32 nt = n_pad / 16;

    isa::FlatMemory mem;
    isa::Emulator emu(mem);
    cpu::TraceCollector collector;
    Emitter emit(&emu, collector);

    MatrixF c_host(m, n_pad);

    const isa::TileReg b_reg = isa::ureg(0);  // tregs 0-1
    const isa::TileReg c_ureg = isa::ureg(1); // tregs 2-3
    const isa::TileReg a_reg = isa::treg(4);

    emit.scalar(kPrologueAlu);
    for (u32 kk = 0; kk < kt; ++kk) {
        const MatrixBF16 chunk = a_pad.block(0, kk * 64, m, 64);

        // Per-row covering N (fully-zero rows stored as 1:4), then the
        // DMA reordering of Section V-E: rows sorted by descending N so
        // equal-N rows form aligned groups.
        std::vector<u32> row_n(m);
        for (u32 r = 0; r < m; ++r) {
            const u32 n = minimalRowN(chunk, r);
            row_n[r] = n == 0 ? 1 : n;
        }
        std::vector<u32> perm(m);
        std::iota(perm.begin(), perm.end(), 0u);
        std::stable_sort(perm.begin(), perm.end(), [&](u32 x, u32 y) {
            return row_n[x] > row_n[y];
        });
        std::vector<u32> sorted_n(m);
        for (u32 r = 0; r < m; ++r)
            sorted_n[r] = row_n[perm[r]];
        const auto groups = partitionRowsByNBudget(sorted_n, 32);

        // Stage the B^T tiles of this chunk.
        for (u32 j = 0; j < nt; ++j) {
            const MatrixBF16 bt =
                b_pad.block(kk * 64, j * 16, 64, 16).transposed();
            isa::storeMatrixBF16(mem, kBaseB + j * 2048ull, bt, 128);
        }

        for (std::size_t g = 0; g < groups.size(); ++g) {
            const auto [g_begin, g_end] = groups[g];
            const u32 rows = g_end - g_begin;

            // Gather the group's effective rows and compress.
            MatrixBF16 group_a(rows, 64);
            std::vector<u32> group_n(rows);
            for (u32 r = 0; r < rows; ++r) {
                const u32 src = perm[g_begin + r];
                group_n[r] = row_n[src];
                for (u32 c = 0; c < 64; ++c)
                    group_a.at(r, c) = chunk.at(src, c);
            }
            const auto rwt =
                RowWiseCompressedTile::compress(group_a, group_n);

            // Stage the value stream as a 16 x 32 treg image.
            MatrixBF16 stream_image(16, 32);
            for (u32 v = 0; v < rwt.totalValues(); ++v)
                stream_image.at(v / 32, v % 32) = rwt.value(v);
            isa::storeMatrixBF16(mem, kBaseA, stream_image, 64);
            isa::storeMetadata(mem, kBaseMd, rwt.packMetadata(),
                               rwt.packRowDescriptors());

            emit.scalar(kTileSetupAlu);
            emit.tile(isa::makeTileLoadT(a_reg, kBaseA, 64));
            emit.tile(isa::makeTileLoadM(4, kBaseMd));
            for (u32 j = 0; j < nt; ++j) {
                // Input-DMA gather of the group's C rows (linear
                // R x 16 FP32 image).
                MatrixF c_gather(rows, 16);
                for (u32 r = 0; r < rows; ++r)
                    for (u32 c = 0; c < 16; ++c)
                        c_gather.at(r, c) =
                            c_host.at(perm[g_begin + r], j * 16 + c);
                isa::storeMatrixF32(mem, kBaseC, c_gather, 64);

                emit.tile(isa::makeTileLoadU(b_reg,
                                             kBaseB + j * 2048ull, 128));
                emit.tile(isa::makeTileLoadU(c_ureg, kBaseC, 128));
                emit.tile(isa::makeTileSpmmR(c_ureg, a_reg, b_reg,
                                             static_cast<u8>(rows)));
                // ureg1's logical rows are 128 B: the two backing
                // tregs hold the even/odd 64 B halves, stored with a
                // 128 B stride to reconstruct the linear image.
                emit.tile(isa::makeTileStoreT(kBaseC, 128,
                                              isa::treg(2)));
                emit.tile(isa::makeTileStoreT(kBaseC + 64, 128,
                                              isa::treg(3)));
                emit.loopEnd();

                // Output-DMA scatter back to original row order.
                const MatrixF c_out =
                    isa::loadMatrixF32(mem, kBaseC, rows, 16, 64);
                for (u32 r = 0; r < rows; ++r)
                    for (u32 c = 0; c < 16; ++c)
                        c_host.at(perm[g_begin + r], j * 16 + c) =
                            c_out.at(r, c);
            }
            emit.loopEnd();
        }
        emit.loopEnd();
    }

    KernelRun run;
    run.trace = collector.take();
    run.tileComputes = emit.stats().tileComputes;
    run.tileLoads = emit.stats().tileLoads;
    run.tileStores = emit.stats().tileStores;
    run.c = c_host.block(0, 0, m, b.cols());
    return run;
}

} // namespace vegeta::kernels
