/**
 * @file
 * Tests for the vegeta::sim facade: request validation, registry
 * round-trips, facade/primitive equivalence, sweep determinism, and
 * result serialization.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "cpu/trace_io.hpp"
#include "expect_identical.hpp"
#include "kernels/driver.hpp"
#include "sim/sweep.hpp"

namespace vegeta::sim {
namespace {

/** A stringbuf that cannot seek: how a pipe presents the bytes. */
class UnseekableBuf : public std::stringbuf
{
  public:
    using std::stringbuf::stringbuf;

  protected:
    pos_type
    seekoff(off_type, std::ios_base::seekdir,
            std::ios_base::openmode) override
    {
        return pos_type(off_type(-1));
    }

    pos_type
    seekpos(pos_type, std::ios_base::openmode) override
    {
        return pos_type(off_type(-1));
    }
};

/** The serialized bytes of @p trace. */
std::string
traceBytes(const cpu::Trace &trace)
{
    std::ostringstream os;
    EXPECT_TRUE(cpu::writeTrace(os, trace));
    return os.str();
}

// --- parseGemmSpec ----------------------------------------------------

TEST(GemmSpec, ParsesWellFormed)
{
    const auto dims = parseGemmSpec("256x256x2048");
    ASSERT_TRUE(dims.has_value());
    EXPECT_EQ(dims->m, 256u);
    EXPECT_EQ(dims->n, 256u);
    EXPECT_EQ(dims->k, 2048u);
}

TEST(GemmSpec, RejectsTrailingGarbage)
{
    EXPECT_FALSE(parseGemmSpec("256x256x2048x9").has_value());
    EXPECT_FALSE(parseGemmSpec("256x256x2048 ").has_value());
    EXPECT_FALSE(parseGemmSpec("256x256x2048abc").has_value());
}

TEST(GemmSpec, RejectsMalformed)
{
    EXPECT_FALSE(parseGemmSpec("").has_value());
    EXPECT_FALSE(parseGemmSpec("256x256").has_value());
    EXPECT_FALSE(parseGemmSpec("0x256x2048").has_value());
    EXPECT_FALSE(parseGemmSpec("ax bx c").has_value());
}

// --- RequestBuilder validation ---------------------------------------

TEST(RequestBuilder, BuildsValidRequest)
{
    const Simulator simulator;
    auto builder = simulator.request()
                       .workload("BERT-L1")
                       .engine("VEGETA-S-16-2")
                       .pattern(2)
                       .outputForwarding(true);
    const auto request = builder.build();
    ASSERT_TRUE(request.has_value());
    EXPECT_EQ(request->label, "BERT-L1");
    EXPECT_EQ(request->engine, "VEGETA-S-16-2");
    EXPECT_EQ(request->patternN, 2u);
    EXPECT_TRUE(request->outputForwarding);
    EXPECT_TRUE(builder.error().empty());
}

TEST(RequestBuilder, RejectsUnknownEngine)
{
    const Simulator simulator;
    auto builder =
        simulator.request().workload("BERT-L1").engine("NOPE-9000");
    EXPECT_FALSE(builder.build().has_value());
    EXPECT_NE(builder.error().find("unknown engine"),
              std::string::npos);
}

TEST(RequestBuilder, RejectsUnknownWorkload)
{
    const Simulator simulator;
    auto builder =
        simulator.request().workload("NoSuchLayer").engine(
            "VEGETA-S-16-2");
    EXPECT_FALSE(builder.build().has_value());
    EXPECT_NE(builder.error().find("unknown workload"),
              std::string::npos);
}

TEST(RequestBuilder, RejectsBadPattern)
{
    const Simulator simulator;
    auto builder = simulator.request()
                       .workload("BERT-L1")
                       .engine("VEGETA-S-16-2")
                       .pattern(3);
    EXPECT_FALSE(builder.build().has_value());
    EXPECT_NE(builder.error().find("pattern"), std::string::npos);
}

TEST(RequestBuilder, RejectsBadBlocking)
{
    const Simulator simulator;
    auto builder = simulator.request()
                       .workload("BERT-L1")
                       .engine("VEGETA-S-16-2")
                       .cBlocking(7);
    EXPECT_FALSE(builder.build().has_value());
    EXPECT_NE(builder.error().find("cBlocking"), std::string::npos);
}

TEST(RequestBuilder, RejectsEmptyRequest)
{
    const Simulator simulator;
    auto builder = simulator.request();
    EXPECT_FALSE(builder.build().has_value());
    EXPECT_FALSE(builder.error().empty());
}

TEST(RequestBuilder, KeepsFirstError)
{
    const Simulator simulator;
    auto builder = simulator.request()
                       .workload("NoSuchLayer")
                       .engine("NOPE-9000")
                       .pattern(3);
    EXPECT_FALSE(builder.build().has_value());
    EXPECT_NE(builder.error().find("unknown workload"),
              std::string::npos);
}

// --- Registries -------------------------------------------------------

TEST(EngineRegistry, BuiltinRoundTrips)
{
    const auto reg = EngineRegistry::builtin();
    // Figure 13 engine set: eight Table III rows plus STC-like.
    EXPECT_EQ(reg.size(), 9u);
    EXPECT_EQ(reg.tableIIIConfigs().size(), 8u);
    for (const auto &name : reg.names()) {
        const auto cfg = reg.find(name);
        ASSERT_TRUE(cfg.has_value()) << name;
        EXPECT_EQ(cfg->name, name);
    }
    EXPECT_FALSE(reg.find("NOPE-9000").has_value());
}

TEST(EngineRegistry, BuiltinMatchesEvaluatedConfigOrder)
{
    const auto reg = EngineRegistry::builtin();
    const auto expected = engine::allEvaluatedConfigs();
    const auto actual = reg.configs();
    ASSERT_EQ(actual.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i)
        EXPECT_EQ(actual[i].name, expected[i].name);
}

TEST(EngineRegistry, AddAndReplace)
{
    EngineRegistry reg;
    auto custom = engine::vegetaS22();
    custom.name = "CUSTOM-1";
    reg.add(custom);
    ASSERT_TRUE(reg.contains("CUSTOM-1"));
    EXPECT_TRUE(reg.find("CUSTOM-1")->sparse);

    // Re-registering the name replaces the entry in place.
    auto replacement = engine::vegetaD12();
    replacement.name = "CUSTOM-1";
    reg.add(replacement);
    EXPECT_EQ(reg.size(), 1u);
    EXPECT_FALSE(reg.find("CUSTOM-1")->sparse);
}

TEST(WorkloadRegistry, BuiltinRoundTrips)
{
    const auto reg = WorkloadRegistry::builtin();
    EXPECT_EQ(reg.group("tableIV").size(), 12u);
    EXPECT_EQ(reg.group("quick").size(), 3u);
    for (const auto &name : reg.names()) {
        const auto w = reg.find(name);
        ASSERT_TRUE(w.has_value()) << name;
        EXPECT_EQ(w->name, name);
        EXPECT_GT(w->gemm.macs(), 0u);
    }
    EXPECT_FALSE(reg.find("NoSuchLayer").has_value());
}

TEST(WorkloadRegistry, AddAndGroup)
{
    WorkloadRegistry reg;
    kernels::Workload w;
    w.name = "mine";
    w.gemm = {64, 64, 256};
    reg.add(w, "mygroup");
    ASSERT_TRUE(reg.contains("mine"));
    EXPECT_EQ(reg.group("mygroup").size(), 1u);
    EXPECT_TRUE(reg.group("tableIV").empty());
}

// --- Simulator facade -------------------------------------------------

TEST(Simulator, MatchesSimulateLayerPrimitive)
{
    const Simulator simulator;
    const auto request = simulator.request()
                             .workload("quick-square")
                             .engine("VEGETA-S-16-2")
                             .pattern(2)
                             .outputForwarding(true)
                             .build();
    ASSERT_TRUE(request.has_value());
    const auto result = simulator.run(*request);

    kernels::Workload w =
        *simulator.workloads().find("quick-square");
    const auto reference = kernels::simulateLayer(
        w, 2, engine::vegetaS162(), /*output_forwarding=*/true);
    EXPECT_EQ(result.coreCycles, reference.coreCycles);
    EXPECT_EQ(result.instructions, reference.instructions);
    EXPECT_EQ(result.tileComputes, reference.tileComputes);
    EXPECT_EQ(result.executedN, reference.executedN);
    EXPECT_DOUBLE_EQ(result.macUtilization,
                     reference.macUtilization);
}

TEST(Simulator, ReplayMatchesGeneratedRun)
{
    const Simulator simulator;
    const auto request = simulator.request()
                             .gemm(kernels::GemmDims{64, 64, 256})
                             .engine("VEGETA-S-2-2")
                             .pattern(2)
                             .build();
    ASSERT_TRUE(request.has_value());

    kernels::KernelOptions opts;
    opts.traceOnly = true;
    const auto engine = simulator.engines().find("VEGETA-S-2-2");
    const auto run = kernels::runSpmmKernel(
        request->gemm, engine->effectiveN(2), opts);

    const auto direct = simulator.run(*request);
    const auto replayed = simulator.replay(run.trace, *request);
    ASSERT_EQ(replayed.status, ReplayRun::Status::Ok);
    EXPECT_EQ(replayed.result.coreCycles, direct.coreCycles);
    EXPECT_EQ(replayed.result.instructions, direct.instructions);
    EXPECT_EQ(replayed.result.kernel, "replay");

    // Streamed from the serialized bytes: the very same result.
    std::istringstream bytes(traceBytes(run.trace));
    const auto streamed = simulator.replay(bytes, *request);
    ASSERT_EQ(streamed.status, ReplayRun::Status::Ok);
    EXPECT_EQ(streamed.result.instructions, run.trace.size());
    expectIdenticalSim(streamed.result, replayed.result);
}

TEST(Simulator, ReplayRefusesOpsTheEngineCannotExecute)
{
    const Simulator simulator;
    // A 2:4 trace contains TILE_SPMM_U ops; the dense RASA-DM engine
    // has no datapath for them.
    kernels::KernelOptions opts;
    opts.traceOnly = true;
    const auto run =
        kernels::runSpmmKernel({64, 64, 256}, /*executed_n=*/2, opts);

    const auto sparse_req = simulator.request()
                                .gemm(kernels::GemmDims{64, 64, 256})
                                .engine("VEGETA-S-2-2")
                                .build();
    const auto dense_req = simulator.request()
                               .gemm(kernels::GemmDims{64, 64, 256})
                               .engine("VEGETA-D-1-2")
                               .build();
    EXPECT_EQ(simulator.replay(run.trace, *sparse_req).status,
              ReplayRun::Status::Ok);
    const auto refused = simulator.replay(run.trace, *dense_req);
    ASSERT_EQ(refused.status, ReplayRun::Status::Unsupported);
    EXPECT_EQ(refused.error, "VEGETA-D-1-2 cannot execute " +
                                 std::string(isa::opcodeName(
                                     isa::Opcode::TileSpmmU)));

    // The streamed replay checks each op as it arrives, with the
    // same verdict.
    std::istringstream bytes(traceBytes(run.trace));
    const auto streamed = simulator.replay(bytes, *dense_req);
    EXPECT_EQ(streamed.status, ReplayRun::Status::Unsupported);
    EXPECT_EQ(streamed.error, refused.error);
}

TEST(Simulator, TruncatedTraceReportsReadErrorBeforeUnsupportedOps)
{
    // A damaged trace is unreadable whatever ops it holds: a truncated
    // 2:4 trace on the dense engine reports the read error, not the
    // TILE_SPMM_U it cannot execute.  The trace spans more than one
    // reader block, so on an unseekable stream the refused op arrives
    // well before the short block does.
    const Simulator simulator;
    kernels::KernelOptions opts;
    opts.traceOnly = true;
    const auto run =
        kernels::runSpmmKernel({128, 128, 512}, /*executed_n=*/2, opts);
    ASSERT_GT(run.trace.size(), cpu::kTraceBlockOps);
    const auto dense_req = simulator.request()
                               .gemm(kernels::GemmDims{128, 128, 512})
                               .engine("VEGETA-D-1-2")
                               .build();
    std::string bytes = traceBytes(run.trace);
    bytes.resize(bytes.size() - 5);

    std::istringstream file(bytes);
    EXPECT_EQ(simulator.replay(file, *dense_req).status,
              ReplayRun::Status::Unreadable);

    UnseekableBuf pipe(bytes, std::ios::in);
    std::istream stream(&pipe);
    EXPECT_EQ(simulator.replay(stream, *dense_req).status,
              ReplayRun::Status::Unreadable);
}

TEST(Simulator, DenseEngineIgnoresOutputForwardingRequest)
{
    const Simulator simulator;
    const auto request = simulator.request()
                             .workload("quick-small")
                             .engine("VEGETA-D-1-2")
                             .pattern(2)
                             .outputForwarding(true)
                             .build();
    ASSERT_TRUE(request.has_value());
    EXPECT_FALSE(simulator.run(*request).outputForwarding);
}

// --- SweepRunner ------------------------------------------------------

std::vector<SimulationRequest>
fullQuickGrid(const Simulator &simulator)
{
    std::vector<std::string> workload_names;
    for (const auto &w : simulator.workloads().group("quick"))
        workload_names.push_back(w.name);
    return figure13Grid(simulator, workload_names,
                        simulator.engines().names(), {4, 2, 1});
}

TEST(SweepRunner, ParallelMatchesSingleThreadBitForBit)
{
    const Simulator simulator;
    const auto grid = fullQuickGrid(simulator);
    ASSERT_FALSE(grid.empty());

    const auto serial = SweepRunner(simulator, 1).run(grid);
    const auto parallel = SweepRunner(simulator, 4).run(grid);

    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i].workload, parallel[i].workload);
        EXPECT_EQ(serial[i].engine, parallel[i].engine);
        EXPECT_EQ(serial[i].layerN, parallel[i].layerN);
        EXPECT_EQ(serial[i].executedN, parallel[i].executedN);
        EXPECT_EQ(serial[i].outputForwarding,
                  parallel[i].outputForwarding);
        EXPECT_EQ(serial[i].coreCycles, parallel[i].coreCycles);
        EXPECT_EQ(serial[i].instructions, parallel[i].instructions);
        EXPECT_EQ(serial[i].engineInstructions,
                  parallel[i].engineInstructions);
        EXPECT_EQ(serial[i].tileComputes, parallel[i].tileComputes);
        EXPECT_EQ(serial[i].cacheHits, parallel[i].cacheHits);
        EXPECT_EQ(serial[i].cacheMisses, parallel[i].cacheMisses);
        // bit-for-bit: exact double equality, not a tolerance.
        EXPECT_EQ(serial[i].macUtilization,
                  parallel[i].macUtilization);
    }
}

TEST(SweepRunner, MatchesLegacyFigure13Sweep)
{
    const Simulator simulator;
    const auto workloads = simulator.workloads().group("quick");
    const auto engines = simulator.engines().configs();
    const auto legacy = kernels::figure13Sweep(workloads, engines);

    const auto results =
        SweepRunner(simulator, 2).run(fullQuickGrid(simulator));
    ASSERT_EQ(results.size(), legacy.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
        EXPECT_EQ(results[i].workload, legacy[i].workload);
        EXPECT_EQ(results[i].engine, legacy[i].engineName);
        EXPECT_EQ(results[i].layerN, legacy[i].layerN);
        EXPECT_EQ(results[i].coreCycles, legacy[i].coreCycles);
    }
}

TEST(SweepRunner, GeomeanSpeedupMatchesLegacy)
{
    const Simulator simulator;
    const auto workloads = simulator.workloads().group("quick");
    std::vector<std::string> names;
    for (const auto &w : workloads)
        names.push_back(w.name);

    for (const u32 layer_n : {4u, 2u, 1u}) {
        const double legacy = kernels::geomeanSpeedupVsDenseBaseline(
            workloads, layer_n, engine::vegetaS162(), true);
        const double sweep = geomeanSpeedup(
            simulator, names, layer_n, "VEGETA-S-16-2", true,
            "VEGETA-D-1-2", /*threads=*/3);
        EXPECT_DOUBLE_EQ(sweep, legacy) << layer_n;
    }
}

TEST(SweepRunner, EmptyBatch)
{
    const Simulator simulator;
    EXPECT_TRUE(SweepRunner(simulator, 4).run({}).empty());
}

// --- Result serialization --------------------------------------------

std::vector<SimulationResult>
sampleResults(const Simulator &simulator)
{
    const auto request = simulator.request()
                             .workload("quick-small")
                             .engine("VEGETA-S-2-2")
                             .pattern(2)
                             .build();
    return {simulator.run(*request)};
}

TEST(Results, CsvHasHeaderAndRow)
{
    const Simulator simulator;
    std::ostringstream os;
    writeCsv(os, sampleResults(simulator));
    const std::string text = os.str();
    EXPECT_NE(text.find("workload,engine,pattern"), std::string::npos);
    EXPECT_NE(text.find("quick-small,VEGETA-S-2-2,2:4"),
              std::string::npos);
}

TEST(Results, JsonIsWellFormedEnough)
{
    const Simulator simulator;
    std::ostringstream os;
    writeJson(os, sampleResults(simulator));
    const std::string text = os.str();
    EXPECT_EQ(text.front(), '[');
    EXPECT_NE(text.find("\"workload\": \"quick-small\""),
              std::string::npos);
    EXPECT_NE(text.find("\"core_cycles\": "), std::string::npos);
    EXPECT_EQ(text[text.size() - 2], ']');
}

TEST(Results, TableHasOneRowPerResult)
{
    const Simulator simulator;
    const auto results = sampleResults(simulator);
    EXPECT_EQ(resultsTable(results).numRows(), results.size());
}

} // namespace
} // namespace vegeta::sim
