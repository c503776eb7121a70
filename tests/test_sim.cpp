/**
 * @file
 * Tests for the vegeta::sim facade: GEMM-spec parsing, registry
 * round-trips, Session/primitive equivalence, batch determinism, and
 * result serialization.  (JobBuilder validation lives in
 * test_session.)
 */

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "cpu/trace_io.hpp"
#include "expect_identical.hpp"
#include "kernels/driver.hpp"
#include "sim/session.hpp"

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

/** The simulation request of a job that must build. */
SimulationRequest
requestOf(JobBuilder builder)
{
    const auto job = builder.build();
    EXPECT_TRUE(job.has_value()) << builder.error();
    return job ? job->simulation : SimulationRequest{};
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

// --- Session ---------------------------------------------------------

TEST(Session, MatchesSimulateLayerPrimitive)
{
    const Session session;
    const auto result = session.run(requestOf(
        session.job()
            .workload("quick-square")
            .engine("VEGETA-S-16-2")
            .pattern(2)
            .outputForwarding(true)));

    kernels::Workload w = *session.workloads().find("quick-square");
    const auto reference = kernels::simulateLayer(
        w, 2, engine::vegetaS162(), /*output_forwarding=*/true);
    EXPECT_EQ(result.coreCycles, reference.coreCycles);
    EXPECT_EQ(result.instructions, reference.instructions);
    EXPECT_EQ(result.tileComputes, reference.tileComputes);
    EXPECT_EQ(result.executedN, reference.executedN);
    EXPECT_DOUBLE_EQ(result.macUtilization,
                     reference.macUtilization);
}

TEST(Session, ReplayMatchesGeneratedRun)
{
    const Session session;
    const kernels::GemmDims dims{64, 64, 256};
    const auto request = requestOf(
        session.job().gemm(dims).engine("VEGETA-S-2-2").pattern(2));

    kernels::KernelOptions opts;
    opts.traceOnly = true;
    const auto engine = session.engines().find("VEGETA-S-2-2");
    const auto run = kernels::runSpmmKernel(
        request.gemm, engine->effectiveN(2), opts);

    const auto direct = session.run(request);
    const auto replayed = session.replay(run.trace, request);
    ASSERT_EQ(replayed.status, ReplayRun::Status::Ok);
    EXPECT_EQ(replayed.result.coreCycles, direct.coreCycles);
    EXPECT_EQ(replayed.result.instructions, direct.instructions);
    EXPECT_EQ(replayed.result.kernel, "replay");

    // Streamed from the serialized bytes: the very same result.
    std::istringstream bytes(traceBytes(run.trace));
    const auto streamed = session.replay(bytes, request);
    ASSERT_EQ(streamed.status, ReplayRun::Status::Ok);
    EXPECT_EQ(streamed.result.instructions, run.trace.size());
    expectIdenticalSim(streamed.result, replayed.result);
}

TEST(Session, ReplayRefusesOpsTheEngineCannotExecute)
{
    const Session session;
    // A 2:4 trace contains TILE_SPMM_U ops; the dense RASA-DM engine
    // has no datapath for them.
    kernels::KernelOptions opts;
    opts.traceOnly = true;
    const auto run =
        kernels::runSpmmKernel({64, 64, 256}, /*executed_n=*/2, opts);

    const kernels::GemmDims dims{64, 64, 256};
    const auto sparse_req =
        requestOf(session.job().gemm(dims).engine("VEGETA-S-2-2"));
    const auto dense_req =
        requestOf(session.job().gemm(dims).engine("VEGETA-D-1-2"));
    EXPECT_EQ(session.replay(run.trace, sparse_req).status,
              ReplayRun::Status::Ok);
    const auto refused = session.replay(run.trace, dense_req);
    ASSERT_EQ(refused.status, ReplayRun::Status::Unsupported);
    EXPECT_EQ(refused.error, "VEGETA-D-1-2 cannot execute " +
                                 std::string(isa::opcodeName(
                                     isa::Opcode::TileSpmmU)));

    // The streamed replay checks each op as it arrives, with the
    // same verdict.
    std::istringstream bytes(traceBytes(run.trace));
    const auto streamed = session.replay(bytes, dense_req);
    EXPECT_EQ(streamed.status, ReplayRun::Status::Unsupported);
    EXPECT_EQ(streamed.error, refused.error);
}

TEST(Session, TruncatedTraceReportsReadErrorBeforeUnsupportedOps)
{
    // A damaged trace is unreadable whatever ops it holds: a truncated
    // 2:4 trace on the dense engine reports the read error, not the
    // TILE_SPMM_U it cannot execute.  The trace spans more than one
    // reader block, so on an unseekable stream the refused op arrives
    // well before the short block does.
    const Session session;
    kernels::KernelOptions opts;
    opts.traceOnly = true;
    const auto run =
        kernels::runSpmmKernel({128, 128, 512}, /*executed_n=*/2, opts);
    ASSERT_GT(run.trace.size(), cpu::kTraceBlockOps);
    const auto dense_req = requestOf(session.job()
                                         .gemm(kernels::GemmDims{
                                             128, 128, 512})
                                         .engine("VEGETA-D-1-2"));
    std::string bytes = traceBytes(run.trace);
    bytes.resize(bytes.size() - 5);

    std::istringstream file(bytes);
    EXPECT_EQ(session.replay(file, dense_req).status,
              ReplayRun::Status::Unreadable);

    UnseekableBuf pipe(bytes, std::ios::in);
    std::istream stream(&pipe);
    EXPECT_EQ(session.replay(stream, dense_req).status,
              ReplayRun::Status::Unreadable);
}

TEST(Session, DenseEngineIgnoresOutputForwardingRequest)
{
    const Session session;
    const auto request = requestOf(session.job()
                                       .workload("quick-small")
                                       .engine("VEGETA-D-1-2")
                                       .pattern(2)
                                       .outputForwarding(true));
    EXPECT_FALSE(session.run(request).outputForwarding);
}

// --- runBatch and the grid helpers -----------------------------------

std::vector<std::string>
quickNames(const Session &session)
{
    std::vector<std::string> names;
    for (const auto &w : session.workloads().group("quick"))
        names.push_back(w.name);
    return names;
}

TEST(Session, RunBatchParallelMatchesSingleThreadBitForBit)
{
    const Session session;
    const auto grid = figure13Grid(session, quickNames(session),
                                   session.engines().names());
    ASSERT_FALSE(grid.empty());

    const auto serial = session.runBatch(grid, 1);
    const auto parallel = session.runBatch(grid, 4);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i)
        expectIdenticalSim(serial[i], parallel[i]);
}

TEST(Session, GeomeanSpeedupMatchesMaterializedLayers)
{
    // The streaming batch behind geomeanSpeedup against the
    // materialized-trace primitive, ratio by ratio.
    const Session session;
    const auto names = quickNames(session);
    for (const u32 layer_n : {4u, 2u, 1u}) {
        double log_sum = 0.0;
        for (const auto &name : names) {
            const auto w = *session.workloads().find(name);
            const auto base = kernels::simulateLayer(
                w, layer_n, engine::vegetaD12(), false);
            const auto test = kernels::simulateLayer(
                w, layer_n, engine::vegetaS162(), true);
            log_sum += std::log(double(base.coreCycles) /
                                double(test.coreCycles));
        }
        const double expected =
            std::exp(log_sum / double(names.size()));
        const double batch =
            geomeanSpeedup(session, names, layer_n, "VEGETA-S-16-2",
                           true, "VEGETA-D-1-2", /*threads=*/3);
        EXPECT_DOUBLE_EQ(batch, expected) << layer_n;
    }
}

TEST(Session, RunBatchOfNothingIsEmpty)
{
    const Session session;
    EXPECT_TRUE(
        session.runBatch(std::vector<SimulationRequest>{}, 4).empty());
}

// --- Result serialization --------------------------------------------

std::vector<SimulationResult>
sampleResults(const Session &session)
{
    return {session.run(requestOf(session.job()
                                      .workload("quick-small")
                                      .engine("VEGETA-S-2-2")
                                      .pattern(2)))};
}

TEST(Results, CsvHasHeaderAndRow)
{
    const Session session;
    std::ostringstream os;
    writeCsv(os, sampleResults(session));
    const std::string text = os.str();
    EXPECT_NE(text.find("workload,engine,pattern"), std::string::npos);
    EXPECT_NE(text.find("quick-small,VEGETA-S-2-2,2:4"),
              std::string::npos);
}

TEST(Results, JsonIsWellFormedEnough)
{
    const Session session;
    std::ostringstream os;
    writeJson(os, sampleResults(session));
    const std::string text = os.str();
    EXPECT_EQ(text.front(), '[');
    EXPECT_NE(text.find("\"workload\": \"quick-small\""),
              std::string::npos);
    EXPECT_NE(text.find("\"core_cycles\": "), std::string::npos);
    EXPECT_EQ(text[text.size() - 2], ']');
}

TEST(Results, TableHasOneRowPerResult)
{
    const Session session;
    const auto results = sampleResults(session);
    EXPECT_EQ(resultsTable(results).numRows(), results.size());
}

} // namespace
} // namespace vegeta::sim
