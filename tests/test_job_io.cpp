/**
 * @file
 * Wire-payload tests: every Job variant field round-trips through
 * the versioned job-batch encoding bit-for-bit (same canonical key on
 * both sides), worker outputs round-trip both result kinds exactly,
 * and corrupt or truncated payloads -- untrusted bytes off a pipe or
 * socket -- decode to a clean error, never to wrong or silently
 * missing results.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "expect_identical.hpp"
#include "sim/job_io.hpp"
#include "sim/session.hpp"

namespace vegeta::sim {
namespace {

/** A simulation job with every field away from its default. */
Job
fancySimulationJob()
{
    SimulationRequest request;
    request.label = "odd label\twith\ntabs%and newlines";
    request.gemm = {96, 64, 320};
    request.engine = "VEGETA-S-2-2";
    request.patternN = 1;
    request.outputForwarding = true;
    request.kernel = KernelVariant::Naive;
    request.cBlocking = 2;
    request.core.fetchWidth = 5;
    request.core.retireWidth = 3;
    request.core.robEntries = 41;
    request.core.loadBufferEntries = 17;
    request.core.frontEndDepth = 9;
    request.core.numAlus = 2;
    request.core.numLsuPorts = 1;
    request.core.numVectorFus = 3;
    request.core.vectorFmaLatency = 7;
    request.core.engineClockDivider = 2;
    request.core.outputForwarding = true;
    request.core.cache.lineBytes = 128;
    request.core.cache.l1Sets = 32;
    request.core.cache.l1Ways = 6;
    request.core.cache.l1Latency = 3;
    request.core.cache.l2Latency = 21;
    return Job::simulate(std::move(request));
}

/** An analysis job exercising lists, params, and odd options. */
Job
fancyAnalysisJob()
{
    AnalyticalRequest request;
    request.model = "fig15-unstructured";
    request.workloads = {"BERT-L1", "GPT-L1"};
    request.engines = {"VEGETA-S-16-2", "VEGETA-D-1-2"};
    request.params["degree"] = 0.1; // not exactly representable
    request.params["negative"] = -3.25e-17;
    request.params["zero"] = -0.0;
    request.options["note"] = "spaces, %percent,\ttab,\nnewline";
    request.options["plain"] = "value";
    return Job::analyze(std::move(request));
}

void
expectSameJob(const Job &a, const Job &b)
{
    ASSERT_EQ(a.kind, b.kind);
    // jobKey covers every canonical field of either kind...
    EXPECT_EQ(jobKey(a), jobKey(b));
    if (a.kind == JobKind::Simulation) {
        // ...and the non-key echo fields must survive too.
        EXPECT_EQ(a.simulation.label, b.simulation.label);
        const cpu::CoreConfig &x = a.simulation.core;
        const cpu::CoreConfig &y = b.simulation.core;
        EXPECT_EQ(x.fetchWidth, y.fetchWidth);
        EXPECT_EQ(x.retireWidth, y.retireWidth);
        EXPECT_EQ(x.robEntries, y.robEntries);
        EXPECT_EQ(x.loadBufferEntries, y.loadBufferEntries);
        EXPECT_EQ(x.frontEndDepth, y.frontEndDepth);
        EXPECT_EQ(x.numAlus, y.numAlus);
        EXPECT_EQ(x.numLsuPorts, y.numLsuPorts);
        EXPECT_EQ(x.numVectorFus, y.numVectorFus);
        EXPECT_EQ(x.vectorFmaLatency, y.vectorFmaLatency);
        EXPECT_EQ(x.engineClockDivider, y.engineClockDivider);
        EXPECT_EQ(x.outputForwarding, y.outputForwarding);
        EXPECT_EQ(x.cache.lineBytes, y.cache.lineBytes);
        EXPECT_EQ(x.cache.l1Sets, y.cache.l1Sets);
        EXPECT_EQ(x.cache.l1Ways, y.cache.l1Ways);
        EXPECT_EQ(x.cache.l1Latency, y.cache.l1Latency);
        EXPECT_EQ(x.cache.l2Latency, y.cache.l2Latency);
    } else {
        EXPECT_EQ(a.analysis.workloads, b.analysis.workloads);
        EXPECT_EQ(a.analysis.engines, b.analysis.engines);
        EXPECT_EQ(a.analysis.options, b.analysis.options);
        ASSERT_EQ(a.analysis.params.size(), b.analysis.params.size());
        for (const auto &[name, value] : a.analysis.params) {
            const auto it = b.analysis.params.find(name);
            ASSERT_NE(it, b.analysis.params.end()) << name;
            // bit-for-bit, including signed zero.
            EXPECT_EQ(std::signbit(value), std::signbit(it->second));
            EXPECT_EQ(value, it->second);
        }
    }
}

TEST(JobIo, SimulationJobRoundTripsEveryField)
{
    const Job job = fancySimulationJob();
    const auto parsed = parseJob(serializeJob(job));
    ASSERT_TRUE(parsed.has_value());
    expectSameJob(job, *parsed);
}

TEST(JobIo, AnalysisJobRoundTripsEveryField)
{
    const Job job = fancyAnalysisJob();
    const auto parsed = parseJob(serializeJob(job));
    ASSERT_TRUE(parsed.has_value());
    expectSameJob(job, *parsed);
}

TEST(JobIo, TamperedJobRecordIsRejected)
{
    std::string line = serializeJob(fancySimulationJob());
    // Flip one digit inside the record body: the checksum must
    // reject it rather than hand back a subtly different job.
    const auto pos = line.find("320");
    ASSERT_NE(pos, std::string::npos);
    line.replace(pos, 3, "321");
    EXPECT_FALSE(parseJob(line).has_value());
    EXPECT_FALSE(parseJob("").has_value());
    EXPECT_FALSE(parseJob("garbage").has_value());
}

TEST(JobIo, JobBatchRoundTripsMixedJobs)
{
    const std::vector<Job> jobs = {fancySimulationJob(),
                                   fancyAnalysisJob(),
                                   fancySimulationJob()};
    std::string error;
    const auto decoded = decodeJobBatch(encodeJobBatch(jobs), &error);
    ASSERT_TRUE(decoded.has_value()) << error;
    ASSERT_EQ(decoded->size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i)
        expectSameJob(jobs[i], (*decoded)[i]);
}

TEST(JobIo, EmptyJobBatchRoundTrips)
{
    std::string error;
    const auto decoded = decodeJobBatch(encodeJobBatch({}), &error);
    ASSERT_TRUE(decoded.has_value()) << error;
    EXPECT_TRUE(decoded->empty());
}

TEST(JobIo, CorruptJobBatchesFailCleanly)
{
    const std::string text =
        encodeJobBatch({fancySimulationJob(), fancyAnalysisJob()});
    std::string error;
    // Wrong header.
    EXPECT_FALSE(
        decodeJobBatch("not a job batch\n" + text, &error).has_value());
    // Truncated: cut before the footer.
    const auto last_line = text.rfind("end\t");
    ASSERT_NE(last_line, std::string::npos);
    EXPECT_FALSE(
        decodeJobBatch(text.substr(0, last_line), &error).has_value());
    EXPECT_NE(error.find("no footer"), std::string::npos);
    // Truncated mid-record (the cut record fails its checksum).
    EXPECT_FALSE(decodeJobBatch(text.substr(0, last_line - 10), &error)
                     .has_value());
    // A record deleted but the footer count kept: count mismatch.
    {
        std::istringstream is(text);
        std::string line, kept;
        int line_no = 0;
        while (std::getline(is, line)) {
            if (++line_no != 2) // drop the first job record
                kept += line + "\n";
        }
        EXPECT_FALSE(decodeJobBatch(kept, &error).has_value());
        EXPECT_NE(error.find("count mismatch"), std::string::npos);
    }
    // Bit rot inside a record.
    {
        std::string rotten = text;
        const auto pos = rotten.find("VEGETA-S-2-2");
        ASSERT_NE(pos, std::string::npos);
        rotten.replace(pos, 12, "VEGETA-S-4-2");
        EXPECT_FALSE(decodeJobBatch(rotten, &error).has_value());
        EXPECT_NE(error.find("corrupt record"), std::string::npos);
    }
}

TEST(JobIo, WorkerOutputRoundTripsBothKindsBitExactly)
{
    // Real results from real runs, so the round trip is checked
    // against genuinely produced values (incl. macUtilization bits).
    const Session session;
    const auto sim_job = session.job()
                             .gemm(kernels::GemmDims{32, 32, 128})
                             .engine("VEGETA-S-2-2")
                             .pattern(2)
                             .build();
    ASSERT_TRUE(sim_job.has_value());
    auto ana_builder = session.job()
                           .model("fig15-unstructured")
                           .param("degree", 0.95);
    const auto ana_job = ana_builder.build();
    ASSERT_TRUE(ana_job.has_value());

    WorkerOutput output;
    output.results.emplace_back(jobKey(*sim_job),
                                session.run(*sim_job));
    output.results.emplace_back(jobKey(*ana_job),
                                session.run(*ana_job));
    output.simulationsPerformed = 1;
    output.analysesPerformed = 1;

    std::string error;
    const auto read =
        decodeWorkerOutput(encodeWorkerOutput(output), &error);
    ASSERT_TRUE(read.has_value()) << error;
    EXPECT_EQ(read->simulationsPerformed, 1u);
    EXPECT_EQ(read->analysesPerformed, 1u);
    ASSERT_EQ(read->results.size(), 2u);

    EXPECT_EQ(read->results[0].first, jobKey(*sim_job));
    const auto &sim_a = output.results[0].second.simulation;
    const auto &sim_b = read->results[0].second.simulation;
    EXPECT_EQ(sim_a.workload, sim_b.workload);
    EXPECT_EQ(sim_a.coreCycles, sim_b.coreCycles);
    EXPECT_EQ(sim_a.macUtilization, sim_b.macUtilization);
    EXPECT_EQ(sim_a.cacheHits, sim_b.cacheHits);
    EXPECT_EQ(sim_a.cacheMisses, sim_b.cacheMisses);

    EXPECT_EQ(read->results[1].first, jobKey(*ana_job));
    const auto &ana_a = output.results[1].second.analysis;
    const auto &ana_b = read->results[1].second.analysis;
    EXPECT_EQ(ana_a.model, ana_b.model);
    ASSERT_EQ(ana_a.columns, ana_b.columns);
    ASSERT_EQ(ana_a.rows.size(), ana_b.rows.size());
    for (std::size_t r = 0; r < ana_a.rows.size(); ++r) {
        ASSERT_EQ(ana_a.rows[r].size(), ana_b.rows[r].size());
        for (std::size_t c = 0; c < ana_a.rows[r].size(); ++c) {
            EXPECT_EQ(ana_a.rows[r][c].label, ana_b.rows[r][c].label);
            EXPECT_EQ(ana_a.rows[r][c].value, ana_b.rows[r][c].value);
            EXPECT_EQ(ana_a.rows[r][c].precision,
                      ana_b.rows[r][c].precision);
        }
    }
    EXPECT_EQ(ana_a.notes, ana_b.notes);
}

TEST(JobIo, TamperedWorkerOutputFailsCleanly)
{
    const Session session;
    const auto job = session.job()
                         .gemm(kernels::GemmDims{32, 32, 128})
                         .engine("VEGETA-D-1-2")
                         .build();
    ASSERT_TRUE(job.has_value());
    WorkerOutput output;
    output.results.emplace_back(jobKey(*job), session.run(*job));
    output.simulationsPerformed = 1;
    const std::string text = encodeWorkerOutput(output);

    // Tamper one cycle-count digit: checksum rejects the record and
    // the whole payload fails (a dropped worker, not a wrong merge).
    const auto &result = output.results[0].second.simulation;
    const std::string cycles = std::to_string(result.coreCycles);
    const auto pos = text.find("\t" + cycles + "\t");
    ASSERT_NE(pos, std::string::npos);
    std::string rotten = text;
    rotten[pos + 1] = rotten[pos + 1] == '9' ? '8' : '9';
    std::string error;
    EXPECT_FALSE(decodeWorkerOutput(rotten, &error).has_value());
    EXPECT_NE(error.find("corrupt record"), std::string::npos);
}

TEST(JobIo, ResultsFanOutToJobOrder)
{
    const Session session;
    auto job_for = [&](u32 pattern) {
        const auto job = session.job()
                             .gemm(kernels::GemmDims{32, 32, 64})
                             .engine("VEGETA-S-2-2")
                             .pattern(pattern)
                             .build();
        EXPECT_TRUE(job.has_value());
        return *job;
    };
    const std::vector<Job> jobs = {job_for(2), job_for(4), job_for(2)};
    const auto reference = session.runBatch(jobs, 1);

    // Keyed in the reverse of batch order, one record per key.
    WorkerOutput output;
    output.results.emplace_back(jobKey(jobs[1]), reference[1]);
    output.results.emplace_back(jobKey(jobs[0]), reference[0]);
    std::string missing;
    const auto results = resultsInJobOrder(jobs, output, &missing);
    ASSERT_TRUE(results.has_value()) << missing;
    expectIdenticalBatches(*results, reference);

    output.results.pop_back();
    EXPECT_FALSE(resultsInJobOrder(jobs, output, &missing).has_value());
    EXPECT_EQ(missing, jobKey(jobs[0]));
}

} // namespace
} // namespace vegeta::sim
