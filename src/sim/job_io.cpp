#include "sim/job_io.hpp"

#include <functional>
#include <sstream>
#include <unordered_map>

#include "sim/serial.hpp"

namespace vegeta::sim {

namespace {

using serial::FieldReader;
using serial::FieldWriter;

/** Record kind tags, the first field of job and result records. */
constexpr const char *kSimTag = "S";
constexpr const char *kAnaTag = "A";

/**
 * First field of a worker-telemetry record in a v2 result file.
 * Result records start with a canonical job key, and every job key
 * is prefixed ("sim|", "ana|"), so the bare token can never collide.
 */
constexpr const char *kMetricTag = "metric";

void
appendMetricRecord(FieldWriter &writer,
                   const telemetry::MetricRecord &metric)
{
    writer.raw(kMetricTag)
        .str(metric.name)
        .num(metric.kind == telemetry::MetricKind::Timer ? 1 : 0)
        .num(metric.count)
        .num(metric.sumNs)
        .num(metric.minNs)
        .num(metric.maxNs);
}

bool
readMetricRecord(FieldReader &reader,
                 telemetry::MetricRecord *metric)
{
    metric->name = reader.str();
    const u64 kind = reader.num();
    metric->kind = kind == 1 ? telemetry::MetricKind::Timer
                             : telemetry::MetricKind::Counter;
    metric->count = reader.num();
    metric->sumNs = reader.num();
    metric->minNs = reader.num();
    metric->maxNs = reader.num();
    return reader.done() && kind <= 1 && !metric->name.empty();
}

/**
 * A SimulationRequest, every field in jobKey's canonical spelling
 * (kernelVariantName for the variant, the full core and L1
 * configuration) so a worker reruns exactly what the parent keyed.
 */
void
appendSimulationRequest(FieldWriter &writer,
                        const SimulationRequest &request)
{
    const cpu::CoreConfig &core = request.core;
    const cpu::CacheConfig &l1 = core.cache;
    writer.str(request.label)
        .num(request.gemm.m)
        .num(request.gemm.n)
        .num(request.gemm.k)
        .str(request.engine)
        .num(request.patternN)
        .num(request.outputForwarding ? 1 : 0)
        .str(kernelVariantName(request.kernel))
        .num(request.cBlocking)
        .num(core.fetchWidth)
        .num(core.retireWidth)
        .num(core.robEntries)
        .num(core.loadBufferEntries)
        .num(core.frontEndDepth)
        .num(core.numAlus)
        .num(core.numLsuPorts)
        .num(core.numVectorFus)
        .num(core.vectorFmaLatency)
        .num(core.engineClockDivider)
        .num(core.outputForwarding ? 1 : 0)
        .num(l1.lineBytes)
        .num(l1.l1Sets)
        .num(l1.l1Ways)
        .num(l1.l1Latency)
        .num(l1.l2Latency);
}

bool
readSimulationRequest(FieldReader &reader, SimulationRequest *request)
{
    request->label = reader.str();
    request->gemm.m = reader.num32();
    request->gemm.n = reader.num32();
    request->gemm.k = reader.num32();
    request->engine = reader.str();
    request->patternN = reader.num32();
    const u64 of = reader.num();
    request->outputForwarding = of != 0;
    const std::string kernel = reader.str();
    if (kernel == kernelVariantName(KernelVariant::Optimized))
        request->kernel = KernelVariant::Optimized;
    else if (kernel == kernelVariantName(KernelVariant::Naive))
        request->kernel = KernelVariant::Naive;
    else
        return false;
    request->cBlocking = reader.num32();
    cpu::CoreConfig &core = request->core;
    core.fetchWidth = reader.num32();
    core.retireWidth = reader.num32();
    core.robEntries = reader.num32();
    core.loadBufferEntries = reader.num32();
    core.frontEndDepth = reader.num32();
    core.numAlus = reader.num32();
    core.numLsuPorts = reader.num32();
    core.numVectorFus = reader.num32();
    core.vectorFmaLatency = reader.num();
    core.engineClockDivider = reader.num32();
    const u64 core_of = reader.num();
    core.outputForwarding = core_of != 0;
    cpu::CacheConfig &l1 = core.cache;
    l1.lineBytes = reader.num32();
    l1.l1Sets = reader.num32();
    l1.l1Ways = reader.num32();
    l1.l1Latency = reader.num();
    l1.l2Latency = reader.num();
    return reader.ok() && of <= 1 && core_of <= 1;
}

void
appendAnalyticalRequest(FieldWriter &writer,
                        const AnalyticalRequest &request)
{
    writer.str(request.model);
    writer.num(request.workloads.size());
    for (const auto &name : request.workloads)
        writer.str(name);
    writer.num(request.engines.size());
    for (const auto &name : request.engines)
        writer.str(name);
    writer.num(request.params.size());
    for (const auto &[name, value] : request.params)
        writer.str(name).bits(value);
    writer.num(request.options.size());
    for (const auto &[name, value] : request.options)
        writer.str(name).str(value);
}

bool
readAnalyticalRequest(FieldReader &reader, AnalyticalRequest *request)
{
    request->model = reader.str();
    const u64 workloads = reader.num();
    if (!reader.ok() || workloads > reader.remaining())
        return false;
    for (u64 i = 0; i < workloads; ++i)
        request->workloads.push_back(reader.str());
    const u64 engines = reader.num();
    if (!reader.ok() || engines > reader.remaining())
        return false;
    for (u64 i = 0; i < engines; ++i)
        request->engines.push_back(reader.str());
    const u64 params = reader.num();
    if (!reader.ok() || params > reader.remaining() / 2)
        return false;
    for (u64 i = 0; i < params; ++i) {
        const std::string name = reader.str();
        request->params[name] = reader.bits();
    }
    const u64 options = reader.num();
    if (!reader.ok() || options > reader.remaining() / 2)
        return false;
    for (u64 i = 0; i < options; ++i) {
        const std::string name = reader.str();
        request->options[name] = reader.str();
    }
    return reader.ok();
}

void
appendJobResult(FieldWriter &writer, const JobResult &result)
{
    if (result.kind == JobKind::Analysis) {
        writer.raw(kAnaTag);
        serial::appendAnalyticalResult(writer, result.analysis);
    } else {
        writer.raw(kSimTag);
        serial::appendSimulationResult(writer, result.simulation);
    }
}

bool
readJobResult(FieldReader &reader, JobResult *result)
{
    const std::string kind = reader.raw();
    if (kind == kAnaTag) {
        result->kind = JobKind::Analysis;
        return serial::readAnalyticalResult(reader, &result->analysis);
    }
    if (kind == kSimTag) {
        result->kind = JobKind::Simulation;
        return serial::readSimulationResult(reader,
                                            &result->simulation);
    }
    return false;
}

/** The one kind-tag dispatch for job records (parse + file read). */
bool
readJob(FieldReader &reader, Job *job)
{
    const std::string kind = reader.raw();
    if (kind == kAnaTag) {
        job->kind = JobKind::Analysis;
        if (!readAnalyticalRequest(reader, &job->analysis))
            return false;
    } else if (kind == kSimTag) {
        job->kind = JobKind::Simulation;
        if (!readSimulationRequest(reader, &job->simulation))
            return false;
    } else {
        return false;
    }
    return reader.done();
}

/** A checksummed "end <count> ..." footer line. */
std::string
footerLine(const std::vector<u64> &numbers)
{
    FieldWriter writer;
    writer.raw("end");
    for (const u64 n : numbers)
        writer.num(n);
    return writer.line();
}

/**
 * Shared line-structured reader: verifies the header, hands every
 * checksum-valid record to @p on_record, and requires a checksummed
 * "end" footer whose first number matches the record count.  Extra
 * footer numbers are returned through @p footer_numbers.
 */
bool
readRecordStream(std::istream &is, const char *header,
                 const std::function<bool(FieldReader &)> &on_record,
                 std::vector<u64> *footer_numbers, std::string *error)
{
    auto fail = [&](const std::string &reason) {
        if (error)
            *error = reason;
        return false;
    };

    std::string line;
    if (!std::getline(is, line) || line != header)
        return fail("bad or missing header");

    u64 records = 0;
    bool saw_footer = false;
    while (std::getline(is, line)) {
        if (line.empty())
            continue;
        if (saw_footer)
            return fail("content after footer");
        auto fields = serial::checkedFields(line);
        if (!fields)
            return fail("corrupt record (checksum)");
        FieldReader reader(std::move(*fields));
        if (reader.remaining() > 0 &&
            line.compare(0, 4, "end\t") == 0) {
            if (reader.raw() != "end")
                return fail("corrupt footer");
            std::vector<u64> numbers;
            while (reader.remaining() > 0)
                numbers.push_back(reader.num());
            if (!reader.ok() || numbers.empty())
                return fail("corrupt footer");
            if (numbers[0] != records)
                return fail("record count mismatch");
            if (footer_numbers)
                *footer_numbers = std::move(numbers);
            saw_footer = true;
            continue;
        }
        if (!on_record(reader))
            return fail("corrupt record");
        ++records;
    }
    if (!saw_footer)
        return fail("truncated (no footer)");
    return true;
}

} // namespace

const char *
jobFileHeader()
{
    return "vegeta-job-file v1";
}

const char *
resultFileHeader()
{
    // v2 added optional "metric" records (worker-side telemetry);
    // result records themselves are unchanged from v1.
    return "vegeta-result-file v2";
}

std::string
serializeJob(const Job &job)
{
    FieldWriter writer;
    if (job.kind == JobKind::Analysis) {
        writer.raw(kAnaTag);
        appendAnalyticalRequest(writer, job.analysis);
    } else {
        writer.raw(kSimTag);
        appendSimulationRequest(writer, job.simulation);
    }
    return writer.line();
}

std::optional<Job>
parseJob(const std::string &line)
{
    auto fields = serial::checkedFields(line);
    if (!fields)
        return std::nullopt;
    FieldReader reader(std::move(*fields));
    Job job;
    if (!readJob(reader, &job))
        return std::nullopt;
    return job;
}

std::string
encodeJobBatch(const std::vector<Job> &jobs)
{
    std::string text = jobFileHeader();
    text += '\n';
    for (const auto &job : jobs) {
        text += serializeJob(job);
        text += '\n';
    }
    text += footerLine({jobs.size()});
    text += '\n';
    return text;
}

std::optional<std::vector<Job>>
decodeJobBatch(const std::string &text, std::string *error)
{
    std::istringstream is(text);
    std::vector<Job> jobs;
    const bool ok = readRecordStream(
        is, jobFileHeader(),
        [&](FieldReader &reader) {
            Job job;
            if (!readJob(reader, &job))
                return false;
            jobs.push_back(std::move(job));
            return true;
        },
        nullptr, error);
    if (!ok)
        return std::nullopt;
    return jobs;
}

std::string
encodeWorkerOutput(const WorkerOutput &output)
{
    std::string text = resultFileHeader();
    text += '\n';
    for (const auto &[key, result] : output.results) {
        FieldWriter writer;
        writer.str(key);
        appendJobResult(writer, result);
        text += writer.line();
        text += '\n';
    }
    for (const auto &metric : output.metrics) {
        FieldWriter writer;
        appendMetricRecord(writer, metric);
        text += writer.line();
        text += '\n';
    }
    // The footer count covers every record, metrics included.
    text += footerLine({output.results.size() +
                            output.metrics.size(),
                        output.simulationsPerformed,
                        output.analysesPerformed});
    text += '\n';
    return text;
}

std::optional<WorkerOutput>
decodeWorkerOutput(const std::string &text, std::string *error)
{
    std::istringstream is(text);
    WorkerOutput output;
    std::vector<u64> footer;
    const bool ok = readRecordStream(
        is, resultFileHeader(),
        [&](FieldReader &reader) {
            const std::string first = reader.raw();
            if (first == kMetricTag) {
                telemetry::MetricRecord metric;
                if (!readMetricRecord(reader, &metric))
                    return false;
                output.metrics.push_back(std::move(metric));
                return true;
            }
            std::string key;
            if (!serial::unescape(first, &key))
                return false;
            JobResult result;
            if (!readJobResult(reader, &result) || !reader.done())
                return false;
            output.results.emplace_back(key, std::move(result));
            return true;
        },
        &footer, error);
    if (!ok)
        return std::nullopt;
    if (footer.size() != 3) {
        if (error)
            *error = "corrupt footer";
        return std::nullopt;
    }
    output.simulationsPerformed = footer[1];
    output.analysesPerformed = footer[2];
    return output;
}

std::optional<std::vector<JobResult>>
resultsInJobOrder(const std::vector<Job> &jobs,
                  const WorkerOutput &output, std::string *missing_key)
{
    std::unordered_map<std::string, const JobResult *> by_key;
    by_key.reserve(output.results.size());
    for (const auto &[key, result] : output.results)
        by_key.emplace(key, &result);
    std::vector<JobResult> results;
    results.reserve(jobs.size());
    for (const auto &job : jobs) {
        std::string key = jobKey(job);
        const auto it = by_key.find(key);
        if (it == by_key.end()) {
            if (missing_key)
                *missing_key = std::move(key);
            return std::nullopt;
        }
        results.push_back(*it->second);
    }
    return results;
}

} // namespace vegeta::sim
