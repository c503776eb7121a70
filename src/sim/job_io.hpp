/**
 * @file
 * Versioned job/result payloads: the bytes the wire ships between
 * clients, the server and its workers (sim/wire, sim/workers).
 *
 * A job batch serializes every `Job` field, so the receiver
 * reconstructs exactly the work the sender described (same canonical
 * field spellings as jobKey), and a worker's output comes back keyed
 * by canonical job key, with doubles round-tripped through raw bit
 * patterns so a merged batch is bit-for-bit identical to a
 * single-process one.
 *
 * Both formats are corruption-checked end to end: a version header, a
 * per-record checksum, and a checksummed `end` footer carrying the
 * record count.  A truncated or tampered payload decodes to a clean
 * error, never to missing or wrong results.
 */

#ifndef VEGETA_SIM_JOB_IO_HPP
#define VEGETA_SIM_JOB_IO_HPP

#include <optional>
#include <string>
#include <vector>

#include "sim/job.hpp"
#include "sim/telemetry.hpp"

namespace vegeta::sim {

/** Version header of an encoded job batch. */
const char *jobFileHeader();

/** Version header of an encoded worker output. */
const char *resultFileHeader();

/** One job as a checksummed record line (kind-tagged). */
std::string serializeJob(const Job &job);

/** Parse a serializeJob line (nullopt on any corruption). */
std::optional<Job> parseJob(const std::string &line);

/**
 * A job batch as one self-delimiting text block: the job-file header,
 * one record per job, and the checksummed end-count footer -- the
 * payload of a wire `batch` frame.
 */
std::string encodeJobBatch(const std::vector<Job> &jobs);

/**
 * Decode an encodeJobBatch block.  Any defect -- wrong header,
 * corrupt or truncated record, bad footer count -- yields nullopt
 * with a one-line reason in @p error.
 */
std::optional<std::vector<Job>>
decodeJobBatch(const std::string &text, std::string *error);

/** What one worker (or the server) hands back for a batch. */
struct WorkerOutput
{
    /** Canonical job key -> result pairs. */
    std::vector<std::pair<std::string, JobResult>> results;

    /** Core-model simulations the worker actually performed. */
    u64 simulationsPerformed = 0;

    /** Analytical backends the worker actually evaluated. */
    u64 analysesPerformed = 0;

    /**
     * The worker's cumulative telemetry snapshot at encode time
     * (v2 `metric` records).  A WorkerSet keeps the latest copy per
     * worker for the daemon's live stats.
     */
    std::vector<telemetry::MetricRecord> metrics;
};

/**
 * A worker's output as one self-delimiting text block (result-file
 * header, key+result records, counter footer) -- the payload of a
 * wire `results` frame.
 */
std::string encodeWorkerOutput(const WorkerOutput &output);

/** Decode an encodeWorkerOutput block (error contract as above). */
std::optional<WorkerOutput>
decodeWorkerOutput(const std::string &text, std::string *error);

/**
 * Fan a keyed output back out to @p jobs' order: `results[i]`
 * answers `jobs[i]`, duplicates included, exactly like runBatch.
 * Nullopt with the first missing key in @p missing_key when the
 * output lacks one.
 */
std::optional<std::vector<JobResult>>
resultsInJobOrder(const std::vector<Job> &jobs,
                  const WorkerOutput &output, std::string *missing_key);

} // namespace vegeta::sim

#endif // VEGETA_SIM_JOB_IO_HPP
