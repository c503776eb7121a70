/**
 * @file
 * Command-line front end of the vegeta::sim Session -- the "release
 * binary" of the repository, organized as subcommands so both halves
 * of the evaluation (trace simulation and the analytical models) are
 * reachable from the shell:
 *
 *   simulate_cli run     one trace simulation (or trace replay)
 *   simulate_cli analyze one analytical model evaluation
 *   simulate_cli sweep   a (workload x pattern x engine) grid batch
 *   simulate_cli tune    budgeted design-space search (sim/tune.hpp)
 *   simulate_cli serve   the long-lived simulation service daemon
 *   simulate_cli list    registered workloads/engines/models
 *   simulate_cli cache   persistent result-cache stats/clear/merge
 *
 * `run` and `sweep` accept --cache-dir DIR to attach the Session's
 * persistent result cache; `cache stats` prints its counters as JSON
 * and `cache prune` bounds the file under --max-bytes/--max-entries.
 * Every local batch runs on Session::runBatch's threads.
 *
 * Each subcommand parses its arguments from one FlagTable of (flag,
 * accepted value, setter) rows.  Every numeric flag goes through the
 * strict parsers (sim::parseU32, serial::parseU64, parseGemmSpec):
 * garbage or negative values are errors, never silently-zero atoi
 * results.
 *
 * `serve` keeps one warm Session (and optional pre-forked persistent
 * workers, sim/workers.hpp) behind a unix/TCP socket; `run --connect
 * ADDR` and `sweep --connect ADDR` send the same work there instead of
 * simulating locally, with byte-identical stdout (sim/server,
 * sim/client).  A sweep runs on worker processes only that way.
 */

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include <unistd.h>

#include "cpu/trace_io.hpp"
#include "sim/client.hpp"
#include "sim/serial.hpp"
#include "sim/server.hpp"
#include "sim/session.hpp"
#include "sim/telemetry.hpp"
#include "sim/tune.hpp"

namespace {

using namespace vegeta;

enum class OutputFormat
{
    Text,
    Csv,
    Json,
};

void
usage(std::ostream &os)
{
    os << "vegeta simulate_cli <command> [options]\n"
          "\n"
          "commands:\n"
          "  run      simulate one workload/GEMM, or replay a trace\n"
          "  analyze  evaluate an analytical model\n"
          "  sweep    run a workload x pattern x engine grid\n"
          "  tune     budgeted design-space search (analytical\n"
          "           prefilter + replay confirmation)\n"
          "  serve    run the long-lived simulation service daemon\n"
          "  stats    live stats of a running serve daemon\n"
          "  list     list workloads, engines, and models\n"
          "  cache    persistent-cache maintenance "
          "(stats|clear|prune|merge)\n"
          "\n"
          "run options:\n"
          "  --workload NAME     a Table IV layer (default GPT-L1)\n"
          "  --gemm MxNxK        explicit GEMM dimensions\n"
          "  --engine NAME       engine (default VEGETA-S-16-2)\n"
          "  --pattern N         layer-wise N:4 (1/2/4, default 2)\n"
          "  --no-of             disable output forwarding\n"
          "  --naive             Listing 1 kernel (no C blocking)\n"
          "  --cblocking N       C tile registers (1..3)\n"
          "  --trace-out FILE    save the generated trace\n"
          "  --trace-in FILE     replay a saved trace\n"
          "  --cache-dir DIR     attach the persistent result cache\n"
          "  --connect ADDR      run on a serve daemon instead of\n"
          "                      locally (byte-identical output)\n"
          "  --metrics-out FILE  write telemetry metrics JSON\n"
          "  --csv | --json      machine-readable output\n"
          "\n"
          "analyze options:\n"
          "  MODEL               analytical model name (see list)\n"
          "  --workload NAME     narrow to a workload (repeatable)\n"
          "  --engine NAME       narrow to an engine (repeatable)\n"
          "  --param K=V         numeric model parameter\n"
          "  --option K=V        string model option\n"
          "  --csv | --json      machine-readable output\n"
          "\n"
          "sweep options:\n"
          "  --quick             quick workload group (default "
          "tableIV)\n"
          "  --workload NAME     explicit workload (repeatable)\n"
          "  --engine NAME       explicit engine (repeatable, default "
          "all)\n"
          "  --pattern N         layer pattern (repeatable, default "
          "4 2 1)\n"
          "  --threads N         worker threads (default hardware)\n"
          "  --cache-dir DIR     attach the persistent result cache\n"
          "  --connect ADDR      run on a serve daemon instead of\n"
          "                      locally (byte-identical output)\n"
          "  --trace-out FILE    write a Chrome trace_event span\n"
          "                      trace of the sweep\n"
          "  --metrics-out FILE  write telemetry metrics JSON\n"
          "  --csv | --json      machine-readable output\n"
          "\n"
          "tune options:\n"
          "  --quick             quick workload group (default "
          "tableIV)\n"
          "  --workload NAME     explicit workload (repeatable)\n"
          "  --engine NAME       explicit engine (repeatable, default "
          "all)\n"
          "  --space NAME        search axes: full (default; adds the\n"
          "                      C-blocking axis) or figure13\n"
          "  --budget N          replay confirmations (default 8,\n"
          "                      strictly honored)\n"
          "  --max-area X        reject designs above X area units\n"
          "                      (engine::estimatePhysical units;\n"
          "                      VEGETA-S-16-2 is 554.1)\n"
          "  --candidates        widen the engine axis with parametric\n"
          "                      512-MAC design candidates\n"
          "  --threads N         replay batch threads\n"
          "  --cache-dir DIR     persistent cache (changes no report\n"
          "                      byte)\n"
          "  --connect ADDR      confirm replays on a serve daemon\n"
          "  --trace-out FILE    write a Chrome trace_event span\n"
          "                      trace of the search\n"
          "  --metrics-out FILE  write telemetry metrics JSON\n"
          "  --csv | --json      machine-readable report\n"
          "\n"
          "serve options:\n"
          "  --socket PATH       listen on a unix-domain socket\n"
          "  --port N            listen on 127.0.0.1:N (0 = pick an\n"
          "                      ephemeral port)\n"
          "  --service-workers K persistent pre-forked worker\n"
          "                      processes (default 0 = in-process)\n"
          "  --threads N         simulation threads (per worker)\n"
          "  --queue-depth N     pending batches per client before\n"
          "                      backpressure (default 4)\n"
          "  --cache-dir DIR     persistent result cache for the\n"
          "                      service\n"
          "\n"
          "  ADDR for --connect is unix:PATH, tcp:HOST:PORT, a bare\n"
          "  port number (127.0.0.1), or a bare socket path.\n"
          "\n"
          "stats options:\n"
          "  --connect ADDR      the serve daemon to query (required);\n"
          "                      prints its live stats JSON\n"
          "\n"
          "cache options:\n"
          "  stats | clear | prune   action (needs --cache-dir)\n"
          "  merge DST SRC...    fold SRC cache dirs into DST\n"
          "                      (first insert wins)\n"
          "  --cache-dir DIR     cache directory (required)\n"
          "  --max-bytes N       prune: keep newest entries <= N "
          "bytes\n"
          "  --max-entries N     prune: keep at most N newest "
          "entries\n"
          "  --json              stats: extend the JSON with hit_rate,\n"
          "                      last_prune_bytes, and entries_by_type\n"
          "                      (the plain output stays stable)\n";
}

/** Strict double parse: the whole string must be one number. */
std::optional<double>
parseDouble(const std::string &text)
{
    if (text.empty())
        return std::nullopt;
    char *end = nullptr;
    const double value = std::strtod(text.c_str(), &end);
    if (end != text.c_str() + text.size())
        return std::nullopt;
    return value;
}

/**
 * One subcommand's flag table.  Each row names a flag, what its value
 * must be (nullptr for a switch, which takes none) and the setter
 * that stores the value or refuses it by returning false; bare
 * arguments (no leading '-') go to `bare`, which may refuse them too.
 * parse() walks the arguments once against the rows.
 */
struct FlagTable
{
    using Setter = std::function<bool(const std::string &)>;

    struct Row
    {
        const char *flag;
        const char *expects;
        Setter set;
    };

    const char *command;
    std::vector<Row> rows;
    Setter bare = nullptr;

    /**
     * nullopt when the command goes on, else its exit status: 0 after
     * --help, 1 after a rejection (printed here).
     */
    std::optional<int>
    parse(const std::vector<std::string> &args) const
    {
        for (std::size_t i = 0; i < args.size(); ++i) {
            const std::string &arg = args[i];
            if (arg == "--help") {
                usage(std::cout);
                return 0;
            }
            const auto row = std::find_if(
                rows.begin(), rows.end(),
                [&](const Row &r) { return arg == r.flag; });
            if (row == rows.end()) {
                if (bare && !arg.empty() && arg[0] != '-' && bare(arg))
                    continue;
                std::cerr << "error: unknown " << command << " option "
                          << arg << "\n";
                return 1;
            }
            if (!row->expects) {
                row->set(arg);
                continue;
            }
            if (++i == args.size()) {
                std::cerr << "error: " << arg << " needs a value\n";
                return 1;
            }
            if (!row->set(args[i])) {
                std::cerr << "error: " << arg << " expects "
                          << row->expects << ", got '" << args[i]
                          << "'\n";
                return 1;
            }
        }
        return std::nullopt;
    }
};

/** Marks a row that takes no value. */
constexpr const char *kSwitch = nullptr;

/** Marks a row whose setter takes any string (checked later). */
constexpr const char *kText = "a value";

/** Sets @p out to @p value (switches). */
template <typename T>
FlagTable::Setter
assign(T &out, T value)
{
    return [&out, value](const std::string &) {
        out = value;
        return true;
    };
}

/** Stores the value (a string or an optional one). */
template <typename T>
FlagTable::Setter
store(T &out)
{
    return [&out](const std::string &value) {
        out = value;
        return true;
    };
}

/** Appends the value (repeatable flags). */
FlagTable::Setter
append(std::vector<std::string> &out)
{
    return [&out](const std::string &value) {
        out.push_back(value);
        return true;
    };
}

/** A strict u32 in [lo, hi]. */
FlagTable::Setter
u32In(u32 &out, u32 lo = 0, u32 hi = 0xffffffffu)
{
    return [&out, lo, hi](const std::string &text) {
        const auto parsed = sim::parseU32(text);
        if (!parsed || *parsed < lo || *parsed > hi)
            return false;
        out = *parsed;
        return true;
    };
}

/** A strict u64 (into a u64 or an optional one). */
template <typename T>
FlagTable::Setter
u64Of(T &out)
{
    return [&out](const std::string &text) {
        u64 parsed;
        if (!sim::serial::parseU64(text, &parsed))
            return false;
        out = parsed;
        return true;
    };
}

/** KEY=VALUE (non-empty key); @p set may refuse the value. */
FlagTable::Setter
keyValue(std::function<bool(const std::string &, const std::string &)>
             set)
{
    return [set](const std::string &text) {
        const auto eq = text.find('=');
        return eq != std::string::npos && eq != 0 &&
               set(text.substr(0, eq), text.substr(eq + 1));
    };
}

void
reportText(const sim::SimulationResult &result)
{
    std::cout << "workload:           " << result.workload << "\n"
              << "engine:             " << result.engine << "\n"
              << "pattern:            " << result.layerN
              << ":4 (executes " << result.executedN
              << ":4 on this engine)\n"
              << "kernel:             " << result.kernel << "\n"
              << "output forwarding:  "
              << (result.outputForwarding ? "on" : "off") << "\n"
              << "retired ops:        " << result.instructions << "\n"
              << "core cycles:        " << result.coreCycles << "\n"
              << "runtime @ 2 GHz:    " << result.runtimeMs()
              << " ms\n"
              << "engine instrs:      " << result.engineInstructions
              << "\n"
              << "MAC utilization:    " << result.macUtilization * 100.0
              << " %\n"
              << "L1 hits / misses:   " << result.cacheHits << " / "
              << result.cacheMisses << "\n";
}

/** Print persistent-cache traffic (to stderr; stdout stays data). */
void
reportDiskCache(const sim::Session &session)
{
    if (const auto &disk = session.diskCache()) {
        const auto stats = disk->stats();
        std::cerr << "persistent cache: " << stats.hits << " hits, "
                  << stats.misses << " misses, " << stats.insertions
                  << " new entries (" << disk->size() << " total in "
                  << disk->directory() << ")\n";
    }
}

/**
 * Run a batch on a serve daemon at @p address; nullopt (with the
 * reason already printed) when the server is unreachable, refuses
 * the batch, or answers with a different wire version.
 */
std::optional<sim::ClientRun>
runOnServer(const std::string &address,
            const std::vector<sim::Job> &jobs)
{
    sim::ClientOptions options;
    options.address = address;
    sim::SimClient client(options);
    std::string error;
    if (!client.connect(&error)) {
        std::cerr << "error: " << error << "\n";
        return std::nullopt;
    }
    auto run = client.runBatch(jobs, &error);
    if (!run) {
        std::cerr << "error: " << error << "\n";
        return std::nullopt;
    }
    return run;
}

/**
 * Flush telemetry output files ("" skips one).  Returns 0, or 2 when
 * a file cannot be written.
 */
int
writeTelemetryFiles(const std::string &metrics_out,
                    const std::string &span_trace_out)
{
    if (!metrics_out.empty() &&
        !telemetry::writeMetricsFile(metrics_out)) {
        std::cerr << "cannot write metrics file: " << metrics_out
                  << "\n";
        return 2;
    }
    if (!span_trace_out.empty() &&
        !telemetry::writeTraceFile(span_trace_out)) {
        std::cerr << "cannot write trace file: " << span_trace_out
                  << "\n";
        return 2;
    }
    return 0;
}

int
cmdRun(const std::vector<std::string> &args)
{
    std::optional<std::string> workload_name, gemm_text;
    std::string engine_name = "VEGETA-S-16-2";
    std::string trace_out, trace_in, cache_dir, connect_addr;
    std::string metrics_out;
    u32 pattern = 2;
    u32 cblocking = 3;
    bool of = true;
    bool naive = false;
    OutputFormat format = OutputFormat::Text;

    const FlagTable table{
        "run",
        {{"--workload", kText, store(workload_name)},
         {"--gemm", kText, store(gemm_text)},
         {"--engine", kText, store(engine_name)},
         {"--pattern", "1, 2, or 4", u32In(pattern)},
         {"--cblocking", "1..3", u32In(cblocking)},
         {"--no-of", kSwitch, assign(of, false)},
         {"--naive", kSwitch, assign(naive, true)},
         {"--csv", kSwitch, assign(format, OutputFormat::Csv)},
         {"--json", kSwitch, assign(format, OutputFormat::Json)},
         {"--trace-out", kText, store(trace_out)},
         {"--trace-in", kText, store(trace_in)},
         {"--cache-dir", kText, store(cache_dir)},
         {"--connect", kText, store(connect_addr)},
         {"--metrics-out", kText, store(metrics_out)}}};
    if (const auto status = table.parse(args))
        return *status;

    if (!connect_addr.empty() &&
        (!trace_in.empty() || !trace_out.empty() ||
         !cache_dir.empty())) {
        std::cerr << "error: --connect cannot be combined with "
                     "--trace-in/--trace-out/--cache-dir (the server "
                     "owns traces and cache)\n";
        return 1;
    }

    if (!trace_in.empty() &&
        (!trace_out.empty() || workload_name || gemm_text)) {
        std::cerr << "error: --trace-in replays a saved trace; it "
                     "cannot be combined with --trace-out/--workload/"
                     "--gemm\n";
        return 1;
    }

    sim::Session session;
    if (!cache_dir.empty()) {
        const auto disk = session.attachDiskCache(cache_dir);
        if (!disk->ok()) {
            std::cerr << "cannot open cache dir: " << cache_dir
                      << "\n";
            return 2;
        }
    }

    auto builder = session.job()
                       .engine(engine_name)
                       .pattern(pattern)
                       .outputForwarding(of)
                       .cBlocking(cblocking)
                       .kernel(naive ? sim::KernelVariant::Naive
                                     : sim::KernelVariant::Optimized);
    if (workload_name)
        builder.workload(*workload_name);
    else if (gemm_text)
        builder.gemm(*gemm_text);
    else
        builder.workload("GPT-L1"); // the seed's default layer

    auto job = builder.build();
    if (!job) {
        std::cerr << "error: " << builder.error()
                  << " (try 'simulate_cli list')\n";
        return 1;
    }

    sim::SimulationResult result;
    if (!connect_addr.empty()) {
        const auto remote = runOnServer(connect_addr, {*job});
        if (!remote)
            return 2;
        result = remote->results[0].simulation;
        std::cerr << "run: " << remote->simulationsPerformed
                  << " simulated by server\n";
    } else if (!trace_in.empty()) {
        // The replayed trace, not the builder's default workload, is
        // what the result describes.  The file streams straight into
        // the replayer; a file that does not open reads as damaged.
        job->simulation.label = "trace:" + trace_in;
        std::ifstream is(trace_in, std::ios::binary);
        const sim::ReplayRun replayed =
            session.replay(is, job->simulation);
        switch (replayed.status) {
          case sim::ReplayRun::Status::Unreadable:
            std::cerr << "cannot read trace: " << trace_in << "\n";
            return 2;
          case sim::ReplayRun::Status::Unsupported:
            std::cerr << "cannot replay on " << job->simulation.engine
                      << ": " << replayed.error << "\n";
            return 1;
          case sim::ReplayRun::Status::Ok:
            break;
        }
        result = replayed.result;
        // Every replayed op retires: the count is the file's.
        if (format == OutputFormat::Text)
            std::cout << "replaying " << result.instructions
                      << " ops from " << trace_in << "\n";
    } else if (!trace_out.empty()) {
        // One generation pass teed into the replayer and the file;
        // the writer patches the header's op count after the last op.
        std::ofstream os = cpu::createTraceFile(trace_out);
        cpu::TraceWriter writer(os);
        // A file that did not open fails finish() without a run.
        if (os)
            result = session.run(job->simulation, &writer);
        if (!writer.finish()) {
            std::cerr << "cannot write trace: " << trace_out << "\n";
            return 2;
        }
        if (format == OutputFormat::Text)
            std::cout << "trace saved:        " << trace_out << " ("
                      << writer.written() << " ops)\n";
    } else {
        result = session.run(*job).simulation;
    }

    switch (format) {
      case OutputFormat::Text:
        reportText(result);
        break;
      case OutputFormat::Csv:
        sim::writeCsv(std::cout, {result});
        break;
      case OutputFormat::Json:
        sim::writeJson(std::cout, {result});
        break;
    }
    reportDiskCache(session);
    return writeTelemetryFiles(metrics_out, "");
}

int
cmdAnalyze(const std::vector<std::string> &args)
{
    std::string model;
    OutputFormat format = OutputFormat::Text;
    sim::Session session;
    auto builder = session.job();

    const FlagTable table{
        "analyze",
        {{"--model", kText, store(model)},
         {"--workload", kText,
          [&](const std::string &name) {
              builder.workload(name);
              return true;
          }},
         {"--engine", kText,
          [&](const std::string &name) {
              builder.engine(name);
              return true;
          }},
         {"--param", "KEY=NUMBER",
          keyValue([&](const std::string &key,
                       const std::string &text) {
              const auto value = parseDouble(text);
              if (value)
                  builder.param(key, *value);
              return value.has_value();
          })},
         {"--option", "KEY=VALUE",
          keyValue([&](const std::string &key,
                       const std::string &value) {
              builder.option(key, value);
              return true;
          })},
         {"--csv", kSwitch, assign(format, OutputFormat::Csv)},
         {"--json", kSwitch, assign(format, OutputFormat::Json)}},
        [&](const std::string &name) {
            if (!model.empty())
                return false;
            model = name;
            return true;
        }};
    if (const auto status = table.parse(args))
        return *status;

    if (model.empty()) {
        std::cerr << "error: analyze needs a model name; registered "
                     "models:\n";
        for (const auto &name : session.analytics().names())
            std::cerr << "  " << name << "\n";
        return 1;
    }
    builder.model(model);

    const auto job = builder.build();
    if (!job) {
        std::cerr << "error: " << builder.error()
                  << " (try 'simulate_cli list models')\n";
        return 1;
    }

    const auto result = session.run(*job).analysis;
    switch (format) {
      case OutputFormat::Text:
        result.table().print(std::cout);
        for (const auto &note : result.notes)
            std::cout << "  " << note << "\n";
        break;
      case OutputFormat::Csv:
        sim::writeCsv(std::cout, result);
        break;
      case OutputFormat::Json:
        sim::writeJson(std::cout, result);
        break;
    }
    return 0;
}

int
cmdSweep(const std::vector<std::string> &args)
{
    bool quick = false;
    std::vector<std::string> workload_names, engine_names;
    std::vector<u32> patterns;
    u32 threads = 0;
    std::string cache_dir, connect_addr;
    std::string span_trace_out, metrics_out;
    OutputFormat format = OutputFormat::Text;

    const FlagTable table{
        "sweep",
        {{"--quick", kSwitch, assign(quick, true)},
         {"--workload", kText, append(workload_names)},
         {"--engine", kText, append(engine_names)},
         {"--pattern", "1, 2, or 4",
          [&](const std::string &text) {
              const auto pattern = sim::parseU32(text);
              if (pattern)
                  patterns.push_back(*pattern);
              return pattern.has_value();
          }},
         {"--trace-out", kText, store(span_trace_out)},
         {"--metrics-out", kText, store(metrics_out)},
         {"--threads", "a positive integer", u32In(threads, 1)},
         {"--cache-dir", kText, store(cache_dir)},
         {"--connect", kText, store(connect_addr)},
         {"--csv", kSwitch, assign(format, OutputFormat::Csv)},
         {"--json", kSwitch, assign(format, OutputFormat::Json)}}};
    if (const auto status = table.parse(args))
        return *status;

    if (!connect_addr.empty() && (threads > 0 || !cache_dir.empty())) {
        std::cerr << "error: --connect cannot be combined with "
                     "--threads/--cache-dir (the server decides its "
                     "own execution)\n";
        return 1;
    }

    sim::Session session;
    session.enableCache();
    if (!cache_dir.empty()) {
        const auto disk = session.attachDiskCache(cache_dir);
        if (!disk->ok()) {
            std::cerr << "cannot open cache dir: " << cache_dir << "\n";
            return 2;
        }
    }

    if (workload_names.empty())
        for (const auto &w : session.workloads().group(
                 quick ? "quick" : "tableIV"))
            workload_names.push_back(w.name);
    if (engine_names.empty())
        engine_names = session.engines().names();
    if (patterns.empty())
        patterns = {4, 2, 1};

    for (const auto &name : workload_names) {
        if (!session.workloads().contains(name)) {
            std::cerr << "error: unknown workload: " << name << "\n";
            return 1;
        }
    }
    for (const auto &name : engine_names) {
        if (!session.engines().contains(name)) {
            std::cerr << "error: unknown engine: " << name << "\n";
            return 1;
        }
    }
    for (const u32 pattern : patterns) {
        if (pattern != 1 && pattern != 2 && pattern != 4) {
            std::cerr << "error: pattern must be 1, 2, or 4 (got "
                      << pattern << ")\n";
            return 1;
        }
    }

    const auto grid = sim::figure13Grid(session, workload_names,
                                        engine_names, patterns);

    // Arm span recording only when a trace was asked for: disarmed
    // spans cost one relaxed load each.
    if (!span_trace_out.empty())
        telemetry::setTraceEnabled(true);

    std::vector<sim::SimulationResult> results;
    u64 simulated = 0;
    if (connect_addr.empty()) {
        results = session.runBatch(grid, threads);
        simulated = session.simulationsPerformed();
    } else {
        // On a serve daemon: results are bit-identical to the local
        // batch, so stdout matches a local sweep byte for byte.
        std::vector<sim::Job> jobs;
        jobs.reserve(grid.size());
        for (const auto &request : grid)
            jobs.push_back(sim::Job::simulate(request));
        const auto run = runOnServer(connect_addr, jobs);
        if (!run)
            return 2;
        results.reserve(run->results.size());
        for (const auto &result : run->results)
            results.push_back(result.simulation);
        simulated = run->simulationsPerformed;
    }

    switch (format) {
      case OutputFormat::Text:
        sim::resultsTable(results).print(std::cout);
        break;
      case OutputFormat::Csv:
        sim::writeCsv(std::cout, results);
        break;
      case OutputFormat::Json:
        sim::writeJson(std::cout, results);
        break;
    }
    std::cerr << "sweep: " << grid.size() << " requests, " << simulated
              << " simulated";
    if (!connect_addr.empty())
        std::cerr << " by server";
    std::cerr << "\n";
    // With --connect the cache traffic happened in the server; the
    // local view would read 0/0 regardless, so say nothing.
    if (connect_addr.empty())
        reportDiskCache(session);
    return writeTelemetryFiles(metrics_out, span_trace_out);
}

int
cmdTune(const std::vector<std::string> &args)
{
    bool quick = false;
    bool candidates = false;
    std::vector<std::string> workload_names, engine_names;
    std::string space_name = "full";
    std::string cache_dir, connect_addr;
    std::string span_trace_out, metrics_out;
    sim::TuneOptions options;
    std::optional<double> max_area;
    OutputFormat format = OutputFormat::Text;

    const FlagTable table{
        "tune",
        {{"--quick", kSwitch, assign(quick, true)},
         {"--workload", kText, append(workload_names)},
         {"--engine", kText, append(engine_names)},
         {"--space", "full or figure13",
          [&](const std::string &name) {
              space_name = name;
              return name == "full" || name == "figure13";
          }},
         {"--budget", "a positive integer of replays",
          u32In(options.budget.replays, 1)},
         {"--max-area", "a positive number",
          [&](const std::string &text) {
              const auto area = parseDouble(text);
              if (!area || *area <= 0.0)
                  return false;
              max_area = *area;
              return true;
          }},
         {"--candidates", kSwitch, assign(candidates, true)},
         {"--threads", "a positive integer", u32In(options.threads, 1)},
         {"--cache-dir", kText, store(cache_dir)},
         {"--connect", kText, store(connect_addr)},
         {"--trace-out", kText, store(span_trace_out)},
         {"--metrics-out", kText, store(metrics_out)},
         {"--csv", kSwitch, assign(format, OutputFormat::Csv)},
         {"--json", kSwitch, assign(format, OutputFormat::Json)}}};
    if (const auto status = table.parse(args))
        return *status;

    if (!connect_addr.empty() && options.threads > 0) {
        std::cerr << "error: --connect cannot be combined with "
                     "--threads (the server decides its own "
                     "execution)\n";
        return 1;
    }
    if (!connect_addr.empty() && candidates) {
        std::cerr << "error: --connect cannot be combined with "
                     "--candidates (the server only knows the "
                     "builtin engine registry)\n";
        return 1;
    }
    options.connectAddress = connect_addr;

    // The candidate axis extends the registry BEFORE the session is
    // built so the analytical prefilter and the replay path resolve
    // the same names.
    auto engines = sim::EngineRegistry::builtin();
    if (candidates)
        for (const auto &config : sim::candidateEngineConfigs())
            engines.add(config);
    sim::Session session(std::move(engines),
                         sim::WorkloadRegistry::builtin());
    if (!cache_dir.empty()) {
        const auto disk = session.attachDiskCache(cache_dir);
        if (!disk->ok()) {
            std::cerr << "cannot open cache dir: " << cache_dir
                      << "\n";
            return 2;
        }
    }

    if (workload_names.empty())
        for (const auto &w : session.workloads().group(
                 quick ? "quick" : "tableIV"))
            workload_names.push_back(w.name);
    for (const auto &name : workload_names) {
        if (!session.workloads().contains(name)) {
            std::cerr << "error: unknown workload: " << name << "\n";
            return 1;
        }
    }
    for (const auto &name : engine_names) {
        if (!session.engines().contains(name)) {
            std::cerr << "error: unknown engine: " << name << "\n";
            return 1;
        }
    }

    auto space =
        space_name == "figure13"
            ? sim::TuneSpace::figure13(session, workload_names)
            : sim::TuneSpace::full(session, workload_names);
    if (!engine_names.empty())
        space.engines = engine_names;
    space.maxAreaUnits = max_area;

    if (!span_trace_out.empty())
        telemetry::setTraceEnabled(true);

    const sim::Tuner tuner(session, options);
    const auto report = tuner.run(space);

    switch (format) {
      case OutputFormat::Text: {
        std::cout << "search space:    " << report.rawPoints
                  << " raw, " << report.validPoints << " valid, "
                  << report.rejectedPoints << " rejected\n"
                  << "funnel:          " << report.analyzedPoints
                  << " analyzed -> " << report.replayedPoints
                  << " replayed\n";
        if (const auto *best = report.best()) {
            std::cout << "best:            "
                      << sim::tunePointKey(best->point) << "\n"
                      << "  cycles/MAC     "
                      << best->measuredCyclesPerMac << " measured ("
                      << best->estCyclesPerMac << " estimated)\n"
                      << "  core cycles    " << best->measuredCoreCycles
                      << "\n"
                      << "  area units     " << best->areaUnits << "\n";
        } else {
            std::cout << "best:            none (nothing replayed)\n";
        }
        std::cout << "pareto front:    " << report.paretoFront.size()
                  << " point(s)\n";
        for (const auto &c : report.paretoFront)
            std::cout << "  " << sim::tunePointKey(c.point)
                      << "  cycles/MAC " << c.measuredCyclesPerMac
                      << "  area " << c.areaUnits << "\n";
        break;
      }
      case OutputFormat::Csv:
        sim::writeCsv(std::cout, report);
        break;
      case OutputFormat::Json:
        sim::writeJson(std::cout, report);
        break;
    }
    std::cerr << "tune: " << report.analyzedPoints << " analyzed, "
              << report.replayedPoints << " replayed";
    if (!connect_addr.empty()) {
        if (report.serverReplays == report.replayedPoints)
            std::cerr << " (confirmations by server)";
        else
            std::cerr << " (" << report.serverReplays
                      << " confirmed by server, "
                      << report.replayedPoints - report.serverReplays
                      << " locally)";
    }
    std::cerr << "\n";
    reportDiskCache(session);
    return writeTelemetryFiles(metrics_out, span_trace_out);
}

int
cmdServe(const std::vector<std::string> &args)
{
    sim::ServerOptions options;
    bool have_socket = false;

    const FlagTable table{
        "serve",
        {{"--socket", kText,
          [&](const std::string &path) {
              options.socketPath = path;
              have_socket = true;
              return true;
          }},
         {"--port", "0..65535",
          [&](const std::string &text) {
              options.useTcp = true;
              return u32In(options.port, 0, 65535)(text);
          }},
         {"--service-workers", "a non-negative integer",
          u32In(options.serviceWorkers)},
         {"--threads", "a positive integer", u32In(options.threads, 1)},
         {"--queue-depth", "a positive integer",
          u32In(options.queueDepth, 1)},
         {"--cache-dir", kText, store(options.cacheDir)}}};
    if (const auto status = table.parse(args))
        return *status;

    if (have_socket && options.useTcp) {
        std::cerr << "error: serve listens on --socket PATH or "
                     "--port N, not both\n";
        return 1;
    }
    if (!have_socket && !options.useTcp) {
        std::cerr << "error: serve needs --socket PATH or --port N "
                     "(--port 0 picks an ephemeral port)\n";
        return 1;
    }
    return sim::SimServer::serveMain(options);
}

int
cmdStats(const std::vector<std::string> &args)
{
    std::string connect_addr;
    const FlagTable table{"stats",
                          {{"--connect", kText, store(connect_addr)}}};
    if (const auto status = table.parse(args))
        return *status;
    if (connect_addr.empty()) {
        std::cerr << "error: stats needs --connect ADDR (the serve "
                     "daemon to query)\n";
        return 1;
    }

    sim::ClientOptions options;
    options.address = connect_addr;
    sim::SimClient client(options);
    std::string error;
    if (!client.connect(&error)) {
        std::cerr << "error: " << error << "\n";
        return 2;
    }
    const auto stats = client.fetchStats(&error);
    if (!stats) {
        std::cerr << "error: " << error << "\n";
        return 2;
    }
    std::cout << *stats;
    return 0;
}

int
cmdList(const std::vector<std::string> &args)
{
    std::string what = "all";
    bool json = false;
    const FlagTable table{"list",
                          {{"--json", kSwitch, assign(json, true)}},
                          [&](const std::string &filter) {
                              if (what != "all")
                                  return false;
                              what = filter;
                              return true;
                          }};
    if (const auto status = table.parse(args))
        return *status;
    if (what != "all" && what != "workloads" && what != "engines" &&
        what != "models") {
        std::cerr << "error: list expects workloads, engines, or "
                     "models (got '"
                  << what << "')\n";
        return 1;
    }

    const sim::Session session;
    if (json) {
        std::cout << "{";
        bool first_section = true;
        if (what == "all" || what == "workloads") {
            std::cout << "\n  \"workloads\": [";
            bool first = true;
            for (const auto &w : session.workloads().workloads()) {
                std::cout << (first ? "" : ", ")
                          << "\n    {\"name\": \""
                          << sim::jsonEscape(w.name)
                          << "\", \"m\": " << w.gemm.m
                          << ", \"n\": " << w.gemm.n
                          << ", \"k\": " << w.gemm.k << "}";
                first = false;
            }
            std::cout << "\n  ]";
            first_section = false;
        }
        if (what == "all" || what == "engines") {
            std::cout << (first_section ? "" : ",")
                      << "\n  \"engines\": [";
            bool first = true;
            for (const auto &name : session.engines().names()) {
                std::cout << (first ? "" : ", ") << "\""
                          << sim::jsonEscape(name) << "\"";
                first = false;
            }
            std::cout << "]";
            first_section = false;
        }
        if (what == "all" || what == "models") {
            std::cout << (first_section ? "" : ",")
                      << "\n  \"models\": [";
            bool first = true;
            for (const auto &name : session.analytics().names()) {
                std::cout << (first ? "" : ", ")
                          << "\n    {\"name\": \""
                          << sim::jsonEscape(name)
                          << "\", \"description\": \""
                          << sim::jsonEscape(
                                 session.analytics().description(name))
                          << "\"}";
                first = false;
            }
            std::cout << "\n  ]";
        }
        std::cout << "\n}\n";
        return 0;
    }

    if (what == "all" || what == "workloads") {
        std::cout << "workloads:\n";
        for (const auto &w : session.workloads().workloads())
            std::cout << "  " << w.name << " (" << w.gemm.m << "x"
                      << w.gemm.n << "x" << w.gemm.k << ")\n";
    }
    if (what == "all" || what == "engines") {
        std::cout << "engines:\n";
        for (const auto &name : session.engines().names())
            std::cout << "  " << name << "\n";
    }
    if (what == "all" || what == "models") {
        std::cout << "models:\n";
        for (const auto &name : session.analytics().names())
            std::cout << "  " << name << " -- "
                      << session.analytics().description(name) << "\n";
    }
    return 0;
}

int
cmdCache(const std::vector<std::string> &args)
{
    std::string action, cache_dir;
    std::vector<std::string> merge_dirs;
    std::optional<u64> max_bytes, max_entries;
    bool extended_json = false;
    // Full u64 range for the prune limits: a multi-GiB byte budget is
    // reasonable for a grow-forever cache file.  `stats` output is
    // already JSON; --json opts into the extended fields while the
    // plain document stays stable for existing scripted callers.
    const FlagTable table{
        "cache",
        {{"--cache-dir", kText, store(cache_dir)},
         {"--max-bytes", "a non-negative integer", u64Of(max_bytes)},
         {"--max-entries", "a non-negative integer",
          u64Of(max_entries)},
         {"--json", kSwitch, assign(extended_json, true)}},
        [&](const std::string &arg) {
            if (action.empty())
                action = arg;
            else if (action == "merge")
                merge_dirs.push_back(arg);
            else
                return false;
            return true;
        }};
    if (const auto status = table.parse(args))
        return *status;
    if (action != "stats" && action != "clear" && action != "prune" &&
        action != "merge") {
        std::cerr << "error: cache expects 'stats', 'clear', "
                     "'prune', or 'merge' (got '"
                  << action << "')\n";
        return 1;
    }

    if (action == "merge") {
        if (!cache_dir.empty()) {
            std::cerr << "error: cache merge takes positional "
                         "directories (merge DST SRC...), not "
                         "--cache-dir\n";
            return 1;
        }
        if (merge_dirs.size() < 2) {
            std::cerr << "error: cache merge needs a destination and "
                         "at least one source: merge DST SRC...\n";
            return 1;
        }
        // Sources must already exist: merging FROM a typo'd path
        // must not silently create an empty cache and "succeed".
        for (std::size_t i = 1; i < merge_dirs.size(); ++i) {
            if (!std::filesystem::is_directory(merge_dirs[i])) {
                std::cerr << "error: source cache dir does not "
                             "exist: "
                          << merge_dirs[i] << "\n";
                return 2;
            }
        }
        sim::DiskResultCache dst(merge_dirs[0]);
        if (!dst.ok()) {
            std::cerr << "cannot open cache dir: " << merge_dirs[0]
                      << "\n";
            return 2;
        }
        u64 added = 0, skipped = 0;
        for (std::size_t i = 1; i < merge_dirs.size(); ++i) {
            const sim::DiskResultCache src(merge_dirs[i]);
            if (!src.ok()) {
                std::cerr << "cannot open cache dir: "
                          << merge_dirs[i] << "\n";
                return 2;
            }
            const auto merged = dst.mergeFrom(src);
            added += merged.added;
            skipped += merged.skipped;
        }
        std::cout << "{\"path\": \""
                  << sim::jsonEscape(dst.filePath())
                  << "\", \"sources\": " << merge_dirs.size() - 1
                  << ", \"added_entries\": " << added
                  << ", \"skipped_entries\": " << skipped
                  << ", \"total_entries\": " << dst.size() << "}\n";
        return 0;
    }

    if (cache_dir.empty()) {
        std::cerr << "error: cache needs --cache-dir DIR\n";
        return 1;
    }
    if (action == "prune" && !max_bytes && !max_entries) {
        std::cerr << "error: cache prune needs --max-bytes and/or "
                     "--max-entries\n";
        return 1;
    }

    // `stats` and `prune` inspect an EXISTING cache; creating an
    // empty one at a mistyped path and reporting zero entries would
    // hide the typo.  (`clear` keeps its create-then-empty behavior:
    // clearing a cache that never existed is a legitimate no-op.)
    if (action == "stats" || action == "prune") {
        std::error_code ec;
        const auto status = std::filesystem::status(cache_dir, ec);
        if (ec || !std::filesystem::exists(status)) {
            std::cerr << "error: cache dir does not exist: "
                      << cache_dir
                      << " (a run/sweep with --cache-dir creates "
                         "it)\n";
            return 2;
        }
        if (!std::filesystem::is_directory(status)) {
            std::cerr << "error: not a directory: " << cache_dir
                      << "\n";
            return 2;
        }
        const auto file =
            std::filesystem::path(cache_dir) / "results.vgc";
        if (std::filesystem::exists(file) &&
            ::access(file.c_str(), R_OK) != 0) {
            std::cerr << "error: cache file not readable: "
                      << file.string() << "\n";
            return 2;
        }
    }

    sim::DiskResultCache cache(cache_dir);
    if (!cache.ok()) {
        std::cerr << "cannot open cache dir: " << cache_dir << "\n";
        return 2;
    }
    if (action == "clear") {
        const std::size_t dropped = cache.size();
        cache.clear();
        std::cout << "{\"path\": \""
                  << sim::jsonEscape(cache.filePath())
                  << "\", \"cleared_entries\": " << dropped << "}\n";
        return 0;
    }
    if (action == "prune") {
        const auto pruned = cache.prune(max_bytes, max_entries);
        std::cout << "{\"path\": \""
                  << sim::jsonEscape(cache.filePath())
                  << "\", \"kept_entries\": " << pruned.kept
                  << ", \"dropped_entries\": " << pruned.dropped
                  << ", \"file_bytes\": " << pruned.fileBytes << "}\n";
        return 0;
    }
    const auto stats = cache.stats();
    std::cout << "{\"path\": \"" << sim::jsonEscape(cache.filePath())
              << "\", \"entries\": " << cache.size()
              << ", \"simulation_entries\": " << stats.simulationEntries
              << ", \"analysis_entries\": " << stats.analysisEntries
              << ", \"file_bytes\": " << stats.fileBytes
              << ", \"loaded\": " << stats.loaded
              << ", \"rejected_records\": " << stats.rejected
              << ", \"version_mismatch\": "
              << (stats.versionMismatch ? "true" : "false");
    if (extended_json) {
        // Extended fields ride behind --json only: the plain document
        // above is pinned byte-for-byte by the CLI tests.
        std::cout << ", \"hit_rate\": " << stats.hitRate()
                  << ", \"last_prune_bytes\": " << stats.lastPruneBytes
                  << ", \"entries_by_type\": {\"simulation\": "
                  << stats.simulationEntries
                  << ", \"analysis\": " << stats.analysisEntries
                  << "}";
    }
    std::cout << "}\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        usage(std::cerr);
        return 1;
    }
    const std::string command = argv[1];
    const std::vector<std::string> args(argv + 2, argv + argc);
    using Command = int (*)(const std::vector<std::string> &);
    const std::pair<const char *, Command> commands[] = {
        {"run", cmdRun},     {"analyze", cmdAnalyze},
        {"sweep", cmdSweep}, {"tune", cmdTune},
        {"serve", cmdServe}, {"stats", cmdStats},
        {"list", cmdList},   {"cache", cmdCache},
    };
    for (const auto &[name, run] : commands)
        if (command == name)
            return run(args);
    if (command == "--help" || command == "help") {
        usage(std::cout);
        return 0;
    }
    std::cerr << "error: unknown command '" << command << "'\n\n";
    usage(std::cerr);
    return 1;
}
