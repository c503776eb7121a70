/**
 * @file
 * Streaming trace consumption.
 *
 * A TraceSink receives trace micro-ops one at a time, in program
 * order, as they are produced.  Kernels emit directly into a sink, so
 * a trace-only simulation never materializes the full multi-hundred-MB
 * cpu::Trace: the generator's emit() calls feed the replayer's step()
 * directly.  TraceCollector is the batch adapter -- a sink that
 * appends into an in-memory Trace for callers that want the whole
 * thing (replay across engines, tests) -- and TraceTee forwards one
 * stream into two sinks, so a single generation pass can feed the
 * replayer and a cpu::TraceWriter saving the trace.
 */

#ifndef VEGETA_CPU_TRACE_SINK_HPP
#define VEGETA_CPU_TRACE_SINK_HPP

#include "cpu/uop.hpp"

namespace vegeta::cpu {

/** Consumer of a stream of trace ops in program order. */
class TraceSink
{
  public:
    virtual ~TraceSink() = default;

    /** Consume the next op of the stream. */
    virtual void emit(const TraceOp &op) = 0;
};

/** Sink that materializes the stream into an in-memory Trace. */
class TraceCollector final : public TraceSink
{
  public:
    TraceCollector() = default;

    void
    emit(const TraceOp &op) override
    {
        trace_.push_back(op);
    }

    Trace &trace() { return trace_; }
    const Trace &trace() const { return trace_; }

    /** Move the collected trace out (leaves the collector empty). */
    Trace
    take()
    {
        return std::move(trace_);
    }

  private:
    Trace trace_;
};

/** Sink that forwards each op to two sinks, first then second. */
class TraceTee final : public TraceSink
{
  public:
    TraceTee(TraceSink &first, TraceSink &second)
        : first_(first), second_(second)
    {
    }

    void
    emit(const TraceOp &op) override
    {
        first_.emit(op);
        second_.emit(op);
    }

  private:
    TraceSink &first_;
    TraceSink &second_;
};

} // namespace vegeta::cpu

#endif // VEGETA_CPU_TRACE_SINK_HPP
