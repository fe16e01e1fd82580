#ifndef PERFBENCH_SPANS_HPP
#define PERFBENCH_SPANS_HPP

/**
 * @file
 * In-memory span recorder for the traced run. The benchmark opens a
 * span around each call it makes into a vepro layer (video, encoders,
 * trace, uarch, lab, core); spans nest per thread, carry the job id of
 * the job that caused them, and are written out as Chrome trace-event
 * JSON when the run ends. With no recorder installed every Scope is a
 * no-op, so the untraced run pays one branch per call site.
 */

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "trace/sink.hpp"

namespace perfbench
{

/** Which part of a run a span belongs to; metrics read Timed and Split. */
enum class Phase : uint8_t { Setup, Timed, Split };

const char *phaseName(Phase phase);

struct Span {
    uint64_t id = 0;
    uint64_t parent = 0;  ///< 0 = root.
    int64_t job = -1;     ///< -1 = not inside a job.
    const char *layer = "";
    const char *name = "";
    Phase phase = Phase::Timed;
    uint32_t tid = 0;
    double start = 0.0;   ///< Seconds since the recorder was created.
    double end = 0.0;
};

class Recorder
{
  public:
    Recorder();

    Recorder(const Recorder &) = delete;
    Recorder &operator=(const Recorder &) = delete;

    void setPhase(Phase phase) { phase_ = phase; }
    Phase phase() const { return phase_; }

    double now() const;
    uint64_t nextId();
    void add(const Span &span);

    const std::vector<Span> &spans() const { return spans_; }

    /** Span duration minus the union of its children's intervals. */
    std::vector<double> selfTimes() const;

    /** Chrome trace-event JSON ("X" events; args carry id/parent/job). */
    std::string chromeJson() const;

  private:
    std::chrono::steady_clock::time_point origin_;
    Phase phase_ = Phase::Timed;
    std::mutex mutex_;
    uint64_t next_id_ = 1;
    std::vector<Span> spans_;
};

/** The installed recorder, or nullptr (untraced run). */
Recorder *recorder();
void installRecorder(Recorder *rec);

/** Tags every span opened on this thread with @p job while alive. */
class JobTag
{
  public:
    explicit JobTag(int64_t job);
    ~JobTag();

    JobTag(const JobTag &) = delete;
    JobTag &operator=(const JobTag &) = delete;

  private:
    int64_t saved_;
};

/** One span: opened on construction, recorded on destruction. */
class Scope
{
  public:
    Scope(const char *layer, const char *name);
    ~Scope();

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Recorder *rec_;
    Span span_;
    uint64_t saved_parent_ = 0;
};

/**
 * Forwarding sink that spans every block delivery (and the flush) into
 * the wrapped sink. Mode::Block passes the block on through onBlock, as
 * FileSource::replay and the probe do for a single sink; Mode::Replay
 * replays it record by record, as MuxSink does for each of its sinks.
 */
class SpanSink final : public vepro::trace::TraceSink
{
  public:
    enum class Mode { Block, Replay };

    SpanSink(vepro::trace::TraceSink &inner, const char *layer,
             const char *block_name, const char *flush_name, Mode mode)
        : inner_(inner), layer_(layer), block_name_(block_name),
          flush_name_(flush_name), mode_(mode)
    {
    }

    void onOp(const vepro::trace::TraceOp &op) override { inner_.onOp(op); }
    void
    onOps(const vepro::trace::TraceOp *ops, size_t n) override
    {
        inner_.onOps(ops, n);
    }
    void
    onBranch(const vepro::trace::BranchRecord &branch) override
    {
        inner_.onBranch(branch);
    }
    void onKernel(uint64_t site) override { inner_.onKernel(site); }
    void onBlock(vepro::trace::TraceBlock &&block) override;
    void flush() override;

    /** Span one record-by-record delivery of a shared block. */
    void deliver(const vepro::trace::TraceBlock &block);

  private:
    vepro::trace::TraceSink &inner_;
    const char *layer_;
    const char *block_name_;
    const char *flush_name_;
    Mode mode_;
};

/** Block-granular fan-out to SpanSinks in Mode::Replay. */
class SpanMux final : public vepro::trace::TraceSink
{
  public:
    explicit SpanMux(std::vector<SpanSink *> sinks) : sinks_(std::move(sinks))
    {
    }

    void onOp(const vepro::trace::TraceOp &op) override;
    void onBlock(vepro::trace::TraceBlock &&block) override;
    void flush() override;

  private:
    std::vector<SpanSink *> sinks_;
};

/** Counts delivered ops and forwards nothing (the probe-cost split). */
class CountingSink final : public vepro::trace::TraceSink
{
  public:
    void onOp(const vepro::trace::TraceOp &) override { ++ops_; }
    void onOps(const vepro::trace::TraceOp *, size_t n) override { ops_ += n; }
    void
    onBlock(vepro::trace::TraceBlock &&block) override
    {
        ops_ += block.ops.size();
    }
    uint64_t ops() const { return ops_; }

  private:
    uint64_t ops_ = 0;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_HPP
