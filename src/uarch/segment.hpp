#ifndef VEPRO_UARCH_SEGMENT_HPP
#define VEPRO_UARCH_SEGMENT_HPP

/**
 * @file
 * Segment-parallel core simulation: split one trace at block boundaries
 * into N segments, simulate each on its own thread, and stitch the
 * statistics deterministically in segment order.
 *
 * One StreamCore consumes its trace serially, so a single config's
 * simulation cannot spread over threads by fanning the stream out.
 * SegmentSim splits the trace instead: it captures the trace as a
 * sequence of TraceBlocks (taking ownership of each block via the
 * onBlock move path, so capture adds no copying), then simulates N
 * contiguous segments concurrently on trace::parallelFor, each on a
 * private StreamCore.
 *
 * Every segment after the first replays a configurable warmup prefix —
 * the last `warmupBlocks` blocks of the preceding segment — before its
 * own span, so caches and the TAGE predictor are warm at the
 * measurement boundary; the prefix's counters are then discarded with
 * StreamCore::resetStats(). Stitched counters are exact where the
 * simulation is history-free (instructions, retiring slots, conditional
 * branches, L1D accesses) and carry a warmup-bounded error elsewhere
 * (cycles, miss and mispredict counts): the error shrinks as
 * warmupBlocks grows and collapses to zero at segments=1, which is
 * bit-identical to a sequential StreamCore run. The residual floor is
 * the boundary drain bubble — each segment starts from an empty
 * pipeline window. See DESIGN.md §13 for the bound.
 *
 * Determinism: segment boundaries depend only on the block sequence and
 * the segment count, each segment's simulation is single-threaded and
 * self-contained, and stitching sums per-segment stats in segment
 * order — so the result is identical across runs, thread counts, and
 * scheduling, for a fixed (trace, segments, warmupBlocks).
 */

#include <cstdint>
#include <memory>
#include <vector>

#include "trace/sink.hpp"
#include "uarch/core.hpp"

namespace vepro::uarch
{

/** Configuration of one segment-parallel run. */
struct SegmentSimConfig {
    CoreConfig core;
    /**
     * Segment count. 0 = auto (one per available hardware thread, via
     * trace::resolveJobs); clamped to the number of captured blocks.
     * 1 = sequential, bit-identical to a plain StreamCore.
     */
    int segments = 0;
    /** Warmup prefix replayed before each segment (in TraceBlocks of
     *  TraceBlock::kOps ops); counters of the prefix are discarded. */
    int warmupBlocks = 8;
    /** Worker threads for the segment loop. 0 = auto; clamped to the
     *  segment count. Thread count never changes the stitched result. */
    int jobs = 0;
};

/**
 * Trace sink running the segment-parallel simulation described in the
 * file docs. Feed it a trace (directly from a Probe, or as whole
 * blocks), then flush(); stats() holds the stitched result.
 *
 * Capture materialises the trace (O(trace length) memory, in blocks) —
 * the price of simulating the middle of the trace before its start has
 * finished. A plain StreamCore keeps O(1) trace memory.
 */
class SegmentSim final : public trace::BlockSink
{
  public:
    explicit SegmentSim(const SegmentSimConfig &config);
    ~SegmentSim() override;

    SegmentSim(const SegmentSim &) = delete;
    SegmentSim &operator=(const SegmentSim &) = delete;

    /** Run the segments and stitch the statistics. */
    void flush() override;

    bool finished() const;

    /** Stitched whole-trace statistics; valid once flush() has run. */
    const CoreStats &stats() const;

    /** Segments actually simulated (after clamping); valid post-flush. */
    int segmentsUsed() const;
    /** Captured trace blocks. */
    size_t blockCount() const;
    /** Total warmup ops replayed and discarded across segments. */
    uint64_t warmupOps() const;

  private:
    /** Takes ownership of the block (moves it into the capture). */
    void takeBlock(trace::TraceBlock &&block) override;

    struct Impl;
    std::unique_ptr<Impl> impl_;
};

} // namespace vepro::uarch

#endif // VEPRO_UARCH_SEGMENT_HPP
