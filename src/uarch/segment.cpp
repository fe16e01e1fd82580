#include "uarch/segment.hpp"

#include <algorithm>

#include "trace/parallel.hpp"

namespace vepro::uarch
{

using trace::TraceBlock;

struct SegmentSim::Impl {
    SegmentSimConfig config;
    std::vector<TraceBlock> blocks;
    CoreStats stitched;
    bool finished = false;
    int segments_used = 0;
    uint64_t warmup_ops = 0;

    explicit Impl(const SegmentSimConfig &cfg) : config(cfg) {}

    /** Simulate blocks [first, last) on a fresh core, with the warmup
     *  prefix [wfirst, first) replayed and discarded beforehand. */
    CoreStats
    runSegment(size_t wfirst, size_t first, size_t last,
               uint64_t *warmup_count) const
    {
        StreamCore core(config.core);
        if (wfirst < first) {
            for (size_t b = wfirst; b < first; ++b) {
                replayBlock(blocks[b], core);
                *warmup_count += blocks[b].ops.size();
            }
            core.resetStats();
        }
        for (size_t b = first; b < last; ++b) {
            replayBlock(blocks[b], core);
        }
        core.flush();
        return core.stats();
    }

    void
    stitch(const CoreStats &s)
    {
        stitched.cycles += s.cycles;
        stitched.instructions += s.instructions;
        stitched.slots.retiring += s.slots.retiring;
        stitched.slots.badSpec += s.slots.badSpec;
        stitched.slots.frontend += s.slots.frontend;
        stitched.slots.backend += s.slots.backend;
        stitched.slots.backendMemory += s.slots.backendMemory;
        stitched.slots.backendCore += s.slots.backendCore;
        stitched.stalls.rs += s.stalls.rs;
        stitched.stalls.rob += s.stalls.rob;
        stitched.stalls.loadBuf += s.stalls.loadBuf;
        stitched.stalls.storeBuf += s.stalls.storeBuf;
        stitched.condBranches += s.condBranches;
        stitched.mispredicts += s.mispredicts;
        stitched.l1iMisses += s.l1iMisses;
        stitched.l1dAccesses += s.l1dAccesses;
        stitched.l1dMisses += s.l1dMisses;
        stitched.l2Misses += s.l2Misses;
        stitched.llcMisses += s.llcMisses;
        stitched.invalidations += s.invalidations;
    }

    void
    run()
    {
        const size_t nblocks = blocks.size();
        segments_used = static_cast<int>(
            std::min<size_t>(trace::resolveJobs(config.segments),
                             std::max<size_t>(nblocks, 1)));
        const size_t nseg = static_cast<size_t>(segments_used);
        const size_t warm =
            config.warmupBlocks > 0
                ? static_cast<size_t>(config.warmupBlocks)
                : 0;

        // Contiguous even split at block boundaries: segment i covers
        // [i*n/S, (i+1)*n/S) — a pure function of (n, S).
        std::vector<CoreStats> results(nseg);
        std::vector<uint64_t> warm_counts(nseg, 0);
        auto runOne = [&](size_t i) {
            const size_t first = i * nblocks / nseg;
            const size_t last = (i + 1) * nblocks / nseg;
            const size_t wfirst = first >= warm ? first - warm : 0;
            results[i] =
                runSegment(i == 0 ? first : wfirst, first, last,
                           &warm_counts[i]);
        };

        trace::parallelFor(nseg, trace::resolveJobs(config.jobs), runOne);

        // Stitch in segment order: the sum is independent of which
        // thread simulated which segment, and of completion order.
        for (size_t i = 0; i < nseg; ++i) {
            stitch(results[i]);
            warmup_ops += warm_counts[i];
        }
        finished = true;
    }
};

SegmentSim::SegmentSim(const SegmentSimConfig &config)
    : impl_(std::make_unique<Impl>(config))
{
}

SegmentSim::~SegmentSim() = default;

void
SegmentSim::takeBlock(TraceBlock &&block)
{
    impl_->blocks.push_back(std::move(block));
}

void
SegmentSim::flush()
{
    if (impl_->finished) {
        return;
    }
    flushStage();
    impl_->run();
}

bool
SegmentSim::finished() const
{
    return impl_->finished;
}

const CoreStats &
SegmentSim::stats() const
{
    return impl_->stitched;
}

int
SegmentSim::segmentsUsed() const
{
    return impl_->segments_used;
}

size_t
SegmentSim::blockCount() const
{
    return impl_->blocks.size() + (staging() ? 1 : 0);
}

uint64_t
SegmentSim::warmupOps() const
{
    return impl_->warmup_ops;
}

} // namespace vepro::uarch
