#include "trace/sink.hpp"

#include <algorithm>

namespace vepro::trace
{

void
replayBlock(const TraceBlock &block, TraceSink &sink)
{
    size_t delivered = 0;
    for (const TraceBlock::Event &ev : block.events) {
        if (ev.pos > delivered) {
            sink.onOps(block.ops.data() + delivered, ev.pos - delivered);
            delivered = ev.pos;
        }
        if (ev.kind == TraceBlock::Event::Branch) {
            sink.onBranch({ev.value, ev.taken});
        } else {
            sink.onKernel(ev.value);
        }
    }
    if (block.ops.size() > delivered) {
        sink.onOps(block.ops.data() + delivered,
                   block.ops.size() - delivered);
    }
}

void
BlockSink::flushStage()
{
    if (stage_.empty()) {
        return;
    }
    takeBlock(std::move(stage_));
    stage_ = TraceBlock{};
    stage_.reserveStandard();
}

void
BlockSink::onOp(const TraceOp &op)
{
    if (stage_.ops.size() >= TraceBlock::kOps) {
        flushStage();
    }
    stage_.ops.push_back(op);
}

void
BlockSink::onOps(const TraceOp *ops, size_t n)
{
    while (n > 0) {
        if (stage_.ops.size() >= TraceBlock::kOps) {
            flushStage();
        }
        const size_t take =
            std::min(n, TraceBlock::kOps - stage_.ops.size());
        stage_.ops.insert(stage_.ops.end(), ops, ops + take);
        ops += take;
        n -= take;
    }
}

void
BlockSink::pushEvent(const TraceBlock::Event &ev)
{
    stage_.events.push_back(ev);
    if (stage_.events.size() >= TraceBlock::kOps) {
        flushStage();
    }
}

void
BlockSink::onBranch(const BranchRecord &branch)
{
    TraceBlock::Event ev;
    ev.pos = static_cast<uint32_t>(stage_.ops.size());
    ev.kind = TraceBlock::Event::Branch;
    ev.taken = branch.taken;
    ev.value = branch.pc;
    pushEvent(ev);
}

void
BlockSink::onKernel(uint64_t site)
{
    TraceBlock::Event ev;
    ev.pos = static_cast<uint32_t>(stage_.ops.size());
    ev.kind = TraceBlock::Event::Kernel;
    ev.value = site;
    pushEvent(ev);
}

void
BlockSink::onBlock(TraceBlock &&block)
{
    flushStage();  // keep program order with staged records
    takeBlock(std::move(block));
}

} // namespace vepro::trace
