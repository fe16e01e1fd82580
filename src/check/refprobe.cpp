/**
 * @file
 * check::RefProbe — the reference for trace::Probe's accounting (see
 * oracle.hpp). Every call works out its sampling window from scratch
 * with a modulo and records op by op; nothing is cached between calls
 * except the counters themselves.
 */

#include <algorithm>

#include "check/oracle.hpp"

namespace vepro::check
{

using trace::OpClass;
using trace::TraceOp;

bool
ProbeRecord::operator==(const ProbeRecord &o) const
{
    if (kind != o.kind) {
        return false;
    }
    if (kind != Op) {
        return value == o.value && taken == o.taken;
    }
    return op.pc == o.op.pc && op.addr == o.op.addr && op.cls == o.op.cls &&
           op.taken == o.op.taken && op.dep1 == o.op.dep1 &&
           op.dep2 == o.op.dep2 && op.foreign == o.op.foreign;
}

RefProbe::RefProbe(const trace::ProbeConfig &config, bool has_sink)
    : config_(config), has_sink_(has_sink),
      site_base_(trace::sitePc("vepro.default"))
{
}

void
RefProbe::reset()
{
    *this = RefProbe(config_, has_sink_);
}

uint64_t
RefProbe::take(uint64_t n)
{
    const uint64_t start = seq_;
    seq_ += n;
    if (profiling_) {
        site_ops_[profiled_site_] += n;
    }
    if (!config_.collectOps) {
        return 0;
    }
    uint64_t in_window = 0;
    if (config_.opWindow >= config_.opInterval) {
        in_window = n;
    } else {
        // Only where the call starts counts: a call that starts in a gap
        // records nothing, whatever it runs into.
        const uint64_t pos = start % config_.opInterval;
        if (pos < config_.opWindow) {
            in_window = std::min(n, config_.opWindow - pos);
        }
    }
    const uint64_t room =
        config_.maxOps > ops_recorded_ ? config_.maxOps - ops_recorded_ : 0;
    const uint64_t taken = std::min(in_window, room);
    dropped_ops_ += in_window - taken;
    return taken;
}

uint64_t
RefProbe::nextPc()
{
    const uint64_t pc = site_base_ + 4 * site_pos_;
    site_pos_ = (site_pos_ + 1) % body_len_;
    return pc;
}

void
RefProbe::emitPending()
{
    if (pending_) {
        pending_ = false;
        ProbeRecord r;
        r.kind = ProbeRecord::Kernel;
        r.value = pending_site_;
        records_.push_back(r);
    }
}

void
RefProbe::recordOp(const TraceOp &op)
{
    ProbeRecord r;
    r.op = op;
    records_.push_back(r);
    ++ops_recorded_;
}

void
RefProbe::recordBranch(uint64_t pc, bool taken)
{
    emitPending();
    if (branches_recorded_ == 0) {
        branch_first_ = seq_;
    }
    branch_last_ = seq_;
    ++branches_recorded_;
    ProbeRecord r;
    r.kind = ProbeRecord::Branch;
    r.value = pc;
    r.taken = taken;
    records_.push_back(r);
}

void
RefProbe::enterKernel(uint64_t site, int body_len)
{
    if (config_.profileSites) {
        profiling_ = true;
        profiled_site_ = site;
        site_ops_[site] += 0;  // entered sites are listed even at 0 ops
    }
    if (has_sink_) {
        pending_ = true;
        pending_site_ = site;
    }
    site_base_ = site + ((seq_ >> 6) & 7) * 1024;
    body_len_ = static_cast<uint64_t>(std::max(1, body_len));
    site_pos_ = 0;
    mix_[static_cast<int>(OpClass::BranchUncond)] += 2;
    mix_[static_cast<int>(OpClass::Other)] += 2;
    if (take(4) >= 2) {
        emitPending();
        recordOp({site_base_, 0, OpClass::BranchUncond, true, 0, 0, false});
        recordOp({site_base_ + 4, 0, OpClass::Other, false, 0, 0, false});
    }
}

void
RefProbe::ops(OpClass cls, uint64_t n, uint8_t dep1, uint8_t dep2)
{
    mix_[static_cast<int>(cls)] += n;
    const uint64_t t = take(n);
    for (uint64_t i = 0; i < t; ++i) {
        recordOp({nextPc(), 0, cls, false, dep1, dep2, false});
    }
}

void
RefProbe::mem(OpClass cls, uint64_t addr, uint8_t dep1)
{
    mix_[static_cast<int>(cls)] += 1;
    if (take(1) > 0) {
        emitPending();
        recordOp({nextPc(), addr, cls, false, dep1, 0, false});
    }
}

void
RefProbe::memRun(OpClass cls, uint64_t addr, int n, int stride,
                 uint8_t dep1)
{
    const uint64_t count = static_cast<uint64_t>(n);
    mix_[static_cast<int>(cls)] += count;
    const uint64_t t = take(count);
    const uint64_t step = static_cast<uint64_t>(static_cast<int64_t>(stride));
    for (uint64_t i = 0; i < t; ++i) {
        recordOp({nextPc(), addr + i * step, cls, false, dep1, 0, false});
    }
}

void
RefProbe::decision(uint64_t site, bool taken)
{
    mix_[static_cast<int>(OpClass::BranchCond)] += 1;
    if (take(1) > 0) {
        emitPending();
        recordOp({site, 0, OpClass::BranchCond, taken, 1, 0, false});
    }
    if (config_.collectBranches && seq_ > config_.branchWarmupOps) {
        if (branches_recorded_ < config_.maxBranches) {
            recordBranch(site, taken);
        } else {
            ++dropped_branches_;
        }
    }
}

void
RefProbe::loopBranches(uint64_t iterations)
{
    if (iterations == 0) {
        return;
    }
    const uint64_t loop_pc = site_base_ + 4 * body_len_;
    mix_[static_cast<int>(OpClass::BranchCond)] += iterations;
    const uint64_t t = take(iterations);
    for (uint64_t i = 0; i < t; ++i) {
        recordOp({loop_pc, 0, OpClass::BranchCond, i + 1 < iterations, 1, 0,
                  false});
    }
    if (config_.collectBranches && seq_ > config_.branchWarmupOps) {
        for (uint64_t i = 0; i < iterations; ++i) {
            if (branches_recorded_ < config_.maxBranches) {
                recordBranch(loop_pc, i + 1 < iterations);
            } else {
                ++dropped_branches_;
            }
        }
    }
}

} // namespace vepro::check
