#include "trace/probe.hpp"

#include <algorithm>
#include <limits>
#include <mutex>
#include <stdexcept>

namespace vepro::trace
{

namespace
{

thread_local Probe *tls_probe = nullptr;

std::mutex &
siteRegistryMutex()
{
    static std::mutex m;
    return m;
}

std::unordered_map<uint64_t, std::string> &
siteRegistry()
{
    static std::unordered_map<uint64_t, std::string> names;
    return names;
}

} // namespace

uint64_t
sitePc(std::string_view name)
{
    uint64_t h = 0xcbf29ce484222325ULL;
    for (char c : name) {
        h = (h ^ static_cast<uint8_t>(c)) * 0x100000001b3ULL;
    }
    // Canonical user-space text range, 1 KiB aligned so each site owns a
    // private code window.
    uint64_t pc = 0x400000ULL + ((h << 10) & 0x0000'7fff'ffff'fc00ULL);
    {
        std::lock_guard<std::mutex> lock(siteRegistryMutex());
        siteRegistry().emplace(pc, std::string(name));
    }
    return pc;
}

std::string
siteName(uint64_t pc)
{
    std::lock_guard<std::mutex> lock(siteRegistryMutex());
    auto it = siteRegistry().find(pc);
    return it != siteRegistry().end() ? it->second : "?";
}

ProbeConfig
ProbeConfig::streaming(bool branches)
{
    ProbeConfig pc;
    pc.collectOps = true;
    pc.maxOps = std::numeric_limits<size_t>::max();
    // opWindow >= opInterval disables sampling: every op is recorded.
    pc.opWindow = pc.opInterval;
    pc.collectBranches = branches;
    pc.maxBranches = std::numeric_limits<size_t>::max();
    return pc;
}

uint64_t
MixCounters::byCategory(MixCategory cat) const
{
    uint64_t sum = 0;
    for (int i = 0; i < kNumOpClasses; ++i) {
        if (categoryOf(static_cast<OpClass>(i)) == cat) {
            sum += byClass[i];
        }
    }
    return sum;
}

double
MixCounters::categoryPercent(MixCategory cat) const
{
    uint64_t t = total();
    if (t == 0) {
        return 0.0;
    }
    return 100.0 * static_cast<double>(byCategory(cat)) /
           static_cast<double>(t);
}

Probe::Probe(const ProbeConfig &config) : config_(config)
{
    if (config_.opInterval == 0) {
        throw std::invalid_argument("ProbeConfig: opInterval must be > 0");
    }
}

uint64_t
Probe::advance(uint64_t n)
{
    if (dropping_) {
        dropped_ops_ += opSeq_ - drop_mark_;
        dropping_ = false;
    }
    if (site_slot_ != nullptr) {
        *site_slot_ += n;
    }
    // interval_pos_ mirrors opSeq_ % opInterval; the conditional modulo
    // only fires once per interval instead of dividing per emission call.
    uint64_t pos = interval_pos_;
    opSeq_ += n;
    interval_pos_ += n;
    if (interval_pos_ >= config_.opInterval) {
        interval_pos_ %= config_.opInterval;
    }
    if (!config_.collectOps) {
        setQuiet(config_.opInterval - interval_pos_);
        return 0;
    }
    // opWindow >= opInterval means "record everything" (streaming mode);
    // otherwise only the window-prefix of each interval is recorded.
    const bool sampled = config_.opWindow < config_.opInterval;
    uint64_t in_window =
        !sampled ? n
                 : (pos < config_.opWindow ? std::min(n, config_.opWindow - pos)
                                           : 0);
    uint64_t room = config_.maxOps > ops_recorded_
                        ? config_.maxOps - ops_recorded_
                        : 0;
    uint64_t take = std::min(in_window, room);
    dropped_ops_ += in_window - take;

    if (!sampled) {
        setQuiet(0);
    } else if (interval_pos_ >= config_.opWindow) {
        setQuiet(config_.opInterval - interval_pos_);
    } else if (room == 0) {
        // The cap was already full when this call began, so nothing this
        // call did can have recorded an op: the rest of the window only
        // drops. (A call that fills the cap leaves the budget at 0; the
        // next slow call opens the stretch.)
        setQuiet(config_.opWindow - interval_pos_);
        dropping_ = true;
        drop_mark_ = opSeq_;
    } else {
        setQuiet(0);
    }
    return take;
}

void
Probe::flushBlock()
{
    if (stage_.empty()) {
        return;
    }
    // A non-moving sink (the default) leaves the block with us; a
    // moving one (PipelineMux, SegmentSim) takes the buffers. Either
    // way the stage comes back empty with standard capacity.
    if (sink_ != nullptr) {
        sink_->onBlock(std::move(stage_));
    }
    stage_.clear();
    stage_.reserveStandard();
}

void
Probe::stagePendingKernel()
{
    pending_site_valid_ = false;
    TraceBlock::Event ev;
    ev.pos = static_cast<uint32_t>(stage_.ops.size());
    ev.kind = TraceBlock::Event::Kernel;
    ev.value = pending_site_;
    stage_.events.push_back(ev);
    if (stage_.events.size() >= kBlockOps) {
        flushBlock();
    }
}

void
Probe::emitOp(const TraceOp &op)
{
    if (pending_site_valid_) {
        stagePendingKernel();
    }
    ++ops_recorded_;
    if (stage_.ops.size() == kBlockOps) {
        flushBlock();
    }
    stage_.ops.push_back(op);
}

void
Probe::emitOps(const TraceOp *ops, size_t n)
{
    if (pending_site_valid_) {
        stagePendingKernel();
    }
    ops_recorded_ += n;
    while (n > 0) {
        if (stage_.ops.size() == kBlockOps) {
            flushBlock();
        }
        size_t take = std::min(n, kBlockOps - stage_.ops.size());
        stage_.ops.insert(stage_.ops.end(), ops, ops + take);
        ops += take;
        n -= take;
    }
}

void
Probe::emitBranch(uint64_t pc, bool taken)
{
    if (pending_site_valid_) {
        stagePendingKernel();
    }
    if (branches_recorded_ == 0) {
        branch_first_op_ = opSeq_;
    }
    branch_last_op_ = opSeq_;
    ++branches_recorded_;
    TraceBlock::Event ev;
    ev.pos = static_cast<uint32_t>(stage_.ops.size());
    ev.kind = TraceBlock::Event::Branch;
    ev.taken = taken;
    ev.value = pc;
    stage_.events.push_back(ev);
    // Branch-only streams (CBP runs with op tracing off) never fill the
    // op span, so the event list needs its own publish threshold.
    if (stage_.events.size() >= kBlockOps) {
        flushBlock();
    }
}

uint64_t
Probe::nextPc()
{
    uint64_t pc = siteBase_ + 4ULL * sitePos_;
    if (++sitePos_ == static_cast<uint32_t>(siteBodyLen_)) {
        sitePos_ = 0;
    }
    return pc;
}

void
Probe::setQuiet(uint64_t budget)
{
    // Site profiling counts per call, so it never takes the fast path.
    if (config_.profileSites || budget == 0) {
        quiet_ = 0;
    } else {
        quiet_ = budget + (quiet_fault_ ? 1 : 0);
    }
}

void
Probe::enterKernelSlow(uint64_t site, int body_len)
{
    if (config_.profileSites) {
        site_slot_ = &site_ops_[site];
    }
    if (sink_ != nullptr) {
        // Deferred: the event is only staged when a record actually
        // lands under this site (stagePendingKernel). Sampled captures
        // gate ops off for most of each interval, and staging an event
        // per kernel entry during those gaps used to swamp the trace —
        // more event bytes than op bytes. Replay attribution only needs
        // the site in force when recording resumes, which collapsing
        // the gap's entries to the last one preserves.
        pending_site_ = site;
        pending_site_valid_ = true;
    }
    // Real encoders specialise each kernel by block size / unroll factor;
    // spread invocations over eight code variants so the instruction
    // footprint matches a few hundred KB of hot code, not a toy loop.
    siteBase_ = site + ((opSeq_ >> 6) & 7) * 1024;
    siteBodyLen_ = std::max(1, body_len);
    sitePos_ = 0;

    // Call + return plus a tiny scalar preamble (spills / setup).
    mix_.byClass[static_cast<int>(OpClass::BranchUncond)] += 2;
    mix_.byClass[static_cast<int>(OpClass::Other)] += 2;
    if (advance(kKernelEntryOps) >= 2) {
        const TraceOp pair[2] = {
            {siteBase_, 0, OpClass::BranchUncond, true, 0, 0, false},
            {siteBase_ + 4, 0, OpClass::Other, false, 0, 0, false}};
        emitOps(pair, 2);
    }
}

void
Probe::opsSlow(OpClass cls, uint64_t n, uint8_t dep1, uint8_t dep2)
{
    mix_.byClass[static_cast<int>(cls)] += n;
    uint64_t take = advance(n);
    ops_recorded_ += take;
    for (uint64_t i = 0; i < take; ++i) {
        if (stage_.ops.size() == kBlockOps) {
            flushBlock();
        }
        stage_.ops.push_back({nextPc(), 0, cls, false, dep1, dep2, false});
    }
}

void
Probe::memSlow(OpClass cls, uint64_t addr, uint8_t dep1)
{
    mix_.byClass[static_cast<int>(cls)] += 1;
    if (advance(1) > 0) {
        emitOp({nextPc(), addr, cls, false, dep1, 0, false});
    }
}

void
Probe::memRunSlow(OpClass cls, uint64_t addr, int n, int stride, uint8_t dep1)
{
    mix_.byClass[static_cast<int>(cls)] += static_cast<uint64_t>(n);
    uint64_t take = advance(static_cast<uint64_t>(n));
    ops_recorded_ += take;
    for (uint64_t i = 0; i < take; ++i) {
        if (stage_.ops.size() == kBlockOps) {
            flushBlock();
        }
        stage_.ops.push_back({nextPc(),
                              addr + static_cast<uint64_t>(i) * stride,
                              cls, false, dep1, 0, false});
    }
}

void
Probe::decisionSlow(uint64_t site, bool taken)
{
    mix_.byClass[static_cast<int>(OpClass::BranchCond)] += 1;
    if (advance(1) > 0) {
        emitOp({site, 0, OpClass::BranchCond, taken, 1, 0, false});
    }
    if (config_.collectBranches && opSeq_ > config_.branchWarmupOps) {
        if (branches_recorded_ < config_.maxBranches) {
            emitBranch(site, taken);
        } else {
            ++dropped_branches_;
        }
    }
}

void
Probe::loopBranchesSlow(uint64_t iterations)
{
    if (iterations == 0) {
        return;
    }
    uint64_t loop_pc = siteBase_ + 4ULL * siteBodyLen_;
    mix_.byClass[static_cast<int>(OpClass::BranchCond)] += iterations;
    uint64_t take = advance(iterations);
    ops_recorded_ += take;
    for (uint64_t i = 0; i < take; ++i) {
        if (stage_.ops.size() == kBlockOps) {
            flushBlock();
        }
        stage_.ops.push_back({loop_pc, 0, OpClass::BranchCond,
                              i + 1 < iterations, 1, 0, false});
    }
    if (config_.collectBranches && opSeq_ > config_.branchWarmupOps) {
        uint64_t room = config_.maxBranches > branches_recorded_
                            ? config_.maxBranches - branches_recorded_
                            : 0;
        uint64_t recorded = std::min(iterations, room);
        dropped_branches_ += iterations - recorded;
        for (uint64_t i = 0; i < recorded; ++i) {
            emitBranch(loop_pc, i + 1 < iterations);
        }
    }
}

uint64_t
Probe::allocRegion(size_t size)
{
    uint64_t base = nextRegion_;
    uint64_t span = (static_cast<uint64_t>(size) + 4095ULL) & ~4095ULL;
    nextRegion_ += span + 4096ULL;  // guard page between regions
    return base;
}

void
Probe::reset()
{
    TraceSink *sink = sink_;
    const bool quiet_fault = quiet_fault_;
    *this = Probe(config_);
    sink_ = sink;
    quiet_fault_ = quiet_fault;
}

void
emitControl(Probe &probe, uint64_t site, int units, uint64_t hot_addr,
            uint64_t spread_addr, uint64_t spread_step)
{
    if (units >= 0) {
        const uint64_t n = static_cast<uint64_t>(units);
        MixCounters body;
        body.byClass[static_cast<int>(OpClass::Load)] = 4 * n;
        body.byClass[static_cast<int>(OpClass::Alu)] = n;
        body.byClass[static_cast<int>(OpClass::Other)] = n / 2;
        body.byClass[static_cast<int>(OpClass::Store)] = 2 * n;
        body.byClass[static_cast<int>(OpClass::BranchCond)] = (n + 3) / 4;
        if (probe.quietKernel(site, 20, body)) {
            return;
        }
    }
    probe.enterKernel(site, 20);
    for (int u = 0; u < units; ++u) {
        // Hot table lookups (cost LUTs), per-block metadata, stack slots.
        probe.mem(OpClass::Load, hot_addr + (static_cast<uint64_t>(u) * 72) % 2048);
        probe.mem(OpClass::Load, hot_addr + 2048 + (static_cast<uint64_t>(u) * 40) % 1024);
        probe.mem(OpClass::Load, spread_addr + static_cast<uint64_t>(u) * spread_step);
        probe.mem(OpClass::Load, site + 0x800 + (static_cast<uint64_t>(u) * 24) % 256);
        probe.ops(OpClass::Alu, 1, 1, 2);
        if ((u & 1) != 0) {
            probe.ops(OpClass::Other, 1, 1);
        }
        probe.mem(OpClass::Store, spread_addr + static_cast<uint64_t>(u) * spread_step + 8, 1);
        probe.mem(OpClass::Store, site + 0x800 + (static_cast<uint64_t>(u) * 24) % 256, 1);
    }
    probe.loopBranches(static_cast<uint64_t>((units + 3) / 4));
}

Probe *
currentProbe()
{
    return tls_probe;
}

ProbeScope::ProbeScope(Probe *probe) : saved_(tls_probe)
{
    tls_probe = probe;
}

ProbeScope::~ProbeScope()
{
    tls_probe = saved_;
}

} // namespace vepro::trace
