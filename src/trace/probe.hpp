#ifndef VEPRO_TRACE_PROBE_HPP
#define VEPRO_TRACE_PROBE_HPP

/**
 * @file
 * Instrumentation probe: the repository's substitute for Intel Pin.
 *
 * Encoder kernels call into a Probe to report the dynamic instructions
 * they would execute as compiled AVX2 code: op class, synthetic program
 * counter, data address, branch outcome, and dependency distances. The
 * probe produces three products:
 *
 *  - instruction-mix counters (always on, batched — Table 2 / Fig. 3),
 *  - a branch trace (pc, taken) for the CBP predictor study (Figs. 8-10),
 *  - a sampled full-op trace for the out-of-order core model
 *    (Figs. 4-7, 11, 16).
 *
 * The counters stay in the probe; both traces stream to a TraceSink.
 *
 * Synthetic PCs come from a per-call-site registry: each instrumented
 * kernel or decision point owns a stable 1 KiB code window derived from a
 * hash of its name, and ops within the site cycle through a small loop
 * body, mirroring the I-footprint of real compiled kernels.
 */

#include <array>
#include <cstdint>
#include <unordered_map>
#include <string>
#include <string_view>
#include <vector>

#include "trace/opclass.hpp"
#include "trace/sink.hpp"

namespace vepro::trace
{

/**
 * Stable synthetic PC for a named instrumentation site.
 *
 * The value is a pure function of the name (FNV-1a, masked into a
 * canonical user-space range and 1 KiB aligned), so traces are
 * reproducible across runs and machines.
 */
uint64_t sitePc(std::string_view name);

/**
 * Reverse lookup for profiling: the name registered for a site PC (the
 * 1 KiB-window base, ignoring code-variant offsets), or "?" if the PC
 * was never registered through sitePc().
 */
std::string siteName(uint64_t pc);

/** Instruction-mix totals, by op class and by reporting category. */
struct MixCounters {
    std::array<uint64_t, kNumOpClasses> byClass{};

    uint64_t
    total() const
    {
        uint64_t sum = 0;
        for (uint64_t v : byClass) {
            sum += v;
        }
        return sum;
    }

    uint64_t byCategory(MixCategory cat) const;
    /** Percentage share (0-100) of a category; 0 when empty. */
    double categoryPercent(MixCategory cat) const;

    MixCounters &
    operator+=(const MixCounters &other)
    {
        for (int i = 0; i < kNumOpClasses; ++i) {
            byClass[i] += other.byClass[i];
        }
        return *this;
    }
};

/** Probe configuration: what to collect and how much. */
struct ProbeConfig {
    /** Collect the full-op trace for the core model. */
    bool collectOps = false;
    /** Hard cap on retained ops. */
    size_t maxOps = 2'000'000;
    /**
     * Sampling: out of every @ref opInterval dynamic ops, the first
     * @ref opWindow are recorded. opWindow >= opInterval records
     * everything.
     */
    uint64_t opWindow = 200'000;
    uint64_t opInterval = 1'000'000;

    /** Accumulate per-site instruction counts (gprof substitute). */
    bool profileSites = false;
    /** Collect the branch trace for the CBP framework. */
    bool collectBranches = false;
    /** Hard cap on retained branch records. */
    size_t maxBranches = 4'000'000;
    /**
     * Skip this many dynamic ops before branch recording starts: the
     * paper traces an interval "roughly halfway through the encoding
     * run", i.e. past the warm-up of the first frames.
     */
    uint64_t branchWarmupOps = 0;

    /**
     * Full-fidelity streaming configuration: every op (and optionally
     * every branch) is recorded, uncapped and unsampled. Only sensible
     * with a sink consuming the stream as it is produced — a
     * materialising sink would be O(trace length) again.
     */
    static ProbeConfig streaming(bool branches = false);
};

/**
 * Collector for one instrumented run.
 *
 * The probe keeps the instruction-mix counters itself and streams every
 * recorded op, branch and kernel entry to its sink (setSink); it never
 * stores the trace. Not thread safe: each encode owns its own Probe.
 */
class Probe
{
  public:
    Probe() = default;
    /** @throws std::invalid_argument when config.opInterval is 0. */
    explicit Probe(const ProbeConfig &config);

    const ProbeConfig &config() const { return config_; }

    /**
     * Stream recorded ops/branches to @p sink. The sampling window and
     * caps of the ProbeConfig gate what is recorded; configure with
     * ProbeConfig::streaming() for the uncapped full trace. The sink is
     * not owned and must outlive the probe's emission. Without a sink
     * (nullptr, the default) recorded blocks are discarded: collect a
     * trace by handing the probe a VectorSink.
     */
    void setSink(TraceSink *sink) { sink_ = sink; }
    TraceSink *sink() const { return sink_; }

    /**
     * Deliver any records still staged in the probe's emission block to
     * the sink. Recorded ops, branches, and kernel entries are staged in
     * TraceBlock units (TraceBlock::kOps ops plus the events among them)
     * and delivered whole through TraceSink::onBlock, so sink consumers
     * must call this once emission ends — before the sink's own flush()
     * — to receive the tail of the stream.
     */
    void flushToSink() { flushBlock(); }

    // -- Kernel-facing emission API --------------------------------------

    /**
     * Enter an instrumented kernel. Sets the PC window for subsequent ops
     * and emits the call/return pair bookkeeping (2 unconditional
     * branches + small scalar preamble), approximating a real call.
     *
     * @param site      PC of the kernel (from sitePc()).
     * @param body_len  Modeled loop-body length in instructions; op PCs
     *                  cycle through this window.
     */
    void
    enterKernel(uint64_t site, int body_len = 32)
    {
        if (kKernelEntryOps < quiet_) {
            enterKernelQuiet(site, body_len);
            return;
        }
        enterKernelSlow(site, body_len);
    }

    /** Record @p n ops of class @p cls (no addresses, batched). */
    void
    ops(OpClass cls, uint64_t n, uint8_t dep1 = 0, uint8_t dep2 = 0)
    {
        if (n < quiet_) {
            chargeQuiet(cls, n);
            return;
        }
        opsSlow(cls, n, dep1, dep2);
    }

    /** Record one memory op at @p addr. */
    void
    mem(OpClass cls, uint64_t addr, uint8_t dep1 = 0)
    {
        if (1 < quiet_) {
            chargeQuiet(cls, 1);
            return;
        }
        memSlow(cls, addr, dep1);
    }

    /**
     * Record a run of @p n sequential vector memory ops starting at
     * @p addr with @p stride bytes between accesses.
     */
    void
    memRun(OpClass cls, uint64_t addr, int n, int stride, uint8_t dep1 = 0)
    {
        if (static_cast<uint64_t>(n) < quiet_) {
            chargeQuiet(cls, static_cast<uint64_t>(n));
            return;
        }
        memRunSlow(cls, addr, n, stride, dep1);
    }

    /**
     * Record one data-dependent conditional branch (an RDO decision,
     * early-exit test, etc.).
     */
    void
    decision(uint64_t site, bool taken)
    {
        if (1 < quiet_ && !config_.collectBranches) {
            chargeQuiet(OpClass::BranchCond, 1);
            return;
        }
        decisionSlow(site, taken);
    }

    /**
     * Record a counted loop's back-edge branches: @p iterations - 1 taken
     * plus one fall-through, all at the current kernel's loop-branch PC.
     */
    void
    loopBranches(uint64_t iterations)
    {
        if (iterations < quiet_ && !config_.collectBranches) {
            chargeQuiet(OpClass::BranchCond, iterations);
            return;
        }
        loopBranchesSlow(iterations);
    }

    /**
     * Kernel-granular bulk charge: when a whole kernel invocation — its
     * enterKernel bookkeeping plus the @p body ops an emitter would
     * report one call at a time — lies inside the quiet budget, account
     * for all of it at once and return true. Returns false, charging
     * nothing, when any of it might be recorded, dropped mid-window, or
     * profiled; the caller then emits op by op as usual. The outcome is
     * identical either way.
     */
    bool
    quietKernel(uint64_t site, int body_len, const MixCounters &body)
    {
        const uint64_t n = body.total();
        if (kKernelEntryOps + n >= quiet_ ||
            (config_.collectBranches &&
             body.byClass[static_cast<int>(OpClass::BranchCond)] != 0)) {
            return false;
        }
        enterKernelQuiet(site, body_len);
        mix_ += body;
        opSeq_ += n;
        interval_pos_ += n;
        quiet_ -= n;
        return true;
    }

    // -- Address-space management ----------------------------------------

    /**
     * Allocate @p size bytes of synthetic, deterministic address space
     * (4 KiB aligned). Encoders map each pixel/coefficient buffer once
     * and derive op addresses from the returned base.
     */
    uint64_t allocRegion(size_t size);

    // -- Results ----------------------------------------------------------

    const MixCounters &mix() const { return mix_; }
    uint64_t totalOps() const { return opSeq_; }

    /** Ops recorded so far (delivered or staged for the sink). */
    uint64_t recordedOps() const { return ops_recorded_; }
    /** Branches recorded so far. */
    uint64_t recordedBranches() const { return branches_recorded_; }
    /**
     * Ops that fell inside the sampling window but were cut by the
     * maxOps cap. Non-zero means the op trace under-represents the run;
     * benches should warn rather than report denominators computed from
     * a silently clipped trace.
     */
    uint64_t
    droppedOps() const
    {
        return dropped_ops_ + (dropping_ ? opSeq_ - drop_mark_ : 0);
    }
    /** Branches lost to the maxBranches cap (see droppedOps()). */
    uint64_t droppedBranches() const { return dropped_branches_; }

    /** Dynamic conditional-branch count (for miss-rate denominators). */
    uint64_t condBranchCount() const
    {
        return mix_.byClass[static_cast<int>(OpClass::BranchCond)];
    }

    /**
     * Dynamic-instruction span covered by the collected branch trace
     * (first to last recorded branch) — the MPKI denominator for the
     * CBP study, mirroring the paper's fixed-length trace interval.
     */
    uint64_t branchTraceOpSpan() const
    {
        return branch_last_op_ > branch_first_op_
                   ? branch_last_op_ - branch_first_op_
                   : 0;
    }

    /** Per-site dynamic instruction counts (see ProbeConfig::profileSites). */
    const std::unordered_map<uint64_t, uint64_t> &siteOps() const
    {
        return site_ops_;
    }

    /** Reset all counters and discard staged records: the probe becomes
     *  indistinguishable from a new one with the same configuration and
     *  sink. */
    void reset();

    /**
     * Test seam for vepro-check's `probe-quiet` fault: every non-zero
     * quiet budget comes out one op too long, so a fast-path call can
     * run past the op that should have gone through the slow path.
     * Never enabled outside the harness self-test.
     */
    void injectQuietFault(bool on) { quiet_fault_ = on; }

  private:
    /** Ops staged per block delivery; one block amortises the virtual
     *  dispatch across thousands of records and is the ownership unit
     *  of the parallel handoff path. */
    static constexpr size_t kBlockOps = TraceBlock::kOps;

    /** Ops one enterKernel call accounts for (call, return, preamble). */
    static constexpr uint64_t kKernelEntryOps = 4;

    /** Advance the op counter; returns how many of the @p n ops fall in
     *  the current sampling window and under the cap (0 when op tracing
     *  is off). Cap-truncated in-window ops are counted as dropped.
     *  Recomputes the quiet budget (see quiet_) for the ops that follow. */
    uint64_t advance(uint64_t n);
    /** Set quiet_ to @p budget, or to 0 under site profiling. */
    void setQuiet(uint64_t budget);

    /** The fast path of every emission call: @p n ops of class @p cls,
     *  none recorded, none profiled, no interval boundary crossed. */
    void
    chargeQuiet(OpClass cls, uint64_t n)
    {
        mix_.byClass[static_cast<int>(cls)] += n;
        opSeq_ += n;
        interval_pos_ += n;
        quiet_ -= n;
    }

    /** enterKernel inside the quiet budget: the site bookkeeping of
     *  enterKernelSlow without any recording. */
    void
    enterKernelQuiet(uint64_t site, int body_len)
    {
        if (sink_ != nullptr) {
            pending_site_ = site;
            pending_site_valid_ = true;
        }
        siteBase_ = site + ((opSeq_ >> 6) & 7) * 1024;
        siteBodyLen_ = body_len > 1 ? body_len : 1;
        sitePos_ = 0;
        mix_.byClass[static_cast<int>(OpClass::BranchUncond)] += 2;
        mix_.byClass[static_cast<int>(OpClass::Other)] += 2;
        opSeq_ += kKernelEntryOps;
        interval_pos_ += kKernelEntryOps;
        quiet_ -= kKernelEntryOps;
    }

    // Out-of-line emission paths: exact accounting, one op at a time
    // where anything is recorded.
    void enterKernelSlow(uint64_t site, int body_len);
    void opsSlow(OpClass cls, uint64_t n, uint8_t dep1, uint8_t dep2);
    void memSlow(OpClass cls, uint64_t addr, uint8_t dep1);
    void memRunSlow(OpClass cls, uint64_t addr, int n, int stride,
                    uint8_t dep1);
    void decisionSlow(uint64_t site, bool taken);
    void loopBranchesSlow(uint64_t iterations);

    uint64_t nextPc();

    /** Deliver the staged block through sink_->onBlock. A sink that
     *  moves from the block takes the buffers; either way the stage is
     *  left empty with standard capacity re-reserved. */
    void flushBlock();

    /** Record one op (updates the recorded counter). */
    void emitOp(const TraceOp &op);
    /** Record a batch of ops. */
    void emitOps(const TraceOp *ops, size_t n);
    /** Stage the deferred kernel-site event (see enterKernel) just
     *  before the first op recorded under that site. */
    void stagePendingKernel();
    /** Record one branch (caller already applied warmup/cap gating) as
     *  an in-block event at the current op position, preserving
     *  program order without cutting the block. */
    void emitBranch(uint64_t pc, bool taken);

    ProbeConfig config_{};
    MixCounters mix_{};
    uint64_t opSeq_ = 0;
    /** opSeq_ % config_.opInterval, maintained by wrap-on-compare so the
     *  emission hot path never divides. */
    uint64_t interval_pos_ = 0;
    /**
     * Quiet budget: a call of n < quiet_ ops records nothing, drops
     * nothing beyond the dropping stretch below, profiles nothing and
     * crosses no interval boundary, so it only bumps the mix and the op
     * counters (the inline fast paths). Set at the end of advance():
     * the rest of the interval outside the window (or with op tracing
     * off), the rest of the window once the maxOps cap is full, and 0
     * whenever ops could be recorded or sites are profiled.
     */
    uint64_t quiet_ = 0;
    /** A dropping stretch is open: every op since opSeq_ == drop_mark_
     *  fell in the window with the cap full, and is credited to
     *  dropped_ops_ as one opSeq_ delta (at the next slow call, or on
     *  read by droppedOps()). */
    bool dropping_ = false;
    uint64_t drop_mark_ = 0;
    bool quiet_fault_ = false;  ///< See injectQuietFault().

    uint64_t siteBase_ = sitePc("vepro.default");
    int siteBodyLen_ = 32;
    uint32_t sitePos_ = 0;  ///< Position in [0, siteBodyLen_), wrapped.

    uint64_t nextRegion_ = 0x10000000ULL;

    uint64_t branch_first_op_ = 0;
    uint64_t branch_last_op_ = 0;
    std::unordered_map<uint64_t, uint64_t> site_ops_;
    uint64_t *site_slot_ = nullptr;  ///< Current site's counter (hot path).

    TraceSink *sink_ = nullptr;  ///< Consumer of recorded records.
    /** Kernel-site event deferred until an op is actually recorded:
     *  in sampled runs, kernel entries in the gaps between op windows
     *  vastly outnumber recorded ops and carry no information a
     *  stream consumer can use (attribution only needs the site in
     *  force when recording resumes). */
    uint64_t pending_site_ = 0;
    bool pending_site_valid_ = false;
    /** Emission staging block: recorded ops accumulate in stage_.ops
     *  and branch/kernel records as positioned events, delivered whole
     *  through sink_->onBlock when the op span reaches kBlockOps (or
     *  the event list does, for branch-only streams). */
    TraceBlock stage_ = makeStage();

    static TraceBlock
    makeStage()
    {
        TraceBlock b;
        b.reserveStandard();
        return b;
    }
    uint64_t ops_recorded_ = 0;
    uint64_t branches_recorded_ = 0;
    uint64_t dropped_ops_ = 0;
    uint64_t dropped_branches_ = 0;
};

/**
 * Scoped access to a thread-local "current probe".
 *
 * Codec kernels fetch the active probe via currentProbe() so that deep
 * call chains need not thread a Probe& through every signature. A null
 * current probe (the default) makes all emission free of side effects,
 * so un-instrumented library use pays only a pointer test.
 */
Probe *currentProbe();

/**
 * Emit the op stream of scalar control/bookkeeping code (mode decision
 * logic, cost tables, syntax-element management) — the code that
 * dominates real encoders' scalar instruction mix.
 *
 * Per unit this emits roughly: three scalar loads (a hot cost/LUT entry,
 * a spread per-block metadata entry, a stack slot), one or two scalar
 * stores, ALU/address arithmetic, and a loop branch every few units.
 *
 * @param probe        Destination (must not be null).
 * @param site         Call-site PC for the emitted ops.
 * @param units        Number of control units to emit.
 * @param hot_addr     Base of a small hot table (cycled over 2 KiB).
 * @param spread_addr  Base of a large per-block metadata region.
 * @param spread_step  Stride applied per unit within the spread region.
 */
void emitControl(Probe &probe, uint64_t site, int units, uint64_t hot_addr,
                 uint64_t spread_addr, uint64_t spread_step);

/** RAII installer for the thread-local current probe. */
class ProbeScope
{
  public:
    explicit ProbeScope(Probe *probe);
    ~ProbeScope();

    ProbeScope(const ProbeScope &) = delete;
    ProbeScope &operator=(const ProbeScope &) = delete;

  private:
    Probe *saved_;
};

} // namespace vepro::trace

#endif // VEPRO_TRACE_PROBE_HPP
