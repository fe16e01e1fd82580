#include "uarch/core.hpp"

#include <algorithm>
#include <array>
#include <limits>
#include <stdexcept>

#include "uarch/ring.hpp"

namespace vepro::uarch
{

using trace::OpClass;
using trace::TraceOp;
using trace::isLoad;
using trace::isStore;
using trace::kNumOpClasses;

namespace
{

constexpr uint64_t kPending = std::numeric_limits<uint64_t>::max();
constexpr size_t kCompleteRing = 4096;

/**
 * Streaming high-water mark: once this many ops are queued ahead of the
 * fetch stage, the engine simulates until the backlog drains. Bounds
 * peak trace memory of a fused encode at ~kBacklog * sizeof(TraceOp)
 * regardless of trace length.
 */
constexpr size_t kBacklog = 32768;

/** Execution port classes. */
enum class Port : uint8_t { Alu, Mul, Simd, Load, Store, Branch };
constexpr int kNumPorts = 6;

/**
 * Static issue properties of an op class, precomputed so the per-cycle
 * reservation-station rescan does no switch dispatch: execution port,
 * execution latency (loads get theirs from the cache model), and the
 * load/store buffer flags.
 */
struct OpInfo {
    uint8_t port;
    uint8_t latency;
    bool load;
    bool store;
};

constexpr OpInfo
opInfoOf(OpClass cls)
{
    Port port = Port::Alu;
    uint8_t lat = 1;
    switch (cls) {
      case OpClass::Mul:
        port = Port::Mul;
        lat = 3;
        break;
      case OpClass::Div:
        port = Port::Mul;
        lat = 20;
        break;
      case OpClass::Load:
      case OpClass::SimdLoad:
        port = Port::Load;
        break;
      case OpClass::Store:
      case OpClass::SimdStore:
        port = Port::Store;
        break;
      case OpClass::BranchCond:
      case OpClass::BranchUncond:
        port = Port::Branch;
        break;
      case OpClass::SimdMul:
        port = Port::Simd;
        lat = 5;
        break;
      case OpClass::SimdAlu:
      case OpClass::SseAlu:
        port = Port::Simd;
        break;
      default:
        break;
    }
    return {static_cast<uint8_t>(port), lat, isLoad(cls), isStore(cls)};
}

constexpr std::array<OpInfo, kNumOpClasses> kOpInfo = [] {
    std::array<OpInfo, kNumOpClasses> t{};
    for (int i = 0; i < kNumOpClasses; ++i) {
        t[static_cast<size_t>(i)] = opInfoOf(static_cast<OpClass>(i));
    }
    return t;
}();

/** A fetched op waiting to allocate; built in place in the fetch queue. */
struct Uop {
    uint64_t idx;  ///< Global dynamic-op index (foreign ops included).
    uint64_t addr;
    OpClass cls;
    uint8_t dep1;
    uint8_t dep2;
    bool mispred;
};

} // namespace

/**
 * The simulation engine. One stepCycle() is the cycle loop body of the
 * old batch replay, verbatim, with the trace vector replaced by a
 * sliding ring-buffer window: consumed ops are released once the fetch
 * index passes them. A cycle is only stepped when the fetch stage is
 * guaranteed not to under-run mid-cycle — at least `width` non-foreign
 * ops queued — or when flushing, where end-of-buffer genuinely is
 * end-of-trace. That guarantee makes the streamed simulation
 * cycle-for-cycle identical to batch replay, at any delivery
 * granularity.
 *
 * Scheduling structures (see DESIGN.md §11): the trace window, fetch
 * queue, ROB, and store-drain queue are power-of-two rings; in-flight
 * load completions sit in a counting ring; the reservation station is a
 * slot table indexed by op index plus an array giving its position
 * order; and the issue scan visits only woken entries whose port still
 * has quota this cycle.
 */
struct StreamCore::Impl {
    explicit Impl(const CoreConfig &cfg)
        : config(cfg), predictor(bpred::makePredictor(cfg.predictorSpec)),
          mem(cfg.mem), complete(kCompleteRing, 0),
          fetchq(static_cast<size_t>(cfg.width) * 4),
          fetchq_cap(static_cast<size_t>(cfg.width) * 4), buf(kBacklog)
    {
        if (cfg.width < 1 || cfg.robSize < cfg.width) {
            throw std::invalid_argument("Core: bad geometry");
        }
        if (cfg.rsSize > static_cast<int>(kMaskWords * 64)) {
            throw std::invalid_argument("Core: rsSize above 256");
        }
        mask_words = std::max<size_t>(
            1, (static_cast<size_t>(std::max(cfg.rsSize, 0)) + 63) / 64);
        // The completion ring must reach past the slowest possible
        // data access so a future slot is never reused before it fires.
        const int worst_lat =
            std::max({cfg.mem.memoryLatency, cfg.mem.l1d.hitLatency,
                      cfg.mem.l2.hitLatency, cfg.mem.llc.hitLatency, 1});
        size_t load_ring = 64;
        while (load_ring <= static_cast<size_t>(worst_lat)) {
            load_ring *= 2;
        }
        load_done_cnt.assign(load_ring, 0);
        load_ring_mask = load_ring - 1;
        slots.assign(kCompleteRing, RsEntry{});
        cal_head.assign(kCalRing, kPending);
        cal_next.assign(kCompleteRing, kPending);
        waiter_head.assign(kWaitRing, kPending);
        wnext1.assign(kWaitRing, kPending);
        wnext2.assign(kWaitRing, kPending);
        rob_cap = static_cast<size_t>(cfg.robSize);
        port_quota[static_cast<int>(Port::Alu)] = cfg.aluPorts;
        port_quota[static_cast<int>(Port::Mul)] = cfg.mulPorts;
        port_quota[static_cast<int>(Port::Simd)] = cfg.simdPorts;
        port_quota[static_cast<int>(Port::Load)] = cfg.loadPorts;
        port_quota[static_cast<int>(Port::Store)] = cfg.storePorts;
        port_quota[static_cast<int>(Port::Branch)] = cfg.branchPorts;
    }

    CoreConfig config;
    std::unique_ptr<bpred::BranchPredictor> predictor;
    Hierarchy mem;
    CoreStats stats;

    std::vector<uint64_t> complete;
    int port_quota[kNumPorts] = {};

    // Front end.
    Ring<Uop> fetchq;
    size_t fetchq_cap;
    uint64_t redirect_until = 0;
    uint64_t icache_until = 0;
    uint64_t last_line = ~0ull;
    bool pending_redirect = false;

    // Input window: ops [base, base + buf.size()); fetch index pos.
    Ring<TraceOp> buf;
    uint64_t base = 0;
    uint64_t pos = 0;
    uint64_t nf_avail = 0;  ///< Non-foreign ops in [pos, end).
    uint64_t n_instr = 0;   ///< Non-foreign ops received in total.

    // Back end.
    struct RobEntry {
        uint64_t idx;
        uint64_t addr;
        bool store;
    };
    Ring<RobEntry> rob;
    size_t rob_cap = 0;
    static constexpr size_t kMaskWords = 4;  // supports rsSize <= 256
    /**
     * One reservation-station entry, kept in `slots` at its op index
     * modulo kCompleteRing: the live window is bounded by the ROB, far
     * below the ring, so two live entries never share a slot. Entries
     * stay put from allocation to issue; only their position changes.
     */
    struct RsEntry {
        uint64_t addr;
        /**
         * First cycle the entry may issue: max(ready, alloc_cycle + 1),
         * where ready is the cycle both producers complete. While a
         * producer has not issued it holds alloc_cycle + 1 and the
         * entry is not filed, so nothing reads it. Completion-ring
         * slots referenced by a live entry are never overwritten (the
         * ROB window is far smaller than the ring), so once resolved
         * the value a live read would return can never change and
         * caching it is exact.
         */
        uint64_t wake_at;
        uint32_t pos;  ///< Index into `order` while the entry is live.
        uint8_t dep1;
        uint8_t dep2;
        uint8_t latency;
        uint8_t wait_cnt;  ///< Producers not yet issued (0 when resolved)
        bool load;
        bool mispred;
    };
    std::vector<RsEntry> slots;
    /**
     * The station's position order: order[p] is the op index of the
     * entry at position p, for p < rs_n. Allocation appends; an issue
     * swap-removes, moving only the last index into the freed position.
     * Position order decides who wins a contended port, exactly as the
     * vector of entries it replaces did.
     */
    std::array<uint64_t, kMaskWords * 64> order{};
    std::array<uint8_t, kMaskWords * 64> order_port{};  ///< Port by position.
    size_t rs_n = 0;
    /**
     * Event-driven wakeup, so the issue scan touches only entries that
     * can actually issue instead of walking the whole station every
     * cycle. Three pieces cooperate:
     *
     *  - `cal`, a calendar ring bucketed by cycle: when an entry's ready
     *    time becomes known (at allocation, or when its last producer
     *    issues), its op index is filed under its wake_at, or one
     *    cycle ahead if that has passed. Times beyond the ring period
     *    simply re-file on fire, so the ring size is a performance
     *    knob, not a correctness bound.
     *  - `eligible`, a bitmask over RS *positions*: set when the
     *    calendar fires, cleared on issue. Port-starved entries keep
     *    their bit and retry next cycle, exactly like the full scan.
     *  - `port_pos`, one position mask per execution port. The scan
     *    walks `eligible & open`, where `open` drops the positions of
     *    every port whose quota is spent this cycle, so it never visits
     *    a port-starved entry — visiting one had no effect.
     *
     * Scanning ascending set bits visits entries in position order, and
     * issues swap-remove the order array and every mask bit together,
     * so the visit order — which decides who wins a contended port — is
     * exactly the full scan's. A cycle with no set bits provably issues
     * nothing and skips the scan outright.
     */
    static constexpr size_t kCalRing = 512;
    using Mask = std::array<uint64_t, kMaskWords>;
    Mask eligible{};
    std::array<Mask, kNumPorts> port_pos{};
    size_t mask_words = kMaskWords;  ///< Words that cover rsSize.
    /**
     * Calendar buckets as intrusive lists: cal_head[t & mask] chains op
     * indices through cal_next[idx % kCompleteRing] — an entry sits in
     * at most one bucket at a time (it is drained before any re-file),
     * so the per-idx next slot cannot collide. Bucket order is
     * irrelevant: firing only sets eligibility bits, and issue order is
     * decided by the position scan. Filing is two stores, draining a
     * pointer walk — no per-cycle vector churn.
     */
    std::vector<uint64_t> cal_head;  // bucket -> first idx, kPending empty
    std::vector<uint64_t> cal_next;  // idx slot -> next idx in bucket
    /**
     * Reverse dependency map: for each unissued producer, an intrusive
     * list of the pending consumers waiting on it, keyed by op index
     * modulo kWaitRing (dependency distances are < 256 and the live
     * window is bounded by the ROB, so slots never collide). A
     * consumer's issue walks its own waiter chain, decrements each
     * waiter's wait_cnt, and files newly resolved waiters in the
     * calendar — pending entries are touched exactly when one of their
     * producers issues, never rescanned. Sized like the completion ring
     * so slot collisions are impossible under the same window bound.
     */
    static constexpr size_t kWaitRing = kCompleteRing;
    std::vector<uint64_t> waiter_head;  // producer slot -> first waiter idx
    std::vector<uint64_t> wnext1, wnext2;  // waiter idx -> next, per dep

    /** See StreamCore::injectSwapFault(). */
    bool swap_fault = false;

    void schedule(uint64_t idx, uint64_t t)
    {
        uint64_t &head = cal_head[t & (kCalRing - 1)];
        cal_next[idx % kCompleteRing] = head;
        head = idx;
    }
    static bool maskTest(const Mask &m, size_t pos)
    {
        return (m[pos >> 6] >> (pos & 63)) & 1;
    }
    static void maskSet(Mask &m, size_t pos)
    {
        m[pos >> 6] |= 1ull << (pos & 63);
    }
    static void maskClear(Mask &m, size_t pos)
    {
        m[pos >> 6] &= ~(1ull << (pos & 63));
    }
    /** First position >= @p from set in both @p a and @p b, or SIZE_MAX. */
    size_t firstOf(const Mask &a, const Mask &b, size_t from) const
    {
        size_t w = from >> 6;
        if (w >= mask_words) {
            return SIZE_MAX;
        }
        uint64_t bits = a[w] & b[w] & (~0ull << (from & 63));
        while (bits == 0) {
            if (++w >= mask_words) {
                return SIZE_MAX;
            }
            bits = a[w] & b[w];
        }
        return w * 64 + static_cast<size_t>(__builtin_ctzll(bits));
    }
    /**
     * In-flight load completions as a counting ring: slot (done & mask)
     * holds how many loads finish at that cycle. Completion times are at
     * most the worst memory latency ahead, and the ring is sized past
     * that, so a slot is always drained (at its own cycle) before it
     * could be reused. load_max is the largest completion time queued
     * while any load was outstanding — the same quantity the old
     * min-heap tracked, at two array ops per load instead of heap churn.
     */
    std::vector<uint32_t> load_done_cnt;
    uint64_t load_ring_mask = 0;
    uint64_t loads_outstanding = 0;
    uint64_t load_max = 0;
    Ring<uint64_t> store_drains;  // drain times, pushed in nondecr. order
    int lb_count = 0;
    int sb_count = 0;  // stores allocated but not drained
    uint64_t sb_drain_time = 0;

    uint64_t cycle = 0;
    uint64_t retired = 0;
    bool finished = false;

    /**
     * Measurement bases, snapshotted by resetStats(): finish() reports
     * each monotone counter minus its base, so a reset discards the
     * warmup prefix without touching warm cache/predictor state. All
     * zero by default — finish() is unchanged for whole-trace runs.
     */
    uint64_t base_cycle = 0;
    uint64_t base_instr = 0;
    uint64_t base_l1i_misses = 0;
    uint64_t base_l1d_accesses = 0;
    uint64_t base_l1d_misses = 0;
    uint64_t base_l2_misses = 0;
    uint64_t base_llc_misses = 0;
    uint64_t base_invalidations = 0;

    uint64_t end() const { return base + buf.size(); }
    const TraceOp &at(uint64_t idx) const
    {
        return buf[static_cast<size_t>(idx - base)];
    }

    void pushBlock(const TraceOp *ops, size_t n);
    void stepCycle();
    void issue();
    void finish();
    void resetStats();
};

void
StreamCore::Impl::pushBlock(const TraceOp *ops, size_t n)
{
    buf.append(ops, n);
    uint64_t nf = 0;
    for (size_t i = 0; i < n; ++i) {
        nf += !ops[i].foreign;
    }
    nf_avail += nf;
    n_instr += nf;
    // Drain the backlog, keeping the fetch-feed guarantee: each cycle
    // consumes at most `width` non-foreign ops plus the foreign runs
    // between them, so `width` queued non-foreign ops ensure the fetch
    // loop never sees a buffer end the batch replay would not have seen.
    while (buf.size() >= kBacklog &&
           nf_avail >= static_cast<uint64_t>(config.width)) {
        stepCycle();
        if (pos > base) {
            buf.pop_front(static_cast<size_t>(pos - base));
            base = pos;
        }
    }
}

/**
 * Issue woken entries in position order, each taking one unit of its
 * port's quota, and swap-remove them from the station.
 */
void
StreamCore::Impl::issue()
{
    int port_free[kNumPorts];
    Mask open;
    open.fill(~0ull);
    for (int p = 0; p < kNumPorts; ++p) {
        port_free[p] = port_quota[p];
        if (port_free[p] <= 0) {
            for (size_t w = 0; w < mask_words; ++w) {
                open[w] &= ~port_pos[p][w];
            }
        }
    }
    size_t i = firstOf(eligible, open, 0);
    while (i != SIZE_MAX) {
        const uint64_t idx = order[i];
        const uint8_t port = order_port[i];
        const RsEntry &e = slots[idx % kCompleteRing];
        if (--port_free[port] == 0) {
            // The port is spent: its other entries are starved for the
            // rest of this cycle, so the scan stops seeing them.
            for (size_t w = 0; w < mask_words; ++w) {
                open[w] &= ~port_pos[port][w];
            }
        }
        uint64_t done;
        if (e.load) {
            int lat = mem.dataAccess(e.addr, false);
            done = cycle + static_cast<uint64_t>(lat);
            ++load_done_cnt[done & load_ring_mask];
            ++loads_outstanding;
            load_max = std::max(load_max, done);
        } else {
            done = cycle + e.latency;
        }
        complete[idx % kCompleteRing] = done;
        if (e.mispred) {
            redirect_until =
                done + static_cast<uint64_t>(config.mispredictPenalty);
            pending_redirect = false;
        }
        // Wake the consumers chained on this producer; those whose
        // last producer this was are now resolved — file them.
        uint64_t wi = waiter_head[idx & (kWaitRing - 1)];
        waiter_head[idx & (kWaitRing - 1)] = kPending;
        while (wi != kPending) {
            RsEntry &c = slots[wi % kCompleteRing];
            const uint64_t next = (c.dep1 != 0 && wi - c.dep1 == idx)
                                      ? wnext1[wi & (kWaitRing - 1)]
                                      : wnext2[wi & (kWaitRing - 1)];
            if (--c.wait_cnt == 0) {
                uint64_t r = 0;
                if (c.dep1 != 0 && wi >= c.dep1) {
                    r = complete[(wi - c.dep1) % kCompleteRing];
                }
                if (c.dep2 != 0 && wi >= c.dep2) {
                    r = std::max(r,
                                 complete[(wi - c.dep2) % kCompleteRing]);
                }
                c.wake_at = std::max(r, c.wake_at);
                schedule(wi, std::max(r, cycle + 1));
            }
            wi = next;
        }
        // Swap-remove: the last entry's index and mask bits move into
        // position i, and the scan re-examines i, exactly as the full
        // scan over a vector of entries would.
        maskClear(eligible, i);
        maskClear(port_pos[port], i);
        const size_t last = --rs_n;
        if (i != last) {
            const uint64_t moved = order[last];
            const uint8_t moved_port = order_port[last];
            order[i] = moved;
            order_port[i] = moved_port;
            slots[moved % kCompleteRing].pos = static_cast<uint32_t>(i);
            maskClear(port_pos[moved_port], last);
            maskSet(port_pos[moved_port], i);
            if (port_free[moved_port] > 0) {
                maskSet(open, i);
            } else {
                maskClear(open, i);
            }
            if (maskTest(eligible, last)) {
                maskClear(eligible, last);
                maskSet(eligible, i);
            }
        }
        i = firstOf(eligible, open, swap_fault ? i + 1 : i);
    }
}

void
StreamCore::Impl::stepCycle()
{
    ++cycle;

    // Release load-buffer entries whose loads completed, and
    // store-buffer entries that drained.
    if (loads_outstanding != 0) {
        uint32_t &done_now = load_done_cnt[cycle & load_ring_mask];
        if (done_now != 0) {
            lb_count -= static_cast<int>(done_now);
            loads_outstanding -= done_now;
            done_now = 0;
        }
    }
    while (!store_drains.empty() && store_drains.front() <= cycle) {
        store_drains.pop_front();
        --sb_count;
    }

    // ---- Retire (in order, up to width) --------------------------
    int retired_now = 0;
    while (!rob.empty() && retired_now < config.width) {
        const RobEntry &head = rob.front();
        const uint64_t done = complete[head.idx % kCompleteRing];
        if (done == kPending || done > cycle) {
            break;
        }
        if (head.store) {
            // Senior store: drains to the cache after retirement.
            sb_drain_time = std::max(sb_drain_time + 1, cycle);
            mem.dataAccess(head.addr, true);
            store_drains.push_back(sb_drain_time);
        }
        rob.pop_front();
        ++retired;
        ++retired_now;
    }

    // ---- Issue / execute ----------------------------------------
    // Wake the entries whose scheduled ready cycle arrived. Entries
    // filed more than a ring period out re-file instead of waking.
    {
        uint64_t wake = cal_head[cycle & (kCalRing - 1)];
        if (wake != kPending) {
            cal_head[cycle & (kCalRing - 1)] = kPending;
            while (wake != kPending) {
                // Read the link before handling: a re-file overwrites it.
                const uint64_t next = cal_next[wake % kCompleteRing];
                const RsEntry &e = slots[wake % kCompleteRing];
                if (e.pos < rs_n && order[e.pos] == wake) {
                    if (e.wake_at > cycle) {
                        schedule(wake, e.wake_at);  // calendar wrap
                    } else {
                        maskSet(eligible, e.pos);
                    }
                }
                wake = next;
            }
        }
    }
    uint64_t any = 0;
    for (size_t w = 0; w < mask_words; ++w) {
        any |= eligible[w];
    }
    if (any != 0) {
        issue();
    }

    // ---- Allocate (width slots; classify every lost slot) -------
    int allocated = 0;
    bool counted_stall = false;
    while (allocated < config.width && !fetchq.empty()) {
        const Uop &u = fetchq.front();
        const OpInfo &info = kOpInfo[static_cast<size_t>(u.cls)];
        bool rob_full = rob.size() >= rob_cap;
        bool rs_full = rs_n >= static_cast<size_t>(config.rsSize);
        bool lb_full = info.load && lb_count >= config.loadBufSize;
        bool sb_full = info.store && sb_count >= config.storeBufSize;
        if (rob_full || rs_full || lb_full || sb_full) {
            if (!counted_stall) {
                counted_stall = true;
                if (rs_full) {
                    ++stats.stalls.rs;
                } else if (rob_full) {
                    ++stats.stalls.rob;
                } else if (lb_full) {
                    ++stats.stalls.loadBuf;
                } else {
                    ++stats.stalls.storeBuf;
                }
            }
            break;
        }
        const uint64_t idx = u.idx;
        complete[idx % kCompleteRing] = kPending;
        RobEntry &re = rob.emplace_back();
        re.idx = idx;
        re.addr = u.addr;
        re.store = info.store;
        // Resolve the entry's ready time now if both producers have
        // already issued; otherwise chain it onto each unissued
        // producer's waiter list — the last producer's issue files it.
        const uint8_t dep1 = u.dep1;
        // A doubled dependency is a single producer: register it once.
        const uint8_t dep2 = u.dep2 != dep1 ? u.dep2 : 0;
        uint64_t d1 = 0, d2 = 0;
        if (dep1 != 0 && idx >= dep1) {
            d1 = complete[(idx - dep1) % kCompleteRing];
        }
        if (dep2 != 0 && idx >= dep2) {
            d2 = complete[(idx - dep2) % kCompleteRing];
        }
        const size_t rs_pos = rs_n++;
        order[rs_pos] = idx;
        order_port[rs_pos] = info.port;
        maskSet(port_pos[info.port], rs_pos);
        RsEntry &e = slots[idx % kCompleteRing];
        e.addr = u.addr;
        e.pos = static_cast<uint32_t>(rs_pos);
        e.dep1 = u.dep1;
        e.dep2 = u.dep2;
        e.latency = info.latency;
        e.load = info.load;
        e.mispred = u.mispred;
        if (d1 != kPending && d2 != kPending) {
            e.wake_at = std::max({d1, d2, cycle + 1});
            e.wait_cnt = 0;
            schedule(idx, e.wake_at);
        } else {
            e.wake_at = cycle + 1;
            uint8_t wait_cnt = 0;
            const size_t wslot = idx & (kWaitRing - 1);
            if (d1 == kPending) {
                const size_t p1 = (idx - dep1) & (kWaitRing - 1);
                wnext1[wslot] = waiter_head[p1];
                waiter_head[p1] = idx;
                ++wait_cnt;
            }
            if (d2 == kPending) {
                const size_t p2 = (idx - dep2) & (kWaitRing - 1);
                wnext2[wslot] = waiter_head[p2];
                waiter_head[p2] = idx;
                ++wait_cnt;
            }
            e.wait_cnt = wait_cnt;
        }
        if (info.load) {
            ++lb_count;
        }
        if (info.store) {
            ++sb_count;
        }
        fetchq.pop_front();
        ++allocated;
    }
    // Classify the lost allocation slots of this cycle.
    uint64_t lost = static_cast<uint64_t>(config.width - allocated);
    stats.slots.retiring += static_cast<uint64_t>(allocated);
    if (lost > 0) {
        if (counted_stall) {
            stats.slots.backend += lost;
            // Memory-bound if a load is outstanding past this cycle.
            bool memory_bound = loads_outstanding != 0 && load_max > cycle;
            if (memory_bound) {
                stats.slots.backendMemory += lost;
            } else {
                stats.slots.backendCore += lost;
            }
        } else if (fetchq.empty() &&
                   (pending_redirect || cycle < redirect_until)) {
            stats.slots.badSpec += lost;
        } else if (fetchq.empty()) {
            stats.slots.frontend += lost;
        } else {
            // Queue non-empty but nothing allocated: treat as backend
            // (structural), already counted above when counted_stall.
            stats.slots.backend += lost;
            stats.slots.backendCore += lost;
        }
    }

    // ---- Fetch ---------------------------------------------------
    if (!pending_redirect && cycle >= redirect_until &&
        cycle >= icache_until) {
        int fetched = 0;
        while (fetched < config.width && fetchq.size() < fetchq_cap &&
               pos < end()) {
            // Foreign stores: coherence traffic, no pipeline slots.
            while (pos < end() && at(pos).foreign) {
                mem.remoteStore(at(pos).addr);
                ++pos;
            }
            if (pos >= end()) {
                break;
            }
            const TraceOp &top = at(pos);
            uint64_t line = top.pc >> 6;
            if (line != last_line) {
                last_line = line;
                int extra = mem.instrAccess(top.pc);
                if (extra > 0) {
                    icache_until = cycle + static_cast<uint64_t>(extra);
                    break;
                }
            }
            bool mispred = false;
            bool stop_fetch = false;
            if (top.cls == OpClass::BranchCond) {
                bool pred = predictor->predict(top.pc);
                predictor->update(top.pc, top.taken, pred);
                ++stats.condBranches;
                if (pred != top.taken) {
                    ++stats.mispredicts;
                    mispred = true;
                    pending_redirect = true;
                    stop_fetch = true;
                } else if (top.taken) {
                    stop_fetch = true;  // taken-branch fetch bubble
                }
            } else if (top.cls == OpClass::BranchUncond) {
                stop_fetch = true;
            }
            Uop &u = fetchq.emplace_back();
            u.idx = pos;
            u.addr = top.addr;
            u.cls = top.cls;
            u.dep1 = top.dep1;
            u.dep2 = top.dep2;
            u.mispred = mispred;
            ++pos;
            --nf_avail;
            ++fetched;
            if (stop_fetch) {
                if (config.takenBranchBubble > 0 && !mispred) {
                    icache_until = std::max(
                        icache_until,
                        cycle +
                            static_cast<uint64_t>(config.takenBranchBubble));
                }
                break;
            }
        }
    }

    // Consume trailing foreign ops so the run terminates even when
    // the trace ends with them. The pipeline tests come first: they
    // fail on almost every cycle, and need no read of the window.
    while (fetchq.empty() && rob.empty() && pos < end() &&
           at(pos).foreign) {
        mem.remoteStore(at(pos).addr);
        ++pos;
    }
}

void
StreamCore::Impl::finish()
{
    if (finished) {
        return;
    }
    while (retired < n_instr) {
        stepCycle();
    }
    buf.clear();
    base = pos;
    stats.cycles = cycle - base_cycle;
    stats.instructions = n_instr - base_instr;
    stats.l1iMisses = mem.l1i().misses() - base_l1i_misses;
    stats.l1dAccesses = mem.l1d().accesses() - base_l1d_accesses;
    stats.l1dMisses = mem.l1d().misses() - base_l1d_misses;
    stats.l2Misses = mem.l2().misses() - base_l2_misses;
    stats.llcMisses = mem.llc().misses() - base_llc_misses;
    stats.invalidations = mem.l1d().invalidations() +
                          mem.l2().invalidations() - base_invalidations;
    finished = true;
}

void
StreamCore::Impl::resetStats()
{
    // Drain: everything received so far retires, so the post-reset
    // measurement starts from an empty pipeline window.
    while (retired < n_instr) {
        stepCycle();
    }
    // Anything still buffered is a trailing foreign run; apply it as
    // coherence traffic inside the discarded prefix.
    while (pos < end()) {
        mem.remoteStore(at(pos).addr);
        ++pos;
    }
    buf.clear();
    base = pos;
    // Incremental counters restart; monotone ones subtract their base.
    stats = CoreStats{};
    base_cycle = cycle;
    base_instr = n_instr;
    base_l1i_misses = mem.l1i().misses();
    base_l1d_accesses = mem.l1d().accesses();
    base_l1d_misses = mem.l1d().misses();
    base_l2_misses = mem.l2().misses();
    base_llc_misses = mem.llc().misses();
    base_invalidations =
        mem.l1d().invalidations() + mem.l2().invalidations();
}

StreamCore::StreamCore(const CoreConfig &config)
    : impl_(std::make_unique<Impl>(config))
{
}

StreamCore::~StreamCore() = default;
StreamCore::StreamCore(StreamCore &&) noexcept = default;
StreamCore &StreamCore::operator=(StreamCore &&) noexcept = default;

void
StreamCore::onOp(const trace::TraceOp &op)
{
    if (impl_->finished) {
        throw std::logic_error("StreamCore: onOp after flush");
    }
    impl_->pushBlock(&op, 1);
}

void
StreamCore::onOps(const trace::TraceOp *ops, size_t n)
{
    if (impl_->finished) {
        throw std::logic_error("StreamCore: onOps after flush");
    }
    impl_->pushBlock(ops, n);
}

void
StreamCore::onBlock(trace::TraceBlock &&block)
{
    onOps(block.ops.data(), block.ops.size());
}

void
StreamCore::flush()
{
    impl_->finish();
}

void
StreamCore::resetStats()
{
    if (impl_->finished) {
        throw std::logic_error("StreamCore: resetStats after flush");
    }
    impl_->resetStats();
}

bool
StreamCore::finished() const
{
    return impl_->finished;
}

const CoreStats &
StreamCore::stats() const
{
    return impl_->stats;
}

void
StreamCore::injectSwapFault(bool on)
{
    impl_->swap_fault = on;
}

void
CacheSink::onOp(const trace::TraceOp &op)
{
    step(op);
}

void
CacheSink::onOps(const trace::TraceOp *ops, size_t n)
{
    // Real batch loop: one virtual dispatch per block, not per op.
    for (size_t i = 0; i < n; ++i) {
        step(ops[i]);
    }
}

void
CacheSink::step(const trace::TraceOp &op)
{
    if (op.foreign) {
        mem_.remoteStore(op.addr);
        return;
    }
    ++instructions_;
    uint64_t line = op.pc >> 6;
    if (line != last_line_) {
        last_line_ = line;
        mem_.instrAccess(op.pc);
    }
    if (isLoad(op.cls)) {
        mem_.dataAccess(op.addr, false);
    } else if (isStore(op.cls)) {
        mem_.dataAccess(op.addr, true);
    }
}

CoreConfig
xeonBdwConfig()
{
    // The defaults ARE the paper machine; the named form exists so
    // profile registries construct it explicitly (and test_backend pins
    // the equivalence, so the two can never drift apart silently).
    return CoreConfig{};
}

CoreConfig
gravitonLikeConfig()
{
    CoreConfig cfg;
    cfg.width = 6;
    cfg.robSize = 256;
    cfg.rsSize = 120;
    cfg.loadBufSize = 96;
    cfg.storeBufSize = 56;
    cfg.aluPorts = 4;
    cfg.simdPorts = 2;
    cfg.mulPorts = 1;
    cfg.loadPorts = 2;
    cfg.storePorts = 2;
    cfg.branchPorts = 1;
    cfg.mispredictPenalty = 11;  // Shorter pipe than the Xeon's.
    cfg.takenBranchBubble = 1;
    cfg.predictorSpec = "tage-64KB";
    // Larger, private-heavy hierarchy with a slower outer edge: 64K
    // L1s, a 1M private L2, a 32M shared LLC slice, and a longer trip
    // to DRAM than the Xeon's integrated controller.
    cfg.mem.l1i = CacheConfig{"L1I", 64 * 1024, 4, 64, 1};
    cfg.mem.l1d = CacheConfig{"L1D", 64 * 1024, 4, 64, 4};
    cfg.mem.l2 = CacheConfig{"L2", 1024 * 1024, 8, 64, 13};
    cfg.mem.llc = CacheConfig{"LLC", 32 * 1024 * 1024, 16, 64, 42};
    cfg.mem.memoryLatency = 210;
    return cfg;
}

} // namespace vepro::uarch
