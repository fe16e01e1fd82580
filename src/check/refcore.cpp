/**
 * @file
 * Reference OoO core: the pre-optimization batch replay, verbatim.
 *
 * This is the simulator as it stood before the hot-path rewrite — a
 * per-cycle full scan of the reservation station in vector order, a
 * sorted deque of in-flight load completions, per-op switch statements
 * for port mapping and latency — kept as the slow, obviously-correct
 * oracle the optimized uarch::StreamCore is fuzzed against. It runs over the
 * reference cache hierarchy and reference predictor so a divergence in
 * any layer surfaces in the CoreStats comparison.
 *
 * Do not "improve" this file for speed; its value is that every rule is
 * written in the most literal form possible.
 */

#include "check/oracle.hpp"

#include <algorithm>
#include <deque>
#include <limits>
#include <stdexcept>

namespace vepro::check
{

using trace::OpClass;
using trace::TraceOp;
using trace::isLoad;
using trace::isStore;

namespace
{

constexpr uint64_t kPending = std::numeric_limits<uint64_t>::max();
constexpr size_t kCompleteRing = 4096;

/** Execution port classes. */
enum class Port : uint8_t { Alu, Mul, Simd, Load, Store, Branch };

Port
portOf(OpClass cls)
{
    switch (cls) {
      case OpClass::Mul:
      case OpClass::Div:
        return Port::Mul;
      case OpClass::Load:
      case OpClass::SimdLoad:
        return Port::Load;
      case OpClass::Store:
      case OpClass::SimdStore:
        return Port::Store;
      case OpClass::BranchCond:
      case OpClass::BranchUncond:
        return Port::Branch;
      case OpClass::SimdAlu:
      case OpClass::SimdMul:
      case OpClass::SseAlu:
        return Port::Simd;
      default:
        return Port::Alu;
    }
}

int
execLatency(OpClass cls, Fault fault)
{
    switch (cls) {
      case OpClass::Mul: return 3;
      // Fault::CoreLatency shaves one cycle off the divider — the kind
      // of off-by-one a latency-table refactor would introduce.
      case OpClass::Div: return fault == Fault::CoreLatency ? 19 : 20;
      case OpClass::SimdMul: return 5;
      default: return 1;
    }
}

struct Uop {
    uint64_t idx = 0;  ///< Global dynamic-op index (foreign ops included).
    OpClass cls = OpClass::Alu;
    uint64_t pc = 0;
    uint64_t addr = 0;
    uint8_t dep1 = 0;
    uint8_t dep2 = 0;
    bool mispred = false;
};

struct RefCore {
    explicit RefCore(const uarch::CoreConfig &cfg,
                     const std::vector<TraceOp> &trace_in, Fault fault_in)
        : config(cfg), fault(fault_in),
          predictor(makeRefPredictor(cfg.predictorSpec, fault_in)),
          mem(cfg.mem, fault_in), trace(trace_in),
          complete(kCompleteRing, 0),
          fetchq_cap(static_cast<size_t>(cfg.width) * 4)
    {
        if (cfg.width < 1 || cfg.robSize < cfg.width) {
            throw std::invalid_argument("RefCore: bad geometry");
        }
        rs.reserve(static_cast<size_t>(cfg.rsSize));
        for (const TraceOp &op : trace) {
            if (!op.foreign) {
                ++n_instr;
            }
        }
    }

    uarch::CoreConfig config;
    Fault fault;
    std::unique_ptr<bpred::BranchPredictor> predictor;
    RefHierarchy mem;
    const std::vector<TraceOp> &trace;
    uarch::CoreStats stats;

    std::vector<uint64_t> complete;
    uint64_t pos = 0;
    uint64_t n_instr = 0;

    // Front end.
    std::deque<Uop> fetchq;
    size_t fetchq_cap;
    uint64_t redirect_until = 0;
    uint64_t icache_until = 0;
    uint64_t last_line = ~0ull;
    bool pending_redirect = false;

    // Back end.
    struct RobEntry {
        uint64_t idx;
        OpClass cls;
        uint64_t addr;
    };
    std::deque<RobEntry> rob;
    struct RsEntry {
        Uop uop;
        uint64_t alloc_cycle;
    };
    std::vector<RsEntry> rs;
    std::deque<uint64_t> load_completes;  // completion times, in-flight loads
    std::deque<uint64_t> store_drains;    // drain times of post-retire stores
    int lb_count = 0;
    int sb_count = 0;  // stores allocated but not drained
    uint64_t sb_drain_time = 0;

    uint64_t cycle = 0;
    uint64_t retired = 0;

    void stepCycle();
    uarch::CoreStats run();
};

void
RefCore::stepCycle()
{
    ++cycle;

    // Release load-buffer entries whose loads completed, and
    // store-buffer entries that drained.
    while (!load_completes.empty() && load_completes.front() <= cycle) {
        load_completes.pop_front();
        --lb_count;
    }
    while (!store_drains.empty() && store_drains.front() <= cycle) {
        store_drains.pop_front();
        --sb_count;
    }

    // ---- Retire (in order, up to width) --------------------------
    int retired_now = 0;
    while (!rob.empty() && retired_now < config.width) {
        const RobEntry &head = rob.front();
        if (complete[head.idx % kCompleteRing] == kPending ||
            complete[head.idx % kCompleteRing] > cycle) {
            break;
        }
        if (isStore(head.cls)) {
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
    int alu_free = config.aluPorts;
    int simd_free = config.simdPorts;
    int mul_free = config.mulPorts;
    int load_free = config.loadPorts;
    int store_free = config.storePorts;
    int branch_free = config.branchPorts;
    for (size_t i = 0; i < rs.size();) {
        RsEntry &e = rs[i];
        if (e.alloc_cycle >= cycle) {
            ++i;
            continue;
        }
        const Uop &u = e.uop;
        // Dependency check via the completion ring.
        bool ready = true;
        for (uint8_t dep : {u.dep1, u.dep2}) {
            if (dep == 0) {
                continue;
            }
            if (u.idx < dep) {
                continue;  // producer precedes the trace window
            }
            uint64_t c = complete[(u.idx - dep) % kCompleteRing];
            if (c == kPending || c > cycle) {
                ready = false;
                break;
            }
        }
        if (!ready) {
            ++i;
            continue;
        }
        int *port = nullptr;
        switch (portOf(u.cls)) {
          case Port::Alu: port = &alu_free; break;
          case Port::Mul: port = &mul_free; break;
          case Port::Simd: port = &simd_free; break;
          case Port::Load: port = &load_free; break;
          case Port::Store: port = &store_free; break;
          case Port::Branch: port = &branch_free; break;
        }
        if (*port <= 0) {
            ++i;
            continue;
        }
        --*port;
        uint64_t done;
        if (isLoad(u.cls)) {
            int lat = mem.dataAccess(u.addr, false);
            done = cycle + static_cast<uint64_t>(lat);
            load_completes.push_back(done);
            std::sort(load_completes.begin(), load_completes.end());
        } else {
            done = cycle + static_cast<uint64_t>(execLatency(u.cls, fault));
        }
        complete[u.idx % kCompleteRing] = done;
        if (u.mispred) {
            redirect_until =
                done + static_cast<uint64_t>(config.mispredictPenalty);
            pending_redirect = false;
        }
        rs[i] = rs.back();
        rs.pop_back();
    }

    // ---- Allocate (width slots; classify every lost slot) -------
    int allocated = 0;
    bool counted_stall = false;
    while (allocated < config.width && !fetchq.empty()) {
        const Uop &u = fetchq.front();
        bool need_lb = isLoad(u.cls);
        bool need_sb = isStore(u.cls);
        bool rob_full = rob.size() >= static_cast<size_t>(config.robSize);
        bool rs_full = rs.size() >= static_cast<size_t>(config.rsSize);
        bool lb_full = need_lb && lb_count >= config.loadBufSize;
        bool sb_full = need_sb && sb_count >= config.storeBufSize;
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
        complete[u.idx % kCompleteRing] = kPending;
        rob.push_back({u.idx, u.cls, u.addr});
        rs.push_back({u, cycle});
        if (need_lb) {
            ++lb_count;
        }
        if (need_sb) {
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
            bool memory_bound =
                !load_completes.empty() && load_completes.back() > cycle;
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
    const uint64_t end = trace.size();
    if (!pending_redirect && cycle >= redirect_until &&
        cycle >= icache_until) {
        int fetched = 0;
        while (fetched < config.width && fetchq.size() < fetchq_cap &&
               pos < end) {
            // Foreign stores: coherence traffic, no pipeline slots.
            while (pos < end && trace[pos].foreign) {
                mem.remoteStore(trace[pos].addr);
                ++pos;
            }
            if (pos >= end) {
                break;
            }
            const TraceOp &top = trace[pos];
            uint64_t line = top.pc >> 6;
            if (line != last_line) {
                last_line = line;
                int extra = mem.instrAccess(top.pc);
                if (extra > 0) {
                    icache_until = cycle + static_cast<uint64_t>(extra);
                    break;
                }
            }
            Uop u;
            u.idx = pos;
            u.cls = top.cls;
            u.pc = top.pc;
            u.addr = top.addr;
            u.dep1 = top.dep1;
            u.dep2 = top.dep2;
            bool stop_fetch = false;
            if (top.cls == OpClass::BranchCond) {
                bool pred = predictor->predict(top.pc);
                predictor->update(top.pc, top.taken, pred);
                ++stats.condBranches;
                if (pred != top.taken) {
                    ++stats.mispredicts;
                    u.mispred = true;
                    pending_redirect = true;
                    stop_fetch = true;
                } else if (top.taken) {
                    stop_fetch = true;  // taken-branch fetch bubble
                }
            } else if (top.cls == OpClass::BranchUncond) {
                stop_fetch = true;
            }
            fetchq.push_back(u);
            ++pos;
            ++fetched;
            if (stop_fetch) {
                if (config.takenBranchBubble > 0 && !u.mispred) {
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
    // the trace ends with them.
    while (pos < end && trace[pos].foreign && fetchq.empty() &&
           rob.empty()) {
        mem.remoteStore(trace[pos].addr);
        ++pos;
    }
}

uarch::CoreStats
RefCore::run()
{
    while (retired < n_instr) {
        stepCycle();
    }
    stats.cycles = cycle;
    stats.instructions = n_instr;
    stats.l1iMisses = mem.l1i().misses();
    stats.l1dAccesses = mem.l1d().accesses();
    stats.l1dMisses = mem.l1d().misses();
    stats.l2Misses = mem.l2().misses();
    stats.llcMisses = mem.llc().misses();
    stats.invalidations =
        mem.l1d().invalidations() + mem.l2().invalidations();
    return stats;
}

} // namespace

uarch::CoreStats
refCoreRun(const uarch::CoreConfig &config,
           const std::vector<trace::TraceOp> &trace, Fault fault)
{
    RefCore core(config, trace, fault);
    return core.run();
}

} // namespace vepro::check
