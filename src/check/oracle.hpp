#ifndef VEPRO_CHECK_ORACLE_HPP
#define VEPRO_CHECK_ORACLE_HPP

/**
 * @file
 * Differential-testing oracles: small, obviously-correct reference
 * models of the simulator's optimized hot paths.
 *
 * PR 4 rewrote the core scheduler (rings + bitmask wakeup), the cache
 * model (SoA + MRU hint), and the TAGE update (division-free folds) for
 * speed, promising bit-identical statistics. These classes re-implement
 * the *pre-optimization* semantics in the most straightforward form —
 * AoS exact-LRU caches, full-scan issue, textbook modulo-arithmetic
 * folded histories — so check::Fuzzer can assert the fast paths against
 * them on arbitrary inputs. They are deliberately slow and simple;
 * nothing outside src/check and its tests should use them.
 *
 * Fault injection: every oracle accepts a Fault knob that deliberately
 * mis-implements one rule (e.g. the LRU victim choice). This exists to
 * prove the harness detects single-rule divergences — `vepro-check
 * --inject=cache-lru` must fail — and is never enabled in real checks.
 */

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "backend/profile.hpp"
#include "bpred/predictor.hpp"
#include "bpred/tage.hpp"
#include "trace/probe.hpp"
#include "trace/sink.hpp"
#include "uarch/cache.hpp"
#include "uarch/core.hpp"
#include "video/frame.hpp"
#include "video/metrics.hpp"

namespace vepro::check
{

/** Deliberate single-rule bugs for harness self-tests (see file docs). */
enum class Fault {
    None,
    CacheLru,       ///< Victim rule: evicts the MRU way instead of LRU.
    CoreLatency,    ///< Divide executes in 19 cycles instead of 20.
    BpredAlloc,     ///< TAGE skips the probabilistic allocation offset.
    KernelsSad,     ///< Oracle SAD reports one too many on 64+ px blocks.
    StoreBit,       ///< Round-trip flips one mantissa bit of a double.
    ParallelDrop,   ///< Sequential reference stream drops its last op.
    BackendEnergy,  ///< Energy weights: L2 and LLC miss nJ swapped
                    ///< (fixed profiles: one phantom block).
    TraceFileDelta, ///< TraceFile decode reads every op pc delta off by
                    ///< one (replayed PCs drift from the captured ones).
    LadderHull,     ///< Hull oracle tests the chord with a strict cross
                    ///< (< 0 instead of <= 0), so collinear rungs that
                    ///< the real ladder drops stay on the oracle's hull.
    ProbeQuiet,     ///< The probe under test sizes every quiet budget one
                    ///< op too long (Probe::injectQuietFault), so a fast
                    ///< call can run over a window or interval boundary.
    HpelEdge,       ///< Half-pel planes built without edge replication
                    ///< (HalfPelPlanes::injectEdgeFault): taps outside
                    ///< the plane read zero.
    DctOdd,         ///< The matrix DCT reference adds one odd-part term
                    ///< (basis row 1, input 0) with the wrong sign.
    CoreSwap,       ///< The core under test skips the entry an issue
                    ///< swaps into the freed RS position for the rest
                    ///< of the cycle (StreamCore::injectSwapFault).
    TraceFileSum,   ///< TraceFile writer and reader both leave the first
                    ///< half of each block payload out of the running
                    ///< checksum (FileSink/FileSource::injectSumFault).
};

/** CLI name of a fault ("cache-lru", ...; "none" for Fault::None). */
const char *faultName(Fault fault);
/** Parse a CLI fault name; returns false on unknown names. */
bool parseFault(const std::string &name, Fault &out);

/**
 * AoS exact-LRU cache level: the pre-PR4 representation, one Line
 * struct per way, recency scanned linearly. Mirrors uarch::Cache's
 * documented semantics exactly: same geometry normalisation, same
 * victim rule (last invalid way in scan order, else strictly smallest
 * lastUse), same fill/invalidate behaviour.
 */
class RefCache
{
  public:
    explicit RefCache(const uarch::CacheConfig &config,
                      Fault fault = Fault::None);

    bool access(uint64_t addr, bool is_write);
    void fill(uint64_t addr);
    void invalidate(uint64_t addr);

    const uarch::CacheConfig &config() const { return config_; }
    uint64_t accesses() const { return accesses_; }
    uint64_t misses() const { return misses_; }
    uint64_t invalidations() const { return invalidations_; }

  private:
    struct Line {
        uint64_t tag = 0;
        uint64_t lastUse = 0;
        bool valid = false;
        bool dirty = false;
    };

    uint64_t lineOf(uint64_t addr) const
    {
        return addr / static_cast<uint64_t>(config_.lineBytes);
    }
    uint64_t setOf(uint64_t addr) const
    {
        return lineOf(addr) & (static_cast<uint64_t>(num_sets_) - 1);
    }
    uint64_t tagOf(uint64_t addr) const
    {
        return lineOf(addr) / static_cast<uint64_t>(num_sets_);
    }
    Line *victimOf(Line *set);

    uarch::CacheConfig config_;
    Fault fault_;
    int num_sets_;
    std::vector<Line> lines_;  ///< num_sets_ x ways, row-major.
    uint64_t tick_ = 0;
    uint64_t accesses_ = 0;
    uint64_t misses_ = 0;
    uint64_t invalidations_ = 0;
};

/**
 * Reference hierarchy over RefCache levels, replicating
 * uarch::Hierarchy's lookup chain, MESI-style remoteStore, and stride
 * prefetcher byte for byte.
 */
class RefHierarchy
{
  public:
    explicit RefHierarchy(const uarch::Hierarchy::Config &config,
                          Fault fault = Fault::None);

    int dataAccess(uint64_t addr, bool is_write);
    int instrAccess(uint64_t addr);
    void remoteStore(uint64_t addr);

    const RefCache &l1i() const { return l1i_; }
    const RefCache &l1d() const { return l1d_; }
    const RefCache &l2() const { return l2_; }
    const RefCache &llc() const { return llc_; }

  private:
    void trainPrefetcher(uint64_t addr);

    struct Stream {
        uint64_t region = 0;
        uint64_t lastAddr = 0;
        int64_t stride = 0;
        int confirmations = 0;
        bool valid = false;
    };

    uarch::Hierarchy::Config config_;
    RefCache l1i_, l1d_, l2_, llc_;
    std::vector<Stream> streams_;
};

/**
 * Textbook TAGE: the pre-PR4 implementation — folded histories that
 * compute `origLength % compLength` on every update, a plain
 * modulo-wrapped global-history ring, and indices/tags re-hashed from
 * scratch wherever needed. Semantically identical to the optimized
 * bpred::TagePredictor for the same geometry.
 */
class RefTage : public bpred::BranchPredictor
{
  public:
    explicit RefTage(size_t budget_bytes, Fault fault = Fault::None);

    std::string name() const override;
    size_t sizeBytes() const override { return budget_bytes_; }
    bool predict(uint64_t pc) override;
    void update(uint64_t pc, bool taken, bool predicted) override;
    void reset() override;

  private:
    struct FoldedHistory {
        uint32_t comp = 0;
        int compLength = 0;
        int origLength = 0;

        void
        update(uint32_t newest, uint32_t oldest)
        {
            comp = (comp << 1) | newest;
            comp ^= oldest << (origLength % compLength);
            comp ^= comp >> compLength;
            comp &= (1u << compLength) - 1;
        }
    };

    struct Entry {
        uint16_t tag = 0;
        int8_t ctr = 0;
        uint8_t u = 0;
    };

    uint32_t tableIndex(uint64_t pc, int t) const;
    uint16_t tableTag(uint64_t pc, int t) const;
    void updateHistories(bool taken);

    bpred::TageConfig config_;
    size_t budget_bytes_;
    Fault fault_;

    std::vector<uint8_t> base_;
    std::vector<std::vector<Entry>> tables_;

    std::vector<uint8_t> ghr_;
    int ghr_pos_ = 0;

    std::vector<FoldedHistory> fold_idx_;
    std::vector<FoldedHistory> fold_tag0_;
    std::vector<FoldedHistory> fold_tag1_;

    uint32_t lfsr_ = 0xace1u;
    uint64_t update_count_ = 0;

    int provider_ = -1;
    bool provider_pred_ = false;
    bool alt_pred_ = false;
};

/**
 * Build the reference predictor for a core-model spec: RefTage for
 * plain "tage-<N>KB" specs, otherwise the shared factory (the core
 * differential then still covers scheduling and caches).
 */
std::unique_ptr<bpred::BranchPredictor>
makeRefPredictor(const std::string &spec, Fault fault = Fault::None);

/**
 * Reference OoO core: the pre-PR4 batch replay, verbatim — per-cycle
 * full scan of the reservation station in vector order, a sorted deque
 * of in-flight load completions, per-op class/latency switches — on top
 * of RefHierarchy and makeRefPredictor. Produces the same CoreStats
 * contract as uarch::StreamCore and must match it bit for bit.
 */
uarch::CoreStats refCoreRun(const uarch::CoreConfig &config,
                            const std::vector<trace::TraceOp> &trace,
                            Fault fault = Fault::None);

/** One record of the stream a probe delivers, flattened: an op, a
 *  branch of the CBP trace, or a kernel entry. */
struct ProbeRecord {
    enum Kind : uint8_t { Op, Branch, Kernel };
    Kind kind = Op;
    trace::TraceOp op{};  ///< Op records.
    uint64_t value = 0;   ///< Branch PC or kernel site.
    bool taken = false;   ///< Branch direction.

    bool operator==(const ProbeRecord &o) const;
};

/**
 * Reference instrumentation probe: the per-call semantics of
 * trace::Probe written plainly — a modulo per call for the sampling
 * window, no quiet budget, no dropping stretch, no staging blocks, and
 * a flat record list in place of a sink. It keeps the two quirks of
 * the real probe's accounting, because they decide which ops a trace
 * holds:
 *
 *  - a call that starts outside the window records nothing, even when
 *    its ops run into the next window;
 *  - enterKernel records only its call/preamble pair, and only when at
 *    least two of its four ops fall in the window and under the cap.
 *
 * Kernel entries are deferred exactly as the real probe defers them:
 * the pending site is emitted before the next op recorded by enterKernel,
 * mem or decision, or the next branch; ops, memRun and loopBranches
 * record without emitting it. With @p has_sink false no kernel entry is
 * ever pending (the real probe only defers them for a sink).
 */
class RefProbe
{
  public:
    RefProbe(const trace::ProbeConfig &config, bool has_sink);

    void enterKernel(uint64_t site, int body_len);
    void ops(trace::OpClass cls, uint64_t n, uint8_t dep1, uint8_t dep2);
    void mem(trace::OpClass cls, uint64_t addr, uint8_t dep1);
    void memRun(trace::OpClass cls, uint64_t addr, int n, int stride,
                uint8_t dep1);
    void decision(uint64_t site, bool taken);
    void loopBranches(uint64_t iterations);
    /** Back to a new probe's state, records included. */
    void reset();

    const std::array<uint64_t, trace::kNumOpClasses> &mix() const
    {
        return mix_;
    }
    uint64_t totalOps() const { return seq_; }
    uint64_t recordedOps() const { return ops_recorded_; }
    uint64_t recordedBranches() const { return branches_recorded_; }
    uint64_t droppedOps() const { return dropped_ops_; }
    uint64_t droppedBranches() const { return dropped_branches_; }
    uint64_t branchTraceOpSpan() const
    {
        return branch_last_ - branch_first_;
    }
    const std::map<uint64_t, uint64_t> &siteOps() const { return site_ops_; }
    const std::vector<ProbeRecord> &records() const { return records_; }

  private:
    uint64_t take(uint64_t n);
    uint64_t nextPc();
    void emitPending();
    void recordOp(const trace::TraceOp &op);
    void recordBranch(uint64_t pc, bool taken);

    trace::ProbeConfig config_;
    bool has_sink_;
    std::array<uint64_t, trace::kNumOpClasses> mix_{};
    uint64_t seq_ = 0;
    uint64_t site_base_;
    uint64_t body_len_ = 32;
    uint64_t site_pos_ = 0;
    bool profiling_ = false;
    uint64_t profiled_site_ = 0;
    bool pending_ = false;
    uint64_t pending_site_ = 0;
    uint64_t ops_recorded_ = 0;
    uint64_t branches_recorded_ = 0;
    uint64_t dropped_ops_ = 0;
    uint64_t dropped_branches_ = 0;
    uint64_t branch_first_ = 0;
    uint64_t branch_last_ = 0;
    std::map<uint64_t, uint64_t> site_ops_;
    std::vector<ProbeRecord> records_;
};

/**
 * Reference energy model for Kind::Core profiles: an independent
 * transcription of the formula documented in backend/profile.hpp, in
 * the SAME evaluation order — IEEE doubles only reproduce bit for bit
 * when the operation order matches, and the energy differential
 * demands bit-identical joules, not approximately-equal ones.
 */
double refEnergyJoules(const backend::MachineProfile &p,
                       const uarch::CoreStats &stats,
                       Fault fault = Fault::None);

/** Reference service seconds for Kind::Fixed profiles. */
double refFixedServiceSeconds(const backend::MachineProfile &p,
                              uint64_t blocks, Fault fault = Fault::None);

/** Reference energy for Kind::Fixed profiles. */
double refFixedEnergyJoules(const backend::MachineProfile &p,
                            uint64_t blocks, Fault fault = Fault::None);

/**
 * Naive O(n^2) upper convex hull over (bitrate, PSNR): a point is kept
 * iff it survives the documented tie/dominance rules and NO chord of
 * two other surviving points passes on or above it — tested with the
 * same exact double cross expression the production monotone chain
 * uses, so on integer-grid inputs the two agree bit for bit. Returns
 * original indices in ascending bitrate order, the
 * ladder::convexHull contract.
 */
std::vector<size_t> refConvexHull(const std::vector<video::RdPoint> &pts,
                                  Fault fault = Fault::None);

/**
 * Plain O(n^3) matrix forms of the integer DCT pair: the definition the
 * kernel-table butterflies regroup. fdct: dst = (T X T^T + 2^19) >> 20;
 * idct: dst = clamp16((T^T Y T + 2^19) >> 20), both with exact int64
 * sums over the row-major [k][i] basis @p basis.
 */
void refFdct(const int16_t *src, int32_t *dst, int n, const int32_t *basis,
             Fault fault = Fault::None);
void refIdct(const int32_t *src, int16_t *dst, int n, const int32_t *basis,
             Fault fault = Fault::None);

/**
 * The half-pel sample at (x + hx/2, y + hy/2) of a w x h plane, written
 * per pel with every tap clamped into the plane: the sharp 4-tap
 * formula of the former per-block clamped compensation path, or the
 * bilinear average. (hx, hy) is not (0, 0).
 */
uint8_t refHalfPel(const uint8_t *plane, int stride, int w, int h, int x,
                   int y, int hx, int hy, bool sharp);

/** Naive per-pixel box downscale: clipped box sum, (sum + cnt/2)/cnt.
 *  No kernel table, no interior/edge split — the obviously-correct
 *  transcription of the video::downscalePlane contract. */
video::Plane refDownscalePlane(const video::Plane &src, int factor);

/** Naive per-pixel bilinear upscale replicating the production two-pass
 *  rounding order (vertical blend to 8 bits, then horizontal) with the
 *  tap positions re-derived inline. */
video::Plane refUpscalePlane(const video::Plane &src, int dst_width,
                             int dst_height);

} // namespace vepro::check

#endif // VEPRO_CHECK_ORACLE_HPP
