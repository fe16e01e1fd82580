#ifndef VEPRO_CODEC_MC_HPP
#define VEPRO_CODEC_MC_HPP

/**
 * @file
 * Motion estimation and compensation.
 *
 * Estimation runs a two-level diamond search (optionally exhaustive at
 * the slowest presets) with half-pel refinement; compensation copies
 * full-pel blocks from the reference plane and half-pel blocks from its
 * precomputed phase planes (HalfPelPlanes). Every cost
 * comparison in the search is a data-dependent branch and is reported to
 * the probe as such — these are the branches the paper's predictor study
 * lives on.
 */

#include <array>
#include <cstdint>
#include <vector>

#include "codec/block.hpp"

namespace vepro::codec
{

/** Motion vector in half-pel units. */
struct MotionVector {
    int x = 0;
    int y = 0;

    bool operator==(const MotionVector &) const = default;
};

/** Motion-search tuning derived from the encoder preset. */
struct MeConfig {
    /** Full-pel search radius around the predictor. */
    int range = 8;
    /** Exhaustively scan the full window instead of diamond search. */
    bool exhaustive = false;
    /** Refine the best full-pel vector at half-pel precision. */
    bool subpel = true;
    /**
     * Use the 4-tap (-1,5,5,-1)/8 half-pel filter instead of bilinear —
     * the sharper interpolation of the HEVC/VP9/AV1 generation. Better
     * prediction for more multiplies. Selects the filter the codec
     * builds its HalfPelPlanes with.
     */
    bool sharpSubpel = false;
    /**
     * Stop early when a candidate SAD falls below
     * earlyExitPerPel * w * h. 0 disables early exit.
     */
    double earlyExitPerPel = 0.0;
};

/** Result of a motion search. */
struct MeResult {
    MotionVector mv;        ///< Best vector found (half-pel units).
    uint64_t sad = 0;       ///< SAD at the best vector.
    int candidates = 0;     ///< Number of candidate vectors evaluated.
};

/**
 * The three half-pel phase planes (h, v, hv) of one width x height
 * reference plane, built once per reference update.
 *
 * Phase plane (half_x, half_y) holds, at each full-pel position (x, y),
 * the half-pel sample at (x + half_x/2, y + half_y/2), so compensating a
 * half-pel block is a copy. The sharp filter is the 4-tap
 * (-1,5,5,-1)/8, rounded and clamped to [0, 255], along the half-pel
 * axis; with both phases set it is the horizontal filter at rows y and
 * y+1 averaged as (h0 + h1 + 1) >> 1. The bilinear filter is
 * (p00 + p10 + p01 + p11 + 2) >> 2 over the pels half_x right and
 * half_y down. Taps outside the plane replicate the nearest edge pel,
 * which makes every sample a pure function of its absolute position:
 * a block reads the same values wherever it sits.
 */
class HalfPelPlanes
{
  public:
    HalfPelPlanes() = default;
    /** Geometry only, no phase planes: enough for full-pel compensation
     *  and for motion search with MeConfig::subpel off. */
    HalfPelPlanes(int width, int height) : width_(width), height_(height) {}

    /** (Re)build the phase planes of the width x height plane @p ref. */
    void build(const PelView &ref, int width, int height, bool sharp);

    int width() const { return width_; }
    int height() const { return height_; }
    /** The 4-tap filter built the planes (else bilinear). */
    bool sharp() const { return sharp_; }

    /**
     * Phase plane (@p half_x, @p half_y), not both false: row-major with
     * row stride width().
     * @throws std::logic_error when build() never ran.
     */
    const uint8_t *phase(bool half_x, bool half_y) const;

    /**
     * Test seam for vepro-check's `hpel-edge` fault: build() pads the
     * plane with zeros instead of replicating its edge pels, so samples
     * whose taps leave the plane come out wrong. Never enabled outside
     * the harness self-test.
     */
    void injectEdgeFault(bool on) { edge_fault_ = on; }

  private:
    int width_ = 0, height_ = 0;
    bool sharp_ = false;
    bool edge_fault_ = false;
    /** The h, v and hv planes back to back, width_ * height_ each. */
    std::vector<uint8_t> planes_;
};

/**
 * The half-pel planes of a reference frame: luma at width x height, then
 * the two 4:2:0 chroma planes at (width/2) x (height/2), the geometry
 * the codec compensates chroma at.
 */
struct RefFramePlanes {
    std::array<HalfPelPlanes, 3> plane;

    void build(const video::Frame &ref, int width, int height, bool sharp);
};

/**
 * Motion-compensate a w x h block: fetch the reference block displaced by
 * @p mv from position (@p bx, @p by), clamped inside the reference plane.
 * Full-pel vectors copy from @p ref, half-pel ones from the matching
 * phase plane of @p planes (whose geometry and filter apply).
 *
 * @param ref      Whole reference plane view.
 * @param planes   Its half-pel phase planes.
 * @param dst      Output prediction block.
 */
void motionCompensate(const PelView &ref, const HalfPelPlanes &planes, int bx,
                      int by, int w, int h, MotionVector mv, PelViewMut dst);

/**
 * Search the reference plane for the best motion vector for the block at
 * (@p bx, @p by) in @p src_plane.
 *
 * @param src_plane Whole source plane view.
 * @param ref       Whole reference plane view.
 * @param planes    Its half-pel phase planes (geometry only when
 *                  config.subpel is off).
 * @param pred      Search centre (e.g. the neighbour MV predictor).
 */
MeResult motionSearch(const PelView &src_plane, const PelView &ref,
                      const HalfPelPlanes &planes, int bx, int by, int w,
                      int h, MotionVector pred, const MeConfig &config);

/** Clamp @p mv (half-pel) so the compensated block stays in the plane. */
MotionVector clampMv(MotionVector mv, int bx, int by, int w, int h, int ref_w,
                     int ref_h);

} // namespace vepro::codec

#endif // VEPRO_CODEC_MC_HPP
