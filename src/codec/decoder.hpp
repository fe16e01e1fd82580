#ifndef VEPRO_CODEC_DECODER_HPP
#define VEPRO_CODEC_DECODER_HPP

/**
 * @file
 * Bitstream decoder: the exact inverse of FrameCodec's commit pass.
 *
 * The decoder parses the per-frame payloads the encoder emits (partition
 * tree, mode/motion syntax, zigzag-scanned coefficient levels), rebuilds
 * the prediction from its own reconstruction state, and applies the same
 * dequantise / inverse-transform / loop-filter pipeline. Given matching
 * ToolConfig parameters its reconstruction equals the encoder's recon()
 * bit for bit — the round-trip proof that the bitstreams the benches
 * measure are real (and the paper's premise that decoding is the cheap,
 * choice-free direction).
 */

#include <cstdint>
#include <memory>
#include <vector>

#include "codec/rangecoder.hpp"
#include "codec/rdo.hpp"
#include "video/frame.hpp"

namespace vepro::codec
{

/** Decoder for FrameCodec bitstreams. */
class FrameDecoder
{
  public:
    /**
     * @param config Must carry the same superblockSize, quality
     *               (qIndex/qRange), txTypeCandidates, coefficient-context
     *               depth, interpolation, and filterPasses the encoder
     *               used; the other (search-side) fields are ignored.
     * @param width,height Frame geometry.
     */
    FrameDecoder(const ToolConfig &config, int width, int height);

    /**
     * Decode one frame payload (from FrameCodec::lastFrameBytes(),
     * in display order starting at the keyframe).
     *
     * @param payload  The frame's entropy-coded bytes.
     * @param keyframe True for the first frame / forced key frames.
     */
    void decodeFrame(const std::vector<uint8_t> &payload, bool keyframe);

    /** Reconstruction of the most recently decoded frame. */
    const video::Frame &recon() const { return recon_; }

    int framesDecoded() const { return frames_decoded_; }

  private:
    void decodeNode(const BlockRect &r, int depth);
    void decodeLeaf(const BlockRect &r);
    void decodeChroma(const BlockRect &r, bool inter, MotionVector mv);
    /** Decode an n x n level tile (zigzag order) into levels_. */
    void decodeCoeffTile(int32_t *levels, int n);

    MotionVector mvPredictor(const BlockRect &r) const;
    void storeMv(const BlockRect &r, MotionVector mv);

    ToolConfig config_;
    int width_, height_;
    Quantizer quant_;

    video::Frame recon_;
    video::Frame ref_;
    RefFramePlanes ref_hpel_;  ///< Half-pel planes of ref_.
    bool keyframe_ = true;
    int frames_decoded_ = 0;

    int mv_cols_, mv_rows_;
    std::vector<MotionVector> mv_field_;

    std::unique_ptr<RangeDecoder> rd_;
    SyntaxContexts ctx_;

    std::vector<int16_t> res_;
    std::vector<int32_t> coeff_;
    std::vector<int32_t> levels_;
    std::vector<uint8_t> pred_;
};

} // namespace vepro::codec

#endif // VEPRO_CODEC_DECODER_HPP
