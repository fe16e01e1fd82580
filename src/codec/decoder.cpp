#include "codec/decoder.hpp"

#include <algorithm>
#include <cstdlib>
#include <stdexcept>

#include "codec/intra.hpp"
#include "codec/loopfilter.hpp"
#include "codec/mc.hpp"
#include "codec/sad.hpp"
#include "codec/transform.hpp"

namespace vepro::codec
{

namespace
{

/** Largest power-of-two transform size dividing both dimensions
 *  (mirror of the encoder's rule). */
int
txSizeFor(int w, int h)
{
    int t = kMaxTxSize;
    while (t > 4 && ((w % t) != 0 || (h % t) != 0)) {
        t >>= 1;
    }
    return t;
}

/** Mirror of the encoder's residual-tile flip (see rdo.cpp). */
void
flipTile(int16_t *tile, int n, int type)
{
    if (type == 1) {
        for (int y = 0; y < n; ++y) {
            std::reverse(tile + y * n, tile + (y + 1) * n);
        }
    } else if (type == 2) {
        for (int y = 0; y < n / 2; ++y) {
            std::swap_ranges(tile + y * n, tile + (y + 1) * n,
                             tile + (n - 1 - y) * n);
        }
    }
}

} // namespace

FrameDecoder::FrameDecoder(const ToolConfig &config, int width, int height)
    : config_(config),
      width_(width),
      height_(height),
      quant_(config.qIndex, config.qRange),
      recon_(width, height),
      ref_(width, height),
      mv_cols_((width + 7) / 8),
      mv_rows_((height + 7) / 8),
      mv_field_(static_cast<size_t>(mv_cols_) * mv_rows_),
      res_(64 * 64),
      coeff_(64 * 64),
      levels_(64 * 64),
      pred_(64 * 64)
{
    if (width < 16 || height < 16) {
        throw std::invalid_argument("FrameDecoder: frame too small");
    }
}

MotionVector
FrameDecoder::mvPredictor(const BlockRect &r) const
{
    int cx = r.x / 8, cy = r.y / 8;
    if (cx > 0) {
        return mv_field_[static_cast<size_t>(cy) * mv_cols_ + cx - 1];
    }
    if (cy > 0) {
        return mv_field_[static_cast<size_t>(cy - 1) * mv_cols_ + cx];
    }
    return {};
}

void
FrameDecoder::storeMv(const BlockRect &r, MotionVector mv)
{
    for (int y = r.y / 8; y < (r.y + r.h + 7) / 8 && y < mv_rows_; ++y) {
        for (int x = r.x / 8; x < (r.x + r.w + 7) / 8 && x < mv_cols_; ++x) {
            mv_field_[static_cast<size_t>(y) * mv_cols_ + x] = mv;
        }
    }
}

void
FrameDecoder::decodeCoeffTile(int32_t *levels, int n)
{
    std::fill(levels, levels + n * n, 0);
    int size_ctx = std::min(3, n / 8);
    bool coded = rd_->decodeBit(ctx_.codedFlag[size_ctx]);
    if (!coded) {
        return;
    }
    const std::vector<int> &scan = zigzagScan(n);
    int last = static_cast<int>(rd_->decodeUeGolomb());
    if (last >= n * n) {
        throw std::runtime_error("FrameDecoder: corrupt last-index");
    }
    const int depth = std::clamp(config_.coeffContexts, 1, 4);
    for (int i = 0; i <= last; ++i) {
        int band = std::min(depth - 1, depth * i / (n * n));
        bool sig = true;
        if (i < last) {
            sig = rd_->decodeBit(ctx_.sig[band]);
        }
        if (!sig) {
            continue;
        }
        uint32_t mag = 1;
        if (rd_->decodeBit(ctx_.gt1[band])) {
            if (rd_->decodeBit(ctx_.gt2[band])) {
                mag = rd_->decodeUeGolomb() + 3;
            } else {
                mag = 2;
            }
        }
        bool negative = rd_->decodeBypass();
        levels[scan[static_cast<size_t>(i)]] =
            negative ? -static_cast<int32_t>(mag) : static_cast<int32_t>(mag);
    }
}

void
FrameDecoder::decodeLeaf(const BlockRect &r)
{
    PelViewMut recon_plane = viewOf(recon_.y(), 0);
    PelViewMut pred_view{pred_.data(), r.w, 0};

    bool inter = false;
    MotionVector mv{};
    if (!keyframe_) {
        inter = rd_->decodeBit(ctx_.interFlag[0]);
    }
    if (inter) {
        MotionVector mvp = mvPredictor(r);
        int dx = static_cast<int>(rd_->decodeUeGolomb());
        if (dx != 0 && rd_->decodeBypass()) {
            dx = -dx;
        }
        int dy = static_cast<int>(rd_->decodeUeGolomb());
        if (dy != 0 && rd_->decodeBypass()) {
            dy = -dy;
        }
        mv = {mvp.x + dx, mvp.y + dy};
        motionCompensate(viewOf(ref_.y(), 0), ref_hpel_.plane[0], r.x, r.y,
                         r.w, r.h, mv, pred_view);
        storeMv(r, mv);
    } else {
        auto mode = static_cast<IntraMode>(rd_->decodeUeGolomb());
        if (static_cast<int>(mode) >= kNumIntraModes) {
            throw std::runtime_error("FrameDecoder: corrupt intra mode");
        }
        IntraNeighbors nb = gatherNeighbors(recon_plane, r.x, r.y, r.w, r.h,
                                            width_, height_);
        predictIntra(mode, nb, r.w, r.h, pred_view);
        storeMv(r, {});
    }

    int tx_max = txSizeFor(r.w, r.h);
    uint32_t tx_flag = rd_->decodeUeGolomb();
    if (tx_flag > 1 || (tx_flag == 1 && tx_max <= 4)) {
        throw std::runtime_error("FrameDecoder: corrupt tx-size flag");
    }
    int tx = tx_flag == 0 ? tx_max : tx_max >> 1;
    int tx_type = 0;
    if (config_.txTypeCandidates > 1) {
        tx_type = static_cast<int>(rd_->decodeUeGolomb());
        if (tx_type > 2) {
            throw std::runtime_error("FrameDecoder: corrupt tx type");
        }
    }

    int16_t tile[kMaxTxSize * kMaxTxSize];
    for (int ty = 0; ty < r.h; ty += tx) {
        for (int tx0 = 0; tx0 < r.w; tx0 += tx) {
            decodeCoeffTile(levels_.data(), tx);
            quant_.dequantizeBlock(levels_.data(), coeff_.data(), tx, 0, 0);
            inverseDct(coeff_.data(), tile, tx, 0, 0);
            flipTile(tile, tx, tx_type);
            for (int y = 0; y < tx; ++y) {
                int16_t *row = res_.data() +
                    static_cast<ptrdiff_t>(ty + y) * r.w + tx0;
                std::copy(tile + y * tx, tile + (y + 1) * tx, row);
            }
        }
    }
    reconstruct(pred_view, res_.data(), 0, r.w, r.h,
                recon_plane.sub(r.x, r.y));

    decodeChroma(r, inter, mv);
}

void
FrameDecoder::decodeChroma(const BlockRect &r, bool inter, MotionVector mv)
{
    BlockRect c{r.x / 2, r.y / 2, r.w / 2, r.h / 2};
    if (c.w < 4 || c.h < 4) {
        return;
    }
    const int cw = width_ / 2, ch = height_ / 2;
    int tx = txSizeFor(c.w, c.h);
    int16_t tile[kMaxTxSize * kMaxTxSize];

    video::Plane *recon_planes[2] = {&recon_.u(), &recon_.v()};
    const video::Plane *ref_planes[2] = {&ref_.u(), &ref_.v()};

    for (int plane = 0; plane < 2; ++plane) {
        PelViewMut recon_plane = viewOf(*recon_planes[plane], 0);
        PelViewMut pred_view{pred_.data(), c.w, 0};

        if (inter) {
            MotionVector half{mv.x / 2, mv.y / 2};
            motionCompensate(viewOf(*ref_planes[plane], 0),
                             ref_hpel_.plane[1 + plane], c.x, c.y, c.w,
                             c.h, half, pred_view);
        } else {
            IntraNeighbors nb =
                gatherNeighbors(recon_plane, c.x, c.y, c.w, c.h, cw, ch);
            predictIntra(IntraMode::Dc, nb, c.w, c.h, pred_view);
        }

        for (int ty = 0; ty < c.h; ty += tx) {
            for (int tx0 = 0; tx0 < c.w; tx0 += tx) {
                decodeCoeffTile(levels_.data(), tx);
                quant_.dequantizeBlock(levels_.data(), coeff_.data(), tx, 0,
                                       0);
                inverseDct(coeff_.data(), tile, tx, 0, 0);
                for (int y = 0; y < tx; ++y) {
                    int16_t *row = res_.data() +
                        static_cast<ptrdiff_t>(ty + y) * c.w + tx0;
                    std::copy(tile + y * tx, tile + (y + 1) * tx, row);
                }
            }
        }
        reconstruct(pred_view, res_.data(), 0, c.w, c.h,
                    recon_plane.sub(c.x, c.y));
    }
}

void
FrameDecoder::decodeNode(const BlockRect &r, int depth)
{
    int depth_ctx = std::min(depth, 5);
    bool split = rd_->decodeBit(ctx_.partition[depth_ctx][0]);
    PartitionMode mode = PartitionMode::None;
    if (split) {
        uint32_t idx = rd_->decodeUeGolomb() + 1;
        if (idx >= static_cast<uint32_t>(kNumPartitionModes)) {
            throw std::runtime_error("FrameDecoder: corrupt partition mode");
        }
        mode = static_cast<PartitionMode>(idx);
    }
    if (mode == PartitionMode::Split) {
        for (const BlockRect &s : partitionRects(mode, r)) {
            decodeNode(s, depth + 1);
        }
    } else {
        for (const BlockRect &s : partitionRects(mode, r)) {
            decodeLeaf(s);
        }
    }
}

void
FrameDecoder::decodeFrame(const std::vector<uint8_t> &payload, bool keyframe)
{
    keyframe_ = keyframe || frames_decoded_ == 0;
    rd_ = std::make_unique<RangeDecoder>(payload);

    const int sb = config_.superblockSize;
    for (int sy = 0; sy < height_; sy += sb) {
        for (int sx = 0; sx < width_; sx += sb) {
            BlockRect r{sx, sy, std::min(sb, width_ - sx),
                        std::min(sb, height_ - sy)};
            decodeNode(r, 0);
        }
    }
    rd_.reset();

    loopFilterPlane(recon_.y(), width_, height_, config_.filterPasses,
                    quant_.step(), 0);
    ref_ = recon_;
    ref_hpel_.build(ref_, width_, height_, config_.me.sharpSubpel);
    ++frames_decoded_;
}

} // namespace vepro::codec
