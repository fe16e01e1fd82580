/**
 * @file
 * AVX2 implementations of the codec kernel table (x86-64).
 *
 * Compiled with -mavx2 as its own translation unit; nothing here runs
 * unless runtime dispatch (kernels.cpp) confirmed AVX2 support. Every
 * kernel is bit-identical to the scalar reference in kernels.cpp:
 *
 *  - SAD/SSE/SATD/residual are pure integer arithmetic with no
 *    intermediate that can overflow its lane type, so lane order is
 *    irrelevant and results are exact.
 *  - reconstruct uses saturating int16 adds; clamp(sat16(p + r), 0, 255)
 *    equals clamp(p + r, 0, 255) for p in [0,255] and any int16 r.
 *  - The DCT passes keep the scalar operation structure (exact 32x32->64
 *    products via vpmuldq; the inverse row pass emulates a full 64x32
 *    multiply) so the rounding/truncation points match exactly.
 *  - quant/dequant perform the same IEEE-754 double operations as the
 *    scalar loop, and cvttpd truncates toward zero exactly like the
 *    scalar int cast.
 *  - The motion-compensation filters keep every intermediate inside
 *    s16 and replace the clamp and the rounding averages with the
 *    saturating pack and avg_epu8, which compute them exactly.
 */

#include "codec/kernels.hpp"

#if defined(__AVX2__)

#include <immintrin.h>

#include <cstddef>

namespace vepro::codec
{

namespace
{

// ---------------------------------------------------------------- helpers

inline uint64_t
hsumEpi64(__m256i v)
{
    __m128i lo = _mm256_castsi256_si128(v);
    __m128i hi = _mm256_extracti128_si256(v, 1);
    __m128i s = _mm_add_epi64(lo, hi);
    return static_cast<uint64_t>(_mm_cvtsi128_si64(s)) +
           static_cast<uint64_t>(
               _mm_cvtsi128_si64(_mm_unpackhi_epi64(s, s)));
}

inline int64_t
hsumEpi32To64(__m256i v)
{
    // Exact sum of 8 int32 lanes (no lane can overflow the int64 sum).
    __m256i lo = _mm256_cvtepi32_epi64(_mm256_castsi256_si128(v));
    __m256i hi = _mm256_cvtepi32_epi64(_mm256_extracti128_si256(v, 1));
    return static_cast<int64_t>(hsumEpi64(_mm256_add_epi64(lo, hi)));
}

/** Low 64 bits of the lane-wise signed 64x64 product (Agner Fog). */
inline __m256i
mul64(__m256i a, __m256i b)
{
    __m256i bswap = _mm256_shuffle_epi32(b, 0xB1);
    __m256i prodlh = _mm256_mullo_epi32(a, bswap);
    __m256i prodlh2 = _mm256_hadd_epi32(prodlh, _mm256_setzero_si256());
    __m256i prodlh3 = _mm256_shuffle_epi32(prodlh2, 0x73);
    __m256i prodll = _mm256_mul_epu32(a, b);
    return _mm256_add_epi64(prodll, prodlh3);
}

/** Arithmetic 64-bit right shift by the transform scale (20 bits). */
inline __m256i
srai64Scale(__m256i x)
{
    __m256i neg = _mm256_cmpgt_epi64(_mm256_setzero_si256(), x);
    return _mm256_or_si256(_mm256_srli_epi64(x, 20),
                           _mm256_slli_epi64(neg, 44));
}

// -------------------------------------------------------------- SAD / SSE

uint64_t
sadAvx2(const uint8_t *a, int a_stride, const uint8_t *b, int b_stride,
        int w, int h)
{
    __m256i acc = _mm256_setzero_si256();
    __m128i acc128 = _mm_setzero_si128();
    uint64_t tail = 0;
    for (int y = 0; y < h; ++y) {
        const uint8_t *ra = a + static_cast<ptrdiff_t>(y) * a_stride;
        const uint8_t *rb = b + static_cast<ptrdiff_t>(y) * b_stride;
        int x = 0;
        for (; x + 32 <= w; x += 32) {
            __m256i va = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(ra + x));
            __m256i vb = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(rb + x));
            acc = _mm256_add_epi64(acc, _mm256_sad_epu8(va, vb));
        }
        for (; x + 16 <= w; x += 16) {
            __m128i va =
                _mm_loadu_si128(reinterpret_cast<const __m128i *>(ra + x));
            __m128i vb =
                _mm_loadu_si128(reinterpret_cast<const __m128i *>(rb + x));
            acc128 = _mm_add_epi64(acc128, _mm_sad_epu8(va, vb));
        }
        for (; x + 8 <= w; x += 8) {
            __m128i va =
                _mm_loadl_epi64(reinterpret_cast<const __m128i *>(ra + x));
            __m128i vb =
                _mm_loadl_epi64(reinterpret_cast<const __m128i *>(rb + x));
            acc128 = _mm_add_epi64(acc128, _mm_sad_epu8(va, vb));
        }
        for (; x < w; ++x) {
            int d = static_cast<int>(ra[x]) - static_cast<int>(rb[x]);
            tail += static_cast<uint64_t>(d < 0 ? -d : d);
        }
    }
    uint64_t sum = hsumEpi64(acc) + tail;
    sum += static_cast<uint64_t>(_mm_cvtsi128_si64(acc128));
    sum += static_cast<uint64_t>(
        _mm_cvtsi128_si64(_mm_unpackhi_epi64(acc128, acc128)));
    return sum;
}

uint64_t
sseAvx2(const uint8_t *a, int a_stride, const uint8_t *b, int b_stride,
        int w, int h)
{
    __m256i acc64 = _mm256_setzero_si256();
    uint64_t tail = 0;
    for (int y = 0; y < h; ++y) {
        const uint8_t *ra = a + static_cast<ptrdiff_t>(y) * a_stride;
        const uint8_t *rb = b + static_cast<ptrdiff_t>(y) * b_stride;
        __m256i row32 = _mm256_setzero_si256();  // per-row: cannot overflow
        int x = 0;
        for (; x + 16 <= w; x += 16) {
            __m256i va = _mm256_cvtepu8_epi16(_mm_loadu_si128(
                reinterpret_cast<const __m128i *>(ra + x)));
            __m256i vb = _mm256_cvtepu8_epi16(_mm_loadu_si128(
                reinterpret_cast<const __m128i *>(rb + x)));
            __m256i d = _mm256_sub_epi16(va, vb);
            row32 = _mm256_add_epi32(row32, _mm256_madd_epi16(d, d));
        }
        for (; x + 8 <= w; x += 8) {
            __m128i va = _mm_cvtepu8_epi16(_mm_loadl_epi64(
                reinterpret_cast<const __m128i *>(ra + x)));
            __m128i vb = _mm_cvtepu8_epi16(_mm_loadl_epi64(
                reinterpret_cast<const __m128i *>(rb + x)));
            __m128i d = _mm_sub_epi16(va, vb);
            row32 = _mm256_add_epi32(
                row32, _mm256_castsi128_si256(_mm_madd_epi16(d, d)));
        }
        for (; x < w; ++x) {
            int d = static_cast<int>(ra[x]) - static_cast<int>(rb[x]);
            tail += static_cast<uint64_t>(d) * static_cast<uint64_t>(d);
        }
        __m256i lo = _mm256_cvtepi32_epi64(_mm256_castsi256_si128(row32));
        __m256i hi = _mm256_cvtepi32_epi64(_mm256_extracti128_si256(row32, 1));
        acc64 = _mm256_add_epi64(acc64, _mm256_add_epi64(lo, hi));
    }
    return hsumEpi64(acc64) + tail;
}

// ------------------------------------------------------------------- SATD

/**
 * Vertical Hadamard butterflies across an array of row vectors; the same
 * stage structure as the scalar hadamard1d, applied to whole rows.
 */
template <int N>
inline void
butterflyRows(__m128i *r)
{
    for (int len = 1; len < N; len <<= 1) {
        for (int i = 0; i < N; i += len << 1) {
            for (int j = i; j < i + len; ++j) {
                __m128i x = r[j];
                __m128i y = r[j + len];
                r[j] = _mm_add_epi16(x, y);
                r[j + len] = _mm_sub_epi16(x, y);
            }
        }
    }
}

inline void
transpose8x8Epi16(__m128i *r)
{
    __m128i t0 = _mm_unpacklo_epi16(r[0], r[1]);
    __m128i t1 = _mm_unpackhi_epi16(r[0], r[1]);
    __m128i t2 = _mm_unpacklo_epi16(r[2], r[3]);
    __m128i t3 = _mm_unpackhi_epi16(r[2], r[3]);
    __m128i t4 = _mm_unpacklo_epi16(r[4], r[5]);
    __m128i t5 = _mm_unpackhi_epi16(r[4], r[5]);
    __m128i t6 = _mm_unpacklo_epi16(r[6], r[7]);
    __m128i t7 = _mm_unpackhi_epi16(r[6], r[7]);
    __m128i u0 = _mm_unpacklo_epi32(t0, t2);
    __m128i u1 = _mm_unpackhi_epi32(t0, t2);
    __m128i u2 = _mm_unpacklo_epi32(t1, t3);
    __m128i u3 = _mm_unpackhi_epi32(t1, t3);
    __m128i u4 = _mm_unpacklo_epi32(t4, t6);
    __m128i u5 = _mm_unpackhi_epi32(t4, t6);
    __m128i u6 = _mm_unpacklo_epi32(t5, t7);
    __m128i u7 = _mm_unpackhi_epi32(t5, t7);
    r[0] = _mm_unpacklo_epi64(u0, u4);
    r[1] = _mm_unpackhi_epi64(u0, u4);
    r[2] = _mm_unpacklo_epi64(u1, u5);
    r[3] = _mm_unpackhi_epi64(u1, u5);
    r[4] = _mm_unpacklo_epi64(u2, u6);
    r[5] = _mm_unpackhi_epi64(u2, u6);
    r[6] = _mm_unpacklo_epi64(u3, u7);
    r[7] = _mm_unpackhi_epi64(u3, u7);
}

uint64_t
satd8Avx2(const uint8_t *a, int a_stride, const uint8_t *b, int b_stride)
{
    __m128i r[8];
    for (int y = 0; y < 8; ++y) {
        __m128i va = _mm_cvtepu8_epi16(_mm_loadl_epi64(
            reinterpret_cast<const __m128i *>(
                a + static_cast<ptrdiff_t>(y) * a_stride)));
        __m128i vb = _mm_cvtepu8_epi16(_mm_loadl_epi64(
            reinterpret_cast<const __m128i *>(
                b + static_cast<ptrdiff_t>(y) * b_stride)));
        r[y] = _mm_sub_epi16(va, vb);
    }
    // Columns first, then rows after a transpose: Hadamard passes commute
    // (H X H^T either way), and |values| <= 8*8*255 fits int16 exactly.
    butterflyRows<8>(r);
    transpose8x8Epi16(r);
    butterflyRows<8>(r);
    const __m128i ones = _mm_set1_epi16(1);
    __m128i acc = _mm_setzero_si128();
    for (int y = 0; y < 8; ++y) {
        acc = _mm_add_epi32(acc, _mm_madd_epi16(_mm_abs_epi16(r[y]), ones));
    }
    acc = _mm_add_epi32(acc, _mm_srli_si128(acc, 8));
    acc = _mm_add_epi32(acc, _mm_srli_si128(acc, 4));
    return static_cast<uint64_t>(
        static_cast<uint32_t>(_mm_cvtsi128_si32(acc)));
}

uint64_t
satd4Avx2(const uint8_t *a, int a_stride, const uint8_t *b, int b_stride)
{
    __m128i r[4];
    for (int y = 0; y < 4; ++y) {
        int ia = 0, ib = 0;
        __builtin_memcpy(&ia, a + static_cast<ptrdiff_t>(y) * a_stride, 4);
        __builtin_memcpy(&ib, b + static_cast<ptrdiff_t>(y) * b_stride, 4);
        __m128i va = _mm_cvtepu8_epi16(_mm_cvtsi32_si128(ia));
        __m128i vb = _mm_cvtepu8_epi16(_mm_cvtsi32_si128(ib));
        r[y] = _mm_sub_epi16(va, vb);  // 4 int16 in the low half, rest 0
    }
    butterflyRows<4>(r);
    // 4x4 int16 transpose of the low halves; re-zero the upper halves so
    // the final reduction only sees real lanes.
    __m128i t0 = _mm_unpacklo_epi16(r[0], r[1]);
    __m128i t1 = _mm_unpacklo_epi16(r[2], r[3]);
    __m128i u0 = _mm_unpacklo_epi32(t0, t1);
    __m128i u1 = _mm_unpackhi_epi32(t0, t1);
    r[0] = _mm_move_epi64(u0);
    r[1] = _mm_srli_si128(u0, 8);
    r[2] = _mm_move_epi64(u1);
    r[3] = _mm_srli_si128(u1, 8);
    butterflyRows<4>(r);
    const __m128i ones = _mm_set1_epi16(1);
    __m128i acc = _mm_setzero_si128();
    for (int y = 0; y < 4; ++y) {
        acc = _mm_add_epi32(acc, _mm_madd_epi16(_mm_abs_epi16(r[y]), ones));
    }
    acc = _mm_add_epi32(acc, _mm_srli_si128(acc, 4));
    return static_cast<uint64_t>(
        static_cast<uint32_t>(_mm_cvtsi128_si32(acc)));
}

// ------------------------------------------------- residual / reconstruct

void
residualAvx2(const uint8_t *a, int a_stride, const uint8_t *b, int b_stride,
             int w, int h, int16_t *dst)
{
    for (int y = 0; y < h; ++y) {
        const uint8_t *ra = a + static_cast<ptrdiff_t>(y) * a_stride;
        const uint8_t *rb = b + static_cast<ptrdiff_t>(y) * b_stride;
        int16_t *rd = dst + static_cast<ptrdiff_t>(y) * w;
        int x = 0;
        for (; x + 16 <= w; x += 16) {
            __m256i va = _mm256_cvtepu8_epi16(_mm_loadu_si128(
                reinterpret_cast<const __m128i *>(ra + x)));
            __m256i vb = _mm256_cvtepu8_epi16(_mm_loadu_si128(
                reinterpret_cast<const __m128i *>(rb + x)));
            _mm256_storeu_si256(reinterpret_cast<__m256i *>(rd + x),
                                _mm256_sub_epi16(va, vb));
        }
        for (; x + 8 <= w; x += 8) {
            __m128i va = _mm_cvtepu8_epi16(_mm_loadl_epi64(
                reinterpret_cast<const __m128i *>(ra + x)));
            __m128i vb = _mm_cvtepu8_epi16(_mm_loadl_epi64(
                reinterpret_cast<const __m128i *>(rb + x)));
            _mm_storeu_si128(reinterpret_cast<__m128i *>(rd + x),
                             _mm_sub_epi16(va, vb));
        }
        for (; x < w; ++x) {
            rd[x] = static_cast<int16_t>(static_cast<int>(ra[x]) -
                                         static_cast<int>(rb[x]));
        }
    }
}

void
reconstructAvx2(const uint8_t *pred, int pred_stride, const int16_t *res,
                int w, int h, uint8_t *dst, int dst_stride)
{
    for (int y = 0; y < h; ++y) {
        const uint8_t *rp = pred + static_cast<ptrdiff_t>(y) * pred_stride;
        const int16_t *rr = res + static_cast<ptrdiff_t>(y) * w;
        uint8_t *rd = dst + static_cast<ptrdiff_t>(y) * dst_stride;
        int x = 0;
        for (; x + 16 <= w; x += 16) {
            __m256i vp = _mm256_cvtepu8_epi16(_mm_loadu_si128(
                reinterpret_cast<const __m128i *>(rp + x)));
            __m256i vr = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(rr + x));
            // Saturating add: pred in [0,255] plus any int16 saturates to
            // the same [0,255] value as the scalar int clamp.
            __m256i s = _mm256_adds_epi16(vp, vr);
            __m256i packed = _mm256_packus_epi16(s, s);
            __m256i ordered = _mm256_permute4x64_epi64(packed, 0x08);
            _mm_storeu_si128(reinterpret_cast<__m128i *>(rd + x),
                             _mm256_castsi256_si128(ordered));
        }
        for (; x + 8 <= w; x += 8) {
            __m128i vp = _mm_cvtepu8_epi16(_mm_loadl_epi64(
                reinterpret_cast<const __m128i *>(rp + x)));
            __m128i vr =
                _mm_loadu_si128(reinterpret_cast<const __m128i *>(rr + x));
            __m128i s = _mm_adds_epi16(vp, vr);
            _mm_storel_epi64(reinterpret_cast<__m128i *>(rd + x),
                             _mm_packus_epi16(s, s));
        }
        for (; x < w; ++x) {
            int v = static_cast<int>(rp[x]) + rr[x];
            rd[x] = static_cast<uint8_t>(v < 0 ? 0 : (v > 255 ? 255 : v));
        }
    }
}

// -------------------------------------------------------------- DCT passes

/**
 * Forward DCT. Row pass: all products and partial sums provably fit
 * int32 for int16 input (|basis| <= 1024*sqrt(2/n), so |tmp| < 2^29), so
 * plain 32-bit lane math is exact and tmp can be stored as int32 even
 * though the scalar reference accumulates in int64. Column pass: 32x32
 * products reach ~2^41 and are taken exactly via vpmuldq into int64.
 */
void
fdctAvx2(const int16_t *src, int32_t *dst, int n, const int32_t *basis)
{
    if (n < 8) {
        scalarKernels().fdct(src, dst, n, basis);
        return;
    }
    alignas(32) int32_t srcw[32];
    alignas(32) int32_t tmp[32 * 32];

    for (int r = 0; r < n; ++r) {
        const int16_t *src_row = src + static_cast<ptrdiff_t>(r) * n;
        for (int i = 0; i < n; i += 8) {
            _mm256_store_si256(
                reinterpret_cast<__m256i *>(srcw + i),
                _mm256_cvtepi16_epi32(_mm_loadu_si128(
                    reinterpret_cast<const __m128i *>(src_row + i))));
        }
        for (int k = 0; k < n; ++k) {
            const int32_t *brow = basis + static_cast<ptrdiff_t>(k) * n;
            __m256i acc = _mm256_setzero_si256();
            for (int i = 0; i < n; i += 8) {
                __m256i s =
                    _mm256_load_si256(reinterpret_cast<__m256i *>(srcw + i));
                __m256i t = _mm256_loadu_si256(
                    reinterpret_cast<const __m256i *>(brow + i));
                acc = _mm256_add_epi32(acc, _mm256_mullo_epi32(s, t));
            }
            tmp[static_cast<size_t>(r) * n + k] =
                static_cast<int32_t>(hsumEpi32To64(acc));
        }
    }

    const __m256i round = _mm256_set1_epi64x(1LL << 19);
    for (int k = 0; k < n; ++k) {
        const int32_t *brow = basis + static_cast<ptrdiff_t>(k) * n;
        for (int c = 0; c < n; c += 8) {
            __m256i acc_even = round;
            __m256i acc_odd = round;
            for (int r = 0; r < n; ++r) {
                __m256i b = _mm256_set1_epi32(brow[r]);
                __m256i t = _mm256_loadu_si256(
                    reinterpret_cast<const __m256i *>(
                        tmp + static_cast<size_t>(r) * n + c));
                acc_even = _mm256_add_epi64(acc_even,
                                            _mm256_mul_epi32(t, b));
                acc_odd = _mm256_add_epi64(
                    acc_odd,
                    _mm256_mul_epi32(_mm256_srli_epi64(t, 32), b));
            }
            __m256i even = srai64Scale(acc_even);
            __m256i odd = srai64Scale(acc_odd);
            __m256i out = _mm256_blend_epi32(
                even, _mm256_slli_epi64(odd, 32), 0xAA);
            _mm256_storeu_si256(
                reinterpret_cast<__m256i *>(
                    dst + static_cast<size_t>(k) * n + c),
                out);
        }
    }
}

/**
 * Inverse DCT. The intermediate tmp can exceed int32 for legal
 * coefficient input, so the column pass stores exact int64 (vpmuldq)
 * and the row pass multiplies 64x32 via the emulated full multiply.
 */
void
idctAvx2(const int32_t *src, int16_t *dst, int n, const int32_t *basis)
{
    if (n < 8) {
        scalarKernels().idct(src, dst, n, basis);
        return;
    }
    alignas(32) int64_t tmp[32 * 32];

    for (int r = 0; r < n; ++r) {
        for (int c = 0; c < n; c += 8) {
            __m256i acc_even = _mm256_setzero_si256();
            __m256i acc_odd = _mm256_setzero_si256();
            for (int k = 0; k < n; ++k) {
                __m256i b = _mm256_set1_epi32(
                    basis[static_cast<size_t>(k) * n + r]);
                __m256i s = _mm256_loadu_si256(
                    reinterpret_cast<const __m256i *>(
                        src + static_cast<size_t>(k) * n + c));
                acc_even = _mm256_add_epi64(acc_even,
                                            _mm256_mul_epi32(s, b));
                acc_odd = _mm256_add_epi64(
                    acc_odd,
                    _mm256_mul_epi32(_mm256_srli_epi64(s, 32), b));
            }
            // Interleave back to memory order c, c+1, ...
            __m256i lo = _mm256_unpacklo_epi64(acc_even, acc_odd);
            __m256i hi = _mm256_unpackhi_epi64(acc_even, acc_odd);
            _mm256_store_si256(
                reinterpret_cast<__m256i *>(
                    tmp + static_cast<size_t>(r) * n + c),
                _mm256_permute2x128_si256(lo, hi, 0x20));
            _mm256_store_si256(
                reinterpret_cast<__m256i *>(
                    tmp + static_cast<size_t>(r) * n + c + 4),
                _mm256_permute2x128_si256(lo, hi, 0x31));
        }
    }

    const __m256i round = _mm256_set1_epi64x(1LL << 19);
    const __m256i vmax = _mm256_set1_epi64x(32767);
    const __m256i vmin = _mm256_set1_epi64x(-32768);
    alignas(32) int64_t out[8];
    for (int r = 0; r < n; ++r) {
        const int64_t *trow = tmp + static_cast<size_t>(r) * n;
        for (int i = 0; i < n; i += 8) {
            __m256i acc0 = round;  // outputs i .. i+3
            __m256i acc1 = round;  // outputs i+4 .. i+7
            for (int k = 0; k < n; ++k) {
                __m256i a = _mm256_set1_epi64x(trow[k]);
                const int32_t *brow =
                    basis + static_cast<size_t>(k) * n + i;
                __m256i b0 = _mm256_cvtepi32_epi64(_mm_loadu_si128(
                    reinterpret_cast<const __m128i *>(brow)));
                __m256i b1 = _mm256_cvtepi32_epi64(_mm_loadu_si128(
                    reinterpret_cast<const __m128i *>(brow + 4)));
                acc0 = _mm256_add_epi64(acc0, mul64(a, b0));
                acc1 = _mm256_add_epi64(acc1, mul64(a, b1));
            }
            for (int half = 0; half < 2; ++half) {
                __m256i v = srai64Scale(half == 0 ? acc0 : acc1);
                __m256i too_big = _mm256_cmpgt_epi64(v, vmax);
                v = _mm256_blendv_epi8(v, vmax, too_big);
                __m256i too_small = _mm256_cmpgt_epi64(vmin, v);
                v = _mm256_blendv_epi8(v, vmin, too_small);
                _mm256_store_si256(
                    reinterpret_cast<__m256i *>(out + 4 * half), v);
            }
            int16_t *drow = dst + static_cast<size_t>(r) * n + i;
            for (int j = 0; j < 8; ++j) {
                drow[j] = static_cast<int16_t>(out[j]);
            }
        }
    }
}

// ------------------------------------------------------- quant / dequant

int
quantAvx2(const int32_t *coeff, int32_t *levels, int count, double dead_zone,
          double inv_step)
{
    const __m256d pos_dz = _mm256_set1_pd(dead_zone);
    const __m256d neg_dz = _mm256_set1_pd(-dead_zone);
    const __m256d inv = _mm256_set1_pd(inv_step);
    const __m256d zero = _mm256_setzero_pd();
    const __m128i izero = _mm_setzero_si128();
    int nonzero = 0;
    int i = 0;
    for (; i + 4 <= count; i += 4) {
        __m128i c4 =
            _mm_loadu_si128(reinterpret_cast<const __m128i *>(coeff + i));
        __m256d cd = _mm256_cvtepi32_pd(c4);
        __m256d ge0 = _mm256_cmp_pd(cd, zero, _CMP_GE_OQ);
        __m256d adj = _mm256_blendv_pd(neg_dz, pos_dz, ge0);
        __m256d v = _mm256_mul_pd(_mm256_add_pd(cd, adj), inv);
        __m128i l4 = _mm256_cvttpd_epi32(v);  // truncation == scalar cast
        _mm_storeu_si128(reinterpret_cast<__m128i *>(levels + i), l4);
        int zmask =
            _mm_movemask_ps(_mm_castsi128_ps(_mm_cmpeq_epi32(l4, izero)));
        nonzero += 4 - __builtin_popcount(zmask & 0xF);
    }
    for (; i < count; ++i) {
        double v = coeff[i] >= 0 ? (coeff[i] + dead_zone) * inv_step
                                 : (coeff[i] - dead_zone) * inv_step;
        levels[i] = static_cast<int32_t>(v);
        nonzero += levels[i] != 0;
    }
    return nonzero;
}

void
dequantAvx2(const int32_t *levels, int32_t *coeff, int count, double step)
{
    const __m256d vstep = _mm256_set1_pd(step);
    int i = 0;
    for (; i + 4 <= count; i += 4) {
        __m128i l4 =
            _mm_loadu_si128(reinterpret_cast<const __m128i *>(levels + i));
        __m256d v = _mm256_mul_pd(_mm256_cvtepi32_pd(l4), vstep);
        _mm_storeu_si128(reinterpret_cast<__m128i *>(coeff + i),
                         _mm256_cvttpd_epi32(v));
    }
    for (; i < count; ++i) {
        coeff[i] = static_cast<int32_t>(levels[i] * step);
    }
}

void
boxdownAvx2(const uint8_t *src, int src_stride, int factor, uint8_t *dst,
            int dw)
{
    if (factor == 2) {
        // The ladder's hot case: 2x2 boxes. maddubs with a ones vector
        // sums horizontal pairs into exact u16 lanes (max 510), two rows
        // add to <= 1020, so (sum + 2) >> 2 equals the scalar
        // (sum + 2) / 4 with no overflow anywhere.
        const __m256i ones = _mm256_set1_epi8(1);
        const __m256i two = _mm256_set1_epi16(2);
        int i = 0;
        for (; i + 16 <= dw; i += 16) {
            const uint8_t *r0 = src + static_cast<ptrdiff_t>(i) * 2;
            const uint8_t *r1 = r0 + src_stride;
            __m256i p0 = _mm256_maddubs_epi16(
                _mm256_loadu_si256(reinterpret_cast<const __m256i *>(r0)),
                ones);
            __m256i p1 = _mm256_maddubs_epi16(
                _mm256_loadu_si256(reinterpret_cast<const __m256i *>(r1)),
                ones);
            __m256i sum = _mm256_add_epi16(_mm256_add_epi16(p0, p1), two);
            __m256i res = _mm256_srli_epi16(sum, 2);
            __m256i packed = _mm256_packus_epi16(res, res);
            packed = _mm256_permute4x64_epi64(packed, 0xD8);
            _mm_storeu_si128(reinterpret_cast<__m128i *>(dst + i),
                             _mm256_castsi256_si128(packed));
        }
        for (; i < dw; ++i) {
            const uint8_t *r0 = src + static_cast<ptrdiff_t>(i) * 2;
            const uint8_t *r1 = r0 + src_stride;
            uint32_t sum = static_cast<uint32_t>(r0[0]) + r0[1] + r1[0] +
                           r1[1];
            dst[i] = static_cast<uint8_t>((sum + 2) / 4);
        }
        return;
    }
    // General factors are rare (the driver applies scale as repeated /2
    // where it can); keep the exact scalar arithmetic.
    const uint32_t cnt = static_cast<uint32_t>(factor) * factor;
    const uint32_t half = cnt / 2;
    for (int i = 0; i < dw; ++i) {
        const uint8_t *box = src + static_cast<ptrdiff_t>(i) * factor;
        uint32_t sum = 0;
        for (int y = 0; y < factor; ++y) {
            const uint8_t *r = box + static_cast<ptrdiff_t>(y) * src_stride;
            for (int x = 0; x < factor; ++x) {
                sum += r[x];
            }
        }
        dst[i] = static_cast<uint8_t>((sum + half) / cnt);
    }
}

void
lerpblendAvx2(const uint8_t *a, const uint8_t *b, int w6, uint8_t *dst,
              int n)
{
    // a*(64-w6) + b*w6 + 32 <= 255*64 + 32 = 16352 < 2^15: the whole
    // expression fits an s16 lane, so mullo/add/srli match the scalar
    // integer arithmetic exactly.
    const __m256i wa = _mm256_set1_epi16(static_cast<short>(64 - w6));
    const __m256i wb = _mm256_set1_epi16(static_cast<short>(w6));
    const __m256i bias = _mm256_set1_epi16(32);
    int i = 0;
    for (; i + 32 <= n; i += 32) {
        __m256i va =
            _mm256_loadu_si256(reinterpret_cast<const __m256i *>(a + i));
        __m256i vb =
            _mm256_loadu_si256(reinterpret_cast<const __m256i *>(b + i));
        __m256i alo = _mm256_cvtepu8_epi16(_mm256_castsi256_si128(va));
        __m256i ahi = _mm256_cvtepu8_epi16(_mm256_extracti128_si256(va, 1));
        __m256i blo = _mm256_cvtepu8_epi16(_mm256_castsi256_si128(vb));
        __m256i bhi = _mm256_cvtepu8_epi16(_mm256_extracti128_si256(vb, 1));
        __m256i lo = _mm256_srli_epi16(
            _mm256_add_epi16(_mm256_add_epi16(_mm256_mullo_epi16(alo, wa),
                                              _mm256_mullo_epi16(blo, wb)),
                             bias),
            6);
        __m256i hi = _mm256_srli_epi16(
            _mm256_add_epi16(_mm256_add_epi16(_mm256_mullo_epi16(ahi, wa),
                                              _mm256_mullo_epi16(bhi, wb)),
                             bias),
            6);
        __m256i packed = _mm256_packus_epi16(lo, hi);
        packed = _mm256_permute4x64_epi64(packed, 0xD8);
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(dst + i), packed);
    }
    for (; i < n; ++i) {
        dst[i] = static_cast<uint8_t>(
            (a[i] * (64 - w6) + b[i] * w6 + 32) >> 6);
    }
}

// ------------------------------------------------ motion compensation
//
// The 4-tap sum -a + 5(b + c) - d + 4 lies in [-506, 2554], so it is
// exact in s16 lanes; srai is the scalar arithmetic >> 3, and the
// unsigned-saturating pack is the scalar clamp to [0, 255]. avg_epu8 is
// exactly (x + y + 1) >> 1, which is both the both-phase average of the
// sharp filter and the single-phase bilinear (2x + 2y + 2) >> 2.

inline __m256i
widen16(const uint8_t *p)
{
    return _mm256_cvtepu8_epi16(
        _mm_loadu_si128(reinterpret_cast<const __m128i *>(p)));
}

inline __m128i
widen8(const uint8_t *p)
{
    return _mm_cvtepu8_epi16(
        _mm_loadl_epi64(reinterpret_cast<const __m128i *>(p)));
}

/** Sixteen 4-tap outputs from the taps at p - step, p, p + step and
 *  p + 2 * step, packed to pels. */
inline __m128i
tap4x16(const uint8_t *p, ptrdiff_t step)
{
    const __m256i five = _mm256_set1_epi16(5);
    const __m256i four = _mm256_set1_epi16(4);
    __m256i bc = _mm256_add_epi16(widen16(p), widen16(p + step));
    __m256i ad = _mm256_add_epi16(widen16(p - step), widen16(p + 2 * step));
    __m256i v = _mm256_srai_epi16(
        _mm256_sub_epi16(_mm256_add_epi16(_mm256_mullo_epi16(bc, five), four),
                         ad),
        3);
    return _mm_packus_epi16(_mm256_castsi256_si128(v),
                            _mm256_extracti128_si256(v, 1));
}

/** Eight 4-tap outputs (see tap4x16), in the low half of the result. */
inline __m128i
tap4x8(const uint8_t *p, ptrdiff_t step)
{
    const __m128i five = _mm_set1_epi16(5);
    const __m128i four = _mm_set1_epi16(4);
    __m128i bc = _mm_add_epi16(widen8(p), widen8(p + step));
    __m128i ad = _mm_add_epi16(widen8(p - step), widen8(p + 2 * step));
    __m128i v = _mm_srai_epi16(
        _mm_sub_epi16(_mm_add_epi16(_mm_mullo_epi16(bc, five), four), ad), 3);
    return _mm_packus_epi16(v, v);
}

inline uint8_t
tap4Scalar(const uint8_t *p, ptrdiff_t step)
{
    int v = (-p[-step] + 5 * p[0] + 5 * p[step] - p[2 * step] + 4) >> 3;
    return static_cast<uint8_t>(v < 0 ? 0 : (v > 255 ? 255 : v));
}

void
mcSharpAvx2(const uint8_t *src, int src_stride, int w, int h, int half_x,
            int half_y, uint8_t *dst, int dst_stride)
{
    const ptrdiff_t s = src_stride;
    // One tap direction: horizontal for half_x (with a second row when
    // half_y is also set), vertical for half_y alone.
    const ptrdiff_t step = half_x ? 1 : s;
    const bool both = half_x && half_y;
    for (int y = 0; y < h; ++y) {
        const uint8_t *r = src + static_cast<ptrdiff_t>(y) * s;
        uint8_t *out = dst + static_cast<ptrdiff_t>(y) * dst_stride;
        int x = 0;
        for (; x + 16 <= w; x += 16) {
            __m128i v = tap4x16(r + x, step);
            if (both) {
                v = _mm_avg_epu8(v, tap4x16(r + s + x, step));
            }
            _mm_storeu_si128(reinterpret_cast<__m128i *>(out + x), v);
        }
        for (; x + 8 <= w; x += 8) {
            __m128i v = tap4x8(r + x, step);
            if (both) {
                v = _mm_avg_epu8(v, tap4x8(r + s + x, step));
            }
            _mm_storel_epi64(reinterpret_cast<__m128i *>(out + x), v);
        }
        for (; x < w; ++x) {
            uint8_t v = tap4Scalar(r + x, step);
            if (both) {
                v = static_cast<uint8_t>(
                    (v + tap4Scalar(r + s + x, step) + 1) >> 1);
            }
            out[x] = v;
        }
    }
}

void
mcBilinearAvx2(const uint8_t *src, int src_stride, int w, int h, int half_x,
               int half_y, uint8_t *dst, int dst_stride)
{
    const ptrdiff_t dx = half_x ? 1 : 0;
    const ptrdiff_t dy = half_y ? src_stride : 0;
    const __m256i two = _mm256_set1_epi16(2);
    for (int y = 0; y < h; ++y) {
        const uint8_t *r0 = src + static_cast<ptrdiff_t>(y) * src_stride;
        const uint8_t *r1 = r0 + dy;
        uint8_t *out = dst + static_cast<ptrdiff_t>(y) * dst_stride;
        int x = 0;
        if (half_x && half_y) {
            for (; x + 16 <= w; x += 16) {
                __m256i sum = _mm256_add_epi16(
                    _mm256_add_epi16(widen16(r0 + x), widen16(r0 + x + 1)),
                    _mm256_add_epi16(widen16(r1 + x), widen16(r1 + x + 1)));
                sum = _mm256_srli_epi16(_mm256_add_epi16(sum, two), 2);
                _mm_storeu_si128(
                    reinterpret_cast<__m128i *>(out + x),
                    _mm_packus_epi16(_mm256_castsi256_si128(sum),
                                     _mm256_extracti128_si256(sum, 1)));
            }
        } else {
            // One phase: the bilinear sum is 2 (a + b) + 2.
            const ptrdiff_t off = dx + dy;
            for (; x + 32 <= w; x += 32) {
                __m256i a = _mm256_loadu_si256(
                    reinterpret_cast<const __m256i *>(r0 + x));
                __m256i b = _mm256_loadu_si256(
                    reinterpret_cast<const __m256i *>(r0 + off + x));
                _mm256_storeu_si256(reinterpret_cast<__m256i *>(out + x),
                                    _mm256_avg_epu8(a, b));
            }
            for (; x + 16 <= w; x += 16) {
                __m128i a =
                    _mm_loadu_si128(reinterpret_cast<const __m128i *>(r0 + x));
                __m128i b = _mm_loadu_si128(
                    reinterpret_cast<const __m128i *>(r0 + off + x));
                _mm_storeu_si128(reinterpret_cast<__m128i *>(out + x),
                                 _mm_avg_epu8(a, b));
            }
        }
        for (; x < w; ++x) {
            int v = r0[x] + r0[x + dx] + r1[x] + r1[x + dx] + 2;
            out[x] = static_cast<uint8_t>(v >> 2);
        }
    }
}

} // namespace

namespace detail
{

const KernelTable *
avx2KernelsImpl()
{
    static const KernelTable table = [] {
        KernelTable t = scalarKernels();
        t.isa = "avx2";
        t.sad = sadAvx2;
        t.sse = sseAvx2;
        t.satd4 = satd4Avx2;
        t.satd8 = satd8Avx2;
        t.residual = residualAvx2;
        t.reconstruct = reconstructAvx2;
        t.fdct = fdctAvx2;
        t.idct = idctAvx2;
        t.quant = quantAvx2;
        t.dequant = dequantAvx2;
        t.boxdown = boxdownAvx2;
        t.lerpblend = lerpblendAvx2;
        t.mcBilinear = mcBilinearAvx2;
        t.mcSharp = mcSharpAvx2;
        return t;
    }();
    return &table;
}

} // namespace detail

} // namespace vepro::codec

#endif // __AVX2__
