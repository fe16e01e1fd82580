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
 *  - The DCT passes run the scalar partial butterflies in double lanes,
 *    where every intermediate is an integer below 2^53 and therefore
 *    exact; inverse input too large for that takes the scalar kernel.
 *  - quant/dequant perform the same IEEE-754 double operations as the
 *    scalar loop, and cvttpd truncates toward zero exactly like the
 *    scalar int cast.
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
//
// Both transforms run the scalar partial butterflies (kernels.cpp) on
// 4-wide strips of independent 1-D transforms, in double lanes. A strip
// transforms four columns; its outputs are stored transposed, so the
// second pass is again a column pass and its transposed store restores
// the layout. Running the column pass first regroups the same exact
// integer sums as the scalar rows-first order.
//
// Exactness: every product and partial sum is an integer of magnitude
// below 2^53, so each double multiply and add is exact. Every row and
// column of T has absolute sum below 2^13 at every size, so int16 input
// keeps the forward sums below 2^15 * 2^13 * 2^13 = 2^41, and inverse
// input below 2^26 keeps them below 2^52 (larger input takes the scalar
// kernel). The final (acc + 2^19) >> 20 is a floor of an exact
// power-of-two scaling.

/** T[k][i] for i < n/2 — the only entries the butterflies read — as
 *  doubles, row stride n/2. */
template <int N>
void
basisHalf(const int32_t *basis, double *out)
{
    constexpr int h = N / 2;
    for (int k = 0; k < N; ++k) {
        for (int i = 0; i < h; i += 4) {
            _mm256_storeu_pd(
                out + k * h + i,
                _mm256_cvtepi32_pd(_mm_loadu_si128(
                    reinterpret_cast<const __m128i *>(basis + k * N + i))));
        }
    }
}

/** Forward butterfly stage of one strip (see fdctStage in
 *  kernels.cpp); tb is basisHalf's table. Four odd outputs accumulate
 *  side by side to keep the add chains short. */
template <int N, int M>
inline void
fdctStrip(__m256d *v, __m256d *y, const double *tb)
{
    if constexpr (M == 1) {
        y[0] = _mm256_mul_pd(_mm256_broadcast_sd(tb), v[0]);
    } else {
        constexpr int S = N / M, H = M / 2;
        __m256d odd[H];
        for (int i = 0; i < H; ++i) {
            odd[i] = _mm256_sub_pd(v[i], v[M - 1 - i]);
            v[i] = _mm256_add_pd(v[i], v[M - 1 - i]);
        }
        constexpr int hs = N / 2;  // tb row stride
        if constexpr (H >= 4) {
            for (int j = 1; j < M; j += 8) {
                const double *t0 = tb + S * j * hs;
                const double *t1 = t0 + 2 * S * hs;
                const double *t2 = t1 + 2 * S * hs;
                const double *t3 = t2 + 2 * S * hs;
                __m256d a0 = _mm256_mul_pd(_mm256_broadcast_sd(t0), odd[0]);
                __m256d a1 = _mm256_mul_pd(_mm256_broadcast_sd(t1), odd[0]);
                __m256d a2 = _mm256_mul_pd(_mm256_broadcast_sd(t2), odd[0]);
                __m256d a3 = _mm256_mul_pd(_mm256_broadcast_sd(t3), odd[0]);
                for (int i = 1; i < H; ++i) {
                    a0 = _mm256_add_pd(
                        a0, _mm256_mul_pd(_mm256_broadcast_sd(t0 + i), odd[i]));
                    a1 = _mm256_add_pd(
                        a1, _mm256_mul_pd(_mm256_broadcast_sd(t1 + i), odd[i]));
                    a2 = _mm256_add_pd(
                        a2, _mm256_mul_pd(_mm256_broadcast_sd(t2 + i), odd[i]));
                    a3 = _mm256_add_pd(
                        a3, _mm256_mul_pd(_mm256_broadcast_sd(t3 + i), odd[i]));
                }
                y[S * j] = a0;
                y[S * (j + 2)] = a1;
                y[S * (j + 4)] = a2;
                y[S * (j + 6)] = a3;
            }
        } else {
            for (int j = 1; j < M; j += 2) {
                const double *t = tb + S * j * hs;
                __m256d acc = _mm256_mul_pd(_mm256_broadcast_sd(t), odd[0]);
                for (int i = 1; i < H; ++i) {
                    acc = _mm256_add_pd(
                        acc, _mm256_mul_pd(_mm256_broadcast_sd(t + i), odd[i]));
                }
                y[S * j] = acc;
            }
        }
        fdctStrip<N, H>(v, y, tb);
    }
}

/** Inverse butterfly stage of one strip (see idctStage in kernels.cpp). */
template <int N, int M>
inline void
idctStrip(const __m256d *x, __m256d *y, const double *tb)
{
    if constexpr (M == 1) {
        y[0] = _mm256_mul_pd(_mm256_broadcast_sd(tb), x[0]);
    } else {
        constexpr int S = N / M, H = M / 2;
        idctStrip<N, H>(x, y, tb);
        __m256d odd[H];
        for (int i = 0; i < H; ++i) {
            odd[i] = _mm256_setzero_pd();
        }
        for (int j = 1; j < M; j += 2) {
            const double *row = tb + S * j * N / 2;
            const __m256d xj = x[S * j];
            for (int i = 0; i < H; ++i) {
                odd[i] = _mm256_add_pd(
                    odd[i], _mm256_mul_pd(_mm256_broadcast_sd(row + i), xj));
            }
        }
        for (int i = 0; i < H; ++i) {
            const __m256d even = y[i];
            y[i] = _mm256_add_pd(even, odd[i]);
            y[M - 1 - i] = _mm256_sub_pd(even, odd[i]);
        }
    }
}

/** Transpose a 4x4 block held as four row vectors. */
inline void
transpose4(__m256d &a, __m256d &b, __m256d &c, __m256d &d)
{
    const __m256d t0 = _mm256_unpacklo_pd(a, b);
    const __m256d t1 = _mm256_unpackhi_pd(a, b);
    const __m256d t2 = _mm256_unpacklo_pd(c, d);
    const __m256d t3 = _mm256_unpackhi_pd(c, d);
    a = _mm256_permute2f128_pd(t0, t2, 0x20);
    b = _mm256_permute2f128_pd(t1, t3, 0x20);
    c = _mm256_permute2f128_pd(t0, t2, 0x31);
    d = _mm256_permute2f128_pd(t1, t3, 0x31);
}

/** Store strip outputs y[k] (lanes = columns c0..c0+3) transposed:
 *  out[(c0 + l) * n + k] = y[k][l]. */
template <int N>
inline void
storeTransposed(__m256d *y, int c0, double *out)
{
    for (int k = 0; k < N; k += 4) {
        transpose4(y[k], y[k + 1], y[k + 2], y[k + 3]);
        for (int l = 0; l < 4; ++l) {
            _mm256_storeu_pd(out + (c0 + l) * N + k, y[k + l]);
        }
    }
}

/** floor((acc + 2^19) / 2^20): the transform's scale removal. */
inline __m256d
descale(__m256d acc)
{
    return _mm256_floor_pd(_mm256_mul_pd(
        _mm256_add_pd(acc, _mm256_set1_pd(1 << 19)),
        _mm256_set1_pd(1.0 / (1 << 20))));
}

template <int N>
void
fdctAvx2N(const int16_t *src, int32_t *dst, const int32_t *basis)
{
    double tb[N * N / 2];
    basisHalf<N>(basis, tb);
    double ut[N * N];  // (T X)^T
    __m256d v[N], y[N];

    for (int c0 = 0; c0 < N; c0 += 4) {
        for (int i = 0; i < N; ++i) {
            v[i] = _mm256_cvtepi32_pd(_mm_cvtepi16_epi32(_mm_loadl_epi64(
                reinterpret_cast<const __m128i *>(src + i * N + c0))));
        }
        fdctStrip<N, N>(v, y, tb);
        storeTransposed<N>(y, c0, ut);
    }
    for (int k0 = 0; k0 < N; k0 += 4) {
        for (int i = 0; i < N; ++i) {
            v[i] = _mm256_loadu_pd(ut + i * N + k0);
        }
        fdctStrip<N, N>(v, y, tb);
        for (int c = 0; c < N; c += 4) {
            __m256d *q = y + c;
            for (int l = 0; l < 4; ++l) {
                q[l] = descale(q[l]);
            }
            transpose4(q[0], q[1], q[2], q[3]);
            for (int l = 0; l < 4; ++l) {
                _mm_storeu_si128(
                    reinterpret_cast<__m128i *>(dst + (k0 + l) * N + c),
                    _mm256_cvtpd_epi32(q[l]));
            }
        }
    }
}

template <int N>
void
idctAvx2N(const int32_t *src, int16_t *dst, const int32_t *basis)
{
    // Exact only below 2^26 in magnitude (see above). abs(INT32_MIN)
    // reads as 2^31 in an unsigned lane, so it falls back as well.
    __m256i peak = _mm256_setzero_si256();
    for (int i = 0; i < N * N; i += 8) {
        peak = _mm256_max_epu32(
            peak, _mm256_abs_epi32(_mm256_loadu_si256(
                      reinterpret_cast<const __m256i *>(src + i))));
    }
    const __m256i limit = _mm256_set1_epi32((1 << 26) - 1);
    const __m256i in_range =
        _mm256_cmpeq_epi32(_mm256_min_epu32(peak, limit), peak);
    if (_mm256_movemask_epi8(in_range) != -1) {
        scalarKernels().idct(src, dst, N, basis);
        return;
    }
    double tb[N * N / 2];
    basisHalf<N>(basis, tb);
    double tt[N * N];  // (T^T Y)^T
    __m256d x[N], y[N];

    for (int c0 = 0; c0 < N; c0 += 4) {
        for (int k = 0; k < N; ++k) {
            x[k] = _mm256_cvtepi32_pd(_mm_loadu_si128(
                reinterpret_cast<const __m128i *>(src + k * N + c0)));
        }
        idctStrip<N, N>(x, y, tb);
        storeTransposed<N>(y, c0, tt);
    }
    const __m256d vmax = _mm256_set1_pd(32767.0);
    const __m256d vmin = _mm256_set1_pd(-32768.0);
    for (int r0 = 0; r0 < N; r0 += 4) {
        for (int k = 0; k < N; ++k) {
            x[k] = _mm256_loadu_pd(tt + k * N + r0);
        }
        idctStrip<N, N>(x, y, tb);
        for (int i = 0; i < N; i += 4) {
            __m256d *q = y + i;
            for (int l = 0; l < 4; ++l) {
                q[l] = _mm256_min_pd(_mm256_max_pd(descale(q[l]), vmin),
                                     vmax);
            }
            transpose4(q[0], q[1], q[2], q[3]);
            for (int l = 0; l < 4; ++l) {
                const __m128i w = _mm256_cvtpd_epi32(q[l]);
                _mm_storel_epi64(
                    reinterpret_cast<__m128i *>(dst + (r0 + l) * N + i),
                    _mm_packs_epi32(w, w));
            }
        }
    }
}

void
fdctAvx2(const int16_t *src, int32_t *dst, int n, const int32_t *basis)
{
    switch (n) {
      case 8: fdctAvx2N<8>(src, dst, basis); break;
      case 16: fdctAvx2N<16>(src, dst, basis); break;
      case 32: fdctAvx2N<32>(src, dst, basis); break;
      default: scalarKernels().fdct(src, dst, n, basis); break;
    }
}

void
idctAvx2(const int32_t *src, int16_t *dst, int n, const int32_t *basis)
{
    switch (n) {
      case 8: idctAvx2N<8>(src, dst, basis); break;
      case 16: idctAvx2N<16>(src, dst, basis); break;
      case 32: idctAvx2N<32>(src, dst, basis); break;
      default: scalarKernels().idct(src, dst, n, basis); break;
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
        return t;
    }();
    return &table;
}

} // namespace detail

} // namespace vepro::codec

#endif // __AVX2__
