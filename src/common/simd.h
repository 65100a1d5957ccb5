#ifndef FLOWCUBE_COMMON_SIMD_H_
#define FLOWCUBE_COMMON_SIMD_H_

// The one audited home of raw SIMD intrinsics (fc_lint rule
// `raw-intrinsics` rejects them anywhere else): the integer kernels of the
// tidlist counting engine (mining/counting_backend.cc) — sorted-set
// intersection and bitmap AND+popcount. Every level produces bit-identical
// results, so dispatch never perturbs supports or cube bytes.
//
// Levels:
//   kScalar  portable C++; the reference implementation of every kernel.
//   kSse2    x86-64 baseline (always available there).
//   kAvx2    selected at *runtime* via cpuid; the AVX2 bodies carry
//            __attribute__((target("avx2"))) so a default -march build can
//            still ship them.
//
// Selection: ActiveLevel() resolves once per process to the best level the
// CPU supports, or to kScalar at compile time under
// -DFLOWCUBE_FORCE_SCALAR=ON (which also compiles the intrinsics out,
// keeping the portable path warning-clean on its own). Tests pass a Level
// explicitly to reach the others.
//
// Contract shared by all kernels: inputs are uint32 values < 2^31 (item
// ids / transaction ids are catalog- and database-bounded), and sorted
// inputs are strictly increasing (no duplicates).

#include <cstddef>
#include <cstdint>
#include <utility>

#if !defined(FLOWCUBE_FORCE_SCALAR) && (defined(__x86_64__) || defined(_M_X64))
#define FLOWCUBE_X86_KERNELS 1
#include <immintrin.h>
#endif

namespace flowcube::simd {

enum class Level { kScalar, kSse2, kAvx2 };

constexpr const char* LevelName(Level level) {
  switch (level) {
    case Level::kScalar:
      return "scalar";
    case Level::kSse2:
      return "sse2";
    case Level::kAvx2:
      return "avx2";
  }
  return "scalar";
}

// The level every convenience overload dispatches to; resolved once.
inline Level ActiveLevel() {
  static const Level level = [] {
#if defined(FLOWCUBE_X86_KERNELS)
    if (__builtin_cpu_supports("avx2")) return Level::kAvx2;
    return Level::kSse2;
#else
    return Level::kScalar;
#endif
  }();
  return level;
}

// ---------------------------------------------------------------------------
// Kernel: IntersectCountU32 / IntersectU32
//
// Sorted-set intersection over strictly-increasing uint32 arrays — the
// tidlist counting engine's inner loop. The count-only form is the hot
// one (final support evaluation); the materializing form feeds progressive
// multi-way intersections and writes to `out` (room for min(na, nb)).

namespace internal {

// Galloping threshold: when one list is this many times longer, binary
// search beats the linear merge.
constexpr size_t kGallopRatio = 32;

inline const uint32_t* LowerBoundU32(const uint32_t* first,
                                     const uint32_t* last, uint32_t value) {
  size_t len = static_cast<size_t>(last - first);
  while (len > 0) {
    const size_t half = len / 2;
    const uint32_t* mid = first + half;
    if (*mid < value) {
      first = mid + 1;
      len -= half + 1;
    } else {
      len = half;
    }
  }
  return first;
}

}  // namespace internal

inline size_t IntersectCountU32Scalar(const uint32_t* a, size_t na,
                                      const uint32_t* b, size_t nb) {
  if (na > nb) {
    std::swap(a, b);
    std::swap(na, nb);
  }
  if (na == 0) return 0;
  size_t count = 0;
  if (nb / na >= internal::kGallopRatio) {
    const uint32_t* lo = b;
    const uint32_t* const end = b + nb;
    for (size_t i = 0; i < na; ++i) {
      lo = internal::LowerBoundU32(lo, end, a[i]);
      if (lo == end) break;
      if (*lo == a[i]) {
        ++count;
        ++lo;
      }
    }
    return count;
  }
  size_t i = 0;
  size_t j = 0;
  while (i < na && j < nb) {
    if (a[i] < b[j]) {
      ++i;
    } else if (b[j] < a[i]) {
      ++j;
    } else {
      ++count;
      ++i;
      ++j;
    }
  }
  return count;
}

#if defined(FLOWCUBE_X86_KERNELS)

// Block-compare intersection: each 4/8-wide block of `a` is compared
// against every rotation of the current block of `b`; the block whose
// maximum is smaller advances. Inputs are strictly increasing, so each
// element matches at most once and the popcount is exact.

inline size_t IntersectCountU32Sse2(const uint32_t* a, size_t na,
                                    const uint32_t* b, size_t nb) {
  size_t i = 0;
  size_t j = 0;
  size_t count = 0;
  while (i + 4 <= na && j + 4 <= nb) {
    const __m128i va =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + i));
    const __m128i vb =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + j));
    __m128i cmp = _mm_cmpeq_epi32(va, vb);
    cmp = _mm_or_si128(
        cmp, _mm_cmpeq_epi32(va, _mm_shuffle_epi32(vb, 0x39)));  // rot 1
    cmp = _mm_or_si128(
        cmp, _mm_cmpeq_epi32(va, _mm_shuffle_epi32(vb, 0x4e)));  // rot 2
    cmp = _mm_or_si128(
        cmp, _mm_cmpeq_epi32(va, _mm_shuffle_epi32(vb, 0x93)));  // rot 3
    count += static_cast<size_t>(__builtin_popcount(
        static_cast<unsigned>(_mm_movemask_ps(_mm_castsi128_ps(cmp)))));
    const uint32_t amax = a[i + 3];
    const uint32_t bmax = b[j + 3];
    if (amax <= bmax) i += 4;
    if (bmax <= amax) j += 4;
  }
  return count + IntersectCountU32Scalar(a + i, na - i, b + j, nb - j);
}

__attribute__((target("avx2"))) inline size_t IntersectCountU32Avx2(
    const uint32_t* a, size_t na, const uint32_t* b, size_t nb) {
  size_t i = 0;
  size_t j = 0;
  size_t count = 0;
  const __m256i rot1 = _mm256_setr_epi32(1, 2, 3, 4, 5, 6, 7, 0);
  while (i + 8 <= na && j + 8 <= nb) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    __m256i vb = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + j));
    __m256i cmp = _mm256_cmpeq_epi32(va, vb);
    for (int r = 1; r < 8; ++r) {
      vb = _mm256_permutevar8x32_epi32(vb, rot1);
      cmp = _mm256_or_si256(cmp, _mm256_cmpeq_epi32(va, vb));
    }
    count += static_cast<size_t>(__builtin_popcount(
        static_cast<unsigned>(_mm256_movemask_ps(_mm256_castsi256_ps(cmp)))));
    const uint32_t amax = a[i + 7];
    const uint32_t bmax = b[j + 7];
    if (amax <= bmax) i += 8;
    if (bmax <= amax) j += 8;
  }
  return count + IntersectCountU32Scalar(a + i, na - i, b + j, nb - j);
}

#endif  // FLOWCUBE_X86_KERNELS

inline size_t IntersectCountU32(const uint32_t* a, size_t na,
                                const uint32_t* b, size_t nb, Level level) {
#if defined(FLOWCUBE_X86_KERNELS)
  if (level == Level::kAvx2) return IntersectCountU32Avx2(a, na, b, nb);
  if (level == Level::kSse2) return IntersectCountU32Sse2(a, na, b, nb);
#endif
  (void)level;
  return IntersectCountU32Scalar(a, na, b, nb);
}

inline size_t IntersectCountU32(const uint32_t* a, size_t na,
                                const uint32_t* b, size_t nb) {
  return IntersectCountU32(a, na, b, nb, ActiveLevel());
}

// Materializing intersection (scalar with galloping at every level: the
// multi-way chains it feeds shrink geometrically, so the merge is never
// the hot loop). Returns the number written to `out`.
inline size_t IntersectU32(const uint32_t* a, size_t na, const uint32_t* b,
                           size_t nb, uint32_t* out) {
  if (na > nb) {
    std::swap(a, b);
    std::swap(na, nb);
  }
  if (na == 0) return 0;
  size_t written = 0;
  if (nb / na >= internal::kGallopRatio) {
    const uint32_t* lo = b;
    const uint32_t* const end = b + nb;
    for (size_t i = 0; i < na; ++i) {
      lo = internal::LowerBoundU32(lo, end, a[i]);
      if (lo == end) break;
      if (*lo == a[i]) {
        out[written++] = a[i];
        ++lo;
      }
    }
    return written;
  }
  size_t i = 0;
  size_t j = 0;
  while (i < na && j < nb) {
    if (a[i] < b[j]) {
      ++i;
    } else if (b[j] < a[i]) {
      ++j;
    } else {
      out[written++] = a[i];
      ++i;
      ++j;
    }
  }
  return written;
}

// ---------------------------------------------------------------------------
// Kernel: AndPopcountU64 / AndIntoU64
//
// Dense-bitmap intersection for the tidlist counting engine: tidlists of
// frequent items are dense enough (>= ~1% of transactions) that a packed
// bitmap beats sorted-list merging — support(A,B) is one streaming
// AND+popcount over words that live in L2/L3. AndIntoU64 materializes the
// AND for progressive k-way chains (triples and longer).
// ---------------------------------------------------------------------------

inline size_t AndPopcountU64Scalar(const uint64_t* a, const uint64_t* b,
                                   size_t n_words) {
  size_t count = 0;
  for (size_t i = 0; i < n_words; ++i) {
    count += static_cast<size_t>(__builtin_popcountll(a[i] & b[i]));
  }
  return count;
}

inline void AndIntoU64Scalar(const uint64_t* a, const uint64_t* b,
                             size_t n_words, uint64_t* out) {
  for (size_t i = 0; i < n_words; ++i) out[i] = a[i] & b[i];
}

#if defined(FLOWCUBE_X86_KERNELS)

__attribute__((target("avx2"))) inline size_t AndPopcountU64Avx2(
    const uint64_t* a, const uint64_t* b, size_t n_words) {
  size_t count = 0;
  size_t i = 0;
  for (; i + 4 <= n_words; i += 4) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    const __m256i vand = _mm256_and_si256(va, vb);
    // popcnt on the extracted lanes: the loop is bandwidth-bound, so the
    // scalar popcounts overlap the next pair of loads.
    count += static_cast<size_t>(
        __builtin_popcountll(static_cast<uint64_t>(
            _mm256_extract_epi64(vand, 0))) +
        __builtin_popcountll(
            static_cast<uint64_t>(_mm256_extract_epi64(vand, 1))) +
        __builtin_popcountll(
            static_cast<uint64_t>(_mm256_extract_epi64(vand, 2))) +
        __builtin_popcountll(
            static_cast<uint64_t>(_mm256_extract_epi64(vand, 3))));
  }
  return count + AndPopcountU64Scalar(a + i, b + i, n_words - i);
}

__attribute__((target("avx2"))) inline void AndIntoU64Avx2(const uint64_t* a,
                                                           const uint64_t* b,
                                                           size_t n_words,
                                                           uint64_t* out) {
  size_t i = 0;
  for (; i + 4 <= n_words; i += 4) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i),
                        _mm256_and_si256(va, vb));
  }
  AndIntoU64Scalar(a + i, b + i, n_words - i, out + i);
}

__attribute__((target("sse2"))) inline void AndIntoU64Sse2(const uint64_t* a,
                                                           const uint64_t* b,
                                                           size_t n_words,
                                                           uint64_t* out) {
  size_t i = 0;
  for (; i + 2 <= n_words; i += 2) {
    const __m128i va =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + i));
    const __m128i vb =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + i));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i),
                     _mm_and_si128(va, vb));
  }
  AndIntoU64Scalar(a + i, b + i, n_words - i, out + i);
}

#endif  // FLOWCUBE_X86_KERNELS

inline size_t AndPopcountU64(const uint64_t* a, const uint64_t* b,
                             size_t n_words, Level level) {
#if defined(FLOWCUBE_X86_KERNELS)
  if (level == Level::kAvx2) return AndPopcountU64Avx2(a, b, n_words);
#endif
  (void)level;
  return AndPopcountU64Scalar(a, b, n_words);
}

inline size_t AndPopcountU64(const uint64_t* a, const uint64_t* b,
                             size_t n_words) {
  return AndPopcountU64(a, b, n_words, ActiveLevel());
}

inline void AndIntoU64(const uint64_t* a, const uint64_t* b, size_t n_words,
                       uint64_t* out, Level level) {
#if defined(FLOWCUBE_X86_KERNELS)
  if (level == Level::kAvx2) return AndIntoU64Avx2(a, b, n_words, out);
  if (level == Level::kSse2) return AndIntoU64Sse2(a, b, n_words, out);
#endif
  (void)level;
  AndIntoU64Scalar(a, b, n_words, out);
}

inline void AndIntoU64(const uint64_t* a, const uint64_t* b, size_t n_words,
                       uint64_t* out) {
  AndIntoU64(a, b, n_words, out, ActiveLevel());
}

}  // namespace flowcube::simd

#endif  // FLOWCUBE_COMMON_SIMD_H_
