// Portable SIMD packs built on GCC/Clang vector extensions.
//
// The paper's Vlasov kernels are hand-vectorized for A64FX SVE (16 x fp32).
// This port expresses the same kernels over a width-generic Pack<T, N>;
// the compiler lowers operations to the ISA of the function they are
// inlined into.  The sweeps run the width of their tier
// (simd::sweep_lanes): 4-lane packs in the baseline copies, 16-lane packs
// (one zmm register each) in the AVX-512 tier functions
// (simd/dispatch.hpp), which inline every Pack operation they use.  The PP
// kernel's tier bodies do the same (16 source lanes on AVX-512, 4 on the
// baseline) and sum in 4-lane packs (simd::kSweepLanes) on both.  Never
// compile a file that includes this header with a per-file -m flag, since
// the out-of-line copies of these inline functions it may emit could be
// linked into baseline callers.  No build contracts a multiply-add
// (-ffp-contract=off), so fma() below is a multiply then an add, rounded
// twice, on every tier.  Width is a template parameter so tests can
// exercise 4/8/16 uniformly.
//
// Note: inside class templates GCC treats a vector_size-attributed typedef of
// T as colliding with T itself for overload resolution, so construction goes
// through the static factories broadcast()/load() instead of constructors.
#pragma once

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <type_traits>

namespace v6d::simd {

#if defined(__AVX512F__)
inline constexpr int kNativeFloatWidth = 16;
#elif defined(__AVX__)
inline constexpr int kNativeFloatWidth = 8;
#else
inline constexpr int kNativeFloatWidth = 4;
#endif

template <class T, int N>
struct Pack {
  static_assert(N > 0 && (N & (N - 1)) == 0, "pack width must be 2^k");
  using value_type = T;
  static constexpr int width = N;

  // `using` cannot carry vector_size on a dependent type (GCC rejects it
  // inside class templates); the typedef spelling is required here.
  typedef T Native __attribute__((vector_size(N * sizeof(T))));  // NOLINT(modernize-use-using)
  // Same-width integer vector used as a comparison mask.
  using MaskInt = std::conditional_t<sizeof(T) == 4, std::int32_t, std::int64_t>;
  typedef MaskInt Mask __attribute__((vector_size(N * sizeof(T))));  // NOLINT(modernize-use-using)

  Native v;

  static Pack broadcast(T x) {
    Pack r;
    r.v = Native{} + x;
    return r;
  }
  static Pack zero() { return broadcast(T(0)); }
  static Pack load(const T* p) {
    Pack r;
    std::memcpy(&r.v, p, sizeof(Native));
    return r;
  }
  void store(T* p) const { std::memcpy(p, &v, sizeof(Native)); }

  T operator[](int lane) const { return v[lane]; }
  void set(int lane, T x) { v[lane] = x; }

  Pack& operator+=(Pack b) {
    v += b.v;
    return *this;
  }
  Pack& operator-=(Pack b) {
    v -= b.v;
    return *this;
  }
  Pack& operator*=(Pack b) {
    v *= b.v;
    return *this;
  }
};

template <class T, int N>
inline Pack<T, N> make_pack(typename Pack<T, N>::Native v) {
  Pack<T, N> r;
  r.v = v;
  return r;
}

template <class T, int N>
inline Pack<T, N> operator+(Pack<T, N> a, Pack<T, N> b) {
  return make_pack<T, N>(a.v + b.v);
}
template <class T, int N>
inline Pack<T, N> operator-(Pack<T, N> a, Pack<T, N> b) {
  return make_pack<T, N>(a.v - b.v);
}
template <class T, int N>
inline Pack<T, N> operator*(Pack<T, N> a, Pack<T, N> b) {
  return make_pack<T, N>(a.v * b.v);
}
template <class T, int N>
inline Pack<T, N> operator/(Pack<T, N> a, Pack<T, N> b) {
  return make_pack<T, N>(a.v / b.v);
}
template <class T, int N>
inline Pack<T, N> operator-(Pack<T, N> a) {
  return make_pack<T, N>(-a.v);
}

// Scalar-broadcast convenience overloads.
template <class T, int N>
inline Pack<T, N> operator*(T a, Pack<T, N> b) {
  return make_pack<T, N>(a * b.v);
}
template <class T, int N>
inline Pack<T, N> operator*(Pack<T, N> a, T b) {
  return make_pack<T, N>(a.v * b);
}
template <class T, int N>
inline Pack<T, N> operator+(Pack<T, N> a, T b) {
  return make_pack<T, N>(a.v + b);
}
template <class T, int N>
inline Pack<T, N> operator-(Pack<T, N> a, T b) {
  return make_pack<T, N>(a.v - b);
}

template <class T, int N>
inline typename Pack<T, N>::Mask operator<(Pack<T, N> a, Pack<T, N> b) {
  return a.v < b.v;
}
template <class T, int N>
inline typename Pack<T, N>::Mask operator<=(Pack<T, N> a, Pack<T, N> b) {
  return a.v <= b.v;
}
template <class T, int N>
inline typename Pack<T, N>::Mask operator>(Pack<T, N> a, Pack<T, N> b) {
  return a.v > b.v;
}
template <class T, int N>
inline typename Pack<T, N>::Mask operator>=(Pack<T, N> a, Pack<T, N> b) {
  return a.v >= b.v;
}

/// True when every lane of a comparison mask is set.  Comparison lanes are
/// all ones or all zeros, so the test runs on whole 64-bit words: two
/// scalar moves for a 4-lane SSE mask instead of one extract per lane.
template <class T, int N>
inline bool all(typename Pack<T, N>::Mask m) {
  static_assert(sizeof(m) % sizeof(std::uint64_t) == 0,
                "mask must span whole 64-bit words");
  std::uint64_t words[sizeof(m) / sizeof(std::uint64_t)];
  std::memcpy(words, &m, sizeof(m));
  std::uint64_t set = ~std::uint64_t{0};
  for (const std::uint64_t w : words) set &= w;
  return set == ~std::uint64_t{0};
}

/// Lane-wise blend: mask lane non-zero selects a, else b.
template <class T, int N>
inline Pack<T, N> select(typename Pack<T, N>::Mask m, Pack<T, N> a,
                         Pack<T, N> b) {
  return make_pack<T, N>(m ? a.v : b.v);
}

template <class T, int N>
inline Pack<T, N> min(Pack<T, N> a, Pack<T, N> b) {
  return select<T, N>(a < b, a, b);
}
template <class T, int N>
inline Pack<T, N> max(Pack<T, N> a, Pack<T, N> b) {
  return select<T, N>(a > b, a, b);
}
/// |a| by clearing the sign bit: one AND, bit-identical to std::fabs in
/// every lane (abs(+0) and abs(-0) are both +0).
template <class T, int N>
inline Pack<T, N> abs(Pack<T, N> a) {
  using P = Pack<T, N>;
  const typename P::Mask magnitude =
      std::bit_cast<typename P::Mask>(a.v) &
      std::numeric_limits<typename P::MaskInt>::max();
  return make_pack<T, N>(std::bit_cast<typename P::Native>(magnitude));
}
/// Multiply-add a*b + c: two roundings, since no build contracts it into
/// an FMA instruction (-ffp-contract=off), so every tier gives equal bits.
template <class T, int N>
inline Pack<T, N> fma(Pack<T, N> a, Pack<T, N> b, Pack<T, N> c) {
  return make_pack<T, N>(a.v * b.v + c.v);
}

/// minmod(a, b): 0 if opposite signs, else the smaller magnitude.
template <class T, int N>
inline Pack<T, N> minmod(Pack<T, N> a, Pack<T, N> b) {
  const Pack<T, N> zero = Pack<T, N>::zero();
  auto opposite = (a * b) <= zero;
  Pack<T, N> m = select<T, N>(abs(a) < abs(b), a, b);
  return select<T, N>(opposite, zero, m);
}

/// 4-argument minmod used by the Suresh-Huynh M4 curvature bound.
template <class T, int N>
inline Pack<T, N> minmod4(Pack<T, N> a, Pack<T, N> b, Pack<T, N> c,
                          Pack<T, N> d) {
  return minmod(minmod(a, b), minmod(c, d));
}

/// median(a, b, c) = a + minmod(b - a, c - a).
template <class T, int N>
inline Pack<T, N> median(Pack<T, N> a, Pack<T, N> b, Pack<T, N> c) {
  return a + minmod(b - a, c - a);
}

/// Element-wise square root.  The fixed-trip loop lowers to vector sqrt
/// only because the build passes -fno-math-errno (CMakeLists.txt); with
/// errno-setting math each lane stays a scalar sqrt with a libm fallback.
template <class T, int N>
inline Pack<T, N> sqrt(Pack<T, N> a) {
  Pack<T, N> r;
  for (int i = 0; i < N; ++i) r.v[i] = std::sqrt(a.v[i]);
  return r;
}

template <class T, int N>
inline T horizontal_sum(Pack<T, N> a) {
  T s = T(0);
  for (int i = 0; i < N; ++i) s += a.v[i];
  return s;
}

}  // namespace v6d::simd
