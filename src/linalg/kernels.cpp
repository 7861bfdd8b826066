#include "linalg/kernels.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdlib>
#include <cstring>
#include <limits>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "linalg/embed.hpp"
#include "obs/log.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define QAPPROX_X86_KERNELS 1
#include <immintrin.h>
// A function-level target attribute lets one TU carry scalar and AVX2+FMA
// code without per-file -m flags, so the portable (non-native) build still
// ships both variants and picks at runtime.
#define QAPPROX_TGT_AVX2 __attribute__((target("avx2,fma")))
#endif
#if defined(__aarch64__)
#define QAPPROX_NEON_KERNELS 1
#include <arm_neon.h>
#endif

namespace qc::linalg {

void KernelCounts::add(KernelKind kind) {
  switch (kind) {
    case KernelKind::OneQDiag: ++oneq_diag; return;
    case KernelKind::OneQGeneral: ++oneq_general; return;
    case KernelKind::TwoQDiag: ++twoq_diag; return;
    case KernelKind::TwoQPermPhase: ++twoq_perm_phase; return;
    case KernelKind::TwoQGeneral: ++twoq_general; return;
    case KernelKind::ThreeQDiag: ++threeq_diag; return;
    case KernelKind::ThreeQGeneral: ++threeq_general; return;
    case KernelKind::FourQDiag: ++fourq_diag; return;
    case KernelKind::FourQGeneral: ++fourq_general; return;
    case KernelKind::GenericK: ++generic; return;
  }
}

const char* kernel_kind_name(KernelKind kind) {
  switch (kind) {
    case KernelKind::OneQDiag: return "1q_diag";
    case KernelKind::OneQGeneral: return "1q_general";
    case KernelKind::TwoQDiag: return "2q_diag";
    case KernelKind::TwoQPermPhase: return "2q_perm_phase";
    case KernelKind::TwoQGeneral: return "2q_general";
    case KernelKind::ThreeQDiag: return "3q_diag";
    case KernelKind::ThreeQGeneral: return "3q_general";
    case KernelKind::FourQDiag: return "4q_diag";
    case KernelKind::FourQGeneral: return "4q_general";
    case KernelKind::GenericK: return "generic";
  }
  return "unknown";
}

namespace {

bool is_diagonal(const Matrix& op, std::size_t d) {
  for (std::size_t r = 0; r < d; ++r)
    for (std::size_t c = 0; c < d; ++c)
      if (r != c && op(r, c) != cplx{0.0, 0.0}) return false;
  return true;
}

}  // namespace

KernelKind classify_kernel(const Matrix& op) {
  const std::size_t d = op.rows();
  if (d != op.cols()) return KernelKind::GenericK;
  if (d == 2) {
    return (op(0, 1) == cplx{0.0, 0.0} && op(1, 0) == cplx{0.0, 0.0})
               ? KernelKind::OneQDiag
               : KernelKind::OneQGeneral;
  }
  if (d == 8) {
    return is_diagonal(op, 8) ? KernelKind::ThreeQDiag
                              : KernelKind::ThreeQGeneral;
  }
  if (d == 16) {
    return is_diagonal(op, 16) ? KernelKind::FourQDiag
                               : KernelKind::FourQGeneral;
  }
  if (d != 4) return KernelKind::GenericK;
  if (is_diagonal(op, 4)) return KernelKind::TwoQDiag;
  // Permutation-phase: exactly one nonzero per row and per column.
  int col_of_row[4];
  int col_uses[4] = {0, 0, 0, 0};
  for (std::size_t r = 0; r < 4; ++r) {
    int nonzeros = 0;
    for (std::size_t c = 0; c < 4; ++c) {
      if (op(r, c) != cplx{0.0, 0.0}) {
        ++nonzeros;
        col_of_row[r] = static_cast<int>(c);
      }
    }
    if (nonzeros != 1) return KernelKind::TwoQGeneral;
    ++col_uses[col_of_row[r]];
  }
  for (int c = 0; c < 4; ++c)
    if (col_uses[c] != 1) return KernelKind::TwoQGeneral;
  return KernelKind::TwoQPermPhase;
}

bool kernels_compiled_with_fma() {
#ifdef __FMA__
  return true;
#else
  return false;
#endif
}

// ---- runtime SIMD dispatch -------------------------------------------------

const char* simd_isa_name(SimdIsa isa) {
  switch (isa) {
    case SimdIsa::Scalar: return "scalar";
    case SimdIsa::Avx2: return "avx2";
    case SimdIsa::Neon: return "neon";
  }
  return "unknown";
}

bool simd_isa_supported(SimdIsa isa) {
  switch (isa) {
    case SimdIsa::Scalar:
      return true;
    case SimdIsa::Avx2:
#if defined(QAPPROX_X86_KERNELS)
      __builtin_cpu_init();
      return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
      return false;
#endif
    case SimdIsa::Neon:
#if defined(QAPPROX_NEON_KERNELS)
      return true;  // NEON is baseline on aarch64.
#else
      return false;
#endif
  }
  return false;
}

SimdIsa best_supported_simd_isa() {
  if (simd_isa_supported(SimdIsa::Avx2)) return SimdIsa::Avx2;
  if (simd_isa_supported(SimdIsa::Neon)) return SimdIsa::Neon;
  return SimdIsa::Scalar;
}

SimdIsa parse_simd_isa(const std::string& name, bool* ok) {
  if (ok) *ok = true;
  if (name == "scalar") return SimdIsa::Scalar;
  if (name == "avx2") return SimdIsa::Avx2;
  if (name == "neon") return SimdIsa::Neon;
  if (ok) *ok = false;
  return SimdIsa::Scalar;
}

SimdIsa resolve_simd_isa(const char* env_value) {
  if (env_value == nullptr || *env_value == '\0')
    return best_supported_simd_isa();
  bool ok = false;
  const SimdIsa requested = parse_simd_isa(env_value, &ok);
  if (!ok) {
    QC_LOG_WARN("linalg",
                "QAPPROX_SIMD='%s' not recognized "
                "(want scalar|avx2|neon); auto-detecting",
                env_value);
    return best_supported_simd_isa();
  }
  if (!simd_isa_supported(requested)) {
    const SimdIsa fallback = best_supported_simd_isa();
    QC_LOG_WARN("linalg", "QAPPROX_SIMD=%s unsupported on this host; using %s",
                simd_isa_name(requested), simd_isa_name(fallback));
    return fallback;
  }
  return requested;
}

namespace {

// -1 = not yet resolved; otherwise a SimdIsa value. Relaxed is enough:
// resolve_simd_isa is deterministic, so a racing first use installs the same
// value.
std::atomic<int> g_active_isa{-1};

}  // namespace

SimdIsa active_simd_isa() {
  int v = g_active_isa.load(std::memory_order_relaxed);
  if (v < 0) {
    const SimdIsa resolved = resolve_simd_isa(std::getenv("QAPPROX_SIMD"));
    int expected = -1;
    g_active_isa.compare_exchange_strong(expected,
                                         static_cast<int>(resolved),
                                         std::memory_order_relaxed);
    v = g_active_isa.load(std::memory_order_relaxed);
  }
  return static_cast<SimdIsa>(v);
}

SimdIsa force_simd_isa(SimdIsa isa) {
  if (!simd_isa_supported(isa)) isa = best_supported_simd_isa();
  g_active_isa.store(static_cast<int>(isa), std::memory_order_relaxed);
  return isa;
}

bool kernels_bit_exact() {
  return !kernels_compiled_with_fma() && active_simd_isa() == SimdIsa::Scalar;
}

namespace {

void check_span(std::size_t dim, const std::vector<int>& qubits,
                std::size_t op_dim) {
  QC_CHECK_MSG(std::has_single_bit(dim), "span size must be a power of two");
  QC_CHECK(!qubits.empty());
  QC_CHECK_MSG(op_dim == (std::size_t{1} << qubits.size()),
               "operator dimension must be 2^#qubits");
  for (std::size_t i = 0; i < qubits.size(); ++i) {
    QC_CHECK(qubits[i] >= 0);
    QC_CHECK_MSG((std::size_t{1} << qubits[i]) < dim, "qubit index out of range");
    for (std::size_t j = i + 1; j < qubits.size(); ++j)
      QC_CHECK_MSG(qubits[i] != qubits[j], "duplicate qubit index");
  }
}

/// Caller stack storage for a right-hand apply's conjugated entries, left
/// unconstructed like BoundKernel::d.
struct ConjEntries {
  ConjEntries() {}
  union { cplx v[256]; };
};

}  // namespace

KernelPlan plan_kernel(const Matrix& op, const std::vector<int>& qubits,
                       std::size_t dim) {
  check_span(dim, qubits, op.rows());
  QC_CHECK(op.rows() == op.cols());
  KernelPlan plan;
  plan.kind = classify_kernel(op);
  plan.log2_dim = static_cast<std::uint8_t>(std::countr_zero(dim));
  plan.k = static_cast<std::uint8_t>(qubits.size());
  if (plan.kind == KernelKind::GenericK) return plan;  // k > 4: generic path
  QC_CHECK_MSG(plan.k <= 4, "prepared kernels cover k <= 4");
  for (int i = 0; i < plan.k; ++i)
    plan.q[i] = plan.spos[i] = static_cast<std::uint8_t>(qubits[i]);
  std::sort(plan.spos, plan.spos + plan.k);
  if (plan.kind == KernelKind::TwoQPermPhase) {
    int moved = 0;
    bool unit_phases = true;
    for (int r = 0; r < 4; ++r) {
      for (int c = 0; c < 4; ++c) {
        if (op(r, c) != cplx{0.0, 0.0}) {
          plan.perm[r] = static_cast<std::uint8_t>(c);
          if (op(r, c) != cplx{1.0, 0.0}) unit_phases = false;
        }
      }
      if (plan.perm[r] != r) ++moved;
    }
    if (moved == 2 && unit_phases) {
      plan.pure_swap = true;
      for (int r = 0; r < 4; ++r)
        if (plan.perm[r] != r) {
          plan.swap_a = static_cast<std::uint8_t>(r);
          plan.swap_b = plan.perm[r];
          break;
        }
    }
  }
  return plan;
}

namespace {

/// Throws unless `plan` was made for a span of `dim` and an operator of op's
/// shape, so a planned call can neither index past the span nor read past
/// op's entries.
void check_plan(const KernelPlan& plan, std::size_t dim, const Matrix& op) {
  const std::size_t sub = std::size_t{1} << plan.k;
  QC_CHECK_MSG(dim == (std::size_t{1} << plan.log2_dim) && op.rows() == sub &&
                   op.cols() == sub,
               "kernel plan was made for another span or operator shape");
}

/// Binds `plan` (not GenericK) to op's entries: in place, or conjugated into
/// `conj` when it is non-null (the right-hand side u·embed(op†)).
BoundKernel bind(const KernelPlan& plan, const Matrix& op, ConjEntries* conj) {
  BoundKernel p;
  p.kind = plan.kind;
  p.log2_dim = plan.log2_dim;
  p.k = plan.k;
  for (int i = 0; i < p.k; ++i) {
    p.q[i] = plan.q[i];
    p.bit[i] = std::size_t{1} << plan.q[i];
    p.spos[i] = plan.spos[i];
  }
  const std::size_t sub = std::size_t{1} << p.k;
  // The 1q/2q diagonal kinds index by qubit position, not by coset offset.
  if (p.kind != KernelKind::OneQDiag && p.kind != KernelKind::TwoQDiag) {
    p.offs[0] = 0;
    for (int i = 0; i < p.k; ++i) {
      const std::size_t half = std::size_t{1} << i;
      for (std::size_t s = 0; s < half; ++s) p.offs[half + s] = p.offs[s] | p.bit[i];
    }
  }
  if (p.k == 2) {
    p.lo_pos = p.spos[0];
    p.hi_pos = p.spos[1];
  }
  const cplx* src = op.data();
  const auto entry = [src, conj](std::size_t i) {
    return conj != nullptr ? std::conj(src[i]) : src[i];
  };
  switch (p.kind) {
    case KernelKind::OneQDiag:
    case KernelKind::TwoQDiag:
    case KernelKind::ThreeQDiag:
    case KernelKind::FourQDiag:
      for (std::size_t r = 0; r < sub; ++r) p.d[r] = entry(r * sub + r);
      break;
    case KernelKind::TwoQPermPhase:
      for (int r = 0; r < 4; ++r) {
        p.perm[r] = plan.perm[r];
        p.phase[r] = entry(4 * static_cast<std::size_t>(r) + plan.perm[r]);
      }
      p.pure_swap = plan.pure_swap;
      p.swap_a = plan.swap_a;
      p.swap_b = plan.swap_b;
      break;
    default:
      if (conj == nullptr) {
        p.m = src;
      } else {
        for (std::size_t i = 0; i < sub * sub; ++i) conj->v[i] = std::conj(src[i]);
        p.m = conj->v;
      }
  }
  return p;
}

/// Runs body(begin, end) over [0, count), sliced across the thread pool when
/// the span is at least `options.parallel_threshold` amplitudes. Slice
/// boundaries are aligned to multiples of 8 loop indices so the vector
/// kernels see the same absolute vector-block positions threaded as serial —
/// with disjoint slices that makes threaded results bit-identical to serial
/// ones at any fixed ISA.
template <typename Body>
void sliced(std::size_t count, std::size_t span_amps,
            const ApplyOptions& options, const Body& body) {
  if (span_amps < options.parallel_threshold || count < 2) {
    body(std::size_t{0}, count);
    return;
  }
  const std::size_t workers = common::ThreadPool::global().size();
  const std::size_t slices = std::min(count, std::max<std::size_t>(1, workers * 4));
  const std::size_t chunk =
      ((count + slices - 1) / slices + 7) & ~std::size_t{7};
  common::parallel_for(0, slices, [&](std::size_t s) {
    const std::size_t begin = s * chunk;
    if (begin >= count) return;
    body(begin, std::min(count, begin + chunk));
  });
}

/// Reconstructs the g-th coset representative (zeros at both gate-qubit
/// positions) by splitting g at the sorted positions — no skip-branch, each
/// of the 2^(n-2) cosets visited exactly once in ascending address order so
/// the four amplitude streams advance sequentially through memory.
inline std::size_t coset_base(std::size_t g, int lo_pos, int hi_pos) {
  const std::size_t lo_mask = (std::size_t{1} << lo_pos) - 1;
  const std::size_t lo = g & lo_mask;
  const std::size_t mid =
      (g >> lo_pos) & ((std::size_t{1} << (hi_pos - 1 - lo_pos)) - 1);
  const std::size_t hi = g >> (hi_pos - 1);
  return (hi << (hi_pos + 1)) | (mid << (lo_pos + 1)) | lo;
}

/// k-qubit generalization: inserts a zero bit at each sorted position in
/// ascending order. g enumerates the 2^(n-k) cosets in ascending base order.
inline std::size_t coset_base_k(std::size_t g, const int* spos, int k) {
  for (int i = 0; i < k; ++i) {
    const std::size_t mask = (std::size_t{1} << spos[i]) - 1;
    g = ((g & ~mask) << 1) | (g & mask);
  }
  return g;
}

// ---- scalar reference kernels ---------------------------------------------
//
// Each kernel is a plain range function over the kind's natural loop index
// (amplitudes for the 1q/2q diagonal kinds, coset groups otherwise) so ISA
// variants slot into a uniform dispatch table. The scalar bodies accumulate
// in ascending column order, matching apply_gate_inplace term for term.

using RangeFn = void (*)(const BoundKernel&, cplx*, std::size_t, std::size_t);

void s_oneq_diag(const BoundKernel& p, cplx* data, std::size_t b, std::size_t e) {
  const int q = p.q[0];
  const cplx d0 = p.d[0], d1 = p.d[1];
  for (std::size_t i = b; i < e; ++i)
    data[i] *= ((i >> q) & 1U) ? d1 : d0;
}

void s_oneq_general(const BoundKernel& p, cplx* data, std::size_t b,
                    std::size_t e) {
  const std::size_t bit = p.bit[0];
  const std::size_t low = bit - 1;
  const cplx m00 = p.m[0], m01 = p.m[1], m10 = p.m[2], m11 = p.m[3];
  for (std::size_t g = b; g < e; ++g) {
    const std::size_t i0 = ((g & ~low) << 1) | (g & low);
    const std::size_t i1 = i0 | bit;
    const cplx a0 = data[i0];
    const cplx a1 = data[i1];
    data[i0] = m00 * a0 + m01 * a1;
    data[i1] = m10 * a0 + m11 * a1;
  }
}

void s_twoq_diag(const BoundKernel& p, cplx* data, std::size_t b, std::size_t e) {
  const int qa = p.q[0], qb = p.q[1];
  for (std::size_t i = b; i < e; ++i) {
    const std::size_t sub = ((i >> qa) & 1U) | (((i >> qb) & 1U) << 1);
    data[i] *= p.d[sub];
  }
}

void s_twoq_perm(const BoundKernel& p, cplx* data, std::size_t b, std::size_t e) {
  if (p.pure_swap) {
    // CX / SWAP shape: amplitudes move, none are scaled — zero multiplies.
    const std::size_t oa = p.offs[p.swap_a], ob = p.offs[p.swap_b];
    for (std::size_t g = b; g < e; ++g) {
      const std::size_t base = coset_base(g, p.lo_pos, p.hi_pos);
      std::swap(data[base | oa], data[base | ob]);
    }
    return;
  }
  for (std::size_t g = b; g < e; ++g) {
    const std::size_t base = coset_base(g, p.lo_pos, p.hi_pos);
    cplx t[4];
    for (int m = 0; m < 4; ++m) t[m] = data[base | p.offs[m]];
    for (int r = 0; r < 4; ++r)
      data[base | p.offs[r]] = p.phase[r] * t[p.perm[r]];
  }
}

void s_twoq_general(const BoundKernel& p, cplx* data, std::size_t b,
                    std::size_t e) {
  for (std::size_t g = b; g < e; ++g) {
    const std::size_t base = coset_base(g, p.lo_pos, p.hi_pos);
    const cplx t0 = data[base | p.offs[0]];
    const cplx t1 = data[base | p.offs[1]];
    const cplx t2 = data[base | p.offs[2]];
    const cplx t3 = data[base | p.offs[3]];
    for (int r = 0; r < 4; ++r) {
      const cplx* row = p.m + 4 * r;
      data[base | p.offs[r]] =
          row[0] * t0 + row[1] * t1 + row[2] * t2 + row[3] * t3;
    }
  }
}

void s_kq_diag(const BoundKernel& p, cplx* data, std::size_t b, std::size_t e) {
  const std::size_t sub = std::size_t{1} << p.k;
  for (std::size_t g = b; g < e; ++g) {
    const std::size_t base = coset_base_k(g, p.spos, p.k);
    for (std::size_t s = 0; s < sub; ++s) data[base | p.offs[s]] *= p.d[s];
  }
}

void s_kq_general(const BoundKernel& p, cplx* data, std::size_t b,
                  std::size_t e) {
  const std::size_t sub = std::size_t{1} << p.k;
  cplx t[16];
  for (std::size_t g = b; g < e; ++g) {
    const std::size_t base = coset_base_k(g, p.spos, p.k);
    for (std::size_t s = 0; s < sub; ++s) t[s] = data[base | p.offs[s]];
    for (std::size_t r = 0; r < sub; ++r) {
      const cplx* row = p.m + r * sub;
      cplx acc = row[0] * t[0];
      for (std::size_t c = 1; c < sub; ++c) acc += row[c] * t[c];
      data[base | p.offs[r]] = acc;
    }
  }
}

// ---- row primitives (matrix-apply building blocks) -------------------------

void s_row_scale(cplx* row, std::size_t n, cplx s) {
  for (std::size_t j = 0; j < n; ++j) row[j] *= s;
}

void s_row_scale_copy(cplx* dst, const cplx* src, std::size_t n, cplx s) {
  for (std::size_t j = 0; j < n; ++j) dst[j] = s * src[j];
}

/// dst[j] = sum_c mrow[c] * scratch[c * stride + j] — one output row of a
/// cache-blocked coset-group transform. Ascending-c accumulation keeps the
/// scalar variant term-compatible with left_apply_inplace.
void s_row_combine(cplx* dst, const cplx* scratch, std::size_t stride,
                   std::size_t sub, const cplx* mrow, std::size_t n) {
  for (std::size_t j = 0; j < n; ++j) {
    cplx acc = mrow[0] * scratch[j];
    for (std::size_t c = 1; c < sub; ++c)
      acc += mrow[c] * scratch[c * stride + j];
    dst[j] = acc;
  }
}

/// dst[j] += w * src[j] with a real weight: a pure elementwise double AXPY,
/// identical on every ISA (the compiler vectorizes the double loop).
void row_axpy_real(cplx* dst, const cplx* src, std::size_t n, double w) {
  double* d = reinterpret_cast<double*>(dst);
  const double* s = reinterpret_cast<const double*>(src);
  for (std::size_t i = 0; i < 2 * n; ++i) d[i] += w * s[i];
}

#if defined(QAPPROX_X86_KERNELS)

// ---- AVX2+FMA kernels ------------------------------------------------------
//
// One __m256d holds two complex doubles [re0, im0, re1, im1]. Complex
// multiply uses the fmaddsub idiom: even lanes get re*re - im*im, odd lanes
// im*re + re*im. Vector blocks always start at absolute loop indices that
// are multiples of the vector width (runs start on width-aligned boundaries
// and sliced() aligns chunk starts to 8), so threaded and serial runs round
// identically.

QAPPROX_TGT_AVX2 inline __m256d cmul2(__m256d a, __m256d b) {
  const __m256d br = _mm256_movedup_pd(b);
  const __m256d bi = _mm256_permute_pd(b, 0xF);
  return _mm256_fmaddsub_pd(a, br,
                            _mm256_mul_pd(_mm256_permute_pd(a, 0x5), bi));
}

/// a * s with the scalar s pre-broadcast into (sr, si).
QAPPROX_TGT_AVX2 inline __m256d cmul2s(__m256d a, __m256d sr, __m256d si) {
  return _mm256_fmaddsub_pd(a, sr,
                            _mm256_mul_pd(_mm256_permute_pd(a, 0x5), si));
}

QAPPROX_TGT_AVX2 inline __m256d bre2(const cplx* m, std::size_t i) {
  return _mm256_set1_pd(reinterpret_cast<const double*>(m + i)[0]);
}

QAPPROX_TGT_AVX2 inline __m256d bim2(const cplx* m, std::size_t i) {
  return _mm256_set1_pd(reinterpret_cast<const double*>(m + i)[1]);
}

QAPPROX_TGT_AVX2 void a2_oneq_diag(const BoundKernel& p, cplx* data,
                                   std::size_t b, std::size_t e) {
  const int q = p.q[0];
  const std::size_t bit = p.bit[0];
  if (q == 0) {
    // Factors alternate d0, d1 with adjacent amplitudes: elementwise multiply
    // by the packed [d0, d1] vector.
    const __m256d dv = _mm256_setr_pd(p.d[0].real(), p.d[0].imag(),
                                      p.d[1].real(), p.d[1].imag());
    std::size_t i = b;
    for (; i + 2 <= e; i += 2) {
      double* v = reinterpret_cast<double*>(data + i);
      _mm256_storeu_pd(v, cmul2(_mm256_loadu_pd(v), dv));
    }
    for (; i < e; ++i) data[i] *= ((i & 1U) ? p.d[1] : p.d[0]);
    return;
  }
  std::size_t i = b;
  while (i < e) {
    const cplx dd = ((i >> q) & 1U) ? p.d[1] : p.d[0];
    const std::size_t run = std::min(e - i, bit - (i & (bit - 1)));
    const __m256d dr = _mm256_set1_pd(dd.real());
    const __m256d di = _mm256_set1_pd(dd.imag());
    std::size_t j = 0;
    for (; j + 2 <= run; j += 2) {
      double* v = reinterpret_cast<double*>(data + i + j);
      _mm256_storeu_pd(v, cmul2s(_mm256_loadu_pd(v), dr, di));
    }
    for (; j < run; ++j) data[i + j] *= dd;
    i += run;
  }
}

QAPPROX_TGT_AVX2 void a2_oneq_general(const BoundKernel& p, cplx* data,
                                      std::size_t b, std::size_t e) {
  const std::size_t bit = p.bit[0];
  const std::size_t low = bit - 1;
  if (p.q[0] == 0) {
    // Pairs are adjacent in memory: one vector holds (a0, a1); duplicate
    // each amplitude across both lanes and multiply by the matrix columns.
    const __m256d col0 = _mm256_setr_pd(p.m[0].real(), p.m[0].imag(),
                                        p.m[2].real(), p.m[2].imag());
    const __m256d col1 = _mm256_setr_pd(p.m[1].real(), p.m[1].imag(),
                                        p.m[3].real(), p.m[3].imag());
    for (std::size_t g = b; g < e; ++g) {
      double* v = reinterpret_cast<double*>(data + 2 * g);
      const __m256d a = _mm256_loadu_pd(v);
      const __m256d a0 = _mm256_permute2f128_pd(a, a, 0x00);
      const __m256d a1 = _mm256_permute2f128_pd(a, a, 0x11);
      _mm256_storeu_pd(v, _mm256_add_pd(cmul2(a0, col0), cmul2(a1, col1)));
    }
    return;
  }
  const __m256d m00r = bre2(p.m, 0), m00i = bim2(p.m, 0);
  const __m256d m01r = bre2(p.m, 1), m01i = bim2(p.m, 1);
  const __m256d m10r = bre2(p.m, 2), m10i = bim2(p.m, 2);
  const __m256d m11r = bre2(p.m, 3), m11i = bim2(p.m, 3);
  std::size_t g = b;
  while (g < e) {
    const std::size_t i0 = ((g & ~low) << 1) | (g & low);
    const std::size_t run = std::min(e - g, bit - (g & low));
    double* p0 = reinterpret_cast<double*>(data + i0);
    double* p1 = reinterpret_cast<double*>(data + (i0 | bit));
    std::size_t j = 0;
    for (; j + 2 <= run; j += 2) {
      const __m256d a0 = _mm256_loadu_pd(p0 + 2 * j);
      const __m256d a1 = _mm256_loadu_pd(p1 + 2 * j);
      _mm256_storeu_pd(
          p0 + 2 * j,
          _mm256_add_pd(cmul2s(a0, m00r, m00i), cmul2s(a1, m01r, m01i)));
      _mm256_storeu_pd(
          p1 + 2 * j,
          _mm256_add_pd(cmul2s(a0, m10r, m10i), cmul2s(a1, m11r, m11i)));
    }
    for (; j < run; ++j) {
      const cplx a0 = data[i0 + j];
      const cplx a1 = data[(i0 | bit) + j];
      data[i0 + j] = p.m[0] * a0 + p.m[1] * a1;
      data[(i0 | bit) + j] = p.m[2] * a0 + p.m[3] * a1;
    }
    g += run;
  }
}

QAPPROX_TGT_AVX2 void a2_twoq_diag(const BoundKernel& p, cplx* data,
                                   std::size_t b, std::size_t e) {
  if (p.lo_pos == 0) {
    s_twoq_diag(p, data, b, e);
    return;
  }
  const int qa = p.q[0], qb = p.q[1];
  const std::size_t L = std::size_t{1} << p.lo_pos;
  std::size_t i = b;
  while (i < e) {
    const std::size_t sub = ((i >> qa) & 1U) | (((i >> qb) & 1U) << 1);
    const cplx dd = p.d[sub];
    const std::size_t run = std::min(e - i, L - (i & (L - 1)));
    const __m256d dr = _mm256_set1_pd(dd.real());
    const __m256d di = _mm256_set1_pd(dd.imag());
    std::size_t j = 0;
    for (; j + 2 <= run; j += 2) {
      double* v = reinterpret_cast<double*>(data + i + j);
      _mm256_storeu_pd(v, cmul2s(_mm256_loadu_pd(v), dr, di));
    }
    for (; j < run; ++j) data[i + j] *= dd;
    i += run;
  }
}

QAPPROX_TGT_AVX2 void a2_twoq_general(const BoundKernel& p, cplx* data,
                                      std::size_t b, std::size_t e) {
  if (p.lo_pos == 0) {
    s_twoq_general(p, data, b, e);
    return;
  }
  const std::size_t L = std::size_t{1} << p.lo_pos;
  std::size_t g = b;
  while (g < e) {
    const std::size_t base = coset_base(g, p.lo_pos, p.hi_pos);
    const std::size_t run = std::min(e - g, L - (g & (L - 1)));
    double* s[4];
    for (int c = 0; c < 4; ++c)
      s[c] = reinterpret_cast<double*>(data + (base | p.offs[c]));
    std::size_t j = 0;
    for (; j + 2 <= run; j += 2) {
      __m256d t[4];
      for (int c = 0; c < 4; ++c) t[c] = _mm256_loadu_pd(s[c] + 2 * j);
      for (int r = 0; r < 4; ++r) {
        __m256d acc = cmul2s(t[0], bre2(p.m, 4 * r), bim2(p.m, 4 * r));
        for (int c = 1; c < 4; ++c)
          acc = _mm256_add_pd(
              acc, cmul2s(t[c], bre2(p.m, 4 * r + c), bim2(p.m, 4 * r + c)));
        _mm256_storeu_pd(s[r] + 2 * j, acc);
      }
    }
    for (; j < run; ++j) {
      const std::size_t bj = base + j;
      const cplx t0 = data[bj | p.offs[0]];
      const cplx t1 = data[bj | p.offs[1]];
      const cplx t2 = data[bj | p.offs[2]];
      const cplx t3 = data[bj | p.offs[3]];
      for (int r = 0; r < 4; ++r) {
        const cplx* row = p.m + 4 * r;
        data[bj | p.offs[r]] =
            row[0] * t0 + row[1] * t1 + row[2] * t2 + row[3] * t3;
      }
    }
    g += run;
  }
}

QAPPROX_TGT_AVX2 void a2_kq_general(const BoundKernel& p, cplx* data,
                                    std::size_t b, std::size_t e) {
  // Per coset: gather the 2^k amplitudes, then one row-major mat-vec with
  // two-lane complex FMAs and a horizontal lane add per output row.
  const std::size_t sub = std::size_t{1} << p.k;
  alignas(32) cplx t[16];
  for (std::size_t g = b; g < e; ++g) {
    const std::size_t base = coset_base_k(g, p.spos, p.k);
    for (std::size_t s = 0; s < sub; ++s) t[s] = data[base | p.offs[s]];
    for (std::size_t r = 0; r < sub; ++r) {
      const double* row = reinterpret_cast<const double*>(p.m + r * sub);
      __m256d acc = cmul2(_mm256_load_pd(reinterpret_cast<double*>(t)),
                          _mm256_loadu_pd(row));
      for (std::size_t c = 2; c < sub; c += 2)
        acc = _mm256_add_pd(
            acc, cmul2(_mm256_load_pd(reinterpret_cast<double*>(t + c)),
                       _mm256_loadu_pd(row + 2 * c)));
      const __m128d sum = _mm_add_pd(_mm256_castpd256_pd128(acc),
                                     _mm256_extractf128_pd(acc, 1));
      double out[2];
      _mm_storeu_pd(out, sum);
      data[base | p.offs[r]] = cplx{out[0], out[1]};
    }
  }
}

QAPPROX_TGT_AVX2 void a2_row_scale(cplx* row, std::size_t n, cplx s) {
  const __m256d sr = _mm256_set1_pd(s.real());
  const __m256d si = _mm256_set1_pd(s.imag());
  std::size_t j = 0;
  for (; j + 2 <= n; j += 2) {
    double* v = reinterpret_cast<double*>(row + j);
    _mm256_storeu_pd(v, cmul2s(_mm256_loadu_pd(v), sr, si));
  }
  for (; j < n; ++j) row[j] *= s;
}

QAPPROX_TGT_AVX2 void a2_row_scale_copy(cplx* dst, const cplx* src,
                                        std::size_t n, cplx s) {
  const __m256d sr = _mm256_set1_pd(s.real());
  const __m256d si = _mm256_set1_pd(s.imag());
  std::size_t j = 0;
  for (; j + 2 <= n; j += 2) {
    _mm256_storeu_pd(
        reinterpret_cast<double*>(dst + j),
        cmul2s(_mm256_loadu_pd(reinterpret_cast<const double*>(src + j)), sr,
               si));
  }
  for (; j < n; ++j) dst[j] = s * src[j];
}

QAPPROX_TGT_AVX2 void a2_row_combine(cplx* dst, const cplx* scratch,
                                     std::size_t stride, std::size_t sub,
                                     const cplx* mrow, std::size_t n) {
  std::size_t j = 0;
  for (; j + 2 <= n; j += 2) {
    __m256d acc = cmul2s(
        _mm256_loadu_pd(reinterpret_cast<const double*>(scratch + j)),
        bre2(mrow, 0), bim2(mrow, 0));
    for (std::size_t c = 1; c < sub; ++c)
      acc = _mm256_add_pd(
          acc, cmul2s(_mm256_loadu_pd(reinterpret_cast<const double*>(
                          scratch + c * stride + j)),
                      bre2(mrow, c), bim2(mrow, c)));
    _mm256_storeu_pd(reinterpret_cast<double*>(dst + j), acc);
  }
  for (; j < n; ++j) {
    cplx acc = mrow[0] * scratch[j];
    for (std::size_t c = 1; c < sub; ++c)
      acc += mrow[c] * scratch[c * stride + j];
    dst[j] = acc;
  }
}

#endif  // QAPPROX_X86_KERNELS

#if defined(QAPPROX_NEON_KERNELS)

// ---- NEON kernels ----------------------------------------------------------
//
// One float64x2_t holds a single complex double, so NEON mainly saves the
// shuffle/mul bookkeeping of the scalar complex operator<*>; the dense 1q/2q
// kernels below cover the trajectory hot path.

inline float64x2_t ncmul(float64x2_t a, float64x2_t b) {
  const float64x2_t sgn = {-1.0, 1.0};
  const float64x2_t br = vdupq_laneq_f64(b, 0);
  const float64x2_t bi = vdupq_laneq_f64(b, 1);
  const float64x2_t t = vmulq_f64(vextq_f64(a, a, 1), bi);
  return vfmaq_f64(vmulq_f64(t, sgn), a, br);
}

void n_oneq_diag(const BoundKernel& p, cplx* data, std::size_t b, std::size_t e) {
  const int q = p.q[0];
  const float64x2_t d0 =
      vld1q_f64(reinterpret_cast<const double*>(&p.d[0]));
  const float64x2_t d1 =
      vld1q_f64(reinterpret_cast<const double*>(&p.d[1]));
  for (std::size_t i = b; i < e; ++i) {
    double* v = reinterpret_cast<double*>(data + i);
    vst1q_f64(v, ncmul(vld1q_f64(v), ((i >> q) & 1U) ? d1 : d0));
  }
}

void n_oneq_general(const BoundKernel& p, cplx* data, std::size_t b,
                    std::size_t e) {
  const std::size_t bit = p.bit[0];
  const std::size_t low = bit - 1;
  const double* m = reinterpret_cast<const double*>(p.m);
  const float64x2_t m00 = vld1q_f64(m + 0), m01 = vld1q_f64(m + 2);
  const float64x2_t m10 = vld1q_f64(m + 4), m11 = vld1q_f64(m + 6);
  for (std::size_t g = b; g < e; ++g) {
    const std::size_t i0 = ((g & ~low) << 1) | (g & low);
    const std::size_t i1 = i0 | bit;
    double* v0 = reinterpret_cast<double*>(data + i0);
    double* v1 = reinterpret_cast<double*>(data + i1);
    const float64x2_t a0 = vld1q_f64(v0);
    const float64x2_t a1 = vld1q_f64(v1);
    vst1q_f64(v0, vaddq_f64(ncmul(a0, m00), ncmul(a1, m01)));
    vst1q_f64(v1, vaddq_f64(ncmul(a0, m10), ncmul(a1, m11)));
  }
}

void n_twoq_general(const BoundKernel& p, cplx* data, std::size_t b,
                    std::size_t e) {
  const double* m = reinterpret_cast<const double*>(p.m);
  for (std::size_t g = b; g < e; ++g) {
    const std::size_t base = coset_base(g, p.lo_pos, p.hi_pos);
    float64x2_t t[4];
    for (int c = 0; c < 4; ++c)
      t[c] = vld1q_f64(reinterpret_cast<double*>(data + (base | p.offs[c])));
    for (int r = 0; r < 4; ++r) {
      float64x2_t acc = ncmul(t[0], vld1q_f64(m + 8 * r));
      for (int c = 1; c < 4; ++c)
        acc = vaddq_f64(acc, ncmul(t[c], vld1q_f64(m + 8 * r + 2 * c)));
      vst1q_f64(reinterpret_cast<double*>(data + (base | p.offs[r])), acc);
    }
  }
}

#endif  // QAPPROX_NEON_KERNELS

// ---- dispatch tables -------------------------------------------------------

constexpr int kNumKinds = 10;

struct KernelTable {
  RangeFn fn[kNumKinds];
};

struct RowOps {
  void (*scale)(cplx*, std::size_t, cplx);
  void (*scale_copy)(cplx*, const cplx*, std::size_t, cplx);
  void (*combine)(cplx*, const cplx*, std::size_t, std::size_t, const cplx*,
                  std::size_t);
};

// Entry order mirrors KernelKind; GenericK never reaches a table.
constexpr KernelTable kScalarTable = {{s_oneq_diag, s_oneq_general,
                                       s_twoq_diag, s_twoq_perm,
                                       s_twoq_general, s_kq_diag,
                                       s_kq_general, s_kq_diag, s_kq_general,
                                       nullptr}};
constexpr RowOps kScalarRowOps = {s_row_scale, s_row_scale_copy,
                                  s_row_combine};

#if defined(QAPPROX_X86_KERNELS)
constexpr KernelTable kAvx2Table = {{a2_oneq_diag, a2_oneq_general,
                                     a2_twoq_diag, s_twoq_perm,
                                     a2_twoq_general, s_kq_diag,
                                     a2_kq_general, s_kq_diag, a2_kq_general,
                                     nullptr}};
constexpr RowOps kAvx2RowOps = {a2_row_scale, a2_row_scale_copy,
                                a2_row_combine};
#endif
#if defined(QAPPROX_NEON_KERNELS)
constexpr KernelTable kNeonTable = {{n_oneq_diag, n_oneq_general, s_twoq_diag,
                                     s_twoq_perm, n_twoq_general, s_kq_diag,
                                     s_kq_general, s_kq_diag, s_kq_general,
                                     nullptr}};
#endif

const KernelTable& kernel_table(SimdIsa isa) {
  switch (isa) {
#if defined(QAPPROX_X86_KERNELS)
    case SimdIsa::Avx2: return kAvx2Table;
#endif
#if defined(QAPPROX_NEON_KERNELS)
    case SimdIsa::Neon: return kNeonTable;
#endif
    default: return kScalarTable;
  }
}

const RowOps& row_ops(SimdIsa isa) {
  switch (isa) {
#if defined(QAPPROX_X86_KERNELS)
    case SimdIsa::Avx2: return kAvx2RowOps;
#endif
    default: return kScalarRowOps;
  }
}

/// Loop-index count for a kind on a span of `dim` amplitudes.
std::size_t loop_count(KernelKind kind, std::size_t dim) {
  switch (kind) {
    case KernelKind::OneQDiag:
    case KernelKind::TwoQDiag: return dim;
    case KernelKind::OneQGeneral: return dim >> 1;
    case KernelKind::TwoQPermPhase:
    case KernelKind::TwoQGeneral: return dim >> 2;
    case KernelKind::ThreeQDiag:
    case KernelKind::ThreeQGeneral: return dim >> 3;
    case KernelKind::FourQDiag:
    case KernelKind::FourQGeneral: return dim >> 4;
    case KernelKind::GenericK: break;
  }
  QC_CHECK_MSG(false, "generic kernels have no prepared form");
  return 0;
}

void run_span(const BoundKernel& p, cplx* data, std::size_t dim,
              const ApplyOptions& options) {
  const RangeFn fn = kernel_table(active_simd_isa()).fn[static_cast<int>(p.kind)];
  sliced(loop_count(p.kind, dim), dim, options,
         [fn, &p, data](std::size_t b, std::size_t e) { fn(p, data, b, e); });
}

}  // namespace

void apply_operator(std::vector<cplx>& state, const Matrix& op,
                    const std::vector<int>& qubits,
                    const ApplyOptions& options) {
  apply_operator(state, op, qubits, plan_kernel(op, qubits, state.size()),
                 options);
}

void apply_operator(std::vector<cplx>& state, const Matrix& op,
                    const std::vector<int>& qubits, const KernelPlan& plan,
                    const ApplyOptions& options) {
  apply_bound(state, bind_kernel(plan, op, qubits), options);
}

BoundKernel bind_kernel(const KernelPlan& plan, const Matrix& op,
                        const std::vector<int>& qubits) {
  const std::size_t sub = std::size_t{1} << plan.k;
  QC_CHECK_MSG(op.rows() == sub && op.cols() == sub,
               "kernel plan was made for another operator shape");
  if (plan.kind != KernelKind::GenericK) return bind(plan, op, nullptr);
  BoundKernel bound;
  bound.log2_dim = plan.log2_dim;
  bound.k = plan.k;
  bound.generic_op = &op;
  bound.generic_qubits = &qubits;
  return bound;
}

void apply_bound(std::vector<cplx>& state, const BoundKernel& bound,
                 const ApplyOptions& options) {
  const std::size_t dim = state.size();
  QC_CHECK_MSG(dim == (std::size_t{1} << bound.log2_dim),
               "kernel was bound for another span");
  if (bound.kind == KernelKind::GenericK) {
    apply_gate_inplace(state, *bound.generic_op, *bound.generic_qubits);
    return;
  }
  if (dim < options.parallel_threshold) {
    // The branch sliced() would take, without the slicing lambda: trajectory
    // states are a few amplitudes, so the call overhead is the cost.
    kernel_table(active_simd_isa()).fn[static_cast<int>(bound.kind)](
        bound, state.data(), 0, loop_count(bound.kind, dim));
    return;
  }
  run_span(bound, state.data(), dim, options);
}

double norm_squared(const std::vector<cplx>& state) {
  double s = 0.0;
  for (const cplx& a : state) s += std::norm(a);
  return s;
}

double applied_norm_squared(const std::vector<cplx>& state, const BoundKernel& bound,
                            std::vector<cplx>& scratch, const ApplyOptions& options) {
  scratch.assign(state.begin(), state.end());
  apply_bound(scratch, bound, options);
  return norm_squared(scratch);
}

void apply_cx(std::vector<cplx>& state, int control, int target,
              const ApplyOptions& options) {
  const std::size_t dim = state.size();
  QC_CHECK_MSG(std::has_single_bit(dim), "state size must be a power of two");
  QC_CHECK(control >= 0 && target >= 0 && control != target);
  QC_CHECK((std::size_t{1} << control) < dim && (std::size_t{1} << target) < dim);
  const std::size_t cbit = std::size_t{1} << control;
  const std::size_t tbit = std::size_t{1} << target;
  const int lo_pos = std::min(control, target);
  const int hi_pos = std::max(control, target);
  cplx* data = state.data();
  sliced(dim >> 2, dim, options, [&](std::size_t b, std::size_t e) {
    for (std::size_t g = b; g < e; ++g) {
      const std::size_t base = coset_base(g, lo_pos, hi_pos) | cbit;
      std::swap(data[base], data[base | tbit]);
    }
  });
}

void apply_cz(std::vector<cplx>& state, int a, int b,
              const ApplyOptions& options) {
  const std::size_t dim = state.size();
  QC_CHECK_MSG(std::has_single_bit(dim), "state size must be a power of two");
  QC_CHECK(a >= 0 && b >= 0 && a != b);
  QC_CHECK((std::size_t{1} << a) < dim && (std::size_t{1} << b) < dim);
  const std::size_t both = (std::size_t{1} << a) | (std::size_t{1} << b);
  const int lo_pos = std::min(a, b);
  const int hi_pos = std::max(a, b);
  cplx* data = state.data();
  sliced(dim >> 2, dim, options, [&](std::size_t begin, std::size_t end) {
    for (std::size_t g = begin; g < end; ++g) {
      const std::size_t i = coset_base(g, lo_pos, hi_pos) | both;
      data[i] = -data[i];
    }
  });
}

void apply_diag1(std::vector<cplx>& state, cplx d0, cplx d1, int qubit,
                 const ApplyOptions& options) {
  const std::size_t dim = state.size();
  QC_CHECK_MSG(std::has_single_bit(dim), "state size must be a power of two");
  QC_CHECK(qubit >= 0 && (std::size_t{1} << qubit) < dim);
  BoundKernel p;
  p.kind = KernelKind::OneQDiag;
  p.k = 1;
  p.q[0] = qubit;
  p.bit[0] = std::size_t{1} << qubit;
  p.spos[0] = qubit;
  p.d[0] = d0;
  p.d[1] = d1;
  run_span(p, state.data(), dim, options);
}

void left_apply(Matrix& u, const Matrix& op, const std::vector<int>& qubits,
                const ApplyOptions& options) {
  left_apply(u, op, qubits, plan_kernel(op, qubits, u.rows()), options);
}

void left_apply(Matrix& u, const Matrix& op, const std::vector<int>& qubits,
                const KernelPlan& plan, const ApplyOptions& options) {
  QC_CHECK(u.rows() == u.cols());
  const std::size_t dim = u.rows();
  check_plan(plan, dim, op);
  const KernelKind kind = plan.kind;
  if (kind == KernelKind::GenericK) {
    left_apply_inplace(u, op, qubits);
    return;
  }
  const BoundKernel p = bind(plan, op, nullptr);
  cplx* data = u.data();
  const std::size_t span = dim * dim;
  const RowOps& ops = row_ops(active_simd_isa());
  switch (kind) {
    case KernelKind::OneQDiag:
    case KernelKind::TwoQDiag:
    case KernelKind::ThreeQDiag:
    case KernelKind::FourQDiag: {
      // embed(op) is diagonal: row i of u scales by d[sub(i)], unit-stride.
      sliced(dim, span, options, [&](std::size_t b, std::size_t e) {
        for (std::size_t row = b; row < e; ++row) {
          std::size_t s = 0;
          for (int i = 0; i < p.k; ++i) s |= ((row >> p.q[i]) & 1U) << i;
          ops.scale(data + row * dim, dim, p.d[s]);
        }
      });
      return;
    }
    case KernelKind::TwoQPermPhase: {
      sliced(dim >> 2, span, options, [&](std::size_t b, std::size_t e) {
        std::vector<cplx> scratch(dim);
        for (std::size_t g = b; g < e; ++g) {
          const std::size_t base = coset_base(g, p.lo_pos, p.hi_pos);
          auto row_of = [&](int s) { return data + (base | p.offs[s]) * dim; };
          if (p.pure_swap) {
            cplx* ra = row_of(p.swap_a);
            cplx* rb = row_of(p.swap_b);
            std::swap_ranges(ra, ra + dim, rb);
            continue;
          }
          // Walk each permutation cycle with one scratch row; fixed points
          // just scale in place.
          bool done[4] = {false, false, false, false};
          for (int r = 0; r < 4; ++r) {
            if (done[r]) continue;
            if (p.perm[r] == r) {
              if (p.phase[r] != cplx{1.0, 0.0})
                ops.scale(row_of(r), dim, p.phase[r]);
              done[r] = true;
              continue;
            }
            std::copy_n(row_of(r), dim, scratch.data());
            int cur = r;
            while (p.perm[cur] != r) {
              ops.scale_copy(row_of(cur), row_of(p.perm[cur]), dim,
                             p.phase[cur]);
              done[cur] = true;
              cur = p.perm[cur];
            }
            ops.scale_copy(row_of(cur), scratch.data(), dim, p.phase[cur]);
            done[cur] = true;
          }
        }
      });
      return;
    }
    default: break;
  }
  // Dense case: coset groups outermost, then column tiles. The 2^k row
  // streams of one group advance unit-stride together, and the sub x kTile
  // scratch tile (<=16 KiB) keeps the whole group resident in L1 — this is
  // what un-memory-binds the density-matrix conjugation, which previously
  // walked full strided columns.
  const std::size_t sub = std::size_t{1} << p.k;
  const std::size_t groups = dim >> p.k;
  constexpr std::size_t kTile = 64;
  sliced(groups, span, options, [&](std::size_t b, std::size_t e) {
    alignas(64) cplx scratch[16 * kTile];
    cplx* dst[16];
    for (std::size_t g = b; g < e; ++g) {
      const std::size_t base = coset_base_k(g, p.spos, p.k);
      for (std::size_t s = 0; s < sub; ++s)
        dst[s] = data + (base | p.offs[s]) * dim;
      for (std::size_t c0 = 0; c0 < dim; c0 += kTile) {
        const std::size_t n = std::min(kTile, dim - c0);
        for (std::size_t s = 0; s < sub; ++s)
          std::memcpy(scratch + s * kTile, dst[s] + c0, n * sizeof(cplx));
        for (std::size_t r = 0; r < sub; ++r)
          ops.combine(dst[r] + c0, scratch, kTile, sub, p.m + r * sub, n);
      }
    }
  });
}

void right_apply(Matrix& u, const Matrix& op, const std::vector<int>& qubits,
                 const ApplyOptions& options) {
  // u * embed(op) = u * embed((op†)†): the adjoint's plan and conjugated
  // entries are op^T's, so this is the planned right-hand apply of op†.
  const Matrix adj = op.adjoint();
  right_apply_adjoint(u, adj, qubits, plan_kernel(adj, qubits, u.rows()),
                      options);
}

void right_apply_adjoint(Matrix& u, const Matrix& op,
                         const std::vector<int>& qubits, const KernelPlan& plan,
                         const ApplyOptions& options) {
  QC_CHECK(u.rows() == u.cols());
  const std::size_t dim = u.rows();
  check_plan(plan, dim, op);
  if (plan.kind == KernelKind::GenericK) {
    right_apply_inplace(u, op.adjoint(), qubits);
    return;
  }
  // (u * embed(op†)) transforms each row's sub-vector by (op†)^T = conj(op);
  // rows are contiguous in the row-major layout, so this is the unit-stride
  // kernel.
  ConjEntries conj;
  const BoundKernel p = bind(plan, op, &conj);
  const RangeFn fn = kernel_table(active_simd_isa()).fn[static_cast<int>(p.kind)];
  const std::size_t cnt = loop_count(p.kind, dim);
  cplx* data = u.data();
  sliced(dim, dim * dim, options, [&](std::size_t b, std::size_t e) {
    for (std::size_t row = b; row < e; ++row)
      fn(p, data + row * dim, 0, cnt);
  });
}

void right_apply_accumulate(Matrix& accum, const Matrix& term, const Matrix& op,
                            const std::vector<int>& qubits, double weight,
                            const ApplyOptions& options) {
  const Matrix adj = op.adjoint();
  right_apply_adjoint_accumulate(accum, term, adj, qubits,
                                 plan_kernel(adj, qubits, accum.rows()), weight,
                                 options);
}

void right_apply_adjoint_accumulate(Matrix& accum, const Matrix& term,
                                    const Matrix& op,
                                    const std::vector<int>& qubits,
                                    const KernelPlan& plan, double weight,
                                    const ApplyOptions& options) {
  QC_CHECK(accum.rows() == accum.cols());
  QC_CHECK_MSG(term.rows() == accum.rows() && term.cols() == accum.cols(),
               "accum and term must have identical shapes");
  const std::size_t dim = accum.rows();
  check_plan(plan, dim, op);
  if (plan.kind == KernelKind::GenericK) {
    Matrix tmp = term;
    right_apply_inplace(tmp, op.adjoint(), qubits);
    row_axpy_real(accum.data(), tmp.data(), dim * dim, weight);
    return;
  }
  ConjEntries conj;
  const BoundKernel p = bind(plan, op, &conj);
  const RangeFn fn = kernel_table(active_simd_isa()).fn[static_cast<int>(p.kind)];
  const std::size_t cnt = loop_count(p.kind, dim);
  const cplx* src = term.data();
  cplx* dst = accum.data();
  sliced(dim, dim * dim, options, [&](std::size_t b, std::size_t e) {
    std::vector<cplx> scratch(dim);
    for (std::size_t row = b; row < e; ++row) {
      std::copy_n(src + row * dim, dim, scratch.data());
      fn(p, scratch.data(), 0, cnt);
      row_axpy_real(dst + row * dim, scratch.data(), dim, weight);
    }
  });
}

}  // namespace qc::linalg
