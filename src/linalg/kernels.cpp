#include "linalg/kernels.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdlib>
#include <cstring>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "linalg/embed.hpp"
#include "obs/log.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define QAPPROX_X86_KERNELS 1
#include <immintrin.h>
// A function-level target attribute lets one TU carry scalar and AVX2+FMA
// code without per-file -m flags, so one portable build ships both variants
// and picks at runtime.
#define QAPPROX_TGT_AVX2 __attribute__((target("avx2,fma")))
#endif

namespace qc::linalg {

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
  }
  return false;
}

SimdIsa best_supported_simd_isa() {
  return simd_isa_supported(SimdIsa::Avx2) ? SimdIsa::Avx2 : SimdIsa::Scalar;
}

SimdIsa parse_simd_isa(const std::string& name, bool* ok) {
  if (ok) *ok = true;
  if (name == "scalar") return SimdIsa::Scalar;
  if (name == "avx2") return SimdIsa::Avx2;
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
                "(want scalar|avx2); auto-detecting",
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
  // Cosets walk in runs of up to 2^lo_pos whose bases are contiguous, so a
  // CX on the row qubits of a matrix swaps whole rows.
  const std::size_t L = std::size_t{1} << p.lo_pos;
  std::size_t g = b;
  while (g < e) {
    const std::size_t base = coset_base(g, p.lo_pos, p.hi_pos);
    const std::size_t run = std::min(e - g, L - (g & (L - 1)));
    if (p.pure_swap) {
      // CX / SWAP shape: amplitudes move, none are scaled — zero multiplies.
      cplx* a = data + (base | p.offs[p.swap_a]);
      std::swap_ranges(a, a + run, data + (base | p.offs[p.swap_b]));
    } else {
      for (std::size_t j = base; j < base + run; ++j) {
        cplx t[4];
        for (int m = 0; m < 4; ++m) t[m] = data[j | p.offs[m]];
        for (int r = 0; r < 4; ++r)
          data[j | p.offs[r]] = p.phase[r] * t[p.perm[r]];
      }
    }
    g += run;
  }
}

/// One complex double as GCC-vector lanes [re im]. Element-wise operators act
/// lane by lane in IEEE double arithmetic, at the baseline ISA on every host.
typedef double Lanes2 __attribute__((vector_size(2 * sizeof(double))));

/// A complex coefficient a in lane form, its imaginary part stored times
/// [-1 +1]: times(x) is a.re·x + (a.im·[-1 +1])·swap(x), so lane 0 is
/// a.re·x.re + (-a.im)·x.im and lane 1 a.re·x.im + a.im·x.re. That is the
/// product a·x as GCC writes out a std::complex<double> product, minus its
/// NaN-recovery branch, (a.re·x.re - a.im·x.im, a.re·x.im + a.im·x.re):
/// negation is exact, x + (-y) is x - y, and IEEE products and sums commute,
/// so for finite inputs each lane rounds exactly as s_twoq_perm's product.
struct LaneCoef {
  explicit LaneCoef(cplx a) : re{a.real(), a.real()}, im{-a.imag(), a.imag()} {}
  Lanes2 times(const Lanes2& x) const {
    return re * x + im * __builtin_shufflevector(x, x, 1, 0);
  }
  Lanes2 re, im;
};

/// A TwoQPermPhase operator on the row and the column indices of a dim x dim
/// matrix: index i belongs to sub-index sub(i) and reads from source(i).
struct PermPhaseGather {
  std::size_t bit0, bit1, keep;  // the two qubits' bits; every other bit
  std::size_t from[4];           // source offset per sub-index: offs[perm[s]]
  bool pure_swap;
  std::size_t sub(std::size_t i) const {
    return ((i & bit0) ? 1U : 0U) | ((i & bit1) ? 2U : 0U);
  }
  std::size_t source(std::size_t i) const { return (i & keep) | from[sub(i)]; }
};

/// Rows [b, e) of acc += w · K rho K† for a permutation-phase K with phases
/// `phase` (one per sub-index), in one gather:
///   acc[r][c] += w · (conj(phase[c]) · (phase[r] · rho[source(r)][source(c)])).
/// These are the operations of copying rho, running s_twoq_perm on the row
/// qubits with K's phases, again on the column qubits with their conjugates,
/// and the real axpy acc += w · term, in their order: the same bits. A pure
/// swap moves values with no product, as s_twoq_perm does. The same loop in
/// std::complex products, whose NaN checks keep GCC from vectorizing it, ran
/// serve_mix about 8% slower (DESIGN §12).
void perm_phase_conjugation_rows(const PermPhaseGather& g, const cplx* phase,
                                 const cplx* rho, cplx* acc, std::size_t dim,
                                 double w, std::size_t b, std::size_t e) {
  const Lanes2 weight = {w, w};
  const auto load = [](const cplx* from) {
    Lanes2 x;
    std::memcpy(&x, reinterpret_cast<const double*>(from), sizeof x);
    return x;
  };
  const auto add = [weight, load](cplx* out, const Lanes2& z) {
    const Lanes2 a = load(out) + weight * z;
    std::memcpy(reinterpret_cast<double*>(out), &a, sizeof a);
  };
  const LaneCoef right[4] = {LaneCoef(std::conj(phase[0])), LaneCoef(std::conj(phase[1])),
                             LaneCoef(std::conj(phase[2])), LaneCoef(std::conj(phase[3]))};
  for (std::size_t r = b; r < e; ++r) {
    const cplx* src = rho + g.source(r) * dim;
    cplx* out = acc + r * dim;
    if (g.pure_swap) {
      for (std::size_t c = 0; c < dim; ++c) add(out + c, load(src + g.source(c)));
      continue;
    }
    const LaneCoef left(phase[g.sub(r)]);
    for (std::size_t c = 0; c < dim; ++c)
      add(out + c, right[g.sub(c)].times(left.times(load(src + g.source(c)))));
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

#if defined(QAPPROX_X86_KERNELS)

// ---- AVX2+FMA kernels ------------------------------------------------------
//
// One __m256d holds two complex doubles [re0, im0, re1, im1]. Complex
// multiply uses the fmaddsub idiom: even lanes get re*re - im*im, odd lanes
// im*re + re*im. Vector blocks always start at absolute loop indices that
// are multiples of the vector width (runs start on width-aligned boundaries
// and apply_span aligns slice starts to 8), so threaded and serial runs round
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

#endif  // QAPPROX_X86_KERNELS

// ---- dispatch tables -------------------------------------------------------

using KernelTable = RangeFn[kNumKernelKinds];

// Entry order mirrors KernelKind; GenericK never reaches a table.
constexpr KernelTable kScalarTable = {s_oneq_diag, s_oneq_general,
                                      s_twoq_diag, s_twoq_perm,
                                      s_twoq_general, s_kq_diag,
                                      s_kq_general, s_kq_diag, s_kq_general,
                                      nullptr};

#if defined(QAPPROX_X86_KERNELS)
constexpr KernelTable kAvx2Table = {a2_oneq_diag, a2_oneq_general,
                                    a2_twoq_diag, s_twoq_perm,
                                    a2_twoq_general, s_kq_diag,
                                    a2_kq_general, s_kq_diag, a2_kq_general,
                                    nullptr};
#endif

const KernelTable& kernel_table(SimdIsa isa) {
  switch (isa) {
#if defined(QAPPROX_X86_KERNELS)
    case SimdIsa::Avx2: return kAvx2Table;
#endif
    default: return kScalarTable;
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

/// Runs fn(begin, end) over disjoint slices of [0, count) on the thread
/// pool, about four per worker, each slice starting at a multiple of `align`.
template <class Fn>
void for_each_slice(std::size_t count, std::size_t align, const Fn& fn) {
  const std::size_t workers = common::ThreadPool::global().size();
  const std::size_t slices = std::min(count, std::max<std::size_t>(1, workers * 4));
  const std::size_t chunk = ((count + slices - 1) / slices + align - 1) / align * align;
  common::parallel_for(0, slices, [&](std::size_t s) {
    const std::size_t begin = s * chunk;
    if (begin >= count) return;
    fn(begin, std::min(count, begin + chunk));
  });
}

/// Runs a bound kernel (not GenericK) over the `span` amplitudes at `data`.
/// Spans of at least `options.parallel_threshold` amplitudes are sliced
/// across the thread pool. Slice boundaries are aligned to multiples of 8
/// loop indices so the vector kernels see the same absolute vector-block
/// positions threaded as serial — with disjoint slices that makes threaded
/// results bit-identical to serial ones at any fixed ISA.
void apply_span(cplx* data, std::size_t span, const BoundKernel& bound,
                const ApplyOptions& options) {
  const RangeFn fn = kernel_table(active_simd_isa())[static_cast<int>(bound.kind)];
  const std::size_t count = loop_count(bound.kind, span);
  if (span < options.parallel_threshold || count < 2) {
    // Trajectory states are a few amplitudes, so the call overhead is the
    // cost: no slicing lambda.
    fn(bound, data, 0, count);
    return;
  }
  for_each_slice(count, 8, [&](std::size_t begin, std::size_t end) {
    fn(bound, data, begin, end);
  });
}

/// The plan of an n-qubit plan's operator on a 2^n x 2^n row-major matrix
/// read as a vector on 2n qubits: column index on qubits 0..n-1, row index
/// on n..2n-1. `shift` is n for the row side (embed(op) * u) and 0 for the
/// column side (u * embed(op†), bound to conj(op)). The n-qubit plan already
/// checked the qubits, so nothing is re-checked.
KernelPlan widen(KernelPlan plan, int shift) {
  plan.log2_dim = static_cast<std::uint8_t>(2 * plan.log2_dim);
  for (int i = 0; i < plan.k; ++i) {
    plan.q[i] = static_cast<std::uint8_t>(plan.q[i] + shift);
    plan.spos[i] = static_cast<std::uint8_t>(plan.spos[i] + shift);
  }
  return plan;
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
  QC_CHECK_MSG(state.size() == (std::size_t{1} << bound.log2_dim),
               "kernel was bound for another span");
  if (bound.kind == KernelKind::GenericK) {
    apply_gate_inplace(state, *bound.generic_op, *bound.generic_qubits);
    return;
  }
  apply_span(state.data(), state.size(), bound, options);
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

void left_apply(Matrix& u, const Matrix& op, const std::vector<int>& qubits,
                const ApplyOptions& options) {
  left_apply(u, op, qubits, plan_kernel(op, qubits, u.rows()), options);
}

void left_apply(Matrix& u, const Matrix& op, const std::vector<int>& qubits,
                const KernelPlan& plan, const ApplyOptions& options) {
  QC_CHECK(u.rows() == u.cols());
  const std::size_t dim = u.rows();
  check_plan(plan, dim, op);
  if (plan.kind == KernelKind::GenericK) {
    left_apply_inplace(u, op, qubits);
    return;
  }
  // embed(op) * u is op on the row qubits of vec(u).
  apply_span(u.data(), dim * dim, bind(widen(plan, plan.log2_dim), op, nullptr),
             options);
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
  // u * embed(op†) transforms each row by (op†)^T = conj(op): conj(op) on
  // the column qubits of vec(u).
  ConjEntries conj;
  apply_span(u.data(), dim * dim, bind(widen(plan, 0), op, &conj), options);
}

void add_perm_phase_conjugation(Matrix& acc, const Matrix& rho, const Matrix& op,
                                const KernelPlan& plan, double weight,
                                const ApplyOptions& options) {
  QC_CHECK_MSG(plan.kind == KernelKind::TwoQPermPhase,
               "the one-pass conjugation serves permutation-phase operators only");
  const std::size_t dim = rho.rows();
  QC_CHECK(rho.cols() == dim && acc.rows() == dim && acc.cols() == dim);
  QC_CHECK_MSG(&acc != &rho, "the channel sum must not alias rho");
  check_plan(plan, dim, op);
  const std::size_t bit0 = std::size_t{1} << plan.q[0];
  const std::size_t bit1 = std::size_t{1} << plan.q[1];
  const std::size_t offs[4] = {0, bit0, bit1, bit0 | bit1};
  PermPhaseGather g{bit0, bit1, ~(bit0 | bit1), {}, plan.pure_swap};
  cplx phase[4];
  for (int s = 0; s < 4; ++s) {
    g.from[s] = offs[plan.perm[s]];
    phase[s] = op(static_cast<std::size_t>(s), plan.perm[s]);
  }
  const cplx* src = rho.data();
  cplx* out = acc.data();
  if (dim * dim < options.parallel_threshold) {
    perm_phase_conjugation_rows(g, phase, src, out, dim, weight, 0, dim);
    return;
  }
  // Row slices: each task writes only its own rows of acc and reads rho.
  for_each_slice(dim, 1, [&](std::size_t begin, std::size_t end) {
    perm_phase_conjugation_rows(g, phase, src, out, dim, weight, begin, end);
  });
}

}  // namespace qc::linalg
