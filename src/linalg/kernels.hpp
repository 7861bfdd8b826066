// Specialized state-vector gate kernels, the SIMD dispatch layer above them,
// and the matrix applies (density matrix, QFactor, circuit unitaries) that
// run the same kernels on a doubled register.
//
// The generic apply_gate_inplace in embed.hpp walks all 2^n basis indices
// with a `base & mask` skip-branch and heap-allocates scatter/scratch
// buffers on every call. Transpiled circuits in this repository are almost
// entirely {CX, U3}, plus diagonal phase branches from noise channels and —
// since k<=4 step fusion — dense 8x8/16x16 blocks accumulated at compile
// time, so the shapes that dominate every trajectory shot and density-matrix
// step are known in advance. The kernels here enumerate only the 2^(n-k)
// cosets directly (branch-free index reconstruction, no allocation) and
// exploit matrix structure:
//
//   OneQDiag      diagonal 2x2 (Z / RZ / P / phase-damping Kraus branches)
//   OneQGeneral   dense 2x2 (U3, amplitude-damping Kraus, ...)
//   TwoQDiag      diagonal 4x4 (CZ, CP, RZZ, ZZ-crosstalk)
//   TwoQPermPhase permutation-phase 4x4 (CX, SWAP, CY): one nonzero per
//                 row/column; the pure-swap case (CX) moves amplitudes with
//                 zero complex multiplies
//   TwoQGeneral   dense 4x4, coset loop ordered so the four amplitude
//                 streams advance sequentially through memory
//   ThreeQDiag /  diagonal 8x8 / 16x16 (fused RZ/CZ/phase chains)
//   FourQDiag
//   ThreeQGeneral dense 8x8 / 16x16 (k=3/4 fused gate blocks): per-coset
//   FourQGeneral  gather -> vectorized mat-vec -> scatter
//   GenericK      anything wider (k > 4) — delegated to the generic path
//
// Applying an operator is split in three. plan_kernel runs every argument
// check and the classification once and returns a KernelPlan: the kind, the
// span it was checked for and the qubit geometry, but no matrix entries.
// bind_kernel binds a plan to the operator's own entries (by pointer; at most
// 16 diagonal entries or 4 phases are gathered) and returns a BoundKernel;
// apply_bound runs it on a state. A planned apply_operator is exactly
// apply_bound(state, bind_kernel(plan, op, qubits)), binding for that call
// only, so a compiled program plans each step and Kraus operator once and
// every density-matrix replay reuses the plan; the trajectory shot tree also
// binds each step unitary and noise operator once and applies the binding
// for every group and branch it takes. A binding lives no longer than its
// operator and is never cached beside it: at 584 bytes it is too large to
// store per operator. The right-hand
// applies u·embed(op†) read conj(op) from op's entries instead of taking a
// stored adjoint: (op†)ᵀ = conj(op) has op's zero pattern and unit entries, so
// op's plan serves both sides. The Matrix-only overloads are plan_kernel plus
// the planned call.
//
// On top of the shape dispatch sits a one-time runtime ISA dispatch between
// the scalar reference and one vector kernel table per supported host:
// explicitly vectorized AVX2+FMA kernels on x86-64, selected by CPUID. Other
// hosts run the scalar table. A single portable binary picks the widest
// supported ISA at startup; QAPPROX_SIMD=scalar|avx2 overrides the choice
// (for sanitizer runs, pinned-ISA CI baselines, and A/B benchmarking), and
// unrecognized or unsupported requests fall back with a warning. The AVX2
// variants reassociate the complex arithmetic (fused multiply-add, lane-wise
// sums), so they agree with the scalar path to ~1e-12 rather than
// bit-for-bit; the scalar path itself accumulates in the same order as the
// generic path (ascending column index) and stays bit-identical to
// apply_gate_inplace. RNG draw order is never affected — the dispatch only
// changes arithmetic inside a kernel application. Every state-vector apply,
// StateVector::apply of a named gate included, reaches the kernels through
// the same three steps: plan_kernel, bind_kernel, apply_bound.
//
// Wide states additionally slice the coset loop across the process thread
// pool (common::parallel_for, OpenMP-free) once the span holds at least
// `ApplyOptions::parallel_threshold` amplitudes; slices write disjoint
// amplitudes, so threaded results are bit-identical to serial ones at any
// fixed ISA.
//
// There is no second kernel family for matrices. A row-major 2^n x 2^n
// matrix u is a vector on 2n qubits, the column index on qubits 0..n-1 and
// the row index on n..2n-1. embed(op) * u is op on the row qubits (op's
// qubits plus n) and u * embed(op†) is conj(op) on the column qubits, so
// left_apply and right_apply_adjoint widen op's n-qubit plan to the doubled
// register and run the state-vector kernels over all dim^2 entries. On the
// row side every qubit sits at n or above, so each vector kernel takes its
// unit-stride path along whole rows.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include "linalg/matrix.hpp"

namespace qc::linalg {

/// Which specialized kernel serves an operator of a given shape.
enum class KernelKind : std::uint8_t {
  OneQDiag,
  OneQGeneral,
  TwoQDiag,
  TwoQPermPhase,
  TwoQGeneral,
  ThreeQDiag,
  ThreeQGeneral,
  FourQDiag,
  FourQGeneral,
  GenericK,
};

inline constexpr std::size_t kNumKernelKinds =
    static_cast<std::size_t>(KernelKind::GenericK) + 1;

/// Stable lowercase label ("1q_diag", "2q_perm_phase", ...) for reports.
const char* kernel_kind_name(KernelKind kind);

/// Per-kernel dispatch tallies, indexed by KernelKind; recorded per
/// CompiledCircuit and surfaced in RunRecord so benchmarks can report which
/// kernels a run actually hit.
struct KernelCounts {
  std::array<std::size_t, kNumKernelKinds> by_kind{};

  void add(KernelKind kind) { ++by_kind[static_cast<std::size_t>(kind)]; }
  std::size_t operator[](KernelKind kind) const {
    return by_kind[static_cast<std::size_t>(kind)];
  }
  std::size_t total() const {
    return std::accumulate(by_kind.begin(), by_kind.end(), std::size_t{0});
  }
  bool operator==(const KernelCounts&) const = default;
};

/// Classifies an operator matrix (dimension 2^k, k <= 4) by the kernel that
/// will apply it. Structure tests are exact (== 0.0 / == 1.0):
/// gate-construction literals classify to their specialized kernels;
/// numerically-dense matrices (fused products, synthesis results) classify
/// general.
KernelKind classify_kernel(const Matrix& op);

/// Everything a kernel needs about an operator except its entries. Small
/// enough to store beside every compiled operator.
struct KernelPlan {
  KernelKind kind = KernelKind::GenericK;
  std::uint8_t log2_dim = 0;     // log2 of the span it was checked for
  std::uint8_t k = 0;            // operator qubits
  std::uint8_t q[4] = {};        // qubit positions in operator order (k <= 4)
  std::uint8_t spos[4] = {};     // the same positions, ascending
  std::uint8_t perm[4] = {};     // TwoQPermPhase: source sub-index per row
  bool pure_swap = false;        // TwoQPermPhase: one transposition, unit phases
  std::uint8_t swap_a = 0;       // the transposed sub-indices
  std::uint8_t swap_b = 0;
};
static_assert(sizeof(KernelPlan) <= 32);

/// Checks `op` on `qubits` against a span of `dim` amplitudes (or a dim x dim
/// matrix) — power-of-two span, square op of dimension 2^k, qubits in range
/// and distinct — and classifies it, once. Throws common::Error on a bad
/// argument. A plan of op also plans conj(op) and op† on the same qubits.
KernelPlan plan_kernel(const Matrix& op, const std::vector<int>& qubits,
                       std::size_t dim);

// ---- runtime SIMD dispatch -------------------------------------------------

/// Instruction sets the kernel layer can dispatch to. Scalar is always
/// available and is the bit-identical reference; AVX2 is compiled in behind a
/// function target on x86-64 and selected at runtime, so one binary runs on
/// any host.
enum class SimdIsa { Scalar = 0, Avx2 };

/// Stable lowercase label ("scalar", "avx2").
const char* simd_isa_name(SimdIsa isa);

/// True when both the binary carries code for `isa` and the running CPU
/// reports support for it. Scalar is always true.
bool simd_isa_supported(SimdIsa isa);

/// Widest ISA supported by this binary on this CPU.
SimdIsa best_supported_simd_isa();

/// Parses a QAPPROX_SIMD value ("scalar" or "avx2", case-sensitive).
/// Sets *ok=false (returning Scalar) on anything else.
SimdIsa parse_simd_isa(const std::string& name, bool* ok);

/// Resolves the ISA the dispatch should use for a given QAPPROX_SIMD value
/// (nullptr / empty -> auto-detect widest). Unknown names and supported-but-
/// unavailable requests log a warning and fall back to auto-detection.
/// Pure function of (env_value, CPU) — exposed so tests can exercise the
/// override logic without mutating the cached active ISA.
SimdIsa resolve_simd_isa(const char* env_value);

/// The ISA every kernel application currently dispatches to. Resolved once
/// from QAPPROX_SIMD + CPUID on first use, then cached (a relaxed atomic
/// read per kernel application).
SimdIsa active_simd_isa();

/// Testing/benchmark hook: overrides the active ISA. Unsupported requests
/// clamp to the widest supported ISA. Returns the ISA actually installed.
SimdIsa force_simd_isa(SimdIsa isa);

/// True when this library was compiled with FMA available (compiler flags
/// that enable FMA for the whole target, such as -march on an FMA machine).
/// FMA contraction may round kernel and generic loops differently even at
/// SimdIsa::Scalar.
bool kernels_compiled_with_fma();

/// True when kernel results are guaranteed bit-identical to the generic
/// apply_gate_inplace path: requires the scalar ISA (vector variants
/// reassociate) and no compile-time FMA contraction. The equivalence tests
/// consult this at runtime to pick exact vs ~1e-12 comparison.
bool kernels_bit_exact();

/// Amplitude-count threshold at which dispatch slices the coset loop across
/// the thread pool. 2^14 amplitudes keeps every <=13-qubit trajectory state
/// serial (per-shot parallelism already covers those) while wide reference
/// states fan out.
inline constexpr std::size_t kKernelParallelThreshold = std::size_t{1} << 14;

struct ApplyOptions {
  /// Spans with at least this many amplitudes run the sliced threaded
  /// variant; smaller spans run serially. Tests pin this low to force the
  /// threaded path on small states.
  std::size_t parallel_threshold = kKernelParallelThreshold;
};

/// Dispatch entry point: state := (op on qubits) * state, choosing a
/// specialized kernel by shape and falling back to the generic path for
/// k > 4. Drop-in replacement for apply_gate_inplace.
void apply_operator(std::vector<cplx>& state, const Matrix& op,
                    const std::vector<int>& qubits,
                    const ApplyOptions& options = {});

/// The same with a plan_kernel(op, qubits, state.size()) plan, reusable
/// across states and calls. Every planned entry point checks the span and
/// op's shape against the plan and throws common::Error on a mismatch.
void apply_operator(std::vector<cplx>& state, const Matrix& op,
                    const std::vector<int>& qubits, const KernelPlan& plan,
                    const ApplyOptions& options = {});

/// A plan bound to one operator's entries (bind_kernel): the plan's geometry
/// widened to the kernels' index types, plus the entries. Dense kernels read
/// `m`, which points at the operator's own row-major entries (or, for a
/// right-hand apply, at a conjugated copy); diagonal entries and permutation
/// phases are gathered. The operator, and for GenericK its qubit list, must
/// outlive the binding. The anonymous unions leave `d` and `phase`
/// unconstructed (std::complex would zero-fill them), so binding writes only
/// what the kind reads. The fields belong to the kernels; callers only bind
/// and apply.
struct BoundKernel {
  BoundKernel() {}
  KernelKind kind = KernelKind::GenericK;
  std::uint8_t log2_dim = 0;     // log2 of the span the plan was checked for
  int k = 1;                     // number of gate qubits (1..4)
  int q[4] = {0, 0, 0, 0};       // qubit positions in operator order
  std::size_t bit[4];            // 1 << q[i]
  int spos[4] = {0, 0, 0, 0};    // the same positions, sorted ascending
  std::size_t offs[16];          // sub-index -> address offset within a coset
  int lo_pos = 0, hi_pos = 0;    // sorted positions for 2q coset enumeration
  const cplx* m = nullptr;       // dense entries, row-major (up to 16x16)
  union { cplx d[16]; };         // diagonal entries (diagonal kinds)
  int perm[4] = {0, 1, 2, 3};    // source sub-index per output row (2q perm)
  union { cplx phase[4]; };      // the permutation's phases (2q perm)
  bool pure_swap = false;        // one transposition, all phases exactly 1
  int swap_a = 0, swap_b = 0;    // the transposed sub-indices
  const Matrix* generic_op = nullptr;                // GenericK: the operator
  const std::vector<int>* generic_qubits = nullptr;  // and its qubits
};

/// Binds a plan_kernel plan of `op` on `qubits` to op's entries. Throws
/// common::Error when op's shape is not the plan's.
BoundKernel bind_kernel(const KernelPlan& plan, const Matrix& op,
                        const std::vector<int>& qubits);

/// state := (bound operator) * state. Throws common::Error when the state is
/// not the span the plan was made for; wide spans thread as apply_operator,
/// narrower ones call the kernel directly.
void apply_bound(std::vector<cplx>& state, const BoundKernel& bound,
                 const ApplyOptions& options = {});

/// Sum of |state[i]|^2 in ascending i with one accumulator. The one squared
/// norm of the state-vector code: StateVector::norm_squared and
/// applied_norm_squared both return it, so their results compare bit for bit.
double norm_squared(const std::vector<cplx>& state);

/// ||(bound operator) * state||^2 without touching `state`: applies the
/// binding to a copy in the caller's `scratch` (resized to the state) and
/// returns norm_squared of it. A trajectory's Born weight ||K_i psi||^2.
double applied_norm_squared(const std::vector<cplx>& state, const BoundKernel& bound,
                            std::vector<cplx>& scratch,
                            const ApplyOptions& options = {});

/// u := embed(op) * u: op on the row qubits of the doubled register, through
/// the state-vector kernels (k > 4: left_apply_inplace). u must be square;
/// the planned overload checks it against the plan's span.
void left_apply(Matrix& u, const Matrix& op, const std::vector<int>& qubits,
                const ApplyOptions& options = {});
void left_apply(Matrix& u, const Matrix& op, const std::vector<int>& qubits,
                const KernelPlan& plan, const ApplyOptions& options = {});

/// u := u * embed(op), as right_apply_adjoint of op†.
void right_apply(Matrix& u, const Matrix& op, const std::vector<int>& qubits,
                 const ApplyOptions& options = {});

/// u := u * embed(op†) with op's own plan: conj(op), read from op's entries,
/// on the column qubits of the doubled register, so no adjoint matrix is
/// built. Bit-identical to right_apply(u, op.adjoint(), qubits).
void right_apply_adjoint(Matrix& u, const Matrix& op,
                         const std::vector<int>& qubits, const KernelPlan& plan,
                         const ApplyOptions& options = {});

}  // namespace qc::linalg
