/**
 * @file density_matrix.h
 * Exact density-matrix evolution: gates on the batched state-vector
 * kernels, noise channels in closed form.
 *
 * The paper (Section 6.2) notes that the quantum-trajectory method
 * converges to full density-matrix simulation over repeated trials. This
 * module provides that reference implementation so tests can quantify the
 * convergence. Storage is d^N x d^N, row-major. A row-major D x D matrix
 * has the layout of a batched state with D lanes, lane c being column c,
 * so one exec::apply_op_batched pass maps rho to K rho. Because rho is
 * Hermitian, K rho K^dagger = K (K rho)^dagger: a conjugation is that
 * pass, an in-place conjugate transpose, and the pass again, O(D^2 * b)
 * per operator instead of the dense-kron O(D^3). Gates, Kraus operators
 * and apply_unitary all run through exec::compile_op, the same
 * CompiledOps, PlanCache and fusion as the state-vector and trajectory
 * engines. The engine's noise channels (depolarizing gate errors,
 * amplitude damping, Gaussian dephasing) have closed forms on each
 * operand block of rho, so each is one O(D^2) pass (CompiledNoise)
 * instead of one conjugation per Kraus operator. General Kraus channels
 * conjugate by every operator (compile_channel / apply_channel). The old
 * dense path survives as apply_*_dense, the reference oracle both routes
 * are property-tested against.
 */
#ifndef NOISE_DENSITY_MATRIX_H
#define NOISE_DENSITY_MATRIX_H

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "noise/kraus.h"
#include "noise/noise_model.h"
#include "qdsim/circuit.h"
#include "qdsim/exec/batched_kernels.h"
#include "qdsim/exec/fusion.h"
#include "qdsim/state_vector.h"

namespace qd::exec {
class CircuitEntry;
}  // namespace qd::exec

namespace qd::noise {

/**
 * A Kraus channel compiled once per (channel, wires, dims): every operator
 * compiled as a Gate to its cheapest kernel, all sharing one ApplyPlan.
 * Immutable after compile_channel; reusable across moments and across
 * DensityMatrix instances over the same register.
 */
struct CompiledChannel {
    std::vector<exec::CompiledOp> kraus;
};

/**
 * Compiles `channel` for application to the given wires of a register.
 * `cache` (optional) shares offset tables with other operators on the
 * same wires.
 */
CompiledChannel compile_channel(const WireDims& dims,
                                const KrausChannel& channel,
                                std::span<const int> wires,
                                exec::PlanCache* cache = nullptr);

/**
 * A noise channel lowered to its closed form on the operand blocks of
 * rho. Row and column index of rho each split into the operand wires'
 * ApplyPlan blocks; the channel maps every b x b block X (one row block
 * against one column block, b the product of the operand dims) on its
 * own, so application is one serial pass over rho:
 *  - kDepolarizing: every generalized Pauli X^j Z^k but the identity with
 *    probability p. The b^2 Paulis form a unitary error basis
 *    (sum_P P X P^dagger = b Tr(X) I), so
 *    X <- (1 - b^2 p) X + b p Tr(X) I.
 *  - kDamping: X[j,k] <- sqrt(1 - l_j) sqrt(1 - l_k) X[j,k], then
 *    X[0,0] += sum_{m>=1} l_m X[m,m] with X[m,m] read before scaling.
 *  - kDephasing: X[j,k] <- exp(-s^2 (j-k)^2 / 2) X[j,k].
 * Immutable after compilation; safe to share across threads.
 */
struct CompiledNoise {
    enum class Kind : std::uint8_t { kDepolarizing, kDamping, kDephasing };
    Kind kind = Kind::kDepolarizing;
    /** Full register dimension D (rho is D x D, row-major). */
    Index dim = 0;
    /** Offset tables over the operand wires (block size plan->block). */
    std::shared_ptr<const exec::ApplyPlan> plan;
    /** kDepolarizing: X <- keep X + mix Tr(X) I. */
    Real keep = 1;
    Real mix = 0;
    /** kDamping, kDephasing: X[j,k] *= f(j, k), tabulated for whole rows
     *  of rho: entry j * D + c is f(j, operand digit of column c), so a
     *  row with operand digit j scales by row_scale[j * D, (j + 1) * D). */
    std::vector<Real> row_scale;
    /** kDamping: decay[m] = l_m, the weight of X[m,m] moved to X[0,0]
     *  (decay[0] = 0). */
    std::vector<Real> decay;
};

/**
 * Symmetric depolarizing on `wires`: each of the b^2 - 1 non-identity
 * generalized Pauli products with probability `p_channel` — on one or two
 * wires, the channel depolarizing1/depolarizing2 build as Kraus sets.
 *
 * @throws std::invalid_argument if p_channel < 0 or the Pauli
 *         probabilities sum past 1 (as MixedUnitaryChannel::to_kraus).
 */
CompiledNoise compile_depolarizing(const WireDims& dims,
                                   std::span<const int> wires,
                                   Real p_channel,
                                   exec::PlanCache* cache = nullptr);

/**
 * Amplitude damping on one wire: lambdas[m-1] is the decay probability of
 * level m to |0>, the channel amplitude_damping builds as a Kraus set.
 *
 * @throws std::invalid_argument on a lambda count other than d - 1 or a
 *         lambda outside [0, 1] (as amplitude_damping).
 */
CompiledNoise compile_damping(const WireDims& dims, int wire,
                              const std::vector<Real>& lambdas,
                              exec::PlanCache* cache = nullptr);

/** Gaussian dephasing on one wire: rho_jk *= exp(-(j-k)^2 sigma^2 / 2),
 *  the exact average over a random phase walk of std `sigma` per level. */
CompiledNoise compile_dephasing(const WireDims& dims, int wire, Real sigma,
                                exec::PlanCache* cache = nullptr);

/** Density matrix over a mixed-radix register. */
class DensityMatrix {
  public:
    /** rho = |psi><psi|. */
    explicit DensityMatrix(const StateVector& psi);

    /** rho = |digits><digits|. */
    DensityMatrix(WireDims dims, const std::vector<int>& digits);

    /** Adopts an existing density matrix.
     *  @throws std::invalid_argument unless rho is dims.size() square and
     *          Hermitian to kTol (conjugation relies on rho = rho^dagger). */
    DensityMatrix(WireDims dims, Matrix rho);

    const WireDims& dims() const { return dims_; }
    const Matrix& rho() const { return rho_; }

    /** Plan cache shared by every operator compiled against this register;
     *  callers precompiling their own operators should pass it to
     *  exec::compile_op, compile_channel or the compile_* noise functions
     *  so tables are built once. */
    exec::PlanCache& plan_cache() { return cache_; }

    /** Caps the OpenMP team of the conjugation passes (0 = the OpenMP
     *  default). Below a 3^6 register they stay serial whatever the cap;
     *  results are bitwise independent of it. */
    void set_threads(int threads);

    /** Applies a unitary on the given wires: rho -> U rho U^dagger
     *  (compiled kernel path; plans cached per wire tuple). */
    void apply_unitary(const Matrix& u, std::span<const int> wires);

    /** Applies a Kraus channel on the given wires:
     *  rho -> sum_i K_i rho K_i^dagger (compiled kernel path). */
    void apply_channel(const KrausChannel& channel,
                       std::span<const int> wires);

    /** Applies a precompiled operator: rho -> K rho K^dagger, as
     *  K (K rho)^dagger — two batched passes with rho's columns as lanes
     *  around an in-place conjugate transpose.
     *  @throws std::invalid_argument if `op` was compiled for another
     *          register size. */
    void apply(const exec::CompiledOp& op);

    /** Applies a precompiled channel: rho -> sum_i K_i rho K_i^dagger. */
    void apply(const CompiledChannel& channel);

    /** Applies a closed-form noise channel: one pass over rho. */
    void apply(const CompiledNoise& noise);

    /**
     * Dense reference oracle for apply_unitary: expands U to the full
     * register and multiplies, O(D^3). Kept (with apply_channel_dense)
     * as the independent implementation the compiled path is
     * property-tested and benchmarked against.
     */
    void apply_unitary_dense(const Matrix& u, std::span<const int> wires);

    /** Dense reference oracle for apply_channel (see above). */
    void apply_channel_dense(const KrausChannel& channel,
                             std::span<const int> wires);

    /** Fidelity against a pure state: <psi| rho |psi>.
     *  @throws std::invalid_argument if psi's dims differ from rho's. */
    Real fidelity(const StateVector& psi) const;

    /** Trace (should stay 1 for trace-preserving evolution). */
    Real trace_real() const;

  private:
    /** m -> K m K^dagger for a Hermitian m over this register (rho_ or a
     *  channel-term copy of it). */
    void conjugate(const exec::CompiledOp& op, Matrix& m);

    /** Expands a k-local operator to the full register (dense; small N). */
    Matrix expand(const Matrix& op, std::span<const int> wires) const;

    WireDims dims_;
    Matrix rho_;
    exec::PlanCache cache_;
    exec::BatchedScratch scratch_;
    Matrix tmp_, acc_;  ///< channel-application scratch (kept allocated)
};

/**
 * Everything the exact engine derives from (circuit, model, fusion)
 * before rho moves: the gates as one exec::CompiledCircuit fused between
 * noise fences (the noiseless reference is one state-vector pass through
 * it), every gate-error, damping and dephasing channel lowered to its
 * closed form (CompiledNoise), all against the circuit entry's shared
 * plan cache (exec::CircuitEntry, so the other models and engines of the
 * circuit reuse the plans), and the flattened step program the evolution
 * replays: each fused gate after the idle stretches its source ops end
 * and before their gate errors, then every wire's trailing stretch
 * (error_placement.h places both, for both engines).
 * Immutable after construction and safe to share across threads — the
 * CompileService caches these across requests so repeated submissions of
 * the same (circuit, model, fusion) skip compilation entirely.
 * Construction does NOT verify; admission is the CompileService's job.
 *
 * @throws std::invalid_argument when a gate-error site's Pauli
 *         probabilities sum past 1, a damping probability leaves [0, 1],
 *         or a moment duration is negative under idle noise
 *         (idle_stretches).
 */
class DensityCompilation {
 public:
    /** Builds a private circuit entry for (circuit, fusion) and binds to
     *  it as the constructor below does. */
    DensityCompilation(const Circuit& circuit, const NoiseModel& model,
                       const exec::FusionOptions& fusion = {});
    /** Builds the step program over `entry`'s circuit and plan cache. */
    DensityCompilation(const exec::CircuitEntry& entry,
                       const NoiseModel& model);
    ~DensityCompilation();
    DensityCompilation(const DensityCompilation&) = delete;
    DensityCompilation& operator=(const DensityCompilation&) = delete;

    const NoiseModel& model() const;
    const WireDims& dims() const;
    /** The gates the step program conjugates by, fused between its noise
     *  fences. */
    const exec::CompiledCircuit& gates() const;

    struct Impl;
    const Impl& impl() const { return *impl_; }

 private:
    std::unique_ptr<Impl> impl_;
};

/**
 * Evolves `initial` through the circuit under the model's noise exactly
 * (the trajectory engine's channel placement — see error_placement.h)
 * and returns the fidelity against the noiseless output. Gates are
 * compiled ONCE against a shared plan cache and conjugate rho at
 * O(D^2 * b) per application. Gate-error depolarizing and each idle
 * stretch's damping and dephasing run in closed form (CompiledNoise), one
 * O(D^2) pass over rho each. Coherent dephasing is modelled as the
 * equivalent Gaussian dephasing channel.
 *
 * `fusion` drives the compile-time fusion stage (exec/fusion.h): gate
 * runs between noise boundaries merge into one conjugation. Channels
 * fence the partition, so each keeps its pre-fusion op boundary: a gate
 * error after its op, an idle stretch before the op that ends it.
 *
 * Compilation routes through exec::CompileService::global(), so repeated
 * calls with the same (circuit, model, fusion) reuse one
 * DensityCompilation.
 *
 * @deprecated For job-stream traffic prefer serve::execute() (serve/run.h),
 *         which builds the step program once per distinct job and
 *         returns a uniform RunResult, or the precompiled overload below —
 *         this convenience overload re-hashes and re-verifies the circuit
 *         on every call. It remains supported for one-shot callers.
 */
Real density_matrix_fidelity(const Circuit& circuit, const NoiseModel& model,
                             const StateVector& initial,
                             const exec::FusionOptions& fusion = {});

/** Precompiled variant: replays an existing compilation's step program
 *  against a fresh rho = |initial><initial| (no verification, no
 *  recompilation) — the per-request hot path behind the CompileService.
 *  `threads` is the thread budget of the passes over rho (0 = hardware
 *  concurrency, as RunRequest::threads); they go parallel only on
 *  registers of 3^6 and up, and the result is bitwise independent of it.
 *  Concurrent calls may share one compilation. */
Real density_matrix_fidelity(const DensityCompilation& compiled,
                             const StateVector& initial, int threads = 0);

}  // namespace qd::noise

#endif  // NOISE_DENSITY_MATRIX_H
