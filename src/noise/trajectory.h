/**
 * @file trajectory.h
 * Quantum-trajectory noise simulation (paper Section 6.1/6.2, Algorithm 1).
 *
 * Instead of evolving a d^N x d^N density matrix, each trial propagates a
 * single state vector and draws one error term per channel application
 * (the quantum-trajectory / Monte-Carlo-wavefunction method). Per moment:
 *   1. apply the moment's ideal gates; after each gate draw a depolarizing
 *      error on its operands,
 *   2. for every wire, draw an amplitude-damping jump with state-dependent
 *      probability ||K_m |psi>||^2 = lambda_m * population(wire, m), apply
 *      the chosen Kraus operator and renormalise,
 *   3. (optionally) apply a coherent random dephasing kick.
 * The trial's fidelity is |<psi_ideal | psi_actual>|^2; over trials the
 * mean converges to the density-matrix fidelity (validated against the
 * exact density-matrix evolution in tests).
 *
 * Execution: the circuit is compiled ONCE per batch (qdsim/exec/ —
 * specialized kernels plus shared gather/scatter plans), and every
 * depolarizing error unitary the loop can draw is precompiled against the
 * same plans, so each of the thousands of shots replays allocation-free
 * kernel dispatches instead of re-deriving index arithmetic per gate.
 * Every shot runs as a lane of an exec::BatchedStateVector
 * (amplitude-major lanes) through one moment loop: one pass over the
 * compiled circuit advances B trajectories, amortising every plan/offset-
 * table read across the batch. run_noisy_trials runs shot groups of B
 * lanes; run_single_trajectory runs one lane. Each trial keeps its own RNG
 * stream (root.child(t)) and divergent per-lane events (damping jumps,
 * gate-error draws) run on the extracted lane, so results are BITWISE
 * independent of the batch width and thread count.
 */
#ifndef NOISE_TRAJECTORY_H
#define NOISE_TRAJECTORY_H

#include <cstdint>
#include <functional>
#include <memory>

#include "noise/noise_model.h"
#include "qdsim/circuit.h"
#include "qdsim/exec/fusion.h"
#include "qdsim/rng.h"
#include "qdsim/state_vector.h"

namespace qd::noise {

/**
 * Which idle amplitude-damping implementation trials run on.
 * kAuto picks kFused for uniform registers with dim <= 3 and kSequential
 * otherwise; the explicit values exist so tests can cross-validate the two
 * engines on the same workload (they agree in distribution).
 */
enum class DampingEngine {
    kAuto,
    kFused,      ///< joint no-jump operator, one table-scaled pass
    kSequential, ///< exact per-wire loop (paper Algorithm 1)
};

/** Options for a batch of trajectory trials. */
struct TrajectoryOptions {
    int trials = 100;
    /**
     * The whole thread budget of the run; 0 = hardware concurrency. Shot
     * groups run on min(threads, groups) workers, and each worker's kernels
     * open OpenMP teams of at most threads / workers threads, so workers
     * and kernel teams together never exceed the budget.
     */
    int threads = 0;
    std::uint64_t seed = 2019;
    /**
     * Initial states: Haar-random over the qubit subspace (paper protocol:
     * inputs and outputs are qubits) when true; full-space Haar when false.
     */
    bool qubit_subspace_inputs = true;
    /**
     * Lanes per shot group, i.e. trajectories advanced per pass of the
     * batched engine (exec::BatchedStateVector); every group runs there.
     * 0 = sized from the work: about 4–8 MiB of lane state per group, at
     * most 12 lanes, and equal groups so every worker runs the same
     * number of trials (default_lane_count in trajectory.cc). 1 = one lane
     * per group, the shape run_single_trajectory runs. Per-trial results
     * are bitwise identical for every setting and equal to
     * run_single_trajectory on stream root.child(t) (property-tested).
     */
    int batch = 0;
    /** Idle-damping implementation; see DampingEngine. */
    DampingEngine damping_engine = DampingEngine::kAuto;
    /** Record every trial's fidelity in TrajectoryResult::per_trial. */
    bool keep_per_trial = false;
    /**
     * Compile-time operator fusion (see exec/fusion.h). The ideal
     * reference passes always compile fully fused; the noisy loop fuses
     * only between noise boundaries: every op that draws a gate-error
     * channel is a fence (errors attach to pre-fusion op boundaries), and
     * circuits under idle noise (damping/dephasing) keep the per-op
     * moment schedule, where ops are wire-disjoint and nothing merges.
     * Disabling reproduces the pre-fusion engine bitwise.
     */
    exec::FusionOptions fusion = {};
};

/** Aggregated fidelity statistics. */
struct TrajectoryResult {
    Real mean_fidelity = 0;
    Real std_error = 0;  ///< 1-sigma standard error of the mean
    int trials = 0;
    /** Per-trial fidelities, trial order; filled iff
     *  TrajectoryOptions::keep_per_trial. */
    std::vector<Real> per_trial;

    Real two_sigma() const { return 2 * std_error; }
};

/**
 * Everything the trajectory engine derives from (circuit, model, fusion)
 * before the first shot runs: the fully fused ideal reference compilation,
 * the error-fenced noisy compilation, the precompiled gate-error draw
 * tables, the moment schedule, and the fused-damping acceleration
 * classification. Immutable after construction and safe to share across
 * threads — the CompileService caches these across requests so repeated
 * submissions of the same (circuit, model, fusion) skip compilation
 * entirely. Construction does NOT verify; admission is the
 * CompileService's job (or verify::enforce_noisy for direct callers).
 */
class TrajectoryCompilation {
 public:
    TrajectoryCompilation(const Circuit& circuit, const NoiseModel& model,
                          const exec::FusionOptions& fusion = {});
    ~TrajectoryCompilation();
    TrajectoryCompilation(const TrajectoryCompilation&) = delete;
    TrajectoryCompilation& operator=(const TrajectoryCompilation&) = delete;

    const NoiseModel& model() const;
    const WireDims& dims() const;
    /** True when the fused joint no-jump damping operator is defined
     *  (uniform register with dim <= 3); kAuto resolves on this. */
    bool fused_damping_supported() const;

    struct Impl;
    const Impl& impl() const { return *impl_; }

 private:
    std::unique_ptr<Impl> impl_;
};

/**
 * Runs one noisy trajectory of `circuit` from `initial`, comparing against
 * `ideal_out` (the noiseless output for the same input), as a one-lane run
 * of the moment loop run_noisy_trials uses; `rng` advances by the shot's
 * draws. Trial t of run_noisy_trials equals it on stream root.child(t),
 * bitwise, at every batch width.
 * Exposed for tests; most callers use run_noisy_trials.
 *
 * @throws std::invalid_argument if `initial` or `ideal_out` is on another
 *         register than the circuit (checked before any kernel runs), or
 *         if `engine` is kFused but the register is mixed-radix or has
 *         dim > 3 (the fused operator is undefined there).
 */
Real run_single_trajectory(const Circuit& circuit, const NoiseModel& model,
                           const StateVector& initial,
                           const StateVector& ideal_out, Rng& rng,
                           DampingEngine engine = DampingEngine::kAuto);

/** Precompiled variant: runs one trajectory on an existing compilation
 *  (no verification, no recompilation). Same throw contract. */
Real run_single_trajectory(const TrajectoryCompilation& compiled,
                           const StateVector& initial,
                           const StateVector& ideal_out, Rng& rng,
                           DampingEngine engine = DampingEngine::kAuto);

/**
 * Runs `options.trials` independent trajectories with per-trial random
 * initial states, in parallel, and aggregates mean fidelity and its
 * standard error. Trials run `options.batch` lanes at a time through the
 * batched execution engine; per-trial results are reproducible for a
 * fixed seed regardless of thread count AND batch width (lane t always
 * consumes stream root.child(t)).
 *
 * @throws std::invalid_argument if options.trials <= 0, options.batch < 0,
 *         or options.damping_engine is kFused on a register the fused
 *         operator is undefined for (mixed radix or dim > 3).
 *
 * @deprecated For job-stream traffic prefer serve::execute() (serve/run.h),
 *         which routes through the shared CompileService and returns a
 *         uniform RunResult, or the precompiled overload below — this
 *         convenience overload verifies and compiles from scratch on
 *         every call. It remains supported for one-shot callers.
 */
TrajectoryResult run_noisy_trials(const Circuit& circuit,
                                  const NoiseModel& model,
                                  const TrajectoryOptions& options);

/**
 * Precompiled variant: runs trials on an existing compilation without
 * re-verifying or recompiling — the per-request hot path behind the
 * CompileService. `options.fusion` is ignored (the compilation already
 * fixed it); every other option behaves as above, with the same throw
 * contract for trials/batch/damping_engine.
 */
TrajectoryResult run_noisy_trials(const TrajectoryCompilation& compiled,
                                  const TrajectoryOptions& options);

}  // namespace qd::noise

#endif  // NOISE_TRAJECTORY_H
