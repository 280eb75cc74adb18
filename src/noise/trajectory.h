/**
 * @file trajectory.h
 * Quantum-trajectory noise simulation (paper Section 6.1/6.2, Algorithm 1).
 *
 * Instead of evolving a d^N x d^N density matrix, each trial propagates a
 * single state vector and samples one Kraus branch per channel application
 * (the quantum-trajectory / Monte-Carlo-wavefunction method). The channels
 * of Algorithm 1, per moment:
 *   1. the moment's ideal gates, each followed by a depolarizing error on
 *      its operands,
 *   2. amplitude damping on every wire over the moment's duration,
 *   3. (optionally) a coherent random dephasing kick.
 * The trial's fidelity is |<psi_ideal | psi>|^2 / ||psi||^2; over trials
 * the mean converges to the density-matrix fidelity (validated against
 * the exact density-matrix evolution in tests).
 *
 * Noise events are rare, so a trial samples them up front and pays for
 * them only where they happen:
 *  - Gate errors are state-independent lotteries: each trial draws all of
 *    them before its first gate and keeps only those that fired.
 *  - Damping on one wire composes in time (AD(t1) o AD(t2) = AD(t1 + t2))
 *    and its no-jump operator K0 is diagonal, so each wire's idle time is
 *    gathered into one K0(wire, tau) step just before the wire's next
 *    gate, plus one at the end. The steps are sampled by waiting time
 *    (Dalibard, Castin & Molmer, PRL 68, 580, 1992): a trial draws a
 *    threshold r ~ U(0, 1), evolves without renormalising, and jumps on
 *    the step where ||psi||^2 falls below r, picking level m of the wire
 *    with weight lambda_m(tau) * population(wire, m); after a jump it
 *    renormalises and draws a new r. The stretches are error_placement.h's
 *    idle_stretches, which the density engine reads too: it applies the
 *    same channel in closed form once per stretch, on every register.
 *  - Dephasing kicks stay per moment. A kick draws one phase per wire and
 *    lane, and one pass scales each lane's amplitudes by the product of
 *    its phases, read from two small per-lane tables (see
 *    exec::BatchedStateVector::apply_product_diag_lanes).
 *
 * Execution: the compilation binds two programs to the circuit's entry
 * in the compile service (exec::CircuitEntry), whose plan cache they
 * share — the fully fused ideal circuit for the reference pass, which is
 * the entry's own fused circuit, shared with every other noise model and
 * engine of the circuit, and the noisy program: the circuit in
 * ASAP-moment order with the K0 steps inserted as single-wire diagonal
 * ops. Without idle noise it is the ideal program; under dephasing it
 * stays per op so the kicks land between moments. Under damping alone it
 * is compiled on the fused ideal's partition, so it makes as many passes
 * as the ideal: each K0 step joins the ideal block that holds the next op
 * on its wire (a trailing one the last block on its wire), and a wire
 * that no op touches gets a one-step block. A K0 step is diagonal on a
 * wire its block already holds, so a block keeps its ideal wires; a
 * permutation block becomes monomial and a controlled one
 * block-monomial, which exec::compile_op routes to their own kernels
 * (exec/kernels.h). The gate-error lotteries
 * keep their unitaries as Gates: a unitary is compiled, against the same
 * plans, only when a lane fires it, since most never fire. Every shot
 * runs as a lane of an exec::BatchedStateVector: one pass of each noisy op
 * advances the whole shot group. A lane leaves the group only for its own
 * events: before an op in which it fires an error, or in which its norm
 * may cross r (a precompiled lower bound on the share of the norm each op
 * keeps says when, from the lane's last measured norm), the lane is
 * copied out as a checkpoint; if it fired, or its norm after the pass is
 * below r, it replays that op source op by source op as one-lane passes
 * of the same kernels (jumping where r is crossed, each error unitary
 * right after its source op) and rejoins. Each trial keeps its
 * own RNG stream (root.child(t)) and every decision reads only the lane's
 * own stream and norms, so results are BITWISE independent of the batch
 * width and thread count.
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

namespace qd::exec {
class CircuitEntry;
class CompiledCircuit;
}  // namespace qd::exec

namespace qd::noise {

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
     * per group, the shape run_single_trajectory runs. A lane leaves its
     * group only to replay the noisy ops its own noise events fall in.
     * Per-trial results are bitwise identical for every setting and equal
     * to run_single_trajectory on stream root.child(t) (property-tested).
     */
    int batch = 0;
    /** Record every trial's fidelity in TrajectoryResult::per_trial. */
    bool keep_per_trial = false;
    /**
     * Compile-time operator fusion (see exec/fusion.h) for both programs:
     * the ideal reference, and the noisy program, which runs on the
     * ideal's partition with the damping steps folded into its blocks and
     * fuses across gate errors alike (no fences: a lane with an event in
     * a fused op replays its source ops one by one). Under dephasing the
     * noisy program stays per op. Disabling compiles both per op.
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
 * before the first shot runs: the fully fused ideal reference compilation
 * (the circuit entry's), the noisy program (with its damping steps, its
 * per-source-op compile for replays and its per-op norm bounds), the
 * gate-error lotteries, and the dephasing kick points. Immutable after
 * construction and safe to share across threads — the CompileService
 * caches these across requests so repeated submissions of the same
 * (circuit, model, fusion) skip compilation entirely. Construction does
 * NOT verify; admission is the CompileService's job.
 */
class TrajectoryCompilation {
 public:
    /** Builds a private circuit entry for (circuit, fusion) and binds to
     *  it as the constructor below does. */
    TrajectoryCompilation(const Circuit& circuit, const NoiseModel& model,
                          const exec::FusionOptions& fusion = {});
    /** Binds the model's programs to `entry`: the ideal reference is the
     *  entry's fused circuit, and every plan comes from its cache. */
    TrajectoryCompilation(std::shared_ptr<const exec::CircuitEntry> entry,
                          const NoiseModel& model);
    ~TrajectoryCompilation();
    TrajectoryCompilation(const TrajectoryCompilation&) = delete;
    TrajectoryCompilation& operator=(const TrajectoryCompilation&) = delete;

    const NoiseModel& model() const;
    const WireDims& dims() const;
    /** The fused ideal reference: the entry's fused circuit. */
    const exec::CompiledCircuit& ideal() const;
    /** The program the noisy loop runs, one batched pass per op. */
    const exec::CompiledCircuit& noisy() const;
    /** The noisy program's source ops: the circuit's ops in ASAP-moment
     *  order with each damping step as a single-wire diagonal op, or the
     *  circuit itself when there is no idle noise. */
    const Circuit& noisy_program() const;
    /** The partition of noisy_program() that noisy() runs, one group per
     *  noisy op (its wires and source ops), e.g. for
     *  verify::audit_partition. */
    std::vector<exec::FusedGroup> noisy_partition() const;

    struct Impl;
    const Impl& impl() const { return *impl_; }

 private:
    std::unique_ptr<Impl> impl_;
};

/**
 * Runs one noisy trajectory of `circuit` from `initial`, comparing against
 * `ideal_out` (the noiseless output for the same input), as a one-lane run
 * of the loop run_noisy_trials uses: the lane presamples its gate errors
 * and damping threshold from `rng`, which then advances by every further
 * draw of the shot (jump levels, new thresholds, dephasing kicks). Trial
 * t of run_noisy_trials equals it on stream root.child(t), bitwise, at
 * every batch width. The compilation comes from the global CompileService,
 * admitted there under QD_VERIFY=strict as run_noisy_trials' is.
 * Exposed for tests; most callers use run_noisy_trials.
 *
 * @throws std::invalid_argument if `initial` or `ideal_out` is on another
 *         register than the circuit (checked before any kernel runs or
 *         any draw is taken).
 * @throws std::runtime_error if a damping jump leaves a zero-norm state.
 */
Real run_single_trajectory(const Circuit& circuit, const NoiseModel& model,
                           const StateVector& initial,
                           const StateVector& ideal_out, Rng& rng);

/** Precompiled variant: runs one trajectory on an existing compilation
 *  (no verification, no recompilation). Same throw contract. */
Real run_single_trajectory(const TrajectoryCompilation& compiled,
                           const StateVector& initial,
                           const StateVector& ideal_out, Rng& rng);

/**
 * Runs `options.trials` independent trajectories with per-trial random
 * initial states, in parallel, and aggregates mean fidelity and its
 * standard error. Trials run `options.batch` lanes at a time through the
 * batched execution engine; per-trial results are reproducible for a
 * fixed seed regardless of thread count AND batch width (lane t always
 * consumes stream root.child(t)).
 *
 * @throws std::invalid_argument if options.trials <= 0 or
 *         options.batch < 0.
 * @throws std::runtime_error if a damping jump leaves a zero-norm state.
 *
 * @deprecated For job-stream traffic prefer serve::execute() (serve/run.h),
 *         which returns a uniform RunResult, or the precompiled overload
 *         below. This convenience overload is served from the global
 *         CompileService's artifact cache, as serve::execute() is, and
 *         remains supported for one-shot callers.
 */
TrajectoryResult run_noisy_trials(const Circuit& circuit,
                                  const NoiseModel& model,
                                  const TrajectoryOptions& options);

/**
 * Precompiled variant: runs trials on an existing compilation without
 * re-verifying or recompiling — the per-request hot path behind the
 * CompileService. `options.fusion` is ignored (the compilation already
 * fixed it); every other option behaves as above, with the same throw
 * contract.
 */
TrajectoryResult run_noisy_trials(const TrajectoryCompilation& compiled,
                                  const TrajectoryOptions& options);

}  // namespace qd::noise

#endif  // NOISE_TRAJECTORY_H
