#include "noise/trajectory.h"

#include <cmath>

#include <gtest/gtest.h>

#include "constructions/gen_toffoli.h"
#include "noise/density_matrix.h"
#include "noise/error_placement.h"
#include "noise/models.h"
#include "qdsim/exec/compiled_circuit.h"
#include "qdsim/gate_library.h"
#include "qdsim/obs/counters.h"
#include "qdsim/random_state.h"
#include "qdsim/simulator.h"
#include "qdsim/verify/fusion_audit.h"

namespace qd::noise {
namespace {

NoiseModel
noiseless()
{
    NoiseModel m;
    m.name = "NONE";
    m.dt_1q = 100e-9;
    m.dt_2q = 300e-9;
    return m;
}

Circuit
small_qutrit_circuit()
{
    Circuit c(WireDims::uniform(2, 3));
    c.append(gates::embed(gates::H(), 3), {0});
    c.append(gates::Xplus1().controlled(3, 1), {0, 1});
    c.append(gates::embed(gates::H(), 3), {1});
    c.append(gates::X12(), {0});
    return c;
}

TEST(Trajectory, NoiselessGivesUnitFidelity) {
    const Circuit c = small_qutrit_circuit();
    TrajectoryOptions opts;
    opts.trials = 8;
    const auto res = run_noisy_trials(c, noiseless(), opts);
    EXPECT_NEAR(res.mean_fidelity, 1.0, 1e-9);
    EXPECT_NEAR(res.std_error, 0.0, 1e-9);
    EXPECT_EQ(res.trials, 8);
}

TEST(Trajectory, ThrowsOnNonPositiveTrials) {
    // Regression: trials == 0 used to divide by zero (NaN mean fidelity)
    // and spawn a zero-thread pool; negative counts corrupted the result
    // buffer size. Both must be rejected up front.
    const Circuit c = small_qutrit_circuit();
    TrajectoryOptions opts;
    opts.trials = 0;
    EXPECT_THROW(run_noisy_trials(c, noiseless(), opts),
                 std::invalid_argument);
    opts.trials = -5;
    EXPECT_THROW(run_noisy_trials(c, noiseless(), opts),
                 std::invalid_argument);
}

TEST(Trajectory, ReproducibleForSeed) {
    const Circuit c = small_qutrit_circuit();
    auto model = sc();
    model.p1 *= 100;  // exaggerate noise so fidelities vary
    model.p2 *= 100;
    TrajectoryOptions opts;
    opts.trials = 16;
    opts.seed = 7;
    const auto a = run_noisy_trials(c, model, opts);
    const auto b = run_noisy_trials(c, model, opts);
    EXPECT_EQ(a.mean_fidelity, b.mean_fidelity);
    // Thread count must not change results.
    opts.threads = 1;
    const auto serial = run_noisy_trials(c, model, opts);
    EXPECT_EQ(a.mean_fidelity, serial.mean_fidelity);
}

TEST(Trajectory, MoreNoiseLowersFidelity) {
    const Circuit c = small_qutrit_circuit();
    TrajectoryOptions opts;
    opts.trials = 200;
    auto weak = sc();
    auto strong = sc();
    strong.p1 = weak.p1 * 300;
    strong.p2 = weak.p2 * 300;
    const auto fw = run_noisy_trials(c, weak, opts).mean_fidelity;
    const auto fs = run_noisy_trials(c, strong, opts).mean_fidelity;
    EXPECT_GT(fw, fs);
}

TEST(Trajectory, DampingDrivesExcitedStateDown) {
    // Idling |1> under strong damping for a total duration of exactly T1:
    // mean fidelity = survival probability = exp(-1). Z gates keep the
    // schedule busy without moving a jumped |0> back into the ideal state.
    Circuit c(WireDims::uniform(1, 2));
    for (int i = 0; i < 40; ++i) {
        c.append(gates::Z(), {0});
    }
    NoiseModel m = noiseless();
    m.t1 = 40 * m.dt_1q;  // strong damping
    StateVector one(c.dims(), {1});
    Rng rng(3);
    Real mean = 0;
    const int trials = 600;
    const StateVector ideal = simulate(c, one);
    for (int t = 0; t < trials; ++t) {
        Rng child = rng.child(static_cast<std::uint64_t>(t));
        mean += run_single_trajectory(c, m, one, ideal, child);
    }
    mean /= trials;
    EXPECT_NEAR(mean, std::exp(-1.0), 0.06);
}

TEST(Trajectory, QutritLevel2DampsFasterThanLevel1) {
    // |2> damps with lambda_2 = 1-exp(-2dt/T1) > lambda_1.
    Circuit c(WireDims::uniform(1, 3));
    for (int i = 0; i < 10; ++i) {
        c.append(gates::X01(), {0});
        c.append(gates::X01(), {0});
    }
    NoiseModel m = noiseless();
    m.t1 = 20 * m.dt_1q;
    const StateVector one(c.dims(), {1});
    const StateVector two(c.dims(), {2});
    auto mean_fid = [&](const StateVector& init) {
        Rng rng(17);
        Real mean = 0;
        const StateVector ideal = simulate(c, init);
        for (int t = 0; t < 400; ++t) {
            Rng child = rng.child(static_cast<std::uint64_t>(t));
            mean += run_single_trajectory(c, m, init, ideal, child);
        }
        return mean / 400;
    };
    EXPECT_LT(mean_fid(two), mean_fid(one));
}

TEST(Trajectory, ConvergesToDensityMatrixDepolarizing) {
    // The trajectory mean must converge to the exact density-matrix
    // fidelity (paper Section 6.2). Two-qutrit circuit, gate errors only.
    const Circuit c = small_qutrit_circuit();
    NoiseModel m = noiseless();
    m.p1 = 2e-3;
    m.p2 = 1e-3;
    Rng rng(5);
    const StateVector init = haar_random_state(c.dims(), rng);
    const Real exact = density_matrix_fidelity(c, m, init);
    const StateVector ideal = simulate(c, init);
    Real mean = 0;
    const int trials = 4000;
    for (int t = 0; t < trials; ++t) {
        Rng child = rng.child(static_cast<std::uint64_t>(t));
        mean += run_single_trajectory(c, m, init, ideal, child);
    }
    mean /= trials;
    EXPECT_NEAR(mean, exact, 0.01);
}

TEST(Trajectory, ConvergesToDensityMatrixWithDamping) {
    const Circuit c = small_qutrit_circuit();
    NoiseModel m = noiseless();
    m.p1 = 1e-3;
    m.p2 = 1e-3;
    m.t1 = 300 * m.dt_2q;  // noticeable damping
    Rng rng(6);
    const StateVector init = haar_random_state(c.dims(), rng);
    const Real exact = density_matrix_fidelity(c, m, init);
    const StateVector ideal = simulate(c, init);
    Real mean = 0;
    const int trials = 4000;
    for (int t = 0; t < trials; ++t) {
        Rng child = rng.child(static_cast<std::uint64_t>(t));
        mean += run_single_trajectory(c, m, init, ideal, child);
    }
    mean /= trials;
    EXPECT_NEAR(mean, exact, 0.01);
}

TEST(Trajectory, ConvergesToDensityMatrixWithDephasing) {
    Circuit c(WireDims::uniform(1, 3));
    c.append(gates::H3(), {0});
    c.append(gates::H3().inverse(), {0});
    NoiseModel m = noiseless();
    m.dephasing_sigma = 300.0;  // strong phase noise over ns moments
    m.dt_1q = 1e-6;
    m.dt_2q = 200e-6;
    Rng rng(8);
    const StateVector init = haar_random_state(c.dims(), rng);
    const Real exact = density_matrix_fidelity(c, m, init);
    const StateVector ideal = simulate(c, init);
    Real mean = 0;
    const int trials = 6000;
    for (int t = 0; t < trials; ++t) {
        Rng child = rng.child(static_cast<std::uint64_t>(t));
        mean += run_single_trajectory(c, m, init, ideal, child);
    }
    mean /= trials;
    EXPECT_NEAR(mean, exact, 0.015);
}

TEST(Trajectory, QubitSubspaceInputsStayQubit) {
    // With qubit-subspace inputs the ideal output of a binary-logic
    // circuit has no |2> population (paper: inputs/outputs are qubits).
    Circuit c(WireDims::uniform(3, 3));
    c.append(gates::Xplus1().controlled(3, 1), {0, 1});
    c.append(gates::Xminus1().controlled(3, 1), {0, 1});
    TrajectoryOptions opts;
    opts.trials = 4;
    const auto res = run_noisy_trials(c, noiseless(), opts);
    EXPECT_NEAR(res.mean_fidelity, 1.0, 1e-9);
}

TEST(Trajectory, StdErrorShrinksWithTrials) {
    const Circuit c = small_qutrit_circuit();
    auto model = sc();
    model.p1 *= 200;
    model.p2 *= 200;
    TrajectoryOptions small_opts, large_opts;
    small_opts.trials = 50;
    large_opts.trials = 800;
    const auto s = run_noisy_trials(c, model, small_opts);
    const auto l = run_noisy_trials(c, model, large_opts);
    EXPECT_LT(l.std_error, s.std_error);
}


TEST(Trajectory, MixedRadixDampingSequentialPath) {
    // Mixed-radix registers run the same per-wire damping steps as
    // uniform ones; validate against the density-matrix oracle.
    Circuit c(WireDims({2, 3}));
    c.append(gates::H(), {0});
    c.append(gates::Xplus1().controlled(2, 1), {0, 1});
    c.append(gates::H3(), {1});
    NoiseModel m = noiseless();
    m.p2 = 1e-3;
    m.t1 = 100 * m.dt_2q;
    Rng rng(12);
    const StateVector init = haar_random_state(c.dims(), rng);
    const Real exact = density_matrix_fidelity(c, m, init);
    const StateVector ideal = simulate(c, init);
    Real mean = 0;
    const int trials = 4000;
    for (int t = 0; t < trials; ++t) {
        Rng child = rng.child(static_cast<std::uint64_t>(t));
        mean += run_single_trajectory(c, m, init, ideal, child);
    }
    mean /= trials;
    EXPECT_NEAR(mean, exact, 0.01);
}

/** Uniform wire draw helper for the random-circuit generator. */
std::uint64_t
rng_wire(Rng& rng, int n)
{
    return rng.uniform_int(static_cast<std::uint64_t>(n));
}

/** Noise model hot enough that every divergent branch (gate errors,
 *  damping jumps, dephasing kicks) fires within a few dozen trials. Under
 *  dephasing the noisy program stays per op. */
NoiseModel
hot_noise()
{
    NoiseModel m = noiseless();
    m.p1 = 5e-3;
    m.p2 = 5e-3;
    m.t1 = 5 * m.dt_1q;  // violent damping: jumps are common
    m.dephasing_sigma = 50.0;
    return m;
}

/** The one-lane reference for run_noisy_trials(c, m, opts): trial t is
 *  run_single_trajectory (one lane, no shot group) on stream
 *  root.child(t), from the input state that stream draws first and its
 *  fully fused ideal output. The mean is summed in trial order, as
 *  run_noisy_trials sums it. */
TrajectoryResult
per_shot_reference(const Circuit& c, const NoiseModel& m,
                   const TrajectoryOptions& opts)
{
    const TrajectoryCompilation compiled(c, m, opts.fusion);
    const exec::CompiledCircuit ideal(c, opts.fusion);
    const Rng root(opts.seed);
    TrajectoryResult ref;
    ref.trials = opts.trials;
    Real sum = 0;
    for (int t = 0; t < opts.trials; ++t) {
        Rng rng = root.child(static_cast<std::uint64_t>(t));
        const StateVector initial =
            opts.qubit_subspace_inputs
                ? haar_random_qubit_subspace_state(c.dims(), rng)
                : haar_random_state(c.dims(), rng);
        ref.per_trial.push_back(run_single_trajectory(
            compiled, initial, simulate(ideal, initial), rng));
        sum += ref.per_trial.back();
    }
    ref.mean_fidelity = sum / opts.trials;
    return ref;
}

/** Runs the same trial set at several batch widths / thread counts and
 *  expects BITWISE identical per-trial fidelities: lane t of a batched
 *  pass must reproduce the one-lane trajectory on stream root.child(t)
 *  exactly. */
void
expect_batch_invariant(const Circuit& c, const NoiseModel& m, int trials)
{
    TrajectoryOptions opts;
    opts.trials = trials;
    opts.seed = 99;
    opts.keep_per_trial = true;
    const TrajectoryResult ref = per_shot_reference(c, m, opts);
    ASSERT_EQ(static_cast<int>(ref.per_trial.size()), trials);
    // The work-sized default, one lane per group, B dividing trials, B
    // not dividing trials, B > trials, and thread counts the batch count
    // does not divide.
    const int batches[] = {0, 1, 2, 8, trials + 3};
    for (const int b : batches) {
        for (const int threads : {1, 3, 4}) {
            TrajectoryOptions bo = opts;
            bo.batch = b;
            bo.threads = threads;
            const auto got = run_noisy_trials(c, m, bo);
            ASSERT_EQ(got.per_trial.size(), ref.per_trial.size());
            for (int t = 0; t < trials; ++t) {
                ASSERT_EQ(got.per_trial[static_cast<std::size_t>(t)],
                          ref.per_trial[static_cast<std::size_t>(t)])
                    << "batch " << b << " threads " << threads << " trial "
                    << t;
            }
            ASSERT_EQ(got.mean_fidelity, ref.mean_fidelity);
        }
    }
}

TEST(Trajectory, BatchedLanesMatchSingleShotUniformQutrit) {
    // Uniform qutrit register: batched gates + damping steps + dephasing
    // against one-lane runs, bitwise.
    expect_batch_invariant(small_qutrit_circuit(), hot_noise(), 21);
}

TEST(Trajectory, BatchedLanesMatchSingleShotMixedRadix) {
    // Mixed radix: per-wire damping steps of two wire dimensions through
    // the batched path.
    Circuit c(WireDims({2, 3, 2}));
    c.append(gates::H(), {0});
    c.append(gates::Xplus1().controlled(2, 1), {0, 1});
    c.append(gates::H3(), {1});
    c.append(gates::X().controlled(3, 2), {1, 2});
    expect_batch_invariant(c, hot_noise(), 13);
}

TEST(Trajectory, BatchedLanesMatchSingleShotOnRandomCircuits) {
    // Random qutrit circuits drawn from a pool covering every kernel kind
    // (permutation, diagonal, unrolled d3, controlled, dense via random
    // 2-wire unitaries).
    Rng gen(77);
    for (int rep = 0; rep < 2; ++rep) {
        const int wires = 2 + rep;
        Circuit c(WireDims::uniform(wires, 3));
        for (int g = 0; g < 10; ++g) {
            const int w = static_cast<int>(
                rng_wire(gen, wires));
            const int v = (w + 1 +
                           static_cast<int>(rng_wire(gen, wires - 1))) %
                          wires;
            switch (gen.uniform_int(5)) {
                case 0:
                    c.append(gates::H3(), {w});
                    break;
                case 1:
                    c.append(gates::Z3(), {w});
                    break;
                case 2:
                    c.append(gates::Xplus1(), {w});
                    break;
                case 3:
                    c.append(gates::Xplus1().controlled(3, 2), {w, v});
                    break;
                default:
                    c.append(gates::H3().controlled(3, 1), {w, v});
                    break;
            }
        }
        expect_batch_invariant(c, hot_noise(), 11);
    }
}

TEST(Trajectory, SingleTrajectoryRejectsStateOnOtherRegister) {
    // The noisy kernels index the compiled register, so a state on another
    // register must be rejected before any kernel runs or any draw is
    // taken: a smaller input was once accessed out of bounds, and a wrong
    // ideal output only threw after the shot had run.
    const Circuit c = small_qutrit_circuit();
    NoiseModel m = noiseless();
    m.p1 = 5e-3;
    m.p2 = 5e-3;
    const TrajectoryCompilation compiled(c, m);
    const StateVector fits(c.dims());
    const StateVector smaller(WireDims::uniform(1, 3));
    const StateVector larger(WireDims::uniform(3, 3));
    Rng rng(5);
    EXPECT_THROW(run_single_trajectory(compiled, smaller, fits, rng),
                 std::invalid_argument);
    EXPECT_THROW(run_single_trajectory(compiled, larger, fits, rng),
                 std::invalid_argument);
    EXPECT_THROW(run_single_trajectory(compiled, fits, smaller, rng),
                 std::invalid_argument);
    Rng untouched(5);
    EXPECT_EQ(rng.uniform(), untouched.uniform());
}

TEST(Trajectory, BatchWiderThanTrials) {
    // trials < B must clamp the lane count, not read or write past the
    // trial buffer; statistics stay exact.
    const Circuit c = small_qutrit_circuit();
    TrajectoryOptions opts;
    opts.trials = 3;
    opts.batch = 64;
    opts.keep_per_trial = true;
    const auto res = run_noisy_trials(c, hot_noise(), opts);
    EXPECT_EQ(res.trials, 3);
    EXPECT_EQ(res.per_trial.size(), 3u);
    const auto ref = per_shot_reference(c, hot_noise(), opts);
    for (int t = 0; t < 3; ++t) {
        EXPECT_EQ(res.per_trial[static_cast<std::size_t>(t)],
                  ref.per_trial[static_cast<std::size_t>(t)]);
    }
}

/** A width-10 qutrit register: one lane is 0.9 MiB of state, so a default
 *  shot group holds at most 5 lanes. The single-wire ops on the low wires
 *  have enough outer blocks for the batched kernels to open OpenMP teams
 *  when a worker's share of the thread budget allows one. */
Circuit
wide_qutrit_circuit()
{
    Circuit c(WireDims::uniform(10, 3));
    c.append(gates::H3(), {9});
    c.append(gates::Xplus1().controlled(3, 1), {9, 0});
    c.append(gates::Z3(), {4});
    c.append(gates::X12(), {0});
    return c;
}

#if QD_OBS_BUILD
/** Shot groups (the obs traj_batches counter) one run_noisy_trials call
 *  runs. */
std::uint64_t
shot_groups(const Circuit& c, const NoiseModel& m,
            const TrajectoryOptions& opts)
{
    const bool was_enabled = obs::enabled();
    obs::set_enabled(true);
    obs::reset_counters();
    run_noisy_trials(c, m, opts);
    const std::uint64_t groups =
        obs::counters_snapshot()[obs::Counter::kTrajBatches];
    obs::set_enabled(was_enabled);
    obs::reset_counters();
    return groups;
}

TEST(Trajectory, DefaultLanesSplitByteCappedRegisterIntoEqualGroups) {
    // 8 trials on 4 threads: one 2-lane group per worker.
    TrajectoryOptions opts;
    opts.trials = 8;
    opts.threads = 4;
    EXPECT_EQ(shot_groups(wide_qutrit_circuit(), hot_noise(), opts), 4u);
    // One worker fills groups up to the 5-lane byte cap: 5 + 3.
    opts.threads = 1;
    EXPECT_EQ(shot_groups(wide_qutrit_circuit(), hot_noise(), opts), 2u);
}

TEST(Trajectory, DefaultLanesKeepTwelveLaneGroupsOnSmallRegisters) {
    // A 2-qutrit lane is 144 bytes: one thread runs 24 trials as two
    // 12-lane groups, four threads as four equal 6-lane groups.
    TrajectoryOptions opts;
    opts.trials = 24;
    opts.threads = 1;
    EXPECT_EQ(shot_groups(small_qutrit_circuit(), hot_noise(), opts), 2u);
    opts.threads = 4;
    EXPECT_EQ(shot_groups(small_qutrit_circuit(), hot_noise(), opts), 4u);
}
#endif

TEST(Trajectory, BatchedLanesMatchSingleShotOnByteCappedRegister) {
    // The work-sized default changes with the thread budget here (5 + 3
    // lanes at 1 thread, 3 + 3 + 2 at 3, 4 x 2 at 4), and single-group
    // settings hand one worker the whole budget for its kernels' OpenMP
    // teams; per-trial fidelities must not change.
    expect_batch_invariant(wide_qutrit_circuit(), hot_noise(), 8);
}

TEST(Trajectory, RejectsNegativeBatch) {
    const Circuit c = small_qutrit_circuit();
    TrajectoryOptions opts;
    opts.batch = -4;
    EXPECT_THROW(run_noisy_trials(c, noiseless(), opts),
                 std::invalid_argument);
}

TEST(Trajectory, DampingEnginesAgreeUnderLevel2OnlyDecay) {
    // Regression: a damping step once gated the no-jump K0 on
    // lambda(1) > 0 alone, so a level-2-only decay model (lambda(1) == 0,
    // lambda(2) > 0) silently skipped no-jump damping. The engine must
    // converge to the exact density-matrix fidelity, fused and unfused.
    Circuit c(WireDims::uniform(1, 3));
    for (int i = 0; i < 8; ++i) {
        c.append(gates::H3(), {0});
        c.append(gates::H3().inverse(), {0});
    }
    NoiseModel m = noiseless();
    m.t1 = 10 * m.dt_1q;
    m.decay_rates = {0.0, 2.0};  // |1> metastable, |2> decays
    EXPECT_EQ(m.lambda(1, m.dt_1q), 0.0);
    EXPECT_GT(m.lambda(2, m.dt_1q), 0.0);

    Rng rng(21);
    // Superposition with heavy |2> weight so level-2 damping matters.
    StateVector init(c.dims());
    init.amplitudes() = {Complex(0.5, 0), Complex(0.5, 0),
                         Complex(std::sqrt(0.5), 0)};
    const StateVector ideal = simulate(c, init);
    const Real exact = density_matrix_fidelity(c, m, init);

    auto mean_fid = [&](const exec::FusionOptions& fusion) {
        const TrajectoryCompilation compiled(c, m, fusion);
        Real mean = 0;
        const int trials = 3000;
        for (int t = 0; t < trials; ++t) {
            Rng child = rng.child(static_cast<std::uint64_t>(t));
            mean += run_single_trajectory(compiled, init, ideal, child);
        }
        return mean / trials;
    };
    exec::FusionOptions unfused;
    unfused.enabled = false;
    const Real fused = mean_fid(exec::FusionOptions{});
    const Real per_op = mean_fid(unfused);
    EXPECT_NEAR(fused, exact, 0.01);
    EXPECT_NEAR(per_op, exact, 0.01);
    EXPECT_NEAR(fused, per_op, 0.015);
}

TEST(Trajectory, TotalConventionScalesErrors) {
    // Under GateErrorConvention::kTotal the qutrit circuit pays the same
    // total error as a qubit circuit with identical gate count would.
    Circuit c3(WireDims::uniform(2, 3));
    for (int i = 0; i < 50; ++i) {
        c3.append(gates::Xplus1().controlled(3, 1), {0, 1});
        c3.append(gates::Xminus1().controlled(3, 1), {0, 1});
    }
    NoiseModel total = noiseless();
    total.p2 = 2e-3;
    total.convention = GateErrorConvention::kTotal;
    NoiseModel per_channel = noiseless();
    per_channel.p2 = 2e-3 / 80.0;  // same total for d=3 pairs
    TrajectoryOptions opts;
    opts.trials = 400;
    const Real ft = run_noisy_trials(c3, total, opts).mean_fidelity;
    const Real fp =
        run_noisy_trials(c3, per_channel, opts).mean_fidelity;
    EXPECT_NEAR(ft, fp, 0.001);  // identical draws given the same seed
}

/** Circuit with single-qutrit runs between two-qutrit gates — fusable
 *  material when only the two-qutrit ops carry error channels. */
Circuit
fusable_qutrit_circuit()
{
    Circuit c(WireDims::uniform(2, 3));
    c.append(gates::Z3(), {0});
    c.append(gates::Xplus1(), {0});
    c.append(gates::Xplus1().controlled(3, 1), {0, 1});
    c.append(gates::Z3(), {1});
    c.append(gates::X12(), {1});
    c.append(gates::H3(), {0});
    c.append(gates::H3(), {0});
    c.append(gates::Xminus1().controlled(3, 1), {1, 0});
    c.append(gates::Z3(), {0});
    c.append(gates::Xplus1(), {1});
    return c;
}

TEST(Trajectory, FusionPreservesErrorPlacementOnGateErrorModels) {
    // Gate errors on two-qutrit ops only: the single-qutrit runs between
    // them fuse, while every error-carrying op is a fence — the channel
    // stays attached to its pre-fusion boundary, so the fused engine
    // consumes the identical RNG stream and per-trial fidelities differ
    // from the unfused engine only by fusion's float reassociation.
    const Circuit c = fusable_qutrit_circuit();
    NoiseModel m = noiseless();
    m.p2 = 5e-3;

    // The engine's own fence construction must actually fuse something
    // here (same placement policy: enumerate_error_sites + error_fences).
    const exec::CompiledCircuit fused_compiled(
        c, exec::FusionOptions{}, error_fences(enumerate_error_sites(c, m)));
    ASSERT_LT(fused_compiled.num_ops(), c.num_ops());

    TrajectoryOptions fused;
    fused.trials = 60;
    fused.seed = 11;
    fused.keep_per_trial = true;
    TrajectoryOptions unfused = fused;
    unfused.fusion.enabled = false;
    const auto a = run_noisy_trials(c, m, fused);
    const auto b = run_noisy_trials(c, m, unfused);
    ASSERT_EQ(a.per_trial.size(), b.per_trial.size());
    for (std::size_t t = 0; t < a.per_trial.size(); ++t) {
        EXPECT_NEAR(a.per_trial[t], b.per_trial[t], 1e-9) << "trial " << t;
    }
}

TEST(Trajectory, FusionBitwiseOnPermutationOnlyCircuits) {
    // Permutation fusion is pure index composition, so even the fused
    // ideal pass is bitwise identical to the unfused one: per-trial
    // fidelities must match EXACTLY with errors on every op.
    Circuit c(WireDims::uniform(2, 3));
    c.append(gates::Xplus1(), {0});
    c.append(gates::X01(), {0});
    c.append(gates::Xplus1().controlled(3, 1), {0, 1});
    c.append(gates::X12(), {1});
    c.append(gates::Xminus1().controlled(3, 2), {1, 0});
    c.append(gates::X02(), {1});
    NoiseModel m = noiseless();
    m.p1 = 5e-3;
    m.p2 = 5e-3;
    TrajectoryOptions fused;
    fused.trials = 40;
    fused.seed = 5;
    fused.keep_per_trial = true;
    TrajectoryOptions unfused = fused;
    unfused.fusion.enabled = false;
    const auto a = run_noisy_trials(c, m, fused);
    const auto b = run_noisy_trials(c, m, unfused);
    ASSERT_EQ(a.per_trial.size(), b.per_trial.size());
    for (std::size_t t = 0; t < a.per_trial.size(); ++t) {
        ASSERT_EQ(a.per_trial[t], b.per_trial[t]) << "trial " << t;
    }
}

TEST(Trajectory, BatchInvarianceSurvivesFusion) {
    // The fused noisy loop (gate errors only, no idle noise) must stay
    // bitwise independent of batch width and thread count.
    const Circuit c = fusable_qutrit_circuit();
    NoiseModel m = noiseless();
    m.p2 = 5e-3;
    expect_batch_invariant(c, m, 25);
}

/** Damping and gate errors hot enough that threshold crossings and error
 *  fires are common, without dephasing: the noisy program fuses across
 *  both, so crossings and fires land inside multi-op blocks. */
NoiseModel
hot_damping()
{
    NoiseModel m = noiseless();
    m.p1 = 5e-3;
    m.p2 = 5e-3;
    m.t1 = 5 * m.dt_1q;
    return m;
}

/** Expects the mean of `trials` one-lane shots of `c` under `m` from
 *  `init` (streams Rng(seed).child(t)) within 4 standard errors of the
 *  exact density-matrix fidelity. */
void
expect_matches_exact(const Circuit& c, const NoiseModel& m,
                     const StateVector& init, int trials, std::uint64_t seed)
{
    const TrajectoryCompilation compiled(c, m);
    const StateVector ideal = simulate(c, init);
    const Rng root(seed);
    std::vector<Real> f;
    for (int t = 0; t < trials; ++t) {
        Rng rng = root.child(static_cast<std::uint64_t>(t));
        f.push_back(run_single_trajectory(compiled, init, ideal, rng));
    }
    Real mean = 0;
    for (const Real x : f) {
        mean += x;
    }
    mean /= trials;
    Real sq = 0;
    for (const Real x : f) {
        sq += (x - mean) * (x - mean);
    }
    const Real se = std::sqrt(sq / (trials - 1) / trials);
    const Real exact = density_matrix_fidelity(c, m, init);
    EXPECT_NEAR(mean, exact, 4 * se + 1e-12) << "se " << se;
}

TEST(Trajectory, FusedDampingBlocksStayBatchInvariant) {
    // hot_noise() has dephasing, which keeps the noisy program per op;
    // without it damping steps and gates fuse, and lanes replay fused
    // blocks around their crossings and fires.
    expect_batch_invariant(fusable_qutrit_circuit(), hot_damping(), 25);
}

/** Noisy-program ops that run the block-monomial kernel. */
std::size_t
block_monomial_ops(const TrajectoryCompilation& compiled)
{
    std::size_t n = 0;
    for (const exec::CompiledOp& op : compiled.noisy().ops()) {
        n += op.kind == exec::KernelKind::kBlockMonomial ? 1 : 0;
    }
    return n;
}

TEST(Trajectory, DampedBlockMonomialBlocksStayBatchInvariant) {
    // The damped noisy program runs on the ideal's stage-2 union blocks,
    // which then hold damping steps of several wires; on the 9-qutrit
    // gen-Toffoli six of them are block-monomial.
    const ctor::GenToffoli g =
        ctor::build_gen_toffoli(ctor::Method::kQutrit, 8);
    const TrajectoryCompilation compiled(g.circuit, hot_damping());
    EXPECT_EQ(compiled.noisy().num_ops(), compiled.ideal().num_ops());
    EXPECT_EQ(block_monomial_ops(compiled), 6u);
    expect_batch_invariant(g.circuit, hot_damping(), 8);
}

TEST(Trajectory, HotDampedGenToffoliBlocksStayInvariantAndMatchDensity) {
    // SC with T1 = 2 us: the width-5 QUTRIT and QUBIT gen-Toffolis, whose
    // noisy programs hold 2 and 5 block-monomial blocks.
    NoiseModel m = sc();
    m.t1 = 2e-6;
    const std::pair<ctor::Method, std::size_t> cases[] = {
        {ctor::Method::kQutrit, 2}, {ctor::Method::kQubitNoAncilla, 5}};
    for (const auto& [method, blocks] : cases) {
        const Circuit c = ctor::build_gen_toffoli(method, 4).circuit;
        const TrajectoryCompilation compiled(c, m);
        EXPECT_EQ(compiled.noisy().num_ops(), compiled.ideal().num_ops());
        EXPECT_EQ(block_monomial_ops(compiled), blocks);
        expect_batch_invariant(c, m, 11);
        Rng rng(51);
        expect_matches_exact(c, m,
                             haar_random_qubit_subspace_state(c.dims(), rng),
                             2000, 52);
    }
}

TEST(Trajectory, IdleWireDampsInItsOwnBlock) {
    // No op touches wire 1: its one damping step (over the whole circuit)
    // runs as a one-step block after the ideal's blocks.
    Circuit c(WireDims({3, 2, 3}));
    c.append(gates::H3(), {0});
    c.append(gates::Xplus1().controlled(3, 1), {0, 2});
    c.append(gates::H3(), {2});
    const NoiseModel m = hot_damping();
    const TrajectoryCompilation compiled(c, m);
    ASSERT_EQ(compiled.noisy().num_ops(), compiled.ideal().num_ops() + 1);
    EXPECT_EQ(compiled.noisy().ops().back().wires, std::vector<int>{1});
    expect_batch_invariant(c, m, 13);
    Rng rng(53);
    expect_matches_exact(c, m, haar_random_state(c.dims(), rng), 4000, 54);
}

TEST(Trajectory, DampedPartitionPassesTheStructuralAudit) {
    // The damped noisy program's partition is a legal fusion of its
    // steps: an exact cover, within the ideal's wires and caps, and in
    // each wire's order. (fusion.cost-regression is not asserted: the
    // fusion estimator prices block-monomial blocks as dense.)
    std::vector<Circuit> circuits;
    for (const int width : {5, 11}) {
        for (const ctor::Method method :
             {ctor::Method::kQutrit, ctor::Method::kQubitNoAncilla,
              ctor::Method::kQubitDirtyAncilla}) {
            circuits.push_back(
                ctor::build_gen_toffoli(method, width - 1).circuit);
        }
    }
    circuits.push_back(
        ctor::build_gen_toffoli(ctor::Method::kQutrit, 8).circuit);
    for (const Circuit& c : circuits) {
        const TrajectoryCompilation compiled(c, sc());
        ASSERT_EQ(compiled.noisy_program().num_ops(),
                  compiled.noisy().num_source_ops());
        verify::Report report;
        verify::audit_partition(c.dims(), compiled.noisy_program().ops(), {},
                                compiled.noisy_partition(),
                                exec::FusionOptions{}, report);
        for (const char* rule : {"fusion.cover", "fusion.wires",
                                 "fusion.commute", "fusion.cap"}) {
            EXPECT_FALSE(report.has_rule(rule))
                << rule << " on " << c.dims().num_wires() << " wires";
        }
    }
}

TEST(Trajectory, FusedDampingMatchesDensityMatrix) {
    const Circuit c = fusable_qutrit_circuit();
    Rng rng(31);
    expect_matches_exact(c, hot_damping(), haar_random_state(c.dims(), rng),
                         4000, 32);
}

TEST(Trajectory, MixedRadixAndFourLevelDampingMatchDensityMatrix) {
    NoiseModel m = noiseless();
    m.p1 = 1e-3;
    m.p2 = 1e-3;
    m.t1 = 20 * m.dt_2q;
    {
        Circuit c(WireDims({2, 3, 2}));
        c.append(gates::H(), {0});
        c.append(gates::Xplus1().controlled(2, 1), {0, 1});
        c.append(gates::H3(), {1});
        c.append(gates::X().controlled(3, 2), {1, 2});
        c.append(gates::H(), {2});
        Rng rng(41);
        expect_matches_exact(c, m, haar_random_state(c.dims(), rng), 4000,
                             42);
    }
    {
        // A d = 4 wire: three decaying levels per damping step.
        Circuit c(WireDims({4, 3}));
        c.append(gates::fourier(4), {0});
        c.append(gates::Xplus1().controlled(4, 3), {0, 1});
        c.append(gates::shift(4), {0});
        c.append(gates::fourier(3), {1});
        Rng rng(43);
        expect_matches_exact(c, m, haar_random_state(c.dims(), rng), 4000,
                             44);
    }
}

TEST(Trajectory, StdErrorIsTheSpreadAboutTheMean) {
    // Under SC+T1 at width 4 the eight fidelities agree to about 1e-8, so
    // sum_sq - sum^2 / n cancels to rounding; the standard error must be
    // the two-pass spread of the per-trial values.
    const ctor::GenToffoli g =
        ctor::build_gen_toffoli(ctor::Method::kQubitNoAncilla, 3);
    TrajectoryOptions opts;
    opts.trials = 8;
    opts.seed = 7;
    opts.keep_per_trial = true;
    const TrajectoryResult res = run_noisy_trials(g.circuit, sc_t1(), opts);
    Real sq = 0;
    for (const Real f : res.per_trial) {
        sq += (f - res.mean_fidelity) * (f - res.mean_fidelity);
    }
    const Real two_pass = std::sqrt(sq / 7 / 8);
    ASSERT_GT(two_pass, 0.0);
    EXPECT_NEAR(res.std_error, two_pass, 1e-6 * two_pass);
}

#if QD_OBS_BUILD
/** Counters of one run_noisy_trials call on `compiled`. */
obs::CounterSnapshot
trial_counters(const TrajectoryCompilation& compiled,
               const TrajectoryOptions& opts)
{
    const bool was_enabled = obs::enabled();
    obs::set_enabled(true);
    obs::reset_counters();
    run_noisy_trials(compiled, opts);
    const obs::CounterSnapshot s = obs::counters_snapshot();
    obs::set_enabled(was_enabled);
    obs::reset_counters();
    return s;
}

TEST(Trajectory, GateErrorDrawsCountEverySiteOnEveryShot) {
    const Circuit c = fusable_qutrit_circuit();
    const NoiseModel m = hot_damping();
    std::uint64_t sites = 0;
    for (const auto& op_sites : enumerate_error_sites(c, m)) {
        sites += op_sites.size();
    }
    ASSERT_GT(sites, 0u);
    const TrajectoryCompilation compiled(c, m);
    TrajectoryOptions opts;
    opts.trials = 25;
    opts.threads = 2;
    const auto s = trial_counters(compiled, opts);
    EXPECT_EQ(s[obs::Counter::kTrajGateErrorDraws], sites * 25);
    EXPECT_EQ(s[obs::Counter::kTrajShots], 25u);
}

TEST(Trajectory, CrossingsAndFiresShareFusedBlocks) {
    // Light gates on two qutrits: the damping steps join the ideal's
    // blocks, every one of which merges >= 2 steps, and the controlled op
    // is the only error site.
    Circuit c(WireDims::uniform(2, 3));
    c.append(gates::Xplus1(), {0});
    c.append(gates::Z3(), {1});
    c.append(gates::Xplus1().controlled(3, 1), {0, 1});
    c.append(gates::X12(), {0});
    c.append(gates::Z3(), {0});
    NoiseModel m = hot_damping();
    m.p1 = 0;

    const TrajectoryCompilation compiled(c, m);
    const std::size_t blocks = compiled.ideal().num_ops();
    ASSERT_EQ(compiled.noisy().num_ops(), blocks);
    for (const exec::CompiledOp& op : compiled.noisy().ops()) {
        EXPECT_GE(op.source_ops.size(), 2u);
    }
    EXPECT_GT(compiled.noisy().num_source_ops(), c.num_ops());
    // One shot group: one batched pass per ideal block for the
    // reference, and one per noisy block.
    TrajectoryOptions group;
    group.trials = 6;
    group.batch = 6;
    group.threads = 1;
    const auto g = trial_counters(compiled, group);
    EXPECT_EQ(g[obs::Counter::kTrajBatches], 1u);
    EXPECT_EQ(g[obs::Counter::kBatDispatches], 2 * blocks);

    TrajectoryOptions opts;
    opts.trials = 200;
    opts.seed = 3;
    const auto s = trial_counters(compiled, opts);
    const std::uint64_t fires = s[obs::Counter::kTrajGateErrorsFired];
    const std::uint64_t crossings = s[obs::Counter::kTrajRareBranches];
    const std::uint64_t replays = s[obs::Counter::kTrajLaneExtracts];
    EXPECT_GT(fires, 0u);
    EXPECT_GT(crossings, 0u);  // inside the multi-op block
    EXPECT_GE(s[obs::Counter::kTrajDampingJumps], crossings);
    // One site in the program: a replay holds at most one fire, so
    // replays = fires + crossings - (replays holding both).
    EXPECT_GT(fires + crossings, replays);
}
#endif

TEST(Trajectory, FiredErrorsStayInvariantAndMatchDensityMatrix) {
    // Gate errors hot enough that a trial of the 3-qutrit gen-Toffoli
    // (three two-qutrit gates, each firing with probability 80 p2 = 0.88)
    // fires several: each fired unitary is compiled when it fires, and
    // the results must not depend on batch width or thread count.
    const Circuit c =
        ctor::build_gen_toffoli(ctor::Method::kQutrit, 2).circuit;
    NoiseModel m = noiseless();
    m.p2 = 1.1e-2;
    const TrajectoryCompilation compiled(c, m);
    TrajectoryOptions opts;
    opts.trials = 24;
    opts.seed = 17;
    opts.keep_per_trial = true;
    const TrajectoryResult ref = per_shot_reference(c, m, opts);
    for (const int b : {1, 3, 8}) {
        for (const int threads : {1, 4}) {
            TrajectoryOptions bo = opts;
            bo.batch = b;
            bo.threads = threads;
            EXPECT_EQ(run_noisy_trials(compiled, bo).per_trial, ref.per_trial)
                << "batch " << b << " threads " << threads;
        }
    }
#if QD_OBS_BUILD
    const auto s = trial_counters(compiled, opts);
    EXPECT_GE(s[obs::Counter::kTrajGateErrorsFired],
              2u * static_cast<std::uint64_t>(opts.trials));
#endif
    Rng rng(23);
    expect_matches_exact(c, m, haar_random_qubit_subspace_state(c.dims(), rng),
                         400, 29);
}

TEST(Trajectory, PerChannelConventionPenalisesQutrits) {
    // gate_error_total must expose the paper's (1-80p2)/(1-15p2) penalty
    // only in the per-channel convention.
    NoiseModel m = noiseless();
    m.p2 = 1e-4;
    EXPECT_NEAR(m.gate_error_total_2q(3, 3) / m.gate_error_total_2q(2, 2),
                80.0 / 15.0, 1e-9);
    m.convention = GateErrorConvention::kTotal;
    EXPECT_NEAR(m.gate_error_total_2q(3, 3), m.gate_error_total_2q(2, 2),
                1e-12);
}

}  // namespace
}  // namespace qd::noise
