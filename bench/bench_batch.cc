/**
 * Batched trajectory execution vs the per-shot compiled path.
 *
 * Workload: the paper's 5-qutrit Generalized Toffoli (4 controls + target,
 * decomposed to one-/two-qutrit gates) under the superconducting noise
 * model — amplitude damping + depolarizing gate errors, the Section 7
 * reliability setup. The per-shot side is the reference loop the batched
 * engine is tested against: run_single_trajectory once per trial on stream
 * root.child(t), over one compilation. Both sides run the SAME compiled
 * kernels and the SAME per-trial RNG streams; the only difference is
 * whether trials advance one at a time or B lanes per circuit pass
 * (exec::BatchedStateVector), so the ratio isolates the plan/offset-table
 * amortisation and lane SIMD. Both run single-threaded: across-shot
 * threading is available to either path and would only add scheduling
 * noise to the ratio.
 *
 * Emits BENCH_batch.json (gated on "speedup" by scripts/compare_bench.py
 * against bench/baselines/). Fails loudly if the two paths' per-trial
 * fidelities are not bitwise identical — the speedup is only meaningful
 * while the engines are exactly equivalent.
 *
 * Timing: each path runs QD_BATCH_REPS times after a shared warmup and
 * reports its fastest rep — per-run wall times are ~10 ms, so min-of-reps
 * is what filters scheduler noise out of the gated ratio.
 *
 * Knobs: QD_BATCH_CONTROLS (default 4), QD_BATCH_TRIALS (default 512),
 * QD_BATCH_LANES (default 12), QD_BATCH_REPS (default 5).
 */
#include <chrono>
#include <cstdio>

#include "bench_util.h"
#include "constructions/gen_toffoli.h"
#include "noise/models.h"
#include "noise/trajectory.h"
#include "qdsim/exec/compiled_circuit.h"
#include "qdsim/random_state.h"
#include "qdsim/simulator.h"

namespace {

using namespace qd;

double
now_ms()
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** The per-shot reference for run_noisy_trials(options): trial t is
 *  run_single_trajectory on stream root.child(t), from the input state
 *  that stream draws first and its fully fused ideal output. */
noise::TrajectoryResult
per_shot_trials(const noise::TrajectoryCompilation& compiled,
                const exec::CompiledCircuit& ideal,
                const noise::TrajectoryOptions& options)
{
    const Rng root(options.seed);
    noise::TrajectoryResult result;
    result.trials = options.trials;
    Real sum = 0;
    for (int t = 0; t < options.trials; ++t) {
        Rng rng = root.child(static_cast<std::uint64_t>(t));
        const StateVector initial =
            options.qubit_subspace_inputs
                ? haar_random_qubit_subspace_state(compiled.dims(), rng)
                : haar_random_state(compiled.dims(), rng);
        result.per_trial.push_back(noise::run_single_trajectory(
            compiled, initial, simulate(ideal, initial), rng));
        sum += result.per_trial.back();
    }
    result.mean_fidelity = sum / options.trials;
    return result;
}

}  // namespace

int
main(int argc, char** argv)
{
    bench::banner("bench_batch: B-way batched trajectories vs per-shot",
                  "Section 7 Monte-Carlo reliability workload; 5-qutrit "
                  "Generalized Toffoli under damping + depolarizing");

    const int n_controls = bench::env_int("QD_BATCH_CONTROLS", 4);
    const int trials = bench::env_int("QD_BATCH_TRIALS", 512);
    const int lanes = bench::env_int("QD_BATCH_LANES", 12);
    const int reps = bench::env_int("QD_BATCH_REPS", 5);

    const auto built =
        ctor::build_gen_toffoli(ctor::Method::kQutrit, n_controls);
    const Circuit& circuit = built.circuit;
    std::printf("%s\n", circuit.summary("workload").c_str());

    const noise::NoiseModel model = noise::sc();
    std::printf("%s\n\n", model.describe().c_str());

    noise::TrajectoryOptions options;
    options.trials = trials;
    options.seed = 2019;
    options.threads = 1;
    options.keep_per_trial = true;

    auto best_of_reps = [&](auto&& run) {
        double best = 0;
        for (int r = 0; r < reps; ++r) {
            const double t0 = now_ms();
            run();
            const double elapsed = now_ms() - t0;
            if (r == 0 || elapsed < best) {
                best = elapsed;
            }
        }
        return best;
    };

    // Warmup: touch both paths once so page faults and lazy init don't
    // land in either side's first rep.
    const noise::TrajectoryCompilation compiled(circuit, model,
                                                options.fusion);
    const exec::CompiledCircuit ideal(circuit, options.fusion);
    noise::TrajectoryResult single, batched;
    options.batch = lanes;
    noise::run_noisy_trials(circuit, model, options);
    per_shot_trials(compiled, ideal, options);

    // 1. Per-shot reference: one run_single_trajectory per trial.
    const double single_ms = best_of_reps(
        [&] { single = per_shot_trials(compiled, ideal, options); });

    // 2. B-way batched execution: one compiled pass advances B lanes.
    const double batched_ms = best_of_reps(
        [&] { batched = noise::run_noisy_trials(circuit, model, options); });

    bool lane_equivalent = single.per_trial.size() == batched.per_trial.size();
    for (std::size_t t = 0; lane_equivalent && t < single.per_trial.size();
         ++t) {
        lane_equivalent = single.per_trial[t] == batched.per_trial[t];
    }

    const double speedup = single_ms / batched_ms;
    std::printf("per-shot:  %d trials in %8.1f ms (%7.1f shots/s)\n", trials,
                single_ms, 1000.0 * trials / single_ms);
    std::printf("batched:   %d trials in %8.1f ms (%7.1f shots/s), B=%d\n",
                trials, batched_ms, 1000.0 * trials / batched_ms, lanes);
    std::printf("speedup:   %8.2fx %s\n", speedup,
                speedup >= 2.0 ? "(>= 2x target met)" : "(below 2x target)");
    std::printf("lane equivalence: %s (mean fidelity %.6f)\n",
                lane_equivalent ? "bitwise identical" : "MISMATCH",
                batched.mean_fidelity);

    // Instrumented section: a small batched run with counters on
    // (trajectory divergence events, batched kernel classes) and optional
    // --trace spans.
    bench::ObsSection obs_section(bench::trace_flag(argc, argv));
    options.batch = lanes;
    options.trials = std::min(trials, 4 * lanes);
    noise::run_noisy_trials(circuit, model, options);
    options.trials = trials;
    const obs::SimReport rep = obs_section.finish();
    std::printf("\n%s\n", rep.to_string().c_str());

    bench::JsonWriter jw;
    jw.str("workload", "qutrit_gen_toffoli_sc_noise")
        .integer("n_controls", n_controls)
        .integer("trials", trials)
        .integer("lanes", lanes)
        .num("per_shot_ms", single_ms, "%.3f")
        .num("batched_ms", batched_ms, "%.3f")
        .num("per_shot_shots_per_sec", 1000.0 * trials / single_ms, "%.2f")
        .num("batched_shots_per_sec", 1000.0 * trials / batched_ms, "%.2f")
        .num("speedup", speedup, "%.4f")
        .boolean("lane_equivalent", lane_equivalent)
        .num("mean_fidelity", batched.mean_fidelity)
        .report(rep);
    jw.write("BENCH_batch.json");
    if (!lane_equivalent) {
        std::fprintf(stderr,
                     "bench_batch: batched and per-shot trajectories "
                     "diverged; the speedup is meaningless\n");
        return 1;
    }
    return 0;
}
