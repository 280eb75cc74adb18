/**
 * Batched trajectory execution: 12 lanes per shot group vs one lane.
 *
 * Workload: the paper's 5-qutrit Generalized Toffoli (4 controls + target,
 * decomposed to one-/two-qutrit gates) under the superconducting noise
 * model — amplitude damping + depolarizing gate errors, the Section 7
 * reliability setup. The reference side runs run_noisy_trials with one
 * lane per shot group (batch = 1, the shape run_single_trajectory runs);
 * the batched side runs B lanes per group. Both run the SAME compiled
 * kernels and the SAME per-trial RNG streams; the only difference is
 * whether trials advance one at a time or B lanes per circuit pass
 * (exec::BatchedStateVector), so the ratio isolates the plan/offset-table
 * amortisation and lane SIMD. Both run single-threaded: across-shot
 * threading is available to either side and would only add scheduling
 * noise to the ratio.
 *
 * Emits BENCH_batch.json (gated on "speedup" by scripts/compare_bench.py
 * against bench/baselines/; the per_shot_* keys hold the one-lane side).
 * Fails loudly if the two sides' per-trial fidelities are not bitwise
 * identical — the speedup is only meaningful while they are exactly
 * equivalent.
 *
 * Timing: after a shared warmup the two sides alternate for QD_BATCH_REPS
 * reps each, and each reports its fastest rep — per-run wall times are
 * ~10 ms, so min-of-reps is what filters scheduler noise out of the gated
 * ratio, and alternating lands a slow spell on a shared host on both
 * sides rather than on one side's block of reps.
 *
 * Knobs: QD_BATCH_CONTROLS (default 4), QD_BATCH_TRIALS (default 512),
 * QD_BATCH_LANES (default 12), QD_BATCH_REPS (default 5).
 */
#include <algorithm>
#include <chrono>
#include <cstdio>

#include "bench_util.h"
#include "constructions/gen_toffoli.h"
#include "noise/models.h"
#include "noise/trajectory.h"

namespace {

using namespace qd;

double
now_ms()
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

}  // namespace

int
main(int argc, char** argv)
{
    bench::banner("bench_batch: B-way batched trajectories vs one lane",
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

    auto time_ms = [](auto&& run) {
        const double t0 = now_ms();
        run();
        return now_ms() - t0;
    };

    // Warmup: touch both sides once so page faults and lazy init don't
    // land in either side's first rep.
    const noise::TrajectoryCompilation compiled(circuit, model,
                                                options.fusion);
    noise::TrajectoryOptions one_lane = options;
    one_lane.batch = 1;
    noise::TrajectoryResult single, batched;
    options.batch = lanes;
    noise::run_noisy_trials(circuit, model, options);
    noise::run_noisy_trials(compiled, one_lane);

    double single_ms = 0, batched_ms = 0;
    for (int r = 0; r < reps; ++r) {
        // 1. Reference: one lane per shot group.
        const double s = time_ms(
            [&] { single = noise::run_noisy_trials(compiled, one_lane); });
        // 2. B-way batched execution: one compiled pass advances B lanes.
        const double b = time_ms([&] {
            batched = noise::run_noisy_trials(circuit, model, options);
        });
        single_ms = r == 0 ? s : std::min(single_ms, s);
        batched_ms = r == 0 ? b : std::min(batched_ms, b);
    }

    bool lane_equivalent = single.per_trial.size() == batched.per_trial.size();
    for (std::size_t t = 0; lane_equivalent && t < single.per_trial.size();
         ++t) {
        lane_equivalent = single.per_trial[t] == batched.per_trial[t];
    }

    const double speedup = single_ms / batched_ms;
    std::printf("one lane:  %d trials in %8.1f ms (%7.1f shots/s)\n", trials,
                single_ms, 1000.0 * trials / single_ms);
    std::printf("batched:   %d trials in %8.1f ms (%7.1f shots/s), B=%d\n",
                trials, batched_ms, 1000.0 * trials / batched_ms, lanes);
    std::printf("speedup:   %8.2fx (B=%d over one lane per group)\n",
                speedup, lanes);
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
                     "bench_batch: batched and one-lane trajectories "
                     "diverged; the speedup is meaningless\n");
        return 1;
    }
    return 0;
}
