/**
 * Compiled execution engine vs the generic reference path.
 *
 * Workload: the paper's qutrit Generalized Toffoli (decomposed to one-/
 * two-qutrit gates — permutation/controlled-kernel heavy), applied to a
 * Haar-random state. Three measurements:
 *   1. ms per circuit pass, generic StateVector::apply walk,
 *   2. ms per circuit pass, CompiledCircuit::run (plans compiled once),
 *   3. noisy trajectory shot throughput via run_noisy_trials (the engine
 *      compiles once and replays every shot against the same plans).
 * Emits BENCH_exec.json so the perf trajectory accumulates run over run.
 *
 * Knobs: QD_EXEC_CONTROLS (default 9), QD_EXEC_REPS (default 20),
 * QD_EXEC_TRIALS (default 200).
 *
 * `--trace <file>` additionally dumps Chrome trace-event JSON for the
 * instrumented section (load in chrome://tracing or Perfetto). The timed
 * sections always run with observability at its ambient default; the
 * instrumented section at the end re-runs a deterministic fused
 * compile + single pass with counters on, and its obs_* metrics land in
 * BENCH_exec.json (plan-cache and fusion counts there are gated in CI).
 */
#include <chrono>
#include <cstdio>

#include "bench_util.h"
#include "constructions/gen_toffoli.h"
#include "noise/models.h"
#include "noise/trajectory.h"
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

}  // namespace

int
main(int argc, char** argv)
{
    bench::banner("bench_exec: compiled kernels vs generic apply",
                  "Section 6.2 simulator hot path; qutrit Generalized "
                  "Toffoli workload");

    const int n_controls = bench::env_int("QD_EXEC_CONTROLS", 9);
    const int reps = bench::env_int("QD_EXEC_REPS", 20);
    const int trials = bench::env_int("QD_EXEC_TRIALS", 200);

    const auto built =
        ctor::build_gen_toffoli(ctor::Method::kQutrit, n_controls);
    const Circuit& circuit = built.circuit;
    std::printf("%s\n\n", circuit.summary("workload").c_str());

    Rng rng(2019);
    const StateVector init = haar_random_state(circuit.dims(), rng);

    // 1. Generic reference walk (per-gate stride/index recomputation).
    StateVector sink = init;
    const double t0 = now_ms();
    for (int r = 0; r < reps; ++r) {
        sink = init;
        for (const Operation& op : circuit.ops()) {
            sink.apply(op.gate.matrix(), op.wires);
        }
    }
    const double generic_ms = (now_ms() - t0) / reps;

    // 2. Compiled execution (plans + kernels compiled once, reused).
    const double tc0 = now_ms();
    const exec::CompiledCircuit compiled(circuit);
    const double compile_ms = now_ms() - tc0;
    exec::BatchedScratch scratch;
    const double t1 = now_ms();
    for (int r = 0; r < reps; ++r) {
        sink = init;
        compiled.run(sink, scratch);
    }
    const double compiled_ms = (now_ms() - t1) / reps;
    const double speedup = generic_ms / compiled_ms;

    const auto kc = compiled.kernel_counts();
    std::printf("kernels: permutation=%zu diagonal=%zu monomial=%zu "
                "single_wire=%zu controlled=%zu dense=%zu\n",
                kc.permutation, kc.diagonal, kc.monomial, kc.single_wire,
                kc.controlled, kc.dense);
    std::printf("compile once:   %8.3f ms\n", compile_ms);
    std::printf("generic pass:   %8.3f ms\n", generic_ms);
    std::printf("compiled pass:  %8.3f ms\n", compiled_ms);
    std::printf("speedup:        %8.2fx %s\n\n", speedup,
                speedup >= 2.0 ? "(>= 2x target met)" : "(below 2x target)");

    // 3. Noise-trajectory shot throughput (compile once, run many shots).
    const noise::NoiseModel model = noise::dressed_qutrit();
    noise::TrajectoryOptions options;
    options.trials = trials;
    options.seed = 7;
    const double t2 = now_ms();
    const auto result = noise::run_noisy_trials(circuit, model, options);
    const double traj_ms = now_ms() - t2;
    const double shots_per_sec = 1000.0 * trials / traj_ms;
    std::printf("noisy trajectories: %d shots in %.1f ms (%.1f shots/s), "
                "mean fidelity %.4f +- %.4f\n",
                trials, traj_ms, shots_per_sec, result.mean_fidelity,
                result.two_sigma());

    // 4. Instrumented section: deterministic fused compile + one pass with
    // counters on (and span buffering when --trace was given). Every
    // metric below depends only on the circuit — not on reps/trials — so
    // CI can gate the counter values exactly.
    bench::ObsSection obs_section(bench::trace_flag(argc, argv));
    const exec::CompiledCircuit fused(circuit, exec::FusionOptions{});
    StateVector probe = init;
    fused.run(probe, scratch);
    const obs::SimReport rep = obs_section.finish();
    std::printf("\n%s\n", rep.to_string().c_str());

    char kc_json[160];
    std::snprintf(kc_json, sizeof(kc_json),
                  "{\"permutation\": %zu, \"diagonal\": %zu, \"monomial\": "
                  "%zu, \"single_wire\": %zu, \"controlled\": %zu, "
                  "\"dense\": %zu}",
                  kc.permutation, kc.diagonal, kc.monomial, kc.single_wire,
                  kc.controlled, kc.dense);
    bench::JsonWriter jw;
    jw.str("workload", "qutrit_gen_toffoli")
        .integer("n_controls", n_controls)
        .integer("reps", reps)
        .num("generic_ms_per_pass", generic_ms)
        .num("compiled_ms_per_pass", compiled_ms)
        .num("compile_ms", compile_ms)
        .num("speedup", speedup, "%.4f")
        .raw("kernel_counts", kc_json)
        .integer("noisy_trials", trials)
        .num("noisy_shots_per_sec", shots_per_sec, "%.2f")
        .num("mean_fidelity", result.mean_fidelity)
        .report(rep);
    jw.write("BENCH_exec.json");
    return 0;
}
