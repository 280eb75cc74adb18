/**
 * Compiled density-matrix engine vs the dense expand() oracle.
 *
 * Workload: a 3-qutrit depolarizing circuit (H3 layers + controlled-X+1
 * chains), evolved exactly as a density matrix. Two measurements:
 *   1. ms per exact-evolution pass with the old dense path — expand every
 *      gate and every Kraus operator of every gate-error channel to
 *      D x D and multiply, O(D^3) per operator,
 *   2. ms per pass with the compiled engine (density_matrix_fidelity) —
 *      gates conjugated through the batched kernels (rho's columns as
 *      lanes) at O(D^2 * b) each, every gate-error channel as one
 *      closed-form O(D^2) pass instead of b^2 Kraus conjugations, all
 *      compiled once against shared ApplyPlans.
 * The two fidelities are also compared (they must agree to ~1e-10).
 * Emits BENCH_density.json so the perf trajectory accumulates run over
 * run; the acceptance bar is a >= 5x compiled-over-dense speedup.
 *
 * Knobs: QD_DENSITY_WIRES (default 3), QD_DENSITY_LAYERS (default 3),
 * QD_DENSITY_REPS (default 3).
 */
#include <chrono>
#include <cmath>
#include <cstdio>

#include "bench_util.h"
#include "noise/channels.h"
#include "noise/density_matrix.h"
#include "noise/error_placement.h"
#include "qdsim/gate_library.h"
#include "qdsim/moments.h"
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

/** Layered qutrit workload: H3 on every wire, then a controlled-X+1
 *  chain, repeated. */
Circuit
build_workload(int wires, int layers)
{
    Circuit c(WireDims::uniform(wires, 3));
    for (int l = 0; l < layers; ++l) {
        for (int w = 0; w < wires; ++w) {
            c.append(gates::H3(), {w});
        }
        for (int w = 0; w + 1 < wires; ++w) {
            c.append(gates::Xplus1().controlled(3, 1), {w, w + 1});
        }
    }
    return c;
}

/**
 * The pre-compilation exact engine, verbatim: every operator expanded to
 * the full register and applied with dense matrix products. Serves as
 * both the timing baseline and the correctness oracle.
 */
Real
dense_reference_fidelity(const Circuit& circuit,
                         const noise::NoiseModel& model,
                         const StateVector& initial)
{
    const StateVector ideal = simulate(circuit, initial);
    noise::DensityMatrix dm(initial);
    const auto sites = noise::enumerate_error_sites(circuit, model);
    const auto moments = schedule_asap(circuit);
    for (const Moment& moment : moments) {
        for (const std::size_t idx : moment.op_indices) {
            const Operation& op = circuit.ops()[idx];
            dm.apply_unitary_dense(op.gate.matrix(),
                                   std::span<const int>(op.wires));
            for (const noise::ErrorSite& site : sites[idx]) {
                const auto ch =
                    site.dims.size() == 1
                        ? noise::depolarizing1(site.dims[0],
                                               site.per_channel)
                        : noise::depolarizing2(site.dims[0], site.dims[1],
                                               site.per_channel);
                std::size_t block = 1;
                for (const int d : site.dims) {
                    block *= static_cast<std::size_t>(d);
                }
                dm.apply_channel_dense(ch.to_kraus(block),
                                       std::span<const int>(site.wires));
            }
        }
    }
    return dm.fidelity(ideal);
}

}  // namespace

int
main(int argc, char** argv)
{
    bench::banner("bench_density: compiled density engine vs dense expand()",
                  "Section 6.2 exact reference; 3-qutrit depolarizing "
                  "workload");

    const int wires = bench::env_int("QD_DENSITY_WIRES", 3);
    const int layers = bench::env_int("QD_DENSITY_LAYERS", 3);
    const int reps = bench::env_int("QD_DENSITY_REPS", 3);

    const Circuit circuit = build_workload(wires, layers);
    std::printf("%s\n\n", circuit.summary("workload").c_str());

    noise::NoiseModel model;
    model.name = "DEPOLARIZING";
    model.p1 = 1e-3;
    model.p2 = 1e-3;
    model.dt_1q = 100e-9;
    model.dt_2q = 300e-9;

    Rng rng(2019);
    const StateVector init = haar_random_state(circuit.dims(), rng);

    // 1. Dense expand() oracle, O(D^3) per operator.
    Real dense_fid = 0;
    const double t0 = now_ms();
    for (int r = 0; r < reps; ++r) {
        dense_fid = dense_reference_fidelity(circuit, model, init);
    }
    const double dense_ms = (now_ms() - t0) / reps;

    // 2. Compiled engine: batched-kernel conjugations, closed-form
    //    channels.
    Real compiled_fid = 0;
    const double t1 = now_ms();
    for (int r = 0; r < reps; ++r) {
        compiled_fid = noise::density_matrix_fidelity(circuit, model, init);
    }
    const double compiled_ms = (now_ms() - t1) / reps;
    const double speedup = dense_ms / compiled_ms;
    const double diff = std::abs(dense_fid - compiled_fid);

    std::printf("dense pass:     %10.3f ms  (fidelity %.10f)\n", dense_ms,
                dense_fid);
    std::printf("compiled pass:  %10.3f ms  (fidelity %.10f)\n",
                compiled_ms, compiled_fid);
    std::printf("agreement:      |dF| = %.3e %s\n", diff,
                diff < 1e-10 ? "(matches oracle)" : "(MISMATCH)");
    std::printf("speedup:        %10.2fx %s\n", speedup,
                speedup >= 5.0 ? "(>= 5x target met)"
                               : "(below 5x target)");

    // Instrumented section: one compiled pass with counters on
    // (conjugation classes of the gates, the batched kernel passes they
    // run, plan-cache traffic) and optional --trace spans.
    bench::ObsSection obs_section(bench::trace_flag(argc, argv));
    noise::density_matrix_fidelity(circuit, model, init);
    const obs::SimReport rep = obs_section.finish();
    std::printf("\n%s\n", rep.to_string().c_str());

    bench::JsonWriter jw;
    jw.str("workload", "qutrit_layered_depolarizing")
        .integer("wires", wires)
        .integer("layers", layers)
        .integer("reps", reps)
        .num("dense_ms_per_pass", dense_ms)
        .num("compiled_ms_per_pass", compiled_ms)
        .num("speedup", speedup, "%.4f")
        .num("dense_fidelity", dense_fid, "%.12f")
        .num("compiled_fidelity", compiled_fid, "%.12f")
        .num("fidelity_abs_diff", diff, "%.3e")
        .report(rep);
    jw.write("BENCH_density.json");
    return diff < 1e-10 ? 0 : 1;
}
