/**
 * Compile-service resubmission: the simulation-as-a-service traffic
 * pattern (the same circuit submitted over and over) against the
 * cross-request artifact cache.
 *
 * Workload: the paper's qutrit Generalized Toffoli, submitted through
 * exec::CompileService as a trajectory-engine job. Two measurements:
 *   1. ms per COLD submission (empty cache: verify + compile + insert),
 *   2. us per WARM submission (artifact-cache hit; no compile),
 * and their ratio — how much work the cache removes from every request
 * after the first. Emits BENCH_service.json.
 *
 * The instrumented section replays a fixed 16-submission burst with
 * counters on: exactly 1 service miss and 15 hits, gated exactly in CI
 * via compare_bench.py.
 *
 * The .qdj text layer is timed on the width-8 QUBIT gen-Toffoli job
 * document (about 64 KB, 1,531 ops), the large job of qdbench's
 * job-stream: decode_mb_per_s (ir::job_from_qdj), encode_mb_per_s
 * (ir::to_qdj of a freshly built circuit) and hash_us (ir::circuit_hash
 * of a freshly decoded circuit), so both include the first digest of
 * each gate, each the median of kTextReps runs. They are recorded for
 * CI artifacts, not gated.
 *
 * sweep_compile_ms is a cold sweep through the circuit tier: the same
 * width-8 QUBIT circuit compiled for the trajectory engine under the four
 * superconducting models (kAlways admission) on a cleared service, the
 * median of kSweepReps sweeps. The first model builds the circuit's entry
 * and the other three bind to it. It runs outside the instrumented
 * section and is recorded, not gated.
 *
 * Knobs: QD_SERVICE_CONTROLS (default 7), QD_SERVICE_COLD (default 5),
 * QD_SERVICE_WARM (default 512).
 */
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "constructions/gen_toffoli.h"
#include "noise/models.h"
#include "qdsim/exec/compile_service.h"
#include "qdsim/ir/ir.h"

namespace {

using namespace qd;

/** Runs per .qdj text-layer timing (each reported as the median). */
constexpr int kTextReps = 41;
/** Cold four-model sweeps timed (reported as the median). */
constexpr int kSweepReps = 5;

double
now_ms()
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Median of `reps` timings (ms) of `run`. */
template <class Run>
double
median_ms(int reps, Run run)
{
    std::vector<double> ms;
    for (int r = 0; r < reps; ++r) {
        ms.push_back(run());
    }
    std::nth_element(ms.begin(), ms.begin() + ms.size() / 2, ms.end());
    return ms[ms.size() / 2];
}

}  // namespace

int
main(int argc, char** argv)
{
    bench::banner("bench_service: compile-once execute-many resubmission",
                  "CompileService artifact cache; qutrit Generalized "
                  "Toffoli trajectory job");

    const int n_controls = bench::env_int("QD_SERVICE_CONTROLS", 7);
    const int cold_reps = bench::env_int("QD_SERVICE_COLD", 5);
    const int warm_reps = bench::env_int("QD_SERVICE_WARM", 512);

    const auto built =
        ctor::build_gen_toffoli(ctor::Method::kQutrit, n_controls);
    const Circuit& circuit = built.circuit;
    const noise::NoiseModel model = noise::sc();
    std::printf("%s\n\n", circuit.summary("workload").c_str());

    exec::CompileService service;

    // 1. Cold submissions: every request pays verify + compile + insert.
    const double t0 = now_ms();
    for (int r = 0; r < cold_reps; ++r) {
        service.clear();
        (void)service.compile(circuit, model, exec::EngineKind::kTrajectory,
                              {}, exec::Admission::kAlways);
    }
    const double cold_ms = (now_ms() - t0) / cold_reps;

    // 2. Warm submissions: the cache returns the shared artifact.
    (void)service.compile(circuit, model, exec::EngineKind::kTrajectory,
                          {}, exec::Admission::kAlways);
    const double t1 = now_ms();
    for (int r = 0; r < warm_reps; ++r) {
        (void)service.compile(circuit, model, exec::EngineKind::kTrajectory,
                              {}, exec::Admission::kAlways);
    }
    const double warm_ms = (now_ms() - t1) / warm_reps;
    const double speedup = cold_ms / warm_ms;

    std::printf("cold submission: %10.3f ms\n", cold_ms);
    std::printf("warm submission: %10.3f ms (%.1f us)\n", warm_ms,
                warm_ms * 1000.0);
    std::printf("amortization:    %10.1fx per request after the first\n\n",
                speedup);

    // 3. Instrumented burst: 16 identical submissions against the global
    // service (ObsSection clears it) — exactly 1 miss then 15 hits,
    // independent of the knobs above so CI can gate the counters exactly.
    const int burst = 16;
    bench::ObsSection obs_section(bench::trace_flag(argc, argv));
    for (int r = 0; r < burst; ++r) {
        (void)exec::CompileService::global().compile(
            circuit, model, exec::EngineKind::kTrajectory, {},
            exec::Admission::kAlways);
    }
    const obs::SimReport rep = obs_section.finish();
    exec::CompileService::global().clear();
    std::printf("%s\n", rep.to_string().c_str());

    // 4. The .qdj text layer on job-stream's large document.
    ir::Job large;
    large.name = "QUBIT-w8/SC";
    large.engine = "trajectory";
    large.shots = 4;
    large.noise = model.name;
    std::string doc;
    const double encode_ms = median_ms(kTextReps, [&] {
        // Built anew each run, so no gate digest is cached yet.
        large.circuit =
            ctor::build_gen_toffoli(ctor::Method::kQubitNoAncilla, 7).circuit;
        const double s = now_ms();
        doc = ir::to_qdj(large);
        return now_ms() - s;
    });
    const double decode_ms = median_ms(kTextReps, [&] {
        const double s = now_ms();
        const ir::Job decoded = ir::job_from_qdj(doc);
        return now_ms() - s;  // before the job is freed
    });
    volatile std::uint64_t hash_sink = 0;
    const double hash_ms = median_ms(kTextReps, [&] {
        const ir::Job decoded = ir::job_from_qdj(doc);
        const double s = now_ms();
        hash_sink = ir::circuit_hash(decoded.circuit);
        return now_ms() - s;
    });
    (void)hash_sink;
    const double mb = static_cast<double>(doc.size()) / 1e6;
    std::printf("text layer (%zu-byte width-8 QUBIT job, %zu ops):\n",
                doc.size(), large.circuit.num_ops());
    std::printf("  decode %8.3f ms (%6.1f MB/s)\n", decode_ms,
                mb / (decode_ms / 1e3));
    std::printf("  encode %8.3f ms (%6.1f MB/s)\n", encode_ms,
                mb / (encode_ms / 1e3));
    std::printf("  hash   %8.1f us\n\n", hash_ms * 1e3);

    // 5. A cold sweep of one circuit over the four SC models.
    const std::vector<noise::NoiseModel> sweep_models =
        noise::superconducting_models();
    const double sweep_ms = median_ms(kSweepReps, [&] {
        service.clear();
        const double s = now_ms();
        for (const noise::NoiseModel& m : sweep_models) {
            (void)service.compile(large.circuit, m,
                                  exec::EngineKind::kTrajectory, {},
                                  exec::Admission::kAlways);
        }
        return now_ms() - s;
    });
    std::printf("cold sweep (width-8 QUBIT, %zu SC models): %.3f ms\n\n",
                sweep_models.size(), sweep_ms);

    bench::JsonWriter jw;
    jw.str("workload", "qutrit_gen_toffoli_trajectory_job")
        .integer("n_controls", n_controls)
        .integer("cold_reps", cold_reps)
        .integer("warm_reps", warm_reps)
        .integer("burst", burst)
        .num("cold_ms_per_submission", cold_ms)
        .num("warm_ms_per_submission", warm_ms)
        .num("speedup", speedup, "%.4f")
        .integer("text_doc_bytes", static_cast<long long>(doc.size()))
        .num("decode_mb_per_s", mb / (decode_ms / 1e3), "%.2f")
        .num("encode_mb_per_s", mb / (encode_ms / 1e3), "%.2f")
        .num("hash_us", hash_ms * 1e3, "%.3f")
        .num("sweep_compile_ms", sweep_ms)
        .report(rep);
    jw.write("BENCH_service.json");
    return 0;
}
