/**
 * @file layers.h
 * The traced request path. One job goes through the same public layer
 * calls serve::execute makes — ir::job_from_qdj, exec::CompileService,
 * the engine entry point, RunResult::to_json — each timed in its own span
 * and, around the engine call, bracketed by obs counter snapshots. The
 * verify admission gate and the engine compilations run inside
 * CompileService::compile, so they are timed by probes: once per distinct
 * cold circuit, after the timed pass, outside its counter window.
 *
 * LayerStats then maps everything onto the per-layer metric names that
 * BENCHMARK.json declares (see WORKLOADS.md for the definitions).
 */
#ifndef QDBENCH_LAYERS_H
#define QDBENCH_LAYERS_H

#include <cstdint>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "bench.h"
#include "qdsim/obs/counters.h"
#include "serve/run.h"
#include "trace.h"

namespace qdb {

using qd::obs::CounterSnapshot;

/** after - before, counter by counter. */
CounterSnapshot delta(const CounterSnapshot& after,
                      const CounterSnapshot& before);
/** total += d, counter by counter. */
void accumulate(CounterSnapshot& total, const CounterSnapshot& d);

class LayerStats {
 public:
    /**
     * Executes one job through the layers. `input` is the .qdj text, or
     * a submit frame when `is_frame` (then parse_frame and result_frame
     * are timed as part of the serving layer). Mirrors serve::execute;
     * callers compare the outcome with it.
     */
    qd::serve::RunResult run(const std::string& input, bool is_frame,
                             int threads, Tracer& tracer, long long job);

    /** Times admission and engine construction once for each distinct
     *  (circuit, engine, noise, fusion) that has missed the cache since
     *  the last call, skipping ones probed before. */
    void probe_cold(Tracer& tracer);

    /**
     * Emits the library-layer metrics (ir, compile, verify, engine build,
     * fusion, plan, kernel, trajectory, density, superop). `window` is
     * the counter delta over the traced jobs; counts and busy times are
     * divided by `passes` so they read per pass over the job list.
     */
    void emit(Outcome& out, const CounterSnapshot& window,
              double passes) const;

 private:
    struct Cold {
        qd::serve::RunRequest request;
        long long job = -1;
    };

    double decode_s_ = 0;
    double decode_bytes_ = 0;
    long long decodes_ = 0;
    double hash_s_ = 0;
    long long hashes_ = 0;
    double hit_s_ = 0;
    long long hits_ = 0;
    double miss_s_ = 0;
    long long misses_ = 0;
    double frame_s_ = 0;
    long long frames_ = 0;
    double admission_s_ = 0;
    long long admissions_ = 0;
    double build_s_ = 0;
    long long builds_ = 0;
    double traj_s_[2] = {0, 0};  ///< [qubit, qutrit] registers
    double traj_shots_[2] = {0, 0};
    double density_s_[2] = {0, 0};
    double exec_s_ = 0;
    double bytes_ = 0;  ///< computed: register bytes x lane dispatches
    CounterSnapshot exec_counts_;
    std::vector<Cold> cold_;  ///< first miss of each distinct key, unprobed
    std::set<std::tuple<std::uint64_t, std::string, std::string, bool>>
        cold_keys_;
};

}  // namespace qdb

#endif  // QDBENCH_LAYERS_H
