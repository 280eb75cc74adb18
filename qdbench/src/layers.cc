#include "layers.h"

#include <complex>
#include <optional>
#include <utility>
#include <variant>

#include "noise/density_matrix.h"
#include "noise/models.h"
#include "noise/trajectory.h"
#include "qdsim/exec/compile_service.h"
#include "qdsim/exec/compiled_circuit.h"
#include "qdsim/ir/ir.h"
#include "qdsim/obs/counters.h"
#include "qdsim/simulator.h"
#include "qdsim/state_vector.h"
#include "serve/protocol.h"

namespace qdb {

namespace {

using qd::obs::Counter;
using qd::serve::RunResult;

struct KernelClass {
    const char* name;
    Counter ss;   ///< single-shot dispatches
    Counter bat;  ///< batched lanes
};

const KernelClass kKernelClasses[] = {
    {"permutation", Counter::kSsPermutation, Counter::kBatPermutation},
    {"diagonal", Counter::kSsDiagonal, Counter::kBatDiagonal},
    {"monomial", Counter::kSsMonomial, Counter::kBatMonomial},
    {"single_wire", Counter::kSsSingleWire, Counter::kBatSingleWire},
    {"controlled", Counter::kSsControlled, Counter::kBatControlled},
    {"dense", Counter::kSsDense, Counter::kBatDense},
};

const std::pair<const char*, Counter> kSuperClasses[] = {
    {"diagonal", Counter::kSuperDiagonal},
    {"monomial", Counter::kSuperMonomial},
    {"controlled", Counter::kSuperControlled},
    {"dense", Counter::kSuperDense},
};

bool
has_qutrit(const qd::Circuit& circuit)
{
    for (int w = 0; w < circuit.num_wires(); ++w) {
        if (circuit.dims().dim(w) > 2) {
            return true;
        }
    }
    return false;
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0;
}

}  // namespace

CounterSnapshot
delta(const CounterSnapshot& after, const CounterSnapshot& before)
{
    CounterSnapshot d;
    for (std::size_t i = 0; i < d.v.size(); ++i) {
        d.v[i] = after.v[i] - before.v[i];
    }
    return d;
}

void
accumulate(CounterSnapshot& total, const CounterSnapshot& d)
{
    for (std::size_t i = 0; i < total.v.size(); ++i) {
        total.v[i] += d.v[i];
    }
}

RunResult
LayerStats::run(const std::string& input, bool is_frame, int threads,
                Tracer& tracer, long long job_id)
{
    using qd::exec::EngineKind;
    ScopedSpan job_span(tracer, "job", job_id);
    RunResult result;

    std::string frame_id;
    std::string parsed_qdj;
    const std::string* qdj = &input;
    if (is_frame) {
        ScopedSpan s(tracer, "serve.parse_frame", job_id);
        const auto t0 = Clock::now();
        auto parsed = qd::serve::parse_frame(input);
        frame_s_ += seconds_since(t0);
        if (const auto* err = std::get_if<qd::ir::Error>(&parsed)) {
            return RunResult::rejected(*err);
        }
        auto& frame = std::get<qd::serve::Frame>(parsed);
        frame_id = std::move(frame.id);
        parsed_qdj = std::move(frame.qdj);
        qdj = &parsed_qdj;
    }

    qd::ir::Job job;
    {
        ScopedSpan s(tracer, "ir.decode", job_id);
        const auto t0 = Clock::now();
        try {
            job = qd::ir::job_from_qdj(*qdj);
        } catch (const qd::ir::ParseError& e) {
            return RunResult::rejected(e.error());
        }
        decode_s_ += seconds_since(t0);
        decode_bytes_ += static_cast<double>(qdj->size());
        ++decodes_;
    }
    std::uint64_t hash = 0;
    {
        ScopedSpan s(tracer, "ir.hash", job_id);
        const auto t0 = Clock::now();
        hash = qd::ir::circuit_hash(job.circuit);
        hash_s_ += seconds_since(t0);
        ++hashes_;
    }

    // From here on this is serve::execute for repeat = 1, split into its
    // layer calls.
    qd::serve::RunRequest request =
        qd::serve::RunRequest::from_job(std::move(job));
    request.threads = threads;
    const qd::ir::Job& j = request.job;
    result.name = j.name;
    result.engine = j.engine;
    std::optional<qd::noise::NoiseModel> model;
    if (!j.noise.empty()) {
        model = qd::noise::model_by_name(j.noise);
    }
    if ((!j.noise.empty() || j.engine != "state") && !model) {
        result.status = "rejected";
        result.error_id = "qdj.job";
        result.message = "no usable noise preset";
        return result;
    }

    const bool qutrit = has_qutrit(j.circuit);
    const double register_bytes =
        16.0 * static_cast<double>(j.circuit.dims().size());
    auto& service = qd::exec::CompileService::global();
    const auto start = Clock::now();
    try {
        bool hit = false;
        std::shared_ptr<const qd::exec::CompiledArtifact> artifact;
        {
            ScopedSpan s(tracer, "compile", job_id);
            const auto t0 = Clock::now();
            if (j.engine == "state") {
                artifact = service.compile(j.circuit, request.fusion,
                                           request.admission, &hit);
            } else {
                artifact = service.compile(
                    j.circuit, *model,
                    j.engine == "trajectory" ? EngineKind::kTrajectory
                                             : EngineKind::kDensity,
                    request.fusion, request.admission, &hit);
            }
            const double dt = seconds_since(t0);
            result.compile_seconds = dt;
            (hit ? hit_s_ : miss_s_) += dt;
            ++(hit ? hits_ : misses_);
        }
        if (!hit && cold_keys_.emplace(hash, j.engine, j.noise, j.fusion)
                        .second) {
            cold_.push_back({request, job_id});
        }
        result.warm = hit;

        const CounterSnapshot before = qd::obs::counters_snapshot();
        const auto t0 = Clock::now();
        if (j.engine == "state") {
            ScopedSpan s(tracer, "exec.state", job_id);
            const qd::StateVector psi = qd::simulate(*artifact->state);
            double norm = 0;
            for (qd::Index i = 0; i < psi.size(); ++i) {
                norm += std::norm(psi[i]);
            }
            result.value = norm;
        } else if (j.engine == "trajectory") {
            ScopedSpan s(tracer, "exec.trajectory", job_id);
            qd::noise::TrajectoryOptions options;
            options.trials = j.shots;
            options.seed = j.seed;
            options.batch = j.batch;
            options.threads = request.threads;
            const qd::noise::TrajectoryResult res =
                qd::noise::run_noisy_trials(*artifact->trajectory, options);
            result.value = res.mean_fidelity;
            result.std_error = res.std_error;
        } else {
            ScopedSpan s(tracer, "exec.density", job_id);
            const qd::StateVector initial(artifact->density->dims());
            result.value = qd::noise::density_matrix_fidelity(
                *artifact->density, initial);
        }
        const double dt = seconds_since(t0);
        const CounterSnapshot counts =
            delta(qd::obs::counters_snapshot(), before);
        result.exec_seconds = dt;
        exec_s_ += dt;
        if (j.engine == "trajectory") {
            traj_s_[qutrit] += dt;
            traj_shots_[qutrit] += j.shots;
        } else if (j.engine == "density") {
            density_s_[qutrit] += dt;
        }
        double lane_dispatches = 0;
        for (const KernelClass& cls : kKernelClasses) {
            lane_dispatches +=
                static_cast<double>(counts[cls.ss] + counts[cls.bat]);
        }
        bytes_ += register_bytes * lane_dispatches;
        accumulate(exec_counts_, counts);
    } catch (const qd::verify::VerificationError& e) {
        result.status = "rejected";
        result.error_id = e.report().findings().empty()
                              ? "verify"
                              : e.report().findings().front().rule;
        result.message = e.what();
    } catch (const std::exception& e) {
        result.status = "failed";
        result.message = e.what();
    }
    result.seconds = seconds_since(start);

    {
        ScopedSpan s(tracer, "serve.serialize", job_id);
        const auto t0 = Clock::now();
        result.to_json();
        frame_s_ += seconds_since(t0);
    }
    if (is_frame) {
        ScopedSpan s(tracer, "serve.result_frame", job_id);
        const auto t0 = Clock::now();
        qd::serve::result_frame(frame_id, result);
        frame_s_ += seconds_since(t0);
    }
    ++frames_;
    return result;
}

void
LayerStats::probe_cold(Tracer& tracer)
{
    using qd::exec::Admission;
    using qd::exec::CompileService;
    ScopedSpan probe(tracer, "probe", -1);
    for (const Cold& c : cold_) {
        const qd::ir::Job& j = c.request.job;
        const auto& fusion = c.request.fusion;
        std::optional<qd::noise::NoiseModel> model;
        if (!j.noise.empty()) {
            model = qd::noise::model_by_name(j.noise);
        }
        {
            ScopedSpan s(tracer, "verify.admission", c.job);
            const auto t0 = Clock::now();
            if (model) {
                CompileService::admission_report(j.circuit, *model,
                                                 Admission::kAlways, fusion);
            } else {
                CompileService::admission_report(j.circuit,
                                                 Admission::kAlways, fusion);
            }
            admission_s_ += seconds_since(t0);
            ++admissions_;
        }
        {
            ScopedSpan s(tracer, "engine.build", c.job);
            const auto t0 = Clock::now();
            if (j.engine == "trajectory") {
                const qd::noise::TrajectoryCompilation built(j.circuit,
                                                             *model, fusion);
            } else if (j.engine == "density") {
                const qd::noise::DensityCompilation built(j.circuit, *model,
                                                          fusion);
            } else {
                const qd::exec::CompiledCircuit built(j.circuit, fusion);
            }
            build_s_ += seconds_since(t0);
            ++builds_;
        }
    }
    cold_.clear();
}

void
LayerStats::emit(Outcome& out, const CounterSnapshot& window,
                 double passes) const
{
    const double per = passes > 0 ? 1.0 / passes : 0;
    auto count = [&](const CounterSnapshot& c, Counter counter) {
        return static_cast<double>(c[counter]) * per;
    };
    auto share = [&](Counter num, Counter base) {
        return ratio(static_cast<double>(window[num]),
                     static_cast<double>(window[base]));
    };

    out.metric("serve.frame_us", 1e6 * ratio(frame_s_, frames_), "us");
    out.metric("ir.decode_ms", 1e3 * ratio(decode_s_, decodes_), "ms");
    out.metric("ir.decode_mb_per_s", 1e-6 * ratio(decode_bytes_, decode_s_),
               "MB/s");
    out.metric("ir.hash_ms", 1e3 * ratio(hash_s_, hashes_), "ms");

    out.metric("compile.hit_ms", 1e3 * ratio(hit_s_, hits_), "ms");
    out.metric("compile.miss_ms", 1e3 * ratio(miss_s_, misses_), "ms");
    const double lookups = static_cast<double>(
        window[Counter::kServiceHits] + window[Counter::kServiceMisses]);
    out.metric("compile.hit_ratio",
               ratio(static_cast<double>(window[Counter::kServiceHits]),
                     lookups),
               "ratio");
    out.metric("compile.evictions", count(window, Counter::kServiceEvictions),
               "count");

    out.metric("verify.admission_ms", 1e3 * ratio(admission_s_, admissions_),
               "ms");
    out.metric("engine.build_ms", 1e3 * ratio(build_s_, builds_), "ms");
    out.metric("fusion.ops_in", count(window, Counter::kFusionOpsIn),
               "count");
    out.metric("fusion.blocks_out", count(window, Counter::kFusionBlocksOut),
               "count");
    out.metric("fusion.cost_rejected",
               count(window, Counter::kFusionCostRejected), "count");
    out.metric("plan.builds", count(window, Counter::kPlanBuilds), "count");
    const double plan_lookups =
        static_cast<double>(window[Counter::kPlanCacheHits] +
                            window[Counter::kPlanCacheMisses]);
    out.metric("plan.hit_ratio",
               ratio(static_cast<double>(window[Counter::kPlanCacheHits]),
                     plan_lookups),
               "ratio");

    for (const KernelClass& cls : kKernelClasses) {
        out.metric("kernel.ss." + std::string(cls.name),
                   count(exec_counts_, cls.ss), "count");
    }
    for (const KernelClass& cls : kKernelClasses) {
        out.metric("kernel.bat." + std::string(cls.name),
                   count(exec_counts_, cls.bat), "count");
    }
    const double flops =
        static_cast<double>(exec_counts_[Counter::kEstimatedFlops]);
    out.metric("kernel.est_gflop", 1e-9 * flops * per, "GFLOP");
    out.metric("kernel.gflop_per_s", 1e-9 * ratio(flops, exec_s_),
               "GFLOP/s");
    out.metric("kernel.bytes_gb", 1e-9 * bytes_ * per, "GB-computed");

    out.metric("traj.exec_s.qutrit", traj_s_[1] * per, "s");
    out.metric("traj.exec_s.qubit", traj_s_[0] * per, "s");
    out.metric("traj.shots_per_s.qutrit", ratio(traj_shots_[1], traj_s_[1]),
               "shots/s");
    out.metric("traj.shots_per_s.qubit", ratio(traj_shots_[0], traj_s_[0]),
               "shots/s");
    out.metric("traj.lane_extract_ratio",
               share(Counter::kTrajLaneExtracts, Counter::kTrajShots),
               "ratio");
    out.metric("traj.gate_error_fire_ratio",
               share(Counter::kTrajGateErrorsFired,
                     Counter::kTrajGateErrorDraws),
               "ratio");
    out.metric("traj.batches", count(window, Counter::kTrajBatches), "count");
    out.metric("traj.damping_jumps", count(window, Counter::kTrajDampingJumps),
               "count");
    out.metric("traj.rare_branches",
               count(window, Counter::kTrajRareBranches), "count");

    out.metric("density.exec_s.qutrit", density_s_[1] * per, "s");
    out.metric("density.exec_s.qubit", density_s_[0] * per, "s");
    for (const auto& [name, counter] : kSuperClasses) {
        out.metric("superop." + std::string(name),
                   count(exec_counts_, counter), "count");
    }
}

}  // namespace qdb
