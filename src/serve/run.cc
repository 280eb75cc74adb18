#include "serve/run.h"

#include <chrono>
#include <complex>
#include <cstdio>
#include <optional>
#include <utility>

#include "noise/density_matrix.h"
#include "noise/models.h"
#include "noise/trajectory.h"
#include "qdsim/simulator.h"
#include "qdsim/state_vector.h"

namespace qd::serve {

namespace {

using Clock = std::chrono::steady_clock;

double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** The stable error id of a job whose engine threw. */
const char*
exec_error_id(std::string_view engine)
{
    return engine == "state"        ? "exec.state"
           : engine == "trajectory" ? "exec.trajectory"
                                    : "exec.density";
}

}  // namespace

RunRequest
RunRequest::from_job(ir::Job job)
{
    RunRequest request;
    request.fusion.enabled = job.fusion;
    request.job = std::move(job);
    return request;
}

RunRequest
RunRequest::from_qdj(std::string_view text)
{
    return from_job(ir::job_from_qdj(text));
}

RunResult
RunResult::rejected(const ir::Error& error)
{
    RunResult result;
    result.status = "rejected";
    result.error_id = error.id;
    result.message = error.message;
    return result;
}

std::string
json_escape(std::string_view s)
{
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

std::string
RunResult::to_json() const
{
    char buf[160];
    std::string out = "{\"schema\": ";
    out += std::to_string(kRunResultSchema);
    out += ", \"file\": \"" + json_escape(file);
    out += "\", \"name\": \"" + json_escape(name);
    out += "\", \"engine\": \"" + json_escape(engine);
    out += "\", \"status\": \"" + json_escape(status);
    out += "\", \"error_id\": \"" + json_escape(error_id);
    out += "\", \"message\": \"" + json_escape(message);
    std::snprintf(buf, sizeof(buf),
                  "\", \"value\": %.17g, \"std_error\": %.17g", value,
                  std_error);
    out += buf;
    out += warm ? ", \"warm\": true" : ", \"warm\": false";
    std::snprintf(buf, sizeof(buf),
                  ", \"repeat\": %d, \"compile_seconds\": %.6f, "
                  "\"exec_seconds\": %.6f, \"seconds\": %.6f}",
                  repeat, compile_seconds, exec_seconds, seconds);
    out += buf;
    return out;
}

RunResult
execute(const RunRequest& request, exec::CompileService& service)
{
    const ir::Job& job = request.job;
    RunResult result;
    result.name = job.name;
    result.engine = job.engine;
    result.repeat = request.repeat;

    if (request.repeat <= 0) {
        result.status = "rejected";
        result.error_id = "serve.request";
        result.message = "repeat must be positive";
        return result;
    }

    // Resolve the noise preset once; the engines below consume the model
    // by reference across every repeat iteration.
    std::optional<noise::NoiseModel> model;
    if (!job.noise.empty()) {
        model = noise::model_by_name(job.noise);
        if (!model) {
            result.status = "rejected";
            result.error_id = "qdj.job";
            result.message = "unknown noise preset: " + job.noise;
            return result;
        }
    }
    if (job.engine != "state" && !model) {
        result.status = "rejected";
        result.error_id = "qdj.job";
        result.message = "engine \"" + job.engine +
                         "\" requires a noise preset";
        return result;
    }

    const auto start = Clock::now();
    try {
        for (int r = 0; r < request.repeat; ++r) {
            // Compile stays INSIDE the repeat loop: each iteration is one
            // full resubmission, so iterations past the first exercise
            // (and report) the warm artifact-cache path.
            bool hit = false;
            const auto c0 = Clock::now();
            if (job.engine == "state") {
                const auto artifact = service.compile(
                    job.circuit, request.fusion, request.admission, &hit);
                result.compile_seconds += since(c0);
                const auto e0 = Clock::now();
                const StateVector psi = simulate(*artifact->state);
                double norm = 0;
                for (Index i = 0; i < psi.size(); ++i) {
                    norm += std::norm(psi[i]);
                }
                result.value = norm;
                result.exec_seconds += since(e0);
            } else if (job.engine == "trajectory") {
                const auto artifact = service.compile(
                    job.circuit, *model, exec::EngineKind::kTrajectory,
                    request.fusion, request.admission, &hit);
                result.compile_seconds += since(c0);
                const auto e0 = Clock::now();
                noise::TrajectoryOptions options;
                options.trials = job.shots;
                options.seed = job.seed;
                options.batch = job.batch;
                options.threads = request.threads;
                const noise::TrajectoryResult res =
                    noise::run_noisy_trials(*artifact->trajectory, options);
                result.value = res.mean_fidelity;
                result.std_error = res.std_error;
                result.exec_seconds += since(e0);
            } else {  // "density" (job_from_qdj validated the field)
                const auto artifact = service.compile(
                    job.circuit, *model, exec::EngineKind::kDensity,
                    request.fusion, request.admission, &hit);
                result.compile_seconds += since(c0);
                const auto e0 = Clock::now();
                const StateVector initial(artifact->density->dims());
                result.value = noise::density_matrix_fidelity(
                    *artifact->density, initial, request.threads);
                result.exec_seconds += since(e0);
            }
            result.warm = result.warm || hit;
        }
    } catch (const verify::VerificationError& e) {
        result.status = "rejected";
        result.error_id = e.report().findings().empty()
                              ? "verify"
                              : e.report().findings().front().rule;
        result.message = e.what();
    } catch (const std::exception& e) {
        result.status = "failed";
        result.error_id = exec_error_id(job.engine);
        result.message = e.what();
    }
    result.seconds = since(start);
    return result;
}

RunResult
execute(const RunRequest& request)
{
    return execute(request, exec::CompileService::global());
}

}  // namespace qd::serve
