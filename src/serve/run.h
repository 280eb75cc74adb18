/**
 * @file run.h
 * The unified job-execution facade every front-end shares.
 *
 * PR 9 split compile from execute; this layer finishes the API: one
 * `RunRequest` (an ir::Job plus the execution overrides that used to
 * thread through loose parameters — repeat, engine threads, admission,
 * fusion) goes in, one `RunResult` (status, payload, stable error id,
 * compile/exec timings, warm-cache signal) comes out, with a single
 * stable JSON schema. `qd_run`, the `qd_served` daemon, the stdin loop
 * and the tests all call `serve::execute` instead of assembling their
 * own result paths, so every front-end reports the same fields the same
 * way.
 *
 * Status values:
 *   "ok"        the job executed; `value` holds the engine's payload
 *               (output norm for "state", mean fidelity for
 *               "trajectory"/"density") and `std_error` the trajectory
 *               1-sigma standard error.
 *   "rejected"  the job never executed: IR decode failure (stable
 *               `qdj.*` id), unknown noise preset, or a verify admission
 *               rejection (the id is the first finding's rule).
 *   "failed"    the job threw during execution; the id names the
 *               engine (`exec.state`, `exec.trajectory`, `exec.density`).
 *
 * `repeat > 1` resubmits the SAME parsed job N times (compile + execute
 * per iteration, decode never repeated): the artifact cache turns every
 * iteration after the first into a warm hit, which is exactly the
 * repeated-submission traffic `qd_run --repeat` and the daemon
 * amortize. Timings are split so resubmission economics are visible per
 * job: `compile_seconds` covers the CompileService calls (admission +
 * compile or cache hit), `exec_seconds` the engine runs.
 */
#ifndef SERVE_RUN_H
#define SERVE_RUN_H

#include <string>
#include <string_view>

#include "qdsim/exec/compile_service.h"
#include "qdsim/ir/ir.h"

namespace qd::serve {

/** Version of the RunResult JSON schema (the "schema" field). v2: the
 *  shared-facade schema — v1 was qd_run's ad-hoc per-job object (no
 *  schema/message/warm/repeat fields, no compile/exec timing split). */
inline constexpr int kRunResultSchema = 2;

/**
 * One executable submission: the parsed job plus every execution
 * override, folded into a single value instead of loose parameters.
 * Build with from_job()/from_qdj() so both CLIs and the daemon agree on
 * how job fields map onto engine options.
 */
struct RunRequest {
    ir::Job job;
    /** Submissions of the same parsed job (compile + execute each). */
    int repeat = 1;
    /** Engine worker threads per submission (0 = hardware concurrency).
     *  The daemon sets 1 and scales across jobs with its worker pool. */
    int threads = 0;
    /** Verify gate strength; front-ends executing untrusted IR keep the
     *  kAlways default. */
    exec::Admission admission = exec::Admission::kAlways;
    /** Compile options; from_job() folds ir::Job::fusion into enabled. */
    exec::FusionOptions fusion;

    /** The one place job fields become execution options. */
    static RunRequest from_job(ir::Job job);

    /** Decodes .qdj text and builds the request.
     *  @throws ir::ParseError with a stable qdj.* id on malformed input. */
    static RunRequest from_qdj(std::string_view text);
};

/** Outcome of one RunRequest, serialisable with one stable schema. */
struct RunResult {
    std::string file;    ///< source label (qd_run: the .qdj path)
    std::string name;    ///< job name
    std::string engine;  ///< "state" | "trajectory" | "density"
    std::string status = "ok";  ///< "ok" | "rejected" | "failed"
    std::string error_id;       ///< stable qdj.* / verify-rule / serve.* id
    std::string message;
    double value = 0;      ///< norm (state) or mean fidelity (noisy)
    double std_error = 0;  ///< trajectory 1-sigma standard error
    bool warm = false;     ///< any submission hit a warm CompiledArtifact
    int repeat = 1;
    double compile_seconds = 0;  ///< total CompileService time
    double exec_seconds = 0;     ///< total engine execution time
    double seconds = 0;          ///< wall time of the whole request

    bool ok() const { return status == "ok"; }

    /** Result for a job that never parsed (carries the qdj.* id). */
    static RunResult rejected(const ir::Error& error);

    /** Single-line JSON object, schema-versioned; `value`/`std_error`
     *  print with %.17g so doubles round-trip bitwise through the wire. */
    std::string to_json() const;
};

/** Escapes a string for embedding in a JSON literal (no quotes added). */
std::string json_escape(std::string_view s);

/**
 * Executes one request through the given CompileService and the engine
 * selected by the job. Never throws on bad jobs — rejections and
 * execution failures come back as the RunResult status. The global()
 * overload is the one request path `qd_run` and `qd_served` share.
 */
RunResult execute(const RunRequest& request, exec::CompileService& service);
RunResult execute(const RunRequest& request);

}  // namespace qd::serve

#endif  // SERVE_RUN_H
