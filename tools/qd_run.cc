/**
 * @file qd_run.cc
 * Execution front-end for .qdj jobs, built on the serve::RunRequest →
 * RunResult facade (src/serve/run.h) — the exact request path the
 * qd_served daemon serves, so both front-ends emit the same result
 * schema. Every circuit enters through the CompileService with
 * Admission::kAlways (untrusted-IR verification), so malformed or
 * illegal input is rejected with a stable error id instead of
 * executing, and repeated submissions of the same job hit the
 * cross-request artifact cache (reported via the obs service counters).
 * Jobs that share a circuit under different noise models share its
 * circuit-tier entry: the summary's obs_service_circuit_hits counts the
 * artifact misses that reused one.
 *
 * Usage:
 *   qd_run [--json FILE] [--repeat N] JOB.qdj...
 *   qd_run --write-corpus DIR      write the reference job corpus and exit
 *
 * Per job the engine field selects the execution path:
 *   "state"       simulate from |0...0>; reports the output norm
 *   "trajectory"  run_noisy_trials (shots/seed/batch); mean fidelity
 *   "density"     density_matrix_fidelity from |0...0>
 *
 * --repeat N resubmits each job N times from ONE parse (decode happens
 * once per file; compile + execute repeat), so repeat timing measures
 * execution and cache traffic, not parsing.
 *
 * --json writes result schema v2: {"schema": 2, "jobs": [<RunResult
 * JSON>...], summary keys}. v2 replaces the v1 ad-hoc job objects with
 * serve::RunResult::to_json() — new fields schema/message/warm/repeat
 * and the compile_seconds/exec_seconds timing split; the v1 fields
 * (file/name/engine/status/error_id/value/std_error/seconds) and the
 * top-level summary keys are unchanged. The summary also names the
 * lane-kernel build that ran ("kernel_isa": "avx2" or "baseline").
 *
 * Exit status: 0 when every job ran, 1 on any rejection or execution
 * failure, 2 on bad usage or unreadable input.
 */
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "qdsim/exec/batched_kernels.h"
#include "qdsim/gate_library.h"
#include "qdsim/ir/ir.h"
#include "qdsim/obs/report.h"
#include "serve/run.h"

namespace {

using qd::Circuit;
using qd::WireDims;
using qd::serve::RunRequest;
using qd::serve::RunResult;

/** Decodes and executes one job file through the shared serve facade. */
RunResult
run_file(const std::string& path, const std::string& text, int repeat)
{
    RunRequest request;
    try {
        request = RunRequest::from_qdj(text);
    } catch (const qd::ir::ParseError& e) {
        RunResult result = RunResult::rejected(e.error());
        result.file = path;
        return result;
    }
    request.repeat = repeat;
    RunResult result = qd::serve::execute(request);
    result.file = path;
    if (result.name.empty()) {
        result.name = path;
    }
    return result;
}

/** The committed bench/jobs reference corpus: one job per engine, small
 *  enough for CI, all on calibrated presets. */
std::vector<qd::ir::Job>
reference_corpus()
{
    // Shared 2-qutrit workload: layered H3 + controlled-X+1 (entangling),
    // mirrors the obs invariance tests' noisy workload.
    Circuit noisy(WireDims::uniform(2, 3));
    for (int l = 0; l < 2; ++l) {
        noisy.append(qd::gates::H3(), {0});
        noisy.append(qd::gates::H3(), {1});
        noisy.append(qd::gates::Xplus1().controlled(3, 1), {0, 1});
    }

    // Wider ideal workload for the state engine: a 4-qutrit ladder.
    Circuit ladder(WireDims::uniform(4, 3));
    for (int w = 0; w < 4; ++w) {
        ladder.append(qd::gates::H3(), {w});
    }
    for (int w = 0; w + 1 < 4; ++w) {
        ladder.append(qd::gates::Xplus1().controlled(3, 1), {w, w + 1});
    }
    ladder.append(qd::gates::Z3(), {3});

    std::vector<qd::ir::Job> jobs;
    {
        qd::ir::Job j;
        j.name = "state-qutrit-ladder-n4";
        j.engine = "state";
        j.circuit = ladder;
        jobs.push_back(std::move(j));
    }
    {
        qd::ir::Job j;
        j.name = "traj-qutrit-cx-sc";
        j.engine = "trajectory";
        j.shots = 200;
        j.seed = 2019;
        j.noise = "SC";
        j.circuit = noisy;
        jobs.push_back(std::move(j));
    }
    {
        qd::ir::Job j;
        j.name = "density-qutrit-cx-sc";
        j.engine = "density";
        j.noise = "SC";
        j.circuit = noisy;
        jobs.push_back(std::move(j));
    }
    return jobs;
}

int
write_corpus(const std::string& dir)
{
    for (const qd::ir::Job& job : reference_corpus()) {
        const std::string path = dir + "/" + job.name + ".qdj";
        std::ofstream out(path);
        if (!out) {
            std::fprintf(stderr, "qd_run: cannot write %s\n",
                         path.c_str());
            return 2;
        }
        out << qd::ir::to_qdj(job);
        std::printf("wrote %s\n", path.c_str());
    }
    return 0;
}

}  // namespace

int
main(int argc, char** argv)
{
    std::string json_path;
    std::string corpus_dir;
    int repeat = 1;
    std::vector<std::string> files;
    for (int i = 1; i < argc; ++i) {
        const std::string_view arg = argv[i];
        if (arg == "--json" && i + 1 < argc) {
            json_path = argv[++i];
        } else if (arg == "--repeat" && i + 1 < argc) {
            repeat = std::atoi(argv[++i]);
        } else if (arg == "--write-corpus" && i + 1 < argc) {
            corpus_dir = argv[++i];
        } else if (!arg.empty() && arg[0] == '-') {
            std::fprintf(stderr,
                         "usage: qd_run [--json FILE] [--repeat N] "
                         "JOB.qdj...\n       qd_run --write-corpus DIR\n");
            return 2;
        } else {
            files.emplace_back(arg);
        }
    }
    if (!corpus_dir.empty()) {
        return write_corpus(corpus_dir);
    }
    if (files.empty() || repeat <= 0) {
        std::fprintf(stderr,
                     "usage: qd_run [--json FILE] [--repeat N] "
                     "JOB.qdj...\n       qd_run --write-corpus DIR\n");
        return 2;
    }

    // Instrument the whole run so the cache-traffic counters land in the
    // result JSON; restore the ambient switch afterwards.
    const bool was_enabled = qd::obs::enabled();
    qd::obs::set_enabled(true);
    qd::obs::reset_counters();

    std::vector<RunResult> results;
    int ok = 0, rejected = 0, failed = 0;
    for (const std::string& file : files) {
        std::ifstream in(file);
        if (!in) {
            std::fprintf(stderr, "qd_run: cannot read %s\n", file.c_str());
            qd::obs::set_enabled(was_enabled);
            return 2;
        }
        std::ostringstream text;
        text << in.rdbuf();
        const RunResult res = run_file(file, text.str(), repeat);
        if (res.ok()) {
            ++ok;
            std::printf("%-28s %-10s ok     %.6f", res.name.c_str(),
                        res.engine.c_str(), res.value);
            if (res.std_error > 0) {
                std::printf(" +- %.6f", res.std_error);
            }
            std::printf("  (%.3fs)\n", res.seconds);
        } else {
            if (res.status == "rejected") {
                ++rejected;
            } else {
                ++failed;
            }
            std::printf("%-28s %-10s %s [%s] %s\n",
                        (res.name.empty() ? res.file : res.name).c_str(),
                        res.engine.c_str(), res.status.c_str(),
                        res.error_id.c_str(), res.message.c_str());
        }
        results.push_back(res);
    }

    const qd::obs::SimReport rep = qd::obs::report_snapshot();
    qd::obs::set_enabled(was_enabled);
    using qd::obs::Counter;
    const auto hits = rep.counters[Counter::kServiceHits];
    const auto misses = rep.counters[Counter::kServiceMisses];
    const auto rejects = rep.counters[Counter::kServiceRejects];
    const auto circuit_hits = rep.counters[Counter::kServiceCircuitHits];
    const auto circuit_misses =
        rep.counters[Counter::kServiceCircuitMisses];
    std::printf(
        "qd_run: %d ok, %d rejected, %d failed; service hits=%llu "
        "misses=%llu\n",
        ok, rejected, failed, static_cast<unsigned long long>(hits),
        static_cast<unsigned long long>(misses));

    if (!json_path.empty()) {
        std::FILE* f = std::fopen(json_path.c_str(), "w");
        if (f == nullptr) {
            std::fprintf(stderr, "qd_run: cannot write %s\n",
                         json_path.c_str());
            return 2;
        }
        std::fprintf(f, "{\n  \"schema\": %d,\n  \"jobs\": [\n",
                     qd::serve::kRunResultSchema);
        for (std::size_t i = 0; i < results.size(); ++i) {
            std::fprintf(f, "    %s%s\n", results[i].to_json().c_str(),
                         i + 1 == results.size() ? "" : ",");
        }
        std::fprintf(f,
                     "  ],\n  \"ok\": %d,\n  \"rejected\": %d,\n"
                     "  \"failed\": %d,\n  \"repeat\": %d,\n",
                     ok, rejected, failed, repeat);
        std::fprintf(f,
                     "  \"obs_service_hits\": %llu,\n"
                     "  \"obs_service_misses\": %llu,\n"
                     "  \"obs_service_rejects\": %llu,\n"
                     "  \"obs_service_circuit_hits\": %llu,\n"
                     "  \"obs_service_circuit_misses\": %llu,\n"
                     "  \"kernel_isa\": \"%s\"\n}\n",
                     static_cast<unsigned long long>(hits),
                     static_cast<unsigned long long>(misses),
                     static_cast<unsigned long long>(rejects),
                     static_cast<unsigned long long>(circuit_hits),
                     static_cast<unsigned long long>(circuit_misses),
                     qd::exec::kernel_isa());
        if (std::fclose(f) != 0) {
            return 2;
        }
        std::printf("wrote %s\n", json_path.c_str());
    }
    return rejected > 0 || failed > 0 ? 1 : 0;
}
