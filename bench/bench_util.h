/**
 * @file bench_util.h
 * Shared helpers for the benchmark binaries: environment-variable knobs,
 * paper-reference annotations, the common BENCH_*.json writer (which
 * stamps every result with its thread count, core count, build type,
 * compiler, git revision, CPU and lane-kernel build), and the
 * instrumented-section scaffolding every gated bench uses for its
 * `--trace <file>` flag and obs_* report metrics.
 */
#ifndef BENCH_BENCH_UTIL_H
#define BENCH_BENCH_UTIL_H

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "qdsim/exec/batched_kernels.h"
#include "qdsim/exec/compile_service.h"
#include "qdsim/obs/counters.h"
#include "qdsim/obs/report.h"
#include "qdsim/obs/trace.h"

// Build stamp for BENCH_*.json; CMake defines all three on the bench
// targets.
#ifndef QD_BENCH_BUILD_TYPE
#define QD_BENCH_BUILD_TYPE "unknown"
#endif
#ifndef QD_BENCH_COMPILER
#define QD_BENCH_COMPILER "unknown"
#endif
#ifndef QD_BENCH_SOURCE_DIR
#define QD_BENCH_SOURCE_DIR ""
#endif

namespace qd::bench {

/** Integer knob from the environment, with default. */
inline int
env_int(const char* name, int fallback)
{
    const char* v = std::getenv(name);
    if (v == nullptr || *v == '\0') {
        return fallback;
    }
    return std::atoi(v);
}

/** Prints the standard bench banner: what paper artifact this regenerates. */
inline void
banner(const std::string& artifact, const std::string& note)
{
    std::string line(72, '=');
    std::printf("%s\n%s\n%s\n%s\n\n", line.c_str(), artifact.c_str(),
                note.c_str(), line.c_str());
}

/** HEAD of the source checkout the bench was built from, read when called
 *  (`git -C <source dir> rev-parse HEAD`, as qdbench/run.py reads it);
 *  "none" when git or the checkout is missing. */
inline std::string
git_rev()
{
    const std::string dir = QD_BENCH_SOURCE_DIR;
    std::error_code ec;
    if (dir.empty() || !std::filesystem::exists(dir + "/.git", ec)) {
        return "none";
    }
    const std::string cmd =
        "git -C '" + dir + "' rev-parse HEAD 2>/dev/null";
    std::FILE* pipe = popen(cmd.c_str(), "r");
    if (pipe == nullptr) {
        return "none";
    }
    char buf[128] = {};
    std::string rev =
        std::fgets(buf, sizeof(buf), pipe) != nullptr ? buf : "";
    const bool ok = pclose(pipe) == 0;
    while (!rev.empty() && (rev.back() == '\n' || rev.back() == '\r')) {
        rev.pop_back();
    }
    return ok && !rev.empty() ? rev : "none";
}

/** The `model name` of /proc/cpuinfo; "unknown" where there is none. */
inline std::string
cpu_model()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) != 0) {
            continue;
        }
        const std::size_t colon = line.find(':');
        const std::size_t begin =
            colon == std::string::npos
                ? std::string::npos
                : line.find_first_not_of(" \t", colon + 1);
        if (begin != std::string::npos) {
            return line.substr(begin);
        }
    }
    return "unknown";
}

/**
 * Flat JSON object writer for the BENCH_*.json artifacts: fields emit in
 * insertion order, one per line, matching the shape compare_bench.py
 * consumes (top-level object, scalar metrics).
 */
class JsonWriter {
  public:
    JsonWriter& str(const char* key, const std::string& value)
    {
        std::string quoted = "\"";
        for (const char c : value) {
            if (c == '"' || c == '\\') {
                quoted += '\\';
            }
            quoted += c;
        }
        return raw(key, quoted + "\"");
    }

    JsonWriter& num(const char* key, double value, const char* fmt = "%.6f")
    {
        char buf[64];
        std::snprintf(buf, sizeof(buf), fmt, value);
        return raw(key, buf);
    }

    JsonWriter& integer(const char* key, long long value)
    {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%lld", value);
        return raw(key, buf);
    }

    JsonWriter& boolean(const char* key, bool value)
    {
        return raw(key, value ? "true" : "false");
    }

    /** Pre-formatted JSON value (nested objects, exponent formats). */
    JsonWriter& raw(const char* key, const std::string& json)
    {
        fields_.emplace_back(key, json);
        return *this;
    }

    /** Appends every obs_* metric of a SimReport. */
    JsonWriter& report(const obs::SimReport& rep)
    {
        for (const auto& [name, value] : rep.metrics()) {
            integer(name.c_str(), static_cast<long long>(value));
        }
        num("obs_cache_hit_rate", rep.plan_cache_hit_rate());
        return *this;
    }

    /** Writes the object, followed by the conditions it was measured
     *  under (`threads`: OpenMP's default team size, 1 without OpenMP;
     *  `hardware_concurrency`; `build_type`; `compiler`; `git_rev`;
     *  `cpu`; `kernel_isa`, the lane-kernel build that ran), and logs
     *  "wrote <path>"; false on I/O failure. */
    bool write(const char* path) const
    {
        std::FILE* out = std::fopen(path, "w");
        if (out == nullptr) {
            return false;
        }
#ifdef _OPENMP
        const int threads = omp_get_max_threads();
#else
        const int threads = 1;
#endif
        JsonWriter stamped = *this;
        stamped.integer("threads", threads)
            .integer("hardware_concurrency",
                     std::thread::hardware_concurrency())
            .str("build_type", QD_BENCH_BUILD_TYPE)
            .str("compiler", QD_BENCH_COMPILER)
            .str("git_rev", git_rev())
            .str("cpu", cpu_model())
            .str("kernel_isa", exec::kernel_isa());
        const auto& fields = stamped.fields_;
        std::fputs("{\n", out);
        for (std::size_t i = 0; i < fields.size(); ++i) {
            std::fprintf(out, "  \"%s\": %s%s\n", fields[i].first.c_str(),
                         fields[i].second.c_str(),
                         i + 1 == fields.size() ? "" : ",");
        }
        std::fputs("}\n", out);
        if (std::fclose(out) != 0) {
            return false;
        }
        std::printf("wrote %s\n", path);
        return true;
    }

  private:
    std::vector<std::pair<std::string, std::string>> fields_;
};

/** Parses `--trace <file>` / `--trace=<file>` from argv; empty if absent. */
inline std::string
trace_flag(int argc, char** argv)
{
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
            return argv[i + 1];
        }
        if (std::strncmp(argv[i], "--trace=", 8) == 0) {
            return argv[i] + 8;
        }
    }
    return {};
}

/**
 * Instrumented section of a bench: resets the obs counters, enables them
 * (and span buffering when a --trace path was given), and on finish()
 * returns the SimReport, writes the Chrome trace, and restores the
 * enabled flag so the timed sections stay uninstrumented.
 */
class ObsSection {
  public:
    explicit ObsSection(std::string trace_path)
        : trace_path_(std::move(trace_path)), was_enabled_(obs::enabled())
    {
        // Instrumented sections measure cold compiles: drop any artifact
        // an earlier (timed, uninstrumented) section left in the global
        // compile-service cache so the obs_* compile metrics stay
        // comparable against pre-service baselines.
        exec::CompileService::global().clear();
        obs::reset_counters();
        obs::set_enabled(true);
        if (!trace_path_.empty()) {
            obs::trace_begin();
        }
    }

    ObsSection(const ObsSection&) = delete;
    ObsSection& operator=(const ObsSection&) = delete;

    /** Snapshot + trace flush; idempotent (later calls re-snapshot). */
    obs::SimReport finish()
    {
        const obs::SimReport rep = obs::report_snapshot();
        if (!trace_path_.empty()) {
            const auto events = obs::trace_end();
            if (obs::write_chrome_trace(events, trace_path_)) {
                std::printf("wrote %s (%zu trace events)\n",
                            trace_path_.c_str(), events.size());
            } else {
                std::fprintf(stderr, "failed to write trace %s\n",
                             trace_path_.c_str());
            }
            trace_path_.clear();
        }
        obs::set_enabled(was_enabled_);
        finished_ = true;
        return rep;
    }

    ~ObsSection()
    {
        if (!finished_) {
            finish();
        }
    }

  private:
    std::string trace_path_;
    bool was_enabled_ = false;
    bool finished_ = false;
};

}  // namespace qd::bench

#endif  // BENCH_BENCH_UTIL_H
