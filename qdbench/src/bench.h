/**
 * @file bench.h
 * Shared types of qd_bench, the benchmark program: command-line options,
 * the outcome one workload run accumulates (correctness, attempted/failed
 * jobs, metrics), and small statistics / system helpers.
 *
 * qd_bench runs one named workload per invocation and prints, as the
 * last line of standard output, one JSON object
 *
 *   {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}
 *
 * whose metrics are the end-to-end set (--trace 0) or the per-layer set
 * (--trace 1) that BENCHMARK.json names. See WORKLOADS.md.
 */
#ifndef QDBENCH_BENCH_H
#define QDBENCH_BENCH_H

#include <chrono>
#include <cstdint>
#include <exception>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace qdb {

using Clock = std::chrono::steady_clock;

inline double
seconds_since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Results, traces and the daemon socket, relative to the repository
 *  root qd_bench runs in (inputs are read relative to it as well). */
inline constexpr const char* kOutDir = ".bench_build/out";

/** Set-ups timed per run (on fig11, per CPU slot); setup_s is their
 *  median. One set-up takes milliseconds, so a few would only sample the
 *  speed one CPU happens to have at the start of the run. */
inline constexpr int kSetupReps = 10;

/** Untimed warm-up before the set-ups are timed. On a shared VM that had
 *  idled for a minute, a fresh process ran set-ups 3-4x slower on every
 *  CPU for its first ~1.2 s, which no median over millisecond set-ups
 *  hides. */
inline constexpr double kWarmupS = 1.5;

/** Command-line options. The sizing ones default to the benchmark's own
 *  sizes; the smoke test shrinks them. */
struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string git_rev = "unknown";
    std::string source_digest = "unknown";
    int width = 0;        ///< 0 = the workload's default width
    int trials = 0;       ///< fig11-traj shots per bar (0 = default)
    int replay_jobs = 0;  ///< job-stream traced replay length (0 = default)
};

struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
};

/** Everything one workload run reports. */
struct Outcome {
    bool correct = true;
    long long attempted = 0;
    long long failed = 0;
    /** The BENCHMARK.json metrics of this mode, in declaration order. */
    std::vector<Metric> metrics;
    /** Printed with the run but not part of the result line. */
    std::vector<Metric> extras;
    /** Workload parameters recorded in the run metadata. */
    std::vector<std::pair<std::string, std::string>> params;
    /** Human-readable report lines (tables), printed before the result. */
    std::vector<std::string> report;
    /** Per-job values (name -> value) for reference regeneration. */
    std::vector<std::pair<std::string, double>> values;

    /** Marks the run incorrect; `why` goes to standard error. */
    void fail_check(const std::string& why);
    void metric(std::string name, double value, std::string unit)
    {
        metrics.push_back({std::move(name), value, std::move(unit)});
    }
    void extra(std::string name, double value, std::string unit)
    {
        extras.push_back({std::move(name), value, std::move(unit)});
    }
    void param(std::string key, std::string value)
    {
        params.emplace_back(std::move(key), std::move(value));
    }
};

// ------------------------------------------------------------- statistics

double median(std::vector<double> v);
/** Nearest-rank percentile, p in [0, 100]; 0 for an empty sample. */
double percentile(std::vector<double> v, double p);
double sum(const std::vector<double>& v);

/** splitmix64: the benchmark's own seeded generator (inputs only). */
struct SplitMix {
    std::uint64_t state;
    std::uint64_t next();
    double uniform();  ///< [0, 1)
    /** Job seeds stay below 2^63: ir::job_from_qdj reads them signed. */
    std::uint64_t job_seed() { return next() >> 1; }
};

/** Deterministic per-(seed, stream, index) generator. */
SplitMix rng_for(std::uint64_t seed, std::uint64_t stream,
                 std::uint64_t index);

// ----------------------------------------------------------------- system

/** CPUs this process may run on (what `nproc` prints). */
int nproc();
/** One per CPU, at most 8 (memory stays bounded on large hosts): the
 *  concurrent fig11-exact sweeps and the job-stream daemon workers. */
int cpu_slots();
std::string cpu_model();
/** Peak resident set of this process, MB. */
double peak_rss_mb_self();

/** Runs fn(slot) for every slot in [0, slots) on its own thread, all at
 *  once; rethrows an exception any of them threw. */
template <class Fn>
void
on_slots(int slots, Fn fn)
{
    std::exception_ptr error;
    std::mutex error_mu;
    {
        std::vector<std::jthread> threads;
        for (int k = 0; k < slots; ++k) {
            threads.emplace_back([&, k] {
                try {
                    fn(k);
                } catch (...) {
                    const std::lock_guard<std::mutex> lock(error_mu);
                    error = std::current_exception();
                }
            });
        }
    }
    if (error) {
        std::rethrow_exception(error);
    }
}

/** Runs fn() over and over on every CPU slot at once, untimed, until
 *  kWarmupS seconds have passed. */
template <class Fn>
void
warm_up(Fn fn)
{
    const auto start = Clock::now();
    on_slots(cpu_slots(), [&](int) {
        do {
            fn();
        } while (seconds_since(start) < kWarmupS);
    });
}

std::string read_file(const std::string& path);
bool write_file(const std::string& path, const std::string& text);
/** %.17g, or a JSON-safe token for non-finite values. */
std::string json_number(double v);
std::string json_string(const std::string& s);

// -------------------------------------------------------------- workloads

/** fig11-traj (`density` false) and fig11-exact (`density` true). */
void run_fig11(const Options& options, bool density, Outcome& out);
/** job-stream: qd_served over its Unix socket. */
void run_stream(const Options& options, Outcome& out);

}  // namespace qdb

#endif  // QDBENCH_BENCH_H
