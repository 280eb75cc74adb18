/**
 * @file main.cc
 * qd_bench: runs one benchmark workload and prints its metrics.
 *
 *   qd_bench --workload fig11-traj|fig11-exact|job-stream --seed N
 *            --seconds S --trace 0|1 [--git-rev REV] [--source-digest HEX]
 *            [--width N] [--trials N] [--replay-jobs N]
 *
 * Run it from the repository root (it reads bench/jobs/ and
 * qdbench/reference/ and writes under .bench_build/out/).
 *
 * Standard output: the run metadata, report tables, every metric with its
 * unit, and as the last line the result object
 *   {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}.
 * The same content, plus per-job values, goes to
 * .bench_build/out/<workload>-seed<N>-trace<0|1>.json. A run that cannot execute
 * exits non-zero without a result line.
 */
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <string_view>

#include "bench.h"

namespace {

int
usage()
{
    std::fprintf(stderr,
                 "usage: qd_bench --workload fig11-traj|fig11-exact|"
                 "job-stream --seed N --seconds S --trace 0|1\n"
                 "                [--git-rev REV] [--source-digest HEX]\n"
                 "                [--width N] [--trials N] [--replay-jobs N]\n");
    return 2;
}

std::string
metrics_object(const std::vector<qdb::Metric>& metrics)
{
    std::string s = "{";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        s += (i == 0 ? "" : ", ") + qdb::json_string(metrics[i].name) +
             ": {\"value\": " + qdb::json_number(metrics[i].value) +
             ", \"unit\": " + qdb::json_string(metrics[i].unit) + "}";
    }
    return s + "}";
}

}  // namespace

int
main(int argc, char** argv)
{
    qdb::Options o;
    int trace = -1;
    for (int i = 1; i < argc; ++i) {
        const std::string_view arg = argv[i];
        if (i + 1 >= argc) {
            return usage();
        }
        const std::string value = argv[++i];
        if (arg == "--workload") {
            o.workload = value;
        } else if (arg == "--seed") {
            o.seed = std::strtoull(value.c_str(), nullptr, 10);
        } else if (arg == "--seconds") {
            o.seconds = std::atof(value.c_str());
        } else if (arg == "--trace") {
            trace = std::atoi(value.c_str());
        } else if (arg == "--git-rev") {
            o.git_rev = value;
        } else if (arg == "--source-digest") {
            o.source_digest = value;
        } else if (arg == "--width") {
            o.width = std::atoi(value.c_str());
        } else if (arg == "--trials") {
            o.trials = std::atoi(value.c_str());
        } else if (arg == "--replay-jobs") {
            o.replay_jobs = std::atoi(value.c_str());
        } else {
            return usage();
        }
    }
    if ((trace != 0 && trace != 1) || o.seconds <= 0 ||
        (o.workload != "fig11-traj" && o.workload != "fig11-exact" &&
         o.workload != "job-stream")) {
        return usage();
    }
    o.trace = trace == 1;

    qdb::Outcome out;
    try {
        if (o.workload == "job-stream") {
            qdb::run_stream(o, out);
        } else {
            qdb::run_fig11(o, o.workload == "fig11-exact", out);
        }
    } catch (const std::exception& e) {
        std::fprintf(stderr, "qd_bench: %s: %s\n", o.workload.c_str(),
                     e.what());
        return 1;
    }
    out.extra("fail_share",
              out.attempted > 0 ? static_cast<double>(out.failed) /
                                      static_cast<double>(out.attempted)
                                : 1.0,
              "ratio");

    // Run metadata: what every performance claim cites.
    std::string meta = "{\"workload\": " + qdb::json_string(o.workload) +
                       ", \"seed\": " + std::to_string(o.seed) +
                       ", \"seconds\": " + qdb::json_number(o.seconds) +
                       ", \"trace\": " + (o.trace ? "1" : "0") +
                       ", \"nproc\": " + std::to_string(qdb::nproc()) +
                       ", \"cpu\": " + qdb::json_string(qdb::cpu_model()) +
                       ", \"build_type\": " + qdb::json_string(QDB_BUILD_TYPE) +
                       ", \"compiler\": " + qdb::json_string(QDB_COMPILER) +
                       ", \"git_rev\": " + qdb::json_string(o.git_rev) +
                       ", \"source_digest\": " +
                       qdb::json_string(o.source_digest) + ", \"params\": {";
    for (std::size_t i = 0; i < out.params.size(); ++i) {
        meta += (i == 0 ? "" : ", ") + qdb::json_string(out.params[i].first) +
                ": " + qdb::json_string(out.params[i].second);
    }
    meta += "}}";

    std::printf("meta %s\n", meta.c_str());
    for (const std::string& block : out.report) {
        std::printf("%s", block.c_str());
    }
    std::printf("%-32s %20s  %s\n", "metric", "value", "unit");
    for (const auto* list : {&out.metrics, &out.extras}) {
        for (const qdb::Metric& m : *list) {
            std::printf("%-32s %20.6f  %s%s\n", m.name.c_str(), m.value,
                        m.unit.c_str(),
                        list == &out.extras ? "  (reported, not gated)" : "");
        }
    }

    const std::string result =
        std::string("{\"correct\": ") + (out.correct ? "true" : "false") +
        ", \"attempted\": " + std::to_string(out.attempted) +
        ", \"failed\": " + std::to_string(out.failed) +
        ", \"metrics\": " + metrics_object(out.metrics) + "}";

    std::string values = "{";
    for (std::size_t i = 0; i < out.values.size(); ++i) {
        values += (i == 0 ? "" : ", ") + qdb::json_string(out.values[i].first) +
                  ": " + qdb::json_number(out.values[i].second);
    }
    values += "}";
    std::filesystem::create_directories(qdb::kOutDir);
    const std::string path = std::string(qdb::kOutDir) + "/" + o.workload +
                             "-seed" + std::to_string(o.seed) + "-trace" +
                             (o.trace ? "1" : "0") + ".json";
    qdb::write_file(path, "{\"meta\": " + meta + ",\n \"result\": " + result +
                              ",\n \"extras\": " +
                              metrics_object(out.extras) +
                              ",\n \"values\": " + values + "}\n");

    std::printf("%s\n", result.c_str());
    return 0;
}
