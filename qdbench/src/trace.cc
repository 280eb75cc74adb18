#include "trace.h"

#include <cstdio>
#include <filesystem>
#include <map>

namespace qdb {

int
Tracer::begin(std::string name, long long job)
{
    Span span;
    span.name = std::move(name);
    span.id = static_cast<int>(spans_.size());
    span.parent = open_.empty() ? -1 : open_.back();
    span.job = job;
    span.start_us = 1e6 * seconds_since(t0_);
    spans_.push_back(std::move(span));
    open_.push_back(spans_.back().id);
    return spans_.back().id;
}

void
Tracer::end(int id)
{
    spans_[static_cast<std::size_t>(id)].end_us = 1e6 * seconds_since(t0_);
    if (!open_.empty() && open_.back() == id) {
        open_.pop_back();
    }
}

std::vector<double>
Tracer::self_us() const
{
    std::vector<double> self(spans_.size());
    for (const Span& s : spans_) {
        self[static_cast<std::size_t>(s.id)] += s.end_us - s.start_us;
        if (s.parent >= 0) {
            // Children of one parent run one after another, so their
            // durations never overlap.
            self[static_cast<std::size_t>(s.parent)] -= s.end_us - s.start_us;
        }
    }
    return self;
}

bool
Tracer::write_chrome(const std::string& path) const
{
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        return false;
    }
    std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        std::fprintf(f,
                     "%s\n{\"name\": %s, \"cat\": \"qdbench\", \"ph\": \"X\", "
                     "\"pid\": 1, \"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
                     "\"args\": {\"span\": %d, \"parent\": %d, \"job\": %lld, "
                     "\"start_us\": %.3f, \"end_us\": %.3f}}",
                     i == 0 ? "" : ",", json_string(s.name).c_str(),
                     s.start_us, s.end_us - s.start_us, s.id, s.parent, s.job,
                     s.start_us, s.end_us);
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
}

namespace {

/** The per-layer table: every span name in first-seen order. */
std::string
layer_table(const Tracer& tracer, const std::vector<double>& self,
            double wall_s, const std::string& title)
{
    struct Row {
        long long calls = 0;
        double total_ms = 0;
        double self_ms = 0;
    };
    std::map<std::string, Row> rows;
    std::vector<std::string> order;
    for (const Tracer::Span& s : tracer.spans()) {
        auto [it, inserted] = rows.try_emplace(s.name);
        if (inserted) {
            order.push_back(s.name);
        }
        it->second.calls += 1;
        it->second.total_ms += 1e-3 * (s.end_us - s.start_us);
        it->second.self_ms += 1e-3 * self[static_cast<std::size_t>(s.id)];
    }
    std::string out = title + "\n";
    char buf[200];
    std::snprintf(buf, sizeof(buf), "  %-22s %8s %12s %12s %8s\n", "span",
                  "calls", "total ms", "self ms", "self %");
    out += buf;
    for (const std::string& name : order) {
        const Row& r = rows[name];
        std::snprintf(buf, sizeof(buf),
                      "  %-22s %8lld %12.3f %12.3f %7.2f%%\n", name.c_str(),
                      r.calls, r.total_ms, r.self_ms,
                      100.0 * r.self_ms / (1e3 * wall_s));
        out += buf;
    }
    return out;
}

}  // namespace

void
report_trace(const Options& options, const Tracer& tracer,
             double traced_end_us, double traced_s, const std::string& title,
             Outcome& out)
{
    const std::vector<double> self = tracer.self_us();
    double job_self_us = 0;
    for (const Tracer::Span& s : tracer.spans()) {
        if (s.job >= 0 && s.name != "job" && s.start_us < traced_end_us) {
            job_self_us += self[static_cast<std::size_t>(s.id)];
        }
    }
    out.metric("trace.span_cover", 1e-6 * job_self_us / traced_s, "ratio");
    out.report.push_back(layer_table(tracer, self, traced_s, title));

    std::filesystem::create_directories(kOutDir);
    const std::string path = std::string(kOutDir) + "/" + options.workload +
                             "-seed" + std::to_string(options.seed) +
                             ".trace.json";
    if (!tracer.write_chrome(path)) {
        out.fail_check("cannot write " + path);
    }
    out.param("chrome_trace", path);
}

}  // namespace qdb
