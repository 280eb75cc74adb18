/**
 * @file trace.h
 * In-memory spans recorded by the benchmark around its calls into each
 * layer's public functions. Spans nest through an implicit stack (the
 * traced code is single-threaded), carry the id of the job they belong
 * to, and are written out once, at exit, as Chrome trace-event JSON
 * (chrome://tracing, Perfetto).
 */
#ifndef QDBENCH_TRACE_H
#define QDBENCH_TRACE_H

#include <string>
#include <vector>

#include "bench.h"

namespace qdb {

class Tracer {
 public:
    struct Span {
        std::string name;
        int id = 0;
        int parent = -1;      ///< enclosing span id, -1 at top level
        long long job = -1;   ///< job id, -1 for spans outside a job
        double start_us = 0;  ///< since the tracer was created
        double end_us = 0;
    };

    Tracer() : t0_(Clock::now()) {}

    int begin(std::string name, long long job);
    void end(int id);

    const std::vector<Span>& spans() const { return spans_; }

    /** Duration minus the time covered by direct children, per span. */
    std::vector<double> self_us() const;

    bool write_chrome(const std::string& path) const;

 private:
    Clock::time_point t0_;
    std::vector<Span> spans_;
    std::vector<int> open_;
};

/** RAII span on a Tracer. */
class ScopedSpan {
 public:
    ScopedSpan(Tracer& tracer, std::string name, long long job)
        : tracer_(tracer), id_(tracer.begin(std::move(name), job))
    {
    }
    ~ScopedSpan() { tracer_.end(id_); }
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
    Tracer& tracer_;
    int id_;
};

/**
 * Finishes a traced run: emits trace.span_cover — the self time of the
 * per-job layer spans that start before `traced_end_us` (the probes come
 * after it) over `traced_s` — adds the per-layer table (calls, total and
 * self time of every span name, self share of `traced_s`) to the report
 * and writes the Chrome trace next to the run's result file.
 */
void report_trace(const Options& options, const Tracer& tracer,
                  double traced_end_us, double traced_s,
                  const std::string& title, Outcome& out);

}  // namespace qdb

#endif  // QDBENCH_TRACE_H
