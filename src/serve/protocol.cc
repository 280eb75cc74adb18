#include "serve/protocol.h"

#include <cinttypes>
#include <cstdio>

#include "qdsim/ir/json.h"

namespace qd::serve {

namespace {

ir::Error
frame_error(std::string id, std::string message, int line = 0)
{
    ir::Error e;
    e.id = std::move(id);
    e.message = std::move(message);
    e.line = line;
    return e;
}

}  // namespace

std::variant<Frame, ir::Error>
parse_frame(std::string_view line)
{
    using Kind = ir::json::Value::Kind;
    ir::json::Tape tape;
    try {
        tape = ir::json::scan(line);
    } catch (const ir::ParseError& e) {
        return frame_error("serve.frame", e.error().message,
                           e.error().line);
    }
    const ir::json::Tape::Ix root = 0;
    if (!tape.is(root, Kind::kObject)) {
        return frame_error("serve.frame", "frame must be a JSON object",
                           tape.line(root));
    }
    const ir::json::Tape::Ix type = tape.find(root, "type");
    if (type == ir::json::Tape::kNone || !tape.is(type, Kind::kString)) {
        return frame_error("serve.frame",
                           "frame is missing the \"type\" string",
                           tape.line(root));
    }

    Frame frame;
    const std::string type_name = tape.string(type);
    if (type_name == "stats") {
        frame.type = Frame::Type::kStats;
        return frame;
    }
    if (type_name == "shutdown") {
        frame.type = Frame::Type::kShutdown;
        return frame;
    }
    if (type_name != "submit") {
        return frame_error("serve.type", "unknown frame type: " + type_name,
                           tape.line(type));
    }

    frame.type = Frame::Type::kSubmit;
    const ir::json::Tape::Ix id = tape.find(root, "id");
    if (id == ir::json::Tape::kNone) {
        return frame_error("serve.submit",
                           "submit frame is missing \"id\"",
                           tape.line(root));
    }
    if (tape.is(id, Kind::kString)) {
        frame.id = tape.string(id);
    } else if (const ir::json::Integer k = tape.integer(id);
               tape.is(id, Kind::kNumber) && k.ok) {
        frame.id = std::to_string(k.value);
    } else {
        return frame_error("serve.submit",
                           "\"id\" must be a string or integer",
                           tape.line(id));
    }
    const ir::json::Tape::Ix qdj = tape.find(root, "qdj");
    if (qdj == ir::json::Tape::kNone || !tape.is(qdj, Kind::kString)) {
        return frame_error("serve.submit",
                           "submit frame is missing the \"qdj\" string",
                           tape.line(root));
    }
    frame.qdj = tape.string(qdj);
    return frame;
}

std::string
ServeStats::to_json() const
{
    const std::uint64_t executed = jobs_ok + jobs_failed;
    char buf[640];
    std::snprintf(
        buf, sizeof(buf),
        "{\"obs_serve_connections\": %" PRIu64
        ", \"obs_serve_jobs_accepted\": %" PRIu64
        ", \"obs_serve_jobs_ok\": %" PRIu64
        ", \"obs_serve_jobs_rejected\": %" PRIu64
        ", \"obs_serve_jobs_failed\": %" PRIu64
        ", \"obs_serve_warm_hits\": %" PRIu64
        ", \"serve_shots_executed\": %" PRIu64
        ", \"serve_queue_peak\": %" PRIu64
        ", \"serve_warm_hit_rate\": %.6f"
        ", \"uptime_seconds\": %.6f}",
        connections, jobs_accepted, jobs_ok, jobs_rejected, jobs_failed,
        warm_hits, shots_executed, queue_peak,
        static_cast<double>(warm_hits) /
            static_cast<double>(executed == 0 ? 1 : executed),
        uptime_seconds);
    return buf;
}

std::string
result_frame(const std::string& id, const RunResult& result)
{
    return "{\"type\": \"result\", \"id\": \"" + json_escape(id) +
           "\", \"result\": " + result.to_json() + "}";
}

std::string
error_frame(const std::string& id, const ir::Error& error)
{
    return "{\"type\": \"error\", \"id\": \"" + json_escape(id) +
           "\", \"error_id\": \"" + json_escape(error.id) +
           "\", \"message\": \"" + json_escape(error.message) +
           "\", \"line\": " + std::to_string(error.line) + "}";
}

std::string
stats_frame(const ServeStats& stats)
{
    return "{\"type\": \"stats\", \"schema\": " +
           std::to_string(kRunResultSchema) +
           ", \"stats\": " + stats.to_json() + "}";
}

std::string
bye_frame()
{
    return "{\"type\": \"bye\"}";
}

}  // namespace qd::serve
