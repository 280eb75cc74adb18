/**
 * @file protocol.h
 * NDJSON wire protocol between qd_served and its clients.
 *
 * Every frame is one complete JSON object on one line ('\n' terminated,
 * no intra-frame newlines). Client → server frames carry a "type":
 *
 *   {"type": "submit", "id": "job-1", "qdj": "<.qdj text>"}
 *       Submit one job. "id" (string or integer) is the client's
 *       correlation token, echoed back verbatim on the matching result
 *       or error frame; "qdj" is the full .qdj job document embedded as
 *       a JSON string, decoded by the exact ir::job_from_qdj path
 *       qd_run uses — the same text yields the same job and the same
 *       stable qdj.* rejections.
 *   {"type": "stats"}
 *       Ask for a stats frame (answered inline, not queued).
 *   {"type": "shutdown"}
 *       Finish this connection: the server sends any remaining result
 *       frames, then a bye frame, then closes.
 *
 * Server → client frames:
 *
 *   {"type": "result", "id": ..., "result": {<serve::RunResult JSON>}}
 *   {"type": "error", "id": ..., "error_id": "...", "message": "...",
 *    "line": N}
 *       Protocol/admission rejection of one frame. error_id is a stable
 *       dotted id: the qdj.* decode ids pass through, and the serving
 *       layer adds
 *         serve.frame     malformed frame (bad JSON / not an object /
 *                         missing "type" / longer than kMaxFrameBytes)
 *         serve.type      unknown frame type
 *         serve.submit    submit frame missing "id" or "qdj"
 *         serve.quota     per-client quota exceeded (queued jobs or
 *                         in-flight shots)
 *         serve.queue     global admission queue full
 *         serve.draining  daemon is shutting down, no new admissions
 *         serve.request   bad RunRequest field (e.g. repeat <= 0)
 *   {"type": "stats", "schema": 2, "stats": {...}}
 *   {"type": "bye"}
 *
 * Unparseable frames get an error frame with id "" — the server never
 * closes the connection on bad input and never crashes on it. A line
 * longer than kMaxFrameBytes is answered with serve.frame — on a socket
 * as soon as it passes the cap, on stdin once its end has been read —
 * and the rest of it is read and dropped, so a client that never sends
 * a newline cannot grow the server.
 */
#ifndef SERVE_PROTOCOL_H
#define SERVE_PROTOCOL_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <variant>

#include "qdsim/ir/errors.h"
#include "serve/run.h"

namespace qd::serve {

/** Longest frame a server reads, '\n' excluded: well above the largest
 *  corpus job (the width-11 QUBIT gen-Toffoli, 182 KB of .qdj, about
 *  200 KB once escaped into a frame). Larger documents go through qd_run. */
inline constexpr std::size_t kMaxFrameBytes = std::size_t{1} << 20;

/** One decoded client → server frame. */
struct Frame {
    enum class Type { kSubmit, kStats, kShutdown };

    Type type = Type::kSubmit;
    std::string id;   ///< correlation token (integers normalised to text)
    std::string qdj;  ///< embedded .qdj job text (submit frames)
};

/**
 * Decodes one NDJSON line into a Frame, or an ir::Error carrying a
 * stable serve.* id when the line is not a well-formed frame. Reads the
 * members off the json::scan tape and unescapes "qdj" once, into
 * Frame::qdj. Never throws on untrusted input.
 */
std::variant<Frame, ir::Error> parse_frame(std::string_view line);

/** Counters one daemon (or stdin loop) accumulates over its lifetime.
 *  Kept daemon-local so stats frames work in QD_PROFILE=OFF builds and
 *  under concurrent daemons. Each count with an obs serve_* counter moves
 *  only together with it, through one daemon helper; shots_executed and
 *  queue_peak have none. The stdin loop admits each job to its queue and
 *  runs it at once, so its queue_peak is 1 once it has admitted one. */
struct ServeStats {
    std::uint64_t connections = 0;
    std::uint64_t jobs_accepted = 0;
    std::uint64_t jobs_ok = 0;
    std::uint64_t jobs_rejected = 0;  ///< protocol + quota + decode + verify
    std::uint64_t jobs_failed = 0;
    std::uint64_t warm_hits = 0;      ///< jobs served from a warm artifact
    std::uint64_t shots_executed = 0;
    std::uint64_t queue_peak = 0;     ///< admission-queue high-water mark
    double uptime_seconds = 0;

    /** Single-line JSON object (the "stats" member of a stats frame). */
    std::string to_json() const;
};

// Server → client frame builders. Each returns one complete single-line
// frame WITHOUT the trailing '\n' (the transport adds framing).
std::string result_frame(const std::string& id, const RunResult& result);
std::string error_frame(const std::string& id, const ir::Error& error);
std::string stats_frame(const ServeStats& stats);
std::string bye_frame();

}  // namespace qd::serve

#endif  // SERVE_PROTOCOL_H
