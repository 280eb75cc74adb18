/**
 * @file daemon.h
 * The qd_served serving core: a long-lived daemon that accepts NDJSON
 * job streams (see protocol.h) from many concurrent clients over a
 * Unix-domain stream socket, and the stdin loop, which serves one client
 * over text streams (tests, benches and CI pipes).
 *
 * Architecture: one acceptor thread polls the listening socket; each
 * connection gets a reader thread that decodes frames and admits jobs
 * onto ONE bounded global queue; a fixed-size worker pool pops jobs and
 * runs them through the shared serve::execute facade against the global
 * CompileService — so repeated submissions of the same circuit_hash /
 * plan_salt, from any client, land on the same warm CompiledArtifact.
 * Results stream back incrementally the moment each job finishes
 * (workers write the result frame directly; a slow job never blocks
 * another client's results).
 *
 * The stdin loop is one connection on this request path, with no worker
 * pool: each line goes through the same frame decode and admission as a
 * socket line, and the reading thread runs each admitted job at once
 * through the function the workers run, which also accounts for it.
 * Every ServeStats count moves together with its obs::kServe* counter.
 *
 * Admission control, checked in order per submit frame (socket and
 * stdin alike):
 *   draining                  → serve.draining (shutdown has begun)
 *   global queue full         → serve.queue
 *   client outstanding jobs   → serve.quota  (max_client_queued)
 *   client in-flight shots    → serve.quota  (max_client_shots; a
 *                               trajectory job costs its shot count,
 *                               other engines cost 1)
 * Rejections are error frames; the connection always stays up.
 *
 * Shutdown: begin_shutdown() (the SIGTERM path) stops accepting
 * connections and admissions but DRAINS the queue — wait() returns only
 * after every admitted job has executed and its result frame has been
 * written. Workers paused via DaemonOptions::start_paused stay paused
 * across begin_shutdown(); call resume() to let the drain finish (tests
 * use the pause to stage deterministic quota/drain scenarios).
 */
#ifndef SERVE_DAEMON_H
#define SERVE_DAEMON_H

#include <cstddef>
#include <iosfwd>
#include <memory>
#include <string>

#include "qdsim/exec/compile_service.h"
#include "serve/protocol.h"

namespace qd::serve {

/** Tuning for one Daemon (or one stdin loop). */
struct DaemonOptions {
    /** Worker threads executing admitted jobs (socket only). */
    int workers = 2;
    /** Bounded admission-queue capacity (serve.queue past this). */
    std::size_t queue_capacity = 64;
    /** Per-client outstanding-jobs quota (queued + executing). */
    int max_client_queued = 8;
    /** Per-client in-flight trajectory-shot quota. */
    long long max_client_shots = 1'000'000;
    /** Verify gate for submitted IR; daemons serve untrusted input. */
    exec::Admission admission = exec::Admission::kAlways;
    /** Engine threads per job (the pool provides cross-job parallelism,
     *  so jobs default to single-threaded engines). */
    int engine_threads = 1;
    /** Start with the worker pool paused (tests stage scenarios, then
     *  resume()). Socket only: the stdin loop has no pool. */
    bool start_paused = false;
};

/**
 * A listening daemon instance. listen() spawns the acceptor and worker
 * threads and returns; begin_shutdown()/wait() implement the drain.
 * All methods are safe to call from signal-driven control flow EXCEPT
 * from inside a signal handler itself (qd_served latches the signal
 * into an atomic and calls begin_shutdown from its main loop).
 */
class Daemon {
 public:
    explicit Daemon(DaemonOptions options = {});
    ~Daemon();  ///< calls wait() if still running
    Daemon(const Daemon&) = delete;
    Daemon& operator=(const Daemon&) = delete;

    /**
     * Binds `socket_path` (stale files are replaced), starts the
     * acceptor and worker threads.
     * @throws std::runtime_error when the socket cannot be bound.
     */
    void listen(const std::string& socket_path);

    /** Unpauses a start_paused worker pool. */
    void resume();

    /** Stops accepting connections and admitting jobs (new submissions
     *  get serve.draining); already-admitted jobs keep executing. */
    void begin_shutdown();

    /** begin_shutdown() + drains the queue, flushes every result frame,
     *  joins all threads, and removes the socket file. Idempotent. */
    void wait();

    /** Point-in-time stats snapshot (what a stats frame reports). */
    ServeStats stats() const;

    const std::string& socket_path() const;

 private:
    struct Impl;
    std::unique_ptr<Impl> impl_;

    friend ServeStats run_stdin_loop(std::istream& in, std::ostream& out,
                                     const DaemonOptions& options);
};

/**
 * Serves one connection over text streams on the daemon's request path:
 * reads one frame per line from `in`, writes response frames to `out`
 * (flushed per frame), and ends with a bye frame at EOF or on a shutdown
 * frame. Each line gets the socket path's frame decode and every
 * admission check in the order above; each admitted job runs right away
 * on the reading thread, so results come back inline, in submission
 * order, and output is deterministic. `workers` and `start_paused` apply
 * to the socket only. Returns the loop's final stats (also mirrored to
 * the obs counters, like the daemon's).
 */
ServeStats run_stdin_loop(std::istream& in, std::ostream& out,
                          const DaemonOptions& options = {});

}  // namespace qd::serve

#endif  // SERVE_DAEMON_H
