#include "serve/daemon.h"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <functional>
#include <istream>
#include <limits>
#include <mutex>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "qdsim/obs/counters.h"

namespace qd::serve {

namespace {

using Clock = std::chrono::steady_clock;

double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Admission cost of one job against the per-client shot quota. */
long long
job_cost(const ir::Job& job)
{
    return job.engine == "trajectory"
               ? std::max(1LL, static_cast<long long>(job.shots))
               : 1;
}

bool
blank_line(std::string_view line)
{
    return line.find_first_not_of(" \t\r") == std::string_view::npos;
}

ir::Error
serve_error(std::string id, std::string message)
{
    ir::Error e;
    e.id = std::move(id);
    e.message = std::move(message);
    return e;
}

ir::Error
oversized_frame_error()
{
    return serve_error("serve.frame", "frame longer than " +
                                          std::to_string(kMaxFrameBytes) +
                                          " bytes");
}

/**
 * Reads one line, without its '\n', into `line` through `buf` (at least
 * kMaxFrameBytes + 1 chars); false at the end of input. A line past
 * kMaxFrameBytes is read to its end but not kept: `line` comes back
 * empty and `oversized` set.
 */
bool
read_line(std::istream& in, std::string& buf, std::string& line,
          bool& oversized)
{
    line.clear();
    oversized = false;
    in.getline(buf.data(), static_cast<std::streamsize>(kMaxFrameBytes + 1));
    const std::streamsize got = in.gcount();
    if (got == 0) {
        return false;
    }
    if (in.fail() && !in.eof()) {
        // kMaxFrameBytes stored and no '\n' yet: drop the rest.
        in.clear();
        in.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
        oversized = true;
        return true;
    }
    // gcount counts the '\n' unless the line ended at the end of input.
    line.assign(buf.data(),
                static_cast<std::size_t>(in.eof() ? got : got - 1));
    return true;
}

}  // namespace

// ------------------------------------------------------------------ Daemon

namespace {

/** A ServeStats count and the obs counter that mirrors it. */
struct Tally {
    std::uint64_t ServeStats::*field;
    obs::Counter counter;
};

constexpr Tally kConnections{&ServeStats::connections,
                             obs::Counter::kServeConnections};
constexpr Tally kAccepted{&ServeStats::jobs_accepted,
                          obs::Counter::kServeJobsAccepted};
constexpr Tally kOk{&ServeStats::jobs_ok, obs::Counter::kServeJobsOk};
constexpr Tally kRejected{&ServeStats::jobs_rejected,
                          obs::Counter::kServeJobsRejected};
constexpr Tally kFailed{&ServeStats::jobs_failed,
                        obs::Counter::kServeJobsFailed};
constexpr Tally kWarmHits{&ServeStats::warm_hits,
                          obs::Counter::kServeWarmHits};

/** Sends one frame and its '\n' on a socket. Write failures (client
 *  gone) are deliberately ignored: the job already ran, nothing to undo. */
void
send_frame(int fd, const std::string& frame)
{
    std::string line = frame;
    line += '\n';
    const char* p = line.data();
    std::size_t left = line.size();
    while (left > 0) {
        const ssize_t n = ::send(fd, p, left, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR) {
                continue;
            }
            return;
        }
        p += n;
        left -= static_cast<std::size_t>(n);
    }
}

/** One client connection: a socket, or the stdin loop's streams.
 *  `queued` and `shots` are guarded by the daemon mutex; `wmu`
 *  serializes frame writes (workers stream results directly, racing the
 *  reader's inline stats/error frames). */
struct Conn {
    /** The transport: writes one frame and its '\n'. */
    std::function<void(const std::string&)> write;
    std::mutex wmu;
    long long queued = 0;  ///< outstanding jobs (queued + executing)
    long long shots = 0;   ///< in-flight shot cost
    int fd = -1;           ///< socket connections only
    std::thread reader;    ///< socket connections only
};

/** One admitted job waiting for (or on) a worker. */
struct Task {
    std::shared_ptr<Conn> conn;
    std::string id;
    RunRequest request;
    long long cost = 0;
};

}  // namespace

struct Daemon::Impl {
    /** `run_inline`: no worker pool; the thread that admits a job runs
     *  it at once (the stdin loop). */
    Impl(const DaemonOptions& options, bool run_inline)
        : opts(options), inline_jobs(run_inline),
          paused(options.start_paused)
    {
        opts.workers = std::max(1, options.workers);
        opts.queue_capacity =
            std::max<std::size_t>(1, options.queue_capacity);
    }

    DaemonOptions opts;
    const bool inline_jobs;
    std::string path;
    int listen_fd = -1;
    Clock::time_point start = Clock::now();

    mutable std::mutex mu;
    std::condition_variable cv_work;  ///< workers: queue / drain state
    std::condition_variable cv_done;  ///< drain waiters: job completions
    std::deque<Task> queue;
    std::vector<std::shared_ptr<Conn>> conns;
    ServeStats st;
    int in_flight = 0;
    bool draining = false;
    bool paused = false;
    bool stopped = false;

    std::thread acceptor;
    std::vector<std::thread> workers;

    void write_frame(Conn& conn, const std::string& frame)
    {
        const std::lock_guard<std::mutex> lock(conn.wmu);
        conn.write(frame);
    }

    /** Moves one ServeStats count together with its obs counter: the
     *  only way either moves. shots_executed and queue_peak have no obs
     *  counter; run_task and admit move them. Call with `mu` held. */
    void tally(const Tally& t)
    {
        ++(st.*t.field);
        obs::count(t.counter);
    }

    void add_conn(std::shared_ptr<Conn> conn)
    {
        const std::lock_guard<std::mutex> lock(mu);
        conns.push_back(std::move(conn));
        tally(kConnections);
    }

    void count_rejected()
    {
        const std::lock_guard<std::mutex> lock(mu);
        tally(kRejected);
    }

    /** Admission gate (see daemon.h for the check order). */
    std::optional<ir::Error> admit(const std::shared_ptr<Conn>& conn,
                                   std::string id, RunRequest request)
    {
        const long long cost = job_cost(request.job);
        const std::lock_guard<std::mutex> lock(mu);
        if (draining) {
            return serve_error("serve.draining",
                               "daemon is shutting down");
        }
        if (queue.size() >= opts.queue_capacity) {
            return serve_error("serve.queue", "admission queue is full");
        }
        if (conn->queued >= opts.max_client_queued) {
            return serve_error(
                "serve.quota",
                "client outstanding-job quota exceeded (" +
                    std::to_string(opts.max_client_queued) + ")");
        }
        if (conn->shots + cost > opts.max_client_shots) {
            return serve_error(
                "serve.quota",
                "client in-flight shot quota exceeded (" +
                    std::to_string(opts.max_client_shots) + ")");
        }
        ++conn->queued;
        conn->shots += cost;
        queue.push_back(
            Task{conn, std::move(id), std::move(request), cost});
        tally(kAccepted);
        st.queue_peak = std::max<std::uint64_t>(st.queue_peak,
                                                queue.size());
        cv_work.notify_one();
        return std::nullopt;
    }

    /** Pops the queue's front job; call with `mu` held. */
    Task take_locked()
    {
        Task task = std::move(queue.front());
        queue.pop_front();
        ++in_flight;
        return task;
    }

    /** Runs one taken job, writes its result frame and accounts for it:
     *  the one execute path of workers and the stdin loop alike. */
    void run_task(const Task& task)
    {
        const RunResult result = execute(task.request);
        write_frame(*task.conn, result_frame(task.id, result));

        const std::lock_guard<std::mutex> lock(mu);
        --in_flight;
        --task.conn->queued;
        task.conn->shots -= task.cost;
        if (result.warm) {
            tally(kWarmHits);
        }
        if (result.ok()) {
            tally(kOk);
            if (task.request.job.engine == "trajectory") {
                st.shots_executed += static_cast<std::uint64_t>(task.cost);
            }
        } else if (result.status == "rejected") {
            tally(kRejected);
        } else {
            tally(kFailed);
        }
        cv_done.notify_all();
    }

    /** Handles one NDJSON line. Returns false on a shutdown frame. */
    bool handle_line(const std::shared_ptr<Conn>& conn,
                     std::string_view line)
    {
        if (blank_line(line)) {
            return true;
        }
        auto parsed = parse_frame(line);
        if (const ir::Error* err = std::get_if<ir::Error>(&parsed)) {
            count_rejected();
            write_frame(*conn, error_frame("", *err));
            return true;
        }
        Frame& frame = std::get<Frame>(parsed);
        if (frame.type == Frame::Type::kStats) {
            write_frame(*conn, stats_frame(stats_locked()));
            return true;
        }
        if (frame.type == Frame::Type::kShutdown) {
            return false;
        }
        RunRequest request;
        try {
            request = RunRequest::from_qdj(frame.qdj);
        } catch (const ir::ParseError& e) {
            count_rejected();
            write_frame(*conn, error_frame(frame.id, e.error()));
            return true;
        }
        request.threads = opts.engine_threads;
        request.admission = opts.admission;
        if (auto err =
                admit(conn, frame.id, std::move(request))) {
            count_rejected();
            write_frame(*conn, error_frame(frame.id, *err));
        } else if (inline_jobs) {
            Task task;
            {
                const std::lock_guard<std::mutex> lock(mu);
                task = take_locked();
            }
            run_task(task);
        }
        return true;
    }

    void reject_oversized(const std::shared_ptr<Conn>& conn)
    {
        count_rejected();
        write_frame(*conn, error_frame("", oversized_frame_error()));
    }

    void reader_loop(std::shared_ptr<Conn> conn)
    {
        std::string acc;          // the unfinished line
        bool dropping = false;    // acc is the tail of an oversized line
        char buf[1 << 16];
        bool shutdown_frame = false;
        while (!shutdown_frame) {
            const ssize_t n = ::read(conn->fd, buf, sizeof(buf));
            if (n < 0) {
                if (errno == EINTR) {
                    continue;
                }
                break;
            }
            if (n == 0) {
                break;  // EOF, or wait() issued SHUT_RD
            }
            // Only the new bytes can hold the line's end.
            std::size_t scan = acc.size();
            acc.append(buf, static_cast<std::size_t>(n));
            std::size_t begin = 0;
            for (std::size_t nl; !shutdown_frame &&
                                 (nl = acc.find('\n', scan)) !=
                                     std::string::npos;
                 begin = scan = nl + 1) {
                if (dropping) {
                    dropping = false;
                } else if (nl - begin > kMaxFrameBytes) {
                    reject_oversized(conn);
                } else if (!handle_line(conn, std::string_view(acc).substr(
                                                  begin, nl - begin))) {
                    shutdown_frame = true;
                }
            }
            acc.erase(0, begin);
            if (!dropping && acc.size() > kMaxFrameBytes) {
                reject_oversized(conn);
                dropping = true;
            }
            if (dropping) {
                acc.clear();
            }
        }
        if (!shutdown_frame && !blank_line(acc)) {
            handle_line(conn, acc);  // lenient: final unterminated frame
        }
        // Flush before close: every admitted job's result frame must be
        // on the wire before the connection goes away.
        {
            std::unique_lock<std::mutex> lock(mu);
            cv_done.wait(lock, [&] { return conn->queued == 0; });
        }
        if (shutdown_frame) {
            write_frame(*conn, bye_frame());
        }
        {
            const std::lock_guard<std::mutex> lock(mu);
            ::close(conn->fd);
            conn->fd = -1;
        }
    }

    void worker_loop()
    {
        for (;;) {
            Task task;
            {
                std::unique_lock<std::mutex> lock(mu);
                cv_work.wait(lock, [&] {
                    return (!paused && !queue.empty()) ||
                           (draining && queue.empty());
                });
                if (queue.empty()) {
                    return;  // draining and nothing left
                }
                task = take_locked();
            }
            run_task(task);
        }
    }

    void acceptor_loop()
    {
        for (;;) {
            {
                const std::lock_guard<std::mutex> lock(mu);
                if (draining) {
                    break;
                }
            }
            pollfd p{};
            p.fd = listen_fd;
            p.events = POLLIN;
            const int r = ::poll(&p, 1, 100);
            if (r <= 0) {
                continue;  // timeout or EINTR: re-check draining
            }
            const int fd = ::accept(listen_fd, nullptr, nullptr);
            if (fd < 0) {
                continue;
            }
            // A connection that reached accept() is served even when
            // draining began concurrently — its submits get structured
            // serve.draining rejections instead of a silent close.
            auto conn = std::make_shared<Conn>();
            conn->fd = fd;
            conn->write = [fd](const std::string& frame) {
                send_frame(fd, frame);
            };
            add_conn(conn);
            conn->reader =
                std::thread([this, conn] { reader_loop(conn); });
        }
        ::close(listen_fd);
        listen_fd = -1;
    }

    ServeStats stats_locked() const
    {
        const std::lock_guard<std::mutex> lock(mu);
        ServeStats snap = st;
        snap.uptime_seconds = since(start);
        return snap;
    }
};

Daemon::Daemon(DaemonOptions options)
    : impl_(std::make_unique<Impl>(options, false))
{
}

Daemon::~Daemon()
{
    wait();
}

void
Daemon::listen(const std::string& socket_path)
{
    sockaddr_un addr{};
    if (socket_path.size() >= sizeof(addr.sun_path)) {
        throw std::runtime_error("qd_served: socket path too long: " +
                                 socket_path);
    }
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
        throw std::runtime_error("qd_served: socket() failed");
    }
    ::unlink(socket_path.c_str());  // replace a stale socket file
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, socket_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(fd, 64) != 0) {
        ::close(fd);
        throw std::runtime_error("qd_served: cannot bind " + socket_path);
    }

    impl_->path = socket_path;
    impl_->listen_fd = fd;
    impl_->start = Clock::now();
    for (int w = 0; w < impl_->opts.workers; ++w) {
        impl_->workers.emplace_back(
            [impl = impl_.get()] { impl->worker_loop(); });
    }
    impl_->acceptor =
        std::thread([impl = impl_.get()] { impl->acceptor_loop(); });
}

void
Daemon::resume()
{
    {
        const std::lock_guard<std::mutex> lock(impl_->mu);
        impl_->paused = false;
    }
    impl_->cv_work.notify_all();
}

void
Daemon::begin_shutdown()
{
    {
        const std::lock_guard<std::mutex> lock(impl_->mu);
        impl_->draining = true;
    }
    impl_->cv_work.notify_all();
}

void
Daemon::wait()
{
    {
        const std::lock_guard<std::mutex> lock(impl_->mu);
        if (impl_->stopped) {
            return;
        }
        impl_->stopped = true;
    }
    begin_shutdown();
    if (impl_->acceptor.joinable()) {
        impl_->acceptor.join();
    }
    {
        // Drain: every admitted job executed and its result written.
        std::unique_lock<std::mutex> lock(impl_->mu);
        impl_->cv_done.wait(lock, [&] {
            return impl_->queue.empty() && impl_->in_flight == 0;
        });
        // Unblock readers parked in read(): they see EOF, observe their
        // connection drained, and close.
        for (const auto& conn : impl_->conns) {
            if (conn->fd >= 0) {
                ::shutdown(conn->fd, SHUT_RD);
            }
        }
    }
    for (const auto& conn : impl_->conns) {
        if (conn->reader.joinable()) {
            conn->reader.join();
        }
    }
    impl_->cv_work.notify_all();  // workers exit: draining && empty
    for (std::thread& w : impl_->workers) {
        w.join();
    }
    impl_->workers.clear();
    if (!impl_->path.empty()) {
        ::unlink(impl_->path.c_str());
    }
}

ServeStats
Daemon::stats() const
{
    return impl_->stats_locked();
}

const std::string&
Daemon::socket_path() const
{
    return impl_->path;
}

// -------------------------------------------------------------- stdin loop

ServeStats
run_stdin_loop(std::istream& in, std::ostream& out,
               const DaemonOptions& options)
{
    Daemon::Impl daemon(options, true);
    auto conn = std::make_shared<Conn>();
    conn->write = [&out](const std::string& frame) {
        out << frame << '\n';
        out.flush();
    };
    daemon.add_conn(conn);

    std::string buf(kMaxFrameBytes + 1, '\0');
    std::string line;
    bool oversized = false;
    while (read_line(in, buf, line, oversized)) {
        if (oversized) {
            daemon.reject_oversized(conn);
        } else if (!daemon.handle_line(conn, line)) {
            break;
        }
    }
    daemon.write_frame(*conn, bye_frame());
    return daemon.stats_locked();
}

}  // namespace qd::serve
