/**
 * @file stream.cc
 * job-stream: the qd_served daemon with one worker per CPU (otherwise its
 * default options), driven over its Unix socket by one generator thread
 * on four connections per worker in a closed loop — each connection sends
 * its next submit frame when the previous result frame arrives, so jobs
 * queue for the workers. (With the default two workers and four
 * connections the throughput followed the speed of the CPUs the two
 * workers ran on, and the workers idled whenever the next frame was still
 * being decoded; both swing by tens of percent on a shared host.) The job
 * sequence is a
 * seeded mix of warm small jobs (the checked-in bench/jobs corpus and
 * width-5 QUTRIT gen-Toffoli trajectory jobs under the SC models), warm
 * large documents (the width-8 QUBIT gen-Toffoli) and cold jobs (the
 * width-5 QUTRIT gen-Toffoli plus a phase gate with a drawn angle, so
 * every one has a new circuit_hash). The traced run replays the same
 * sequence in-process, one job at a time.
 */
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <map>
#include <numbers>
#include <optional>
#include <thread>
#include <variant>

#include "bench.h"
#include "constructions/gen_toffoli.h"
#include "layers.h"
#include "noise/models.h"
#include "qdsim/exec/compile_service.h"
#include "qdsim/gate_library.h"
#include "qdsim/ir/ir.h"
#include "qdsim/ir/json.h"
#include "qdsim/obs/counters.h"
#include "serve/protocol.h"
#include "serve/run.h"
#include "trace.h"

extern char** environ;

namespace qdb {

namespace {

using qd::serve::RunResult;
namespace json = qd::ir::json;

constexpr double kLargeShare = 0.10;  ///< warm width-8 QUBIT documents
constexpr double kColdShare = 0.20;   ///< fresh circuit_hash per job
constexpr int kSmallShots = 32;       ///< width-5 QUTRIT trajectory jobs
constexpr int kLargeShots = 4;
constexpr long long kBlockJobs = 256;  ///< wall_s: time per this many results
constexpr long long kSampleEvery = 64; ///< results checked in-process
constexpr std::size_t kMaxSamples = 500;
constexpr std::uint64_t kSeedMarker = 1234567;

// ------------------------------------------------------------ the job mix

/** A warm job text with a spliceable seed, raw and JSON-escaped. */
struct Template {
    std::string name;
    int shots = 0;       ///< trajectory shots (0 for other engines)
    std::string raw[2];  ///< text before / after the seed digits
    std::string esc[2];  ///< the same, escaped for a JSON string
};

Template
make_template(qd::ir::Job job)
{
    job.seed = kSeedMarker;
    const std::string text = qd::ir::to_qdj(job);
    const std::string marker = "\"seed\": " + std::to_string(kSeedMarker);
    const std::size_t at = text.find(marker);
    if (at == std::string::npos) {
        throw std::runtime_error("job-stream: no seed field in " + job.name);
    }
    const std::size_t digits = at + marker.size() -
                               std::to_string(kSeedMarker).size();
    Template t;
    t.name = job.name;
    t.shots = job.engine == "trajectory" ? job.shots : 0;
    t.raw[0] = text.substr(0, digits);
    t.raw[1] = text.substr(at + marker.size());
    t.esc[0] = qd::serve::json_escape(t.raw[0]);
    t.esc[1] = qd::serve::json_escape(t.raw[1]);
    return t;
}

struct Mix {
    std::vector<Template> small;  ///< corpus + SC qutrit jobs
    Template large;
    qd::Circuit cold_base;        ///< width-5 QUTRIT gen-Toffoli
    std::size_t corpus_files = 0;
    double build_s = 0;   ///< reading the corpus, building circuits
    double encode_s = 0;  ///< encoding the templates
};

Mix
build_mix()
{
    Mix mix;
    const auto t0 = Clock::now();
    // The checked-in corpus, in name order.
    std::vector<std::filesystem::path> files;
    const std::filesystem::path dir = "bench/jobs";
    if (std::filesystem::is_directory(dir)) {
        for (const auto& e : std::filesystem::directory_iterator(dir)) {
            if (e.path().extension() == ".qdj") {
                files.push_back(e.path());
            }
        }
    }
    std::sort(files.begin(), files.end());
    if (files.empty()) {
        throw std::runtime_error("job-stream: no .qdj files in " +
                                 dir.string());
    }
    std::vector<qd::ir::Job> jobs;
    for (const auto& f : files) {
        jobs.push_back(qd::ir::job_from_qdj(read_file(f.string())));
    }
    mix.corpus_files = files.size();

    const auto qutrit =
        qd::ctor::build_gen_toffoli(qd::ctor::Method::kQutrit, 4);
    for (const auto& model : qd::noise::superconducting_models()) {
        qd::ir::Job job;
        job.name = "QUTRIT-w5/" + model.name;
        job.engine = "trajectory";
        job.shots = kSmallShots;
        job.noise = model.name;
        job.circuit = qutrit.circuit;
        jobs.push_back(std::move(job));
    }
    qd::ir::Job large;
    large.name = "QUBIT-w8/SC";
    large.engine = "trajectory";
    large.shots = kLargeShots;
    large.noise = qd::noise::sc().name;
    large.circuit =
        qd::ctor::build_gen_toffoli(qd::ctor::Method::kQubitNoAncilla, 7)
            .circuit;
    mix.cold_base = qutrit.circuit;
    mix.build_s = seconds_since(t0);

    const auto t1 = Clock::now();
    for (qd::ir::Job& job : jobs) {
        mix.small.push_back(make_template(std::move(job)));
    }
    mix.large = make_template(std::move(large));
    mix.encode_s = seconds_since(t1);
    return mix;
}

struct Planned {
    int shots = 0;      ///< trajectory shots
    std::string qdj;    ///< raw .qdj text
    std::string frame;  ///< the submit frame carrying it
};

/** Job `i` of the seeded sequence (independent of how many are drawn). */
Planned
plan_job(const Mix& mix, std::uint64_t seed, long long i, bool want_raw)
{
    SplitMix r = rng_for(seed, 7, static_cast<std::uint64_t>(i));
    const double u = r.uniform();
    Planned p;
    const std::string id = std::to_string(i);
    const std::uint64_t job_seed = r.job_seed();
    std::string escaped;
    if (u >= kLargeShare && u < kLargeShare + kColdShare) {
        qd::ir::Job job;
        job.name = "cold-" + id;
        job.engine = "trajectory";
        job.shots = kSmallShots;
        job.seed = job_seed;
        job.noise = qd::noise::sc().name;
        job.circuit = mix.cold_base;
        job.circuit.append(
            qd::gates::phase_level(3, 1, 2 * std::numbers::pi * r.uniform()), {0});
        p.qdj = qd::ir::to_qdj(job);
        p.shots = job.shots;
        escaped = qd::serve::json_escape(p.qdj);
    } else {
        const Template& t = u < kLargeShare
                                ? mix.large
                                : mix.small[r.next() % mix.small.size()];
        const std::string digits = std::to_string(job_seed);
        p.shots = t.shots;
        if (want_raw) {
            p.qdj = t.raw[0] + digits + t.raw[1];
        }
        escaped = t.esc[0] + digits + t.esc[1];
    }
    p.frame = "{\"type\": \"submit\", \"id\": \"" + id + "\", \"qdj\": \"" +
              escaped + "\"}";
    return p;
}

// ------------------------------------------------------- daemon process

/** qd_served as a child process; stopped (and waited for) on scope exit. */
class DaemonProcess {
 public:
    DaemonProcess(const std::string& binary, const std::string& socket)
    {
        posix_spawn_file_actions_t actions;
        posix_spawn_file_actions_init(&actions);
        // The daemon's stdout must not reach the result line.
        posix_spawn_file_actions_adddup2(&actions, STDERR_FILENO,
                                         STDOUT_FILENO);
        const std::string workers = std::to_string(cpu_slots());
        const char* argv[] = {binary.c_str(), "--socket", socket.c_str(),
                              "--workers", workers.c_str(), nullptr};
        const int rc = posix_spawn(&pid_, binary.c_str(), &actions, nullptr,
                                   const_cast<char* const*>(argv), environ);
        posix_spawn_file_actions_destroy(&actions);
        if (rc != 0) {
            pid_ = -1;
            throw std::runtime_error("job-stream: cannot start " + binary);
        }
    }
    ~DaemonProcess() { stop(); }
    DaemonProcess(const DaemonProcess&) = delete;
    DaemonProcess& operator=(const DaemonProcess&) = delete;

    /** SIGTERM (graceful drain), SIGKILL after 30 s; returns the peak
     *  resident set in MB, or -1 when the daemon was already gone. */
    double stop()
    {
        if (pid_ < 0) {
            return -1;
        }
        kill(pid_, SIGTERM);
        const auto t0 = Clock::now();
        int status = 0;
        rusage ru{};
        pid_t got = 0;
        while ((got = wait4(pid_, &status, WNOHANG, &ru)) == 0) {
            if (seconds_since(t0) > 30) {
                kill(pid_, SIGKILL);
                got = wait4(pid_, &status, 0, &ru);
                break;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
        pid_ = -1;
        exit_ok_ = got > 0 && WIFEXITED(status) && WEXITSTATUS(status) == 0;
        return got > 0 ? static_cast<double>(ru.ru_maxrss) / 1024.0 : -1;
    }

    bool exit_ok() const { return exit_ok_; }

 private:
    pid_t pid_ = -1;
    bool exit_ok_ = false;
};

// ------------------------------------------------------------ connections

class Connection {
 public:
    explicit Connection(const std::string& path)
    {
        const auto t0 = Clock::now();
        while (seconds_since(t0) < 10) {
            fd_ = socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
            sockaddr_un addr{};
            addr.sun_family = AF_UNIX;
            std::strncpy(addr.sun_path, path.c_str(),
                         sizeof(addr.sun_path) - 1);
            if (fd_ >= 0 && connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                                    sizeof(addr)) == 0) {
                return;
            }
            close_fd();
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
        throw std::runtime_error("job-stream: cannot connect to " + path);
    }
    ~Connection() { close_fd(); }
    Connection(const Connection&) = delete;
    Connection& operator=(const Connection&) = delete;

    int fd() const { return fd_; }

    bool send_line(const std::string& frame)
    {
        std::string data = frame + "\n";
        std::size_t off = 0;
        while (off < data.size()) {
            const ssize_t n = ::send(fd_, data.data() + off,
                                     data.size() - off, MSG_NOSIGNAL);
            if (n < 0 && errno == EINTR) {
                continue;
            }
            if (n <= 0) {
                return false;
            }
            off += static_cast<std::size_t>(n);
        }
        return true;
    }

    /** Reads what is available; false on EOF or error. */
    bool fill()
    {
        char buf[1 << 16];
        ssize_t n;
        do {
            n = ::read(fd_, buf, sizeof(buf));
        } while (n < 0 && errno == EINTR);
        if (n <= 0) {
            return false;
        }
        acc_.append(buf, static_cast<std::size_t>(n));
        return true;
    }

    std::optional<std::string> next_line()
    {
        const std::size_t nl = acc_.find('\n', scanned_);
        if (nl == std::string::npos) {
            scanned_ = acc_.size();
            return std::nullopt;
        }
        std::string line = acc_.substr(0, nl);
        acc_.erase(0, nl + 1);
        scanned_ = 0;
        return line;
    }

    /** Blocks for the next line (set-up and teardown only). */
    std::optional<std::string> read_line()
    {
        while (true) {
            if (auto line = next_line()) {
                return line;
            }
            if (!fill()) {
                return std::nullopt;
            }
        }
    }

 private:
    void close_fd()
    {
        if (fd_ >= 0) {
            ::close(fd_);
            fd_ = -1;
        }
    }

    int fd_ = -1;
    std::string acc_;
    std::size_t scanned_ = 0;
};

/** One daemon with its client connections, set up and primed. */
struct Serving {
    std::unique_ptr<DaemonProcess> daemon;
    std::vector<std::unique_ptr<Connection>> conns;

    /** Ends each connection with a shutdown frame (waiting for its bye),
     *  then drains and stops the daemon; returns its peak RSS in MB. */
    double close()
    {
        for (auto& c : conns) {
            if (c->send_line("{\"type\": \"shutdown\"}")) {
                while (auto line = c->read_line()) {
                    if (line->find("\"bye\"") != std::string::npos) {
                        break;
                    }
                }
            }
        }
        conns.clear();
        return daemon ? daemon->stop() : -1;
    }
};

std::string
text(const json::Value& obj, const char* key)
{
    const json::Value* v =
        obj.is(json::Value::Kind::kObject) ? obj.find(key) : nullptr;
    return v != nullptr && v->is(json::Value::Kind::kString) ? v->string
                                                             : "";
}

double
number(const json::Value& obj, const char* key)
{
    const json::Value* v =
        obj.is(json::Value::Kind::kObject) ? obj.find(key) : nullptr;
    return v != nullptr && v->is(json::Value::Kind::kNumber) ? v->number
                                                             : NAN;
}

std::string
frame_type(const json::Value& frame)
{
    return text(frame, "type");
}

Serving
open_serving(const Mix& mix, const std::string& socket)
{
    Serving s;
    s.daemon = std::make_unique<DaemonProcess>(QDB_QD_SERVED, socket);
    for (int c = 0; c < 4 * cpu_slots(); ++c) {
        s.conns.push_back(std::make_unique<Connection>(socket));
    }
    // Prime every warm template once so the timed phase starts warm.
    std::vector<const Template*> warm;
    for (const Template& t : mix.small) {
        warm.push_back(&t);
    }
    warm.push_back(&mix.large);
    for (std::size_t i = 0; i < warm.size(); ++i) {
        const std::string frame =
            "{\"type\": \"submit\", \"id\": \"prime-" + std::to_string(i) +
            "\", \"qdj\": \"" + warm[i]->esc[0] + "1" + warm[i]->esc[1] +
            "\"}";
        Connection& c = *s.conns.front();
        if (!c.send_line(frame)) {
            throw std::runtime_error("job-stream: priming send failed");
        }
        const auto line = c.read_line();
        if (!line || line->find("\"status\": \"ok\"") == std::string::npos) {
            throw std::runtime_error("job-stream: priming " + warm[i]->name +
                                     " failed: " + line.value_or("EOF"));
        }
    }
    return s;
}

// ------------------------------------------------------------ the stream

struct Sample {
    std::string qdj;
    std::string status;
    double value = 0;
    double std_error = 0;
};

struct StreamResult {
    std::vector<double> latency_ms;
    std::vector<double> warm_ms;
    std::vector<double> cold_ms;
    std::vector<double> queue_wait_ms;  ///< latency - RunResult.seconds
    std::vector<double> block_s;        ///< time per kBlockJobs results
    long long sent = 0;
    long long results = 0;
    long long bad = 0;  ///< rejected, failed, error frames, lost
    double shots = 0;
    double timed_s = 0;
    std::map<long long, Sample> samples;
};

/** The closed loop: runs until `seconds` have passed, then drains. */
StreamResult
drive(Serving& s, const Mix& mix, std::uint64_t seed, double seconds,
      Outcome& out)
{
    StreamResult r;
    struct InFlight {
        long long job = -1;
        int shots = 0;
        Clock::time_point sent;
        std::string qdj;  ///< kept for sampled jobs only
    };
    const std::size_t n = s.conns.size();
    std::vector<InFlight> flight(n);
    std::vector<pollfd> fds(n);
    long long next = 0;
    const auto start = Clock::now();
    auto block_start = start;
    auto last_result = start;

    auto send_next = [&](std::size_t c) {
        const bool sample = next % kSampleEvery == 0 &&
                            r.samples.size() < kMaxSamples;
        Planned p = plan_job(mix, seed, next, sample);
        flight[c].job = next;
        flight[c].shots = p.shots;
        flight[c].qdj = sample ? std::move(p.qdj) : std::string();
        flight[c].sent = Clock::now();
        ++next;
        ++r.sent;
        if (!s.conns[c]->send_line(p.frame)) {
            flight[c].job = -1;
            ++r.bad;
            out.fail_check("job-stream: send failed");
        }
    };

    for (std::size_t c = 0; c < n; ++c) {
        fds[c].fd = s.conns[c]->fd();
        fds[c].events = POLLIN;
        send_next(c);
    }
    auto busy = [&] {
        for (const InFlight& f : flight) {
            if (f.job >= 0) {
                return true;
            }
        }
        return false;
    };
    while (busy()) {
        const int rc = poll(fds.data(), fds.size(), 1000);
        if (rc < 0 && errno == EINTR) {
            continue;
        }
        if (seconds_since(last_result) > 60) {
            out.fail_check("job-stream: no result for 60 s");
            break;
        }
        for (std::size_t c = 0; c < n; ++c) {
            if ((fds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0 ||
                flight[c].job < 0) {
                continue;
            }
            if (!s.conns[c]->fill()) {
                out.fail_check("job-stream: daemon closed a connection");
                ++r.bad;
                flight[c].job = -1;
                fds[c].fd = -1;
                continue;
            }
            while (auto line = s.conns[c]->next_line()) {
                const auto now = Clock::now();
                const double ms =
                    1e3 * std::chrono::duration<double>(now - flight[c].sent)
                              .count();
                last_result = now;
                const json::Value frame = json::parse(*line);
                const std::string type = frame_type(frame);
                const json::Value* res = frame.is(json::Value::Kind::kObject)
                                             ? frame.find("result")
                                             : nullptr;
                if (type != "result" || res == nullptr) {
                    ++r.bad;
                    out.fail_check("job-stream: " + *line);
                } else {
                    ++r.results;
                    r.latency_ms.push_back(ms);
                    const json::Value* warm = res->find("warm");
                    (warm != nullptr && warm->boolean ? r.warm_ms
                                                      : r.cold_ms)
                        .push_back(ms);
                    r.queue_wait_ms.push_back(ms -
                                              1e3 * number(*res, "seconds"));
                    const std::string status = text(*res, "status");
                    if (status != "ok") {
                        ++r.bad;
                        out.fail_check("job-stream: job " +
                                       std::to_string(flight[c].job) + " " +
                                       status + " " +
                                       text(*res, "error_id"));
                    } else {
                        r.shots += flight[c].shots;
                    }
                    if (!flight[c].qdj.empty()) {
                        r.samples[flight[c].job] = {
                            std::move(flight[c].qdj), status,
                            number(*res, "value"),
                            number(*res, "std_error")};
                    }
                    if (r.results % kBlockJobs == 0) {
                        r.block_s.push_back(
                            std::chrono::duration<double>(now - block_start)
                                .count());
                        block_start = now;
                    }
                }
                flight[c].job = -1;
                if (seconds_since(start) < seconds) {
                    send_next(c);
                }
            }
        }
    }
    r.timed_s = std::chrono::duration<double>(last_result - start).count();
    return r;
}

/** Sampled daemon results must equal in-process serve::execute on the
 *  same text, bit for bit. Returns the number of mismatches. */
long long
check_samples(const StreamResult& r, Outcome& out)
{
    long long bad = 0;
    for (const auto& [job, sample] : r.samples) {
        qd::serve::RunRequest request =
            qd::serve::RunRequest::from_qdj(sample.qdj);
        request.threads = 1;  // what the daemon's workers run with
        const RunResult mine = qd::serve::execute(request);
        if (mine.status != sample.status || mine.value != sample.value ||
            mine.std_error != sample.std_error) {
            ++bad;
            out.fail_check("job-stream: job " + std::to_string(job) +
                           " differs from in-process serve::execute");
        }
    }
    return bad;
}

/** In-process replay of the first jobs of the plan, one at a time, as
 *  the daemon's worker path runs them (frame in, result frame out). */
struct Replay {
    double wall_s = 0;
    std::vector<RunResult> results;
};

/** Clears the in-process artifact cache and primes the warm templates,
 *  as set-up primes the daemon. */
void
prime_in_process(const Mix& mix)
{
    qd::exec::CompileService::global().clear();
    std::vector<const Template*> warm;
    for (const Template& t : mix.small) {
        warm.push_back(&t);
    }
    warm.push_back(&mix.large);
    for (const Template* t : warm) {
        qd::serve::RunRequest request =
            qd::serve::RunRequest::from_qdj(t->raw[0] + "1" + t->raw[1]);
        request.threads = 1;
        qd::serve::execute(request);
    }
}

/** Replays `frames` one at a time (the caller primes the cache); traced
 *  through `layers` when `tracer` is set, else through serve::execute. */
Replay
replay(const std::vector<std::string>& frames, Tracer* tracer,
       LayerStats* layers)
{
    Replay rep;
    const auto start = Clock::now();
    for (std::size_t i = 0; i < frames.size(); ++i) {
        if (tracer != nullptr) {
            rep.results.push_back(layers->run(frames[i], true, 1, *tracer,
                                              static_cast<long long>(i)));
            continue;
        }
        RunResult result;
        auto parsed = qd::serve::parse_frame(frames[i]);
        auto& frame = std::get<qd::serve::Frame>(parsed);
        try {
            qd::serve::RunRequest request =
                qd::serve::RunRequest::from_qdj(frame.qdj);
            request.threads = 1;
            result = qd::serve::execute(request);
        } catch (const qd::ir::ParseError& e) {
            result = RunResult::rejected(e.error());
        }
        qd::serve::result_frame(frame.id, result);
        rep.results.push_back(std::move(result));
    }
    rep.wall_s = seconds_since(start);
    return rep;
}

}  // namespace

void
run_stream(const Options& options, Outcome& out)
{
    std::filesystem::create_directories(kOutDir);
    const std::string socket = std::string(kOutDir) + "/qd-" +
                               std::to_string(getpid()) + ".sock";
    if (socket.size() >= sizeof(sockaddr_un{}.sun_path)) {
        throw std::runtime_error("job-stream: socket path too long");
    }

    // Set-up, repeated after the warm-up: build the mix, start + connect +
    // prime a daemon.
    warm_up([] { build_mix(); });
    std::vector<double> setup_s, build_s, encode_s;
    Mix mix;
    Serving serving;
    for (int r = 0; r < kSetupReps; ++r) {
        if (serving.daemon) {
            serving.close();
        }
        const auto t0 = Clock::now();
        mix = build_mix();
        build_s.push_back(mix.build_s);
        encode_s.push_back(mix.encode_s);
        serving = open_serving(mix, socket);
        setup_s.push_back(seconds_since(t0));
    }

    out.param("daemon", "qd_served --socket --workers " +
                            std::to_string(cpu_slots()));
    out.param("setups", std::to_string(setup_s.size()));
    out.param("connections", std::to_string(serving.conns.size()));
    out.param("loop", "closed");
    out.param("mix_warm_small", std::to_string(1 - kLargeShare - kColdShare));
    out.param("mix_warm_large", std::to_string(kLargeShare));
    out.param("mix_cold", std::to_string(kColdShare));
    out.param("small_templates", std::to_string(mix.small.size()));
    out.param("corpus_files", std::to_string(mix.corpus_files));

    // The daemon run: the whole run untraced; a shorter segment in trace
    // mode, which only needs its queue waits.
    const double daemon_seconds =
        options.trace ? 0.4 * options.seconds : options.seconds;
    StreamResult r = drive(serving, mix, options.seed, daemon_seconds, out);
    double queue_peak = 0;
    Connection& c0 = *serving.conns.front();
    if (c0.send_line("{\"type\": \"stats\"}")) {
        while (auto line = c0.read_line()) {
            const json::Value frame = json::parse(*line);
            if (frame_type(frame) == "stats") {
                const json::Value* st = frame.find("stats");
                queue_peak =
                    st != nullptr ? number(*st, "serve_queue_peak") : NAN;
                break;
            }
        }
    }
    const double rss = serving.close();
    if (!serving.daemon->exit_ok()) {
        out.fail_check("job-stream: qd_served did not exit cleanly");
    }
    r.bad += check_samples(r, out);
    out.attempted += r.sent;
    out.failed += r.bad;
    out.param("jobs", std::to_string(r.results));
    for (std::size_t k = 0; k < r.block_s.size(); ++k) {
        out.values.emplace_back("block" + std::to_string(k) + "#wall_s",
                                r.block_s[k]);
    }
    for (std::size_t k = 0; k < setup_s.size(); ++k) {
        out.values.emplace_back("setup" + std::to_string(k) + "#s",
                                setup_s[k]);
    }
    out.param("checked_in_process", std::to_string(r.samples.size()));

    if (!options.trace) {
        out.metric("wall_s", median(r.block_s), "s");
        out.metric("jobs_per_s", static_cast<double>(r.results) / r.timed_s,
                   "jobs/s");
        out.metric("setup_s", median(setup_s), "s");
        out.extra("peak_rss_mb", rss, "MB");
        out.extra("job_p50_ms", median(r.latency_ms), "ms");
        out.extra("job_p99_ms", percentile(r.latency_ms, 99), "ms");
        out.extra("job_samples", static_cast<double>(r.latency_ms.size()),
                  "count");
        out.extra("warm_job_p50_ms", median(r.warm_ms), "ms");
        out.extra("warm_job_samples", static_cast<double>(r.warm_ms.size()),
                  "count");
        out.extra("cold_job_p50_ms", median(r.cold_ms), "ms");
        out.extra("cold_job_samples", static_cast<double>(r.cold_ms.size()),
                  "count");
        out.extra("shots_per_s", r.shots / r.timed_s, "shots/s");
        out.extra("queue_wait_p50_ms", median(r.queue_wait_ms), "ms");
        out.extra("queue_wait_p99_ms", percentile(r.queue_wait_ms, 99), "ms");
        out.extra("queue_peak", queue_peak, "count");
        return;
    }

    // Traced run: replay the first jobs of the same sequence in-process,
    // once through serve::execute (the overhead baseline) and once
    // through the benchmark's layer spans with obs counters on.
    const long long replay_n =
        options.replay_jobs > 0 ? options.replay_jobs : 1000;
    std::vector<std::string> frames;
    for (long long i = 0; i < replay_n; ++i) {
        frames.push_back(plan_job(mix, options.seed, i, false).frame);
    }
    // The first replay only warms the process (allocator, page cache).
    prime_in_process(mix);
    replay(frames, nullptr, nullptr);
    prime_in_process(mix);
    const Replay plain = replay(frames, nullptr, nullptr);

    qd::obs::set_enabled(true);
    Tracer tracer;
    LayerStats layers;
    prime_in_process(mix);
    const CounterSnapshot before = qd::obs::counters_snapshot();
    Replay traced;
    {
        ScopedSpan span(tracer, "pass", -1);
        traced = replay(frames, &tracer, &layers);
    }
    const CounterSnapshot window = delta(qd::obs::counters_snapshot(), before);
    const double traced_end_us = tracer.spans().back().end_us;
    layers.probe_cold(tracer);
    qd::obs::set_enabled(false);

    out.attempted += 2 * replay_n;
    for (std::size_t i = 0; i < frames.size(); ++i) {
        const RunResult& a = plain.results[i];
        const RunResult& b = traced.results[i];
        if (!a.ok() || a.status != b.status || a.value != b.value ||
            a.std_error != b.std_error) {
            out.failed += 1;
            out.fail_check("job-stream replay: job " + std::to_string(i) +
                           " traced result differs or failed");
        }
    }

    const double plain_jps = static_cast<double>(replay_n) / plain.wall_s;
    const double traced_jps = static_cast<double>(replay_n) / traced.wall_s;

    out.metric("serve.queue_wait_ms.p50", median(r.queue_wait_ms), "ms");
    out.metric("serve.queue_wait_ms.p99", percentile(r.queue_wait_ms, 99),
               "ms");
    out.metric("serve.queue_peak", queue_peak, "count");
    layers.emit(out, window, 1);
    out.metric("setup.build_s", median(build_s), "s");
    out.metric("setup.encode_s", median(encode_s), "s");
    out.metric("trace.wall_s", traced.wall_s, "s");
    out.metric("trace.overhead_share", (plain_jps - traced_jps) / plain_jps,
               "ratio");
    out.param("replay_jobs", std::to_string(replay_n));
    report_trace(options, tracer, traced_end_us, traced.wall_s,
                 "per-layer spans (in-process replay of " +
                     std::to_string(replay_n) + " jobs; probes after it)",
                 out);
}

}  // namespace qdb
