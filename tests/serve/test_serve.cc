/**
 * @file test_serve.cc
 * Serving-layer tests: the RunRequest → RunResult facade, the NDJSON
 * protocol (stdin loop), and the qd_served daemon core over a real
 * Unix-domain socket.
 *
 * Protocol: valid submissions round-trip bitwise (the daemon's result
 * equals a direct run_noisy_trials with the same options); malformed
 * frames get stable serve.* / qdj.* error ids and NEVER crash or close
 * the stream — including every byte-prefix of a valid frame, and a line
 * past the frame cap, on the stdin loop and the socket alike.
 *
 * Daemon: N concurrent clients replaying the same jobs get results
 * bitwise identical to the facade, sharing warm artifacts; per-client
 * quotas and the bounded queue reject with serve.quota / serve.queue;
 * begin_shutdown() refuses new admissions (serve.draining) but drains —
 * every admitted job's result frame arrives before wait() returns.
 */
#include "serve/daemon.h"

#include <sys/types.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include <gtest/gtest.h>

#include "noise/models.h"
#include "noise/trajectory.h"
#include "qdsim/gate_library.h"
#include "qdsim/ir/ir.h"
#include "qdsim/ir/json.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/run.h"

namespace qd {
namespace {

// ------------------------------------------------------------- fixtures ---

/** The 2-qutrit entangling workload the bench corpus uses. */
Circuit
noisy_circuit()
{
    Circuit c(WireDims::uniform(2, 3));
    for (int l = 0; l < 2; ++l) {
        c.append(gates::H3(), {0});
        c.append(gates::H3(), {1});
        c.append(gates::Xplus1().controlled(3, 1), {0, 1});
    }
    return c;
}

ir::Job
trajectory_job(int shots = 64)
{
    ir::Job job;
    job.name = "traj-test";
    job.engine = "trajectory";
    job.shots = shots;
    job.seed = 2019;
    job.noise = "SC";
    job.circuit = noisy_circuit();
    return job;
}

ir::Job
state_job()
{
    ir::Job job;
    job.name = "state-test";
    job.engine = "state";
    job.circuit = noisy_circuit();
    return job;
}

std::string
submit_frame(const std::string& id, const ir::Job& job)
{
    return "{\"type\": \"submit\", \"id\": \"" + id + "\", \"qdj\": \"" +
           serve::json_escape(ir::to_qdj(job)) + "\"}";
}

/** Fresh per-test socket path (daemons unlink on wait()). */
std::string
test_socket_path()
{
    static std::atomic<int> counter{0};
    return "/tmp/qd_serve_test_" + std::to_string(::getpid()) + "_" +
           std::to_string(counter.fetch_add(1)) + ".sock";
}

/** Runs the stdin loop over `input` and returns the response frames,
 *  asserting every emitted line parses as a JSON object. */
std::vector<ir::json::Value>
stdin_frames(const std::string& input, const serve::DaemonOptions& options,
             serve::ServeStats* stats_out = nullptr)
{
    std::istringstream in(input);
    std::ostringstream out;
    const serve::ServeStats st = serve::run_stdin_loop(in, out, options);
    if (stats_out != nullptr) {
        *stats_out = st;
    }
    std::vector<ir::json::Value> frames;
    std::istringstream lines(out.str());
    std::string line;
    while (std::getline(lines, line)) {
        frames.push_back(ir::json::parse(line));
        EXPECT_TRUE(frames.back().is(ir::json::Value::Kind::kObject));
    }
    return frames;
}

const ir::json::Value&
member(const ir::json::Value& frame, const char* key)
{
    const ir::json::Value* v = frame.find(key);
    EXPECT_NE(v, nullptr) << "missing member: " << key;
    static const ir::json::Value null_value;
    return v != nullptr ? *v : null_value;
}

// ---------------------------------------------------------- parse_frame ---

TEST(ServeProtocol, ParsesSubmitStatsShutdown)
{
    auto submit = serve::parse_frame(
        "{\"type\": \"submit\", \"id\": \"j1\", \"qdj\": \"{}\"}");
    ASSERT_TRUE(std::holds_alternative<serve::Frame>(submit));
    EXPECT_EQ(std::get<serve::Frame>(submit).type,
              serve::Frame::Type::kSubmit);
    EXPECT_EQ(std::get<serve::Frame>(submit).id, "j1");
    EXPECT_EQ(std::get<serve::Frame>(submit).qdj, "{}");

    // Integer ids normalise to their decimal text.
    auto numeric = serve::parse_frame(
        "{\"type\": \"submit\", \"id\": 42, \"qdj\": \"x\"}");
    ASSERT_TRUE(std::holds_alternative<serve::Frame>(numeric));
    EXPECT_EQ(std::get<serve::Frame>(numeric).id, "42");

    auto stats = serve::parse_frame("{\"type\": \"stats\"}");
    ASSERT_TRUE(std::holds_alternative<serve::Frame>(stats));
    EXPECT_EQ(std::get<serve::Frame>(stats).type,
              serve::Frame::Type::kStats);

    auto shutdown = serve::parse_frame("{\"type\": \"shutdown\"}");
    ASSERT_TRUE(std::holds_alternative<serve::Frame>(shutdown));
    EXPECT_EQ(std::get<serve::Frame>(shutdown).type,
              serve::Frame::Type::kShutdown);
}

TEST(ServeProtocol, StableErrorIds)
{
    const auto id_of = [](const std::string& line) {
        auto parsed = serve::parse_frame(line);
        EXPECT_TRUE(std::holds_alternative<ir::Error>(parsed)) << line;
        return std::holds_alternative<ir::Error>(parsed)
                   ? std::get<ir::Error>(parsed).id
                   : std::string();
    };
    EXPECT_EQ(id_of("not json"), "serve.frame");
    EXPECT_EQ(id_of("[1, 2]"), "serve.frame");
    EXPECT_EQ(id_of("{\"no\": \"type\"}"), "serve.frame");
    EXPECT_EQ(id_of("{\"type\": 7}"), "serve.frame");
    EXPECT_EQ(id_of("{\"type\": \"weird\"}"), "serve.type");
    EXPECT_EQ(id_of("{\"type\": \"submit\"}"), "serve.submit");
    EXPECT_EQ(id_of("{\"type\": \"submit\", \"id\": \"a\"}"),
              "serve.submit");
    EXPECT_EQ(id_of("{\"type\": \"submit\", \"id\": [], \"qdj\": \"x\"}"),
              "serve.submit");
    EXPECT_EQ(id_of("{\"type\": \"submit\", \"id\": \"a\", \"qdj\": 1}"),
              "serve.submit");
}

// ----------------------------------------------------------- stdin loop ---

TEST(ServeStdinLoop, SubmitRoundTripsBitwise)
{
    const ir::Job job = trajectory_job();
    serve::ServeStats st;
    const auto frames = stdin_frames(submit_frame("j1", job) + "\n" +
                                         "{\"type\": \"shutdown\"}\n",
                                     {}, &st);
    ASSERT_EQ(frames.size(), 2u);  // result + bye
    EXPECT_EQ(member(frames[0], "type").string, "result");
    EXPECT_EQ(member(frames[0], "id").string, "j1");
    const ir::json::Value& result = member(frames[0], "result");
    EXPECT_EQ(member(result, "status").string, "ok");
    EXPECT_EQ(member(result, "engine").string, "trajectory");
    EXPECT_EQ(member(result, "schema").integer, serve::kRunResultSchema);
    EXPECT_EQ(member(frames[1], "type").string, "bye");

    // Bitwise against a direct engine run with the daemon's options.
    noise::TrajectoryOptions options;
    options.trials = job.shots;
    options.seed = job.seed;
    options.batch = job.batch;
    options.threads = serve::DaemonOptions{}.engine_threads;
    const noise::TrajectoryResult direct = noise::run_noisy_trials(
        job.circuit, *noise::model_by_name(job.noise), options);
    EXPECT_EQ(member(result, "value").number, direct.mean_fidelity);
    EXPECT_EQ(member(result, "std_error").number, direct.std_error);

    EXPECT_EQ(st.jobs_accepted, 1u);
    EXPECT_EQ(st.jobs_ok, 1u);
    EXPECT_EQ(st.connections, 1u);
    EXPECT_EQ(st.shots_executed, static_cast<std::uint64_t>(job.shots));
}

TEST(ServeStdinLoop, RepeatedSubmissionsHitWarmArtifacts)
{
    // Cold-start: other tests share the process-global artifact cache.
    exec::CompileService::global().clear();
    const std::string submit = submit_frame("r", trajectory_job());
    serve::ServeStats st;
    const auto frames =
        stdin_frames(submit + "\n" + submit + "\n" + submit + "\n", {},
                     &st);
    ASSERT_EQ(frames.size(), 4u);  // 3 results + bye (EOF)
    EXPECT_EQ(st.jobs_ok, 3u);
    EXPECT_GT(st.warm_hits, 0u);
    EXPECT_FALSE(member(member(frames[0], "result"), "warm").boolean);
    EXPECT_TRUE(member(member(frames[1], "result"), "warm").boolean);
    EXPECT_TRUE(member(member(frames[2], "result"), "warm").boolean);

    // Same value from every submission (shared artifact, same seed).
    const double v0 = member(member(frames[0], "result"), "value").number;
    EXPECT_EQ(member(member(frames[1], "result"), "value").number, v0);
    EXPECT_EQ(member(member(frames[2], "result"), "value").number, v0);
}

TEST(ServeStdinLoop, MalformedInputGetsStableIdsAndNeverCloses)
{
    serve::ServeStats st;
    const auto frames = stdin_frames(
        "garbage\n"
        "{\"type\": \"weird\"}\n"
        "{\"type\": \"submit\"}\n" +
            submit_frame("bad-qdj", {}).substr(0, 40) + "\n" +
            "{\"type\": \"submit\", \"id\": \"x\", \"qdj\": \"{\"}\n" +
            submit_frame("good", state_job()) + "\n",
        {}, &st);
    // 5 errors + 1 result + bye: the stream survived every bad frame.
    ASSERT_EQ(frames.size(), 7u);
    EXPECT_EQ(member(frames[0], "error_id").string, "serve.frame");
    EXPECT_EQ(member(frames[1], "error_id").string, "serve.type");
    EXPECT_EQ(member(frames[2], "error_id").string, "serve.submit");
    EXPECT_EQ(member(frames[3], "error_id").string, "serve.frame");
    // Embedded .qdj decode failures pass the stable qdj.* id through.
    EXPECT_EQ(member(frames[4], "error_id").string, "qdj.syntax");
    EXPECT_EQ(member(frames[4], "id").string, "x");
    EXPECT_EQ(member(member(frames[5], "result"), "status").string, "ok");
    EXPECT_EQ(member(frames[6], "type").string, "bye");
    EXPECT_EQ(st.jobs_rejected, 5u);
    EXPECT_EQ(st.jobs_ok, 1u);
}

TEST(ServeStdinLoop, EveryPrefixOfAValidFrameNeverCrashes)
{
    const std::string line = submit_frame("p", state_job());
    for (std::size_t n = 0; n <= line.size(); n += 7) {
        std::istringstream in(line.substr(0, n) + "\n");
        std::ostringstream out;
        const serve::ServeStats st = serve::run_stdin_loop(in, out, {});
        EXPECT_EQ(st.jobs_failed, 0u) << "prefix length " << n;
        // Every response line is well-formed JSON.
        std::istringstream lines(out.str());
        std::string frame;
        while (std::getline(lines, frame)) {
            EXPECT_NO_THROW((void)ir::json::parse(frame))
                << "prefix length " << n;
        }
    }
}

/** One line just past the frame cap (no newline). */
std::string
oversized_line()
{
    std::string line = "{\"type\": \"submit\", \"id\": \"big\", \"qdj\": \"";
    line.resize(serve::kMaxFrameBytes + 1, 'x');
    return line;
}

TEST(ServeStdinLoop, OversizedFrameIsRejectedAndTheStreamGoesOn)
{
    serve::ServeStats st;
    const auto frames = stdin_frames(
        oversized_line() + "\n" + submit_frame("after", state_job()) + "\n",
        {}, &st);
    ASSERT_EQ(frames.size(), 3u);  // error + result + bye
    EXPECT_EQ(member(frames[0], "error_id").string, "serve.frame");
    EXPECT_EQ(member(frames[1], "id").string, "after");
    EXPECT_EQ(member(member(frames[1], "result"), "status").string, "ok");
    EXPECT_EQ(st.jobs_rejected, 1u);
    EXPECT_EQ(st.jobs_ok, 1u);

    // A line of exactly the cap is read (and rejected only as JSON).
    std::string at_cap(serve::kMaxFrameBytes, ' ');
    at_cap.back() = 'x';
    const auto capped = stdin_frames(at_cap + "\n", {});
    ASSERT_EQ(capped.size(), 2u);
    EXPECT_EQ(member(capped[0], "error_id").string, "serve.frame");
    EXPECT_NE(member(capped[0], "message").string.find("invalid"),
              std::string::npos);

    // The last line needs no '\n', and an over-cap line may end the input.
    const auto tail = stdin_frames(
        "\n" + submit_frame("last", state_job()), {});
    ASSERT_EQ(tail.size(), 2u);
    EXPECT_EQ(member(tail[0], "id").string, "last");
    const auto cut = stdin_frames(oversized_line() + "yy", {});
    ASSERT_EQ(cut.size(), 2u);
    EXPECT_EQ(member(cut[0], "error_id").string, "serve.frame");
}

TEST(ServeStdinLoop, ShotQuotaRejects)
{
    serve::DaemonOptions options;
    options.max_client_shots = 10;
    serve::ServeStats st;
    const auto frames = stdin_frames(
        submit_frame("big", trajectory_job(200)) + "\n" +
            submit_frame("small", trajectory_job(10)) + "\n",
        options, &st);
    ASSERT_EQ(frames.size(), 3u);
    EXPECT_EQ(member(frames[0], "type").string, "error");
    EXPECT_EQ(member(frames[0], "error_id").string, "serve.quota");
    EXPECT_EQ(member(member(frames[1], "result"), "status").string, "ok");
    EXPECT_EQ(st.jobs_rejected, 1u);
    EXPECT_EQ(st.jobs_ok, 1u);
}

TEST(ServeStdinLoop, StatsFrameReportsCounters)
{
    const auto frames =
        stdin_frames(submit_frame("s", state_job()) + "\n" +
                         "{\"type\": \"stats\"}\n",
                     {});
    ASSERT_EQ(frames.size(), 3u);
    const ir::json::Value& stats = member(frames[1], "stats");
    EXPECT_EQ(member(frames[1], "type").string, "stats");
    EXPECT_EQ(member(frames[1], "schema").integer,
              serve::kRunResultSchema);
    EXPECT_EQ(member(stats, "obs_serve_jobs_accepted").integer, 1);
    EXPECT_EQ(member(stats, "obs_serve_jobs_ok").integer, 1);
    EXPECT_EQ(member(stats, "obs_serve_connections").integer, 1);
    EXPECT_EQ(member(stats, "serve_queue_peak").integer, 1);
}

// --------------------------------------------------------------- daemon ---

TEST(ServeDaemon, ConcurrentClientsShareWarmArtifactsBitwise)
{
    const std::vector<ir::Job> jobs = {state_job(), trajectory_job()};
    serve::DaemonOptions options;
    options.workers = 4;

    // Expected values through the same facade (single-threaded engines,
    // same options the daemon applies).
    std::map<std::string, double> expected;
    for (const ir::Job& job : jobs) {
        serve::RunRequest request = serve::RunRequest::from_job(job);
        request.threads = options.engine_threads;
        const serve::RunResult r = serve::execute(request);
        ASSERT_TRUE(r.ok()) << r.message;
        expected[job.name] = r.value;
    }

    serve::Daemon daemon(options);
    daemon.listen(test_socket_path());

    constexpr int kClients = 4;
    constexpr int kRepeats = 2;
    std::vector<std::thread> threads;
    std::atomic<int> mismatches{0};
    std::atomic<int> failures{0};
    for (int c = 0; c < kClients; ++c) {
        threads.emplace_back([&, c] {
            serve::Client client;
            if (!client.connect(daemon.socket_path())) {
                ++failures;
                return;
            }
            int outstanding = 0;
            for (int r = 0; r < kRepeats; ++r) {
                for (const ir::Job& job : jobs) {
                    const std::string id = std::to_string(c) + ":" +
                                           std::to_string(r) + ":" +
                                           job.name;
                    if (!client.send_line(submit_frame(id, job))) {
                        ++failures;
                        return;
                    }
                    ++outstanding;
                }
            }
            while (outstanding > 0) {
                const auto line = client.recv_line();
                if (!line) {
                    ++failures;
                    return;
                }
                const ir::json::Value frame = ir::json::parse(*line);
                if (member(frame, "type").string != "result" ||
                    member(member(frame, "result"), "status").string !=
                        "ok") {
                    ++failures;
                    return;
                }
                const ir::json::Value& result = member(frame, "result");
                if (member(result, "value").number !=
                    expected[member(result, "name").string]) {
                    ++mismatches;
                }
                --outstanding;
            }
            client.send_line("{\"type\": \"shutdown\"}");
            const auto bye = client.recv_line();
            if (!bye || member(ir::json::parse(*bye), "type").string !=
                            "bye") {
                ++failures;
            }
        });
    }
    for (std::thread& t : threads) {
        t.join();
    }
    EXPECT_EQ(failures.load(), 0);
    EXPECT_EQ(mismatches.load(), 0);

    const serve::ServeStats st = daemon.stats();
    EXPECT_EQ(st.connections, static_cast<std::uint64_t>(kClients));
    EXPECT_EQ(st.jobs_ok, static_cast<std::uint64_t>(
                              kClients * kRepeats *
                              static_cast<int>(jobs.size())));
    EXPECT_EQ(st.jobs_failed, 0u);
    EXPECT_EQ(st.jobs_rejected, 0u);
    // 8 submissions of each of the 2 circuits: at most one cold compile
    // each, every other submission warm.
    EXPECT_GT(st.warm_hits, 0u);
    daemon.wait();
}

TEST(ServeDaemon, ClientJobQuotaRejects)
{
    serve::DaemonOptions options;
    options.workers = 1;
    options.start_paused = true;  // stage: nothing executes yet
    options.max_client_queued = 1;
    serve::Daemon daemon(options);
    daemon.listen(test_socket_path());

    serve::Client client;
    ASSERT_TRUE(client.connect(daemon.socket_path()));
    ASSERT_TRUE(client.send_line(submit_frame("q1", state_job())));
    ASSERT_TRUE(client.send_line(submit_frame("q2", state_job())));

    // Deterministic: q1 is parked in the queue (workers paused), so q2
    // must bounce off the outstanding-job quota.
    const auto err = client.recv_line();
    ASSERT_TRUE(err.has_value());
    const ir::json::Value frame = ir::json::parse(*err);
    EXPECT_EQ(member(frame, "type").string, "error");
    EXPECT_EQ(member(frame, "error_id").string, "serve.quota");
    EXPECT_EQ(member(frame, "id").string, "q2");

    daemon.resume();
    const auto result = client.recv_line();
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(member(ir::json::parse(*result), "type").string, "result");
    daemon.wait();
    EXPECT_EQ(daemon.stats().jobs_ok, 1u);
    EXPECT_EQ(daemon.stats().jobs_rejected, 1u);
}

TEST(ServeDaemon, BoundedQueueRejects)
{
    serve::DaemonOptions options;
    options.workers = 1;
    options.start_paused = true;
    options.queue_capacity = 1;
    serve::Daemon daemon(options);
    daemon.listen(test_socket_path());

    serve::Client client;
    ASSERT_TRUE(client.connect(daemon.socket_path()));
    ASSERT_TRUE(client.send_line(submit_frame("f1", state_job())));
    ASSERT_TRUE(client.send_line(submit_frame("f2", state_job())));

    const auto err = client.recv_line();
    ASSERT_TRUE(err.has_value());
    const ir::json::Value frame = ir::json::parse(*err);
    EXPECT_EQ(member(frame, "error_id").string, "serve.queue");

    daemon.resume();
    const auto result = client.recv_line();
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(member(ir::json::parse(*result), "type").string, "result");
    daemon.wait();
}

TEST(ServeDaemon, OversizedFrameIsRejectedAndTheConnectionStays)
{
    serve::Daemon daemon;
    daemon.listen(test_socket_path());
    serve::Client client;
    ASSERT_TRUE(client.connect(daemon.socket_path()));
    // Over the cap with no newline in sight: rejected as soon as the cap
    // passes, before the line ends.
    ASSERT_TRUE(client.send_line(oversized_line() + std::string(70000, 'y')));
    ASSERT_TRUE(client.send_line(submit_frame("after", state_job())));

    const auto err = client.recv_line();
    ASSERT_TRUE(err.has_value());
    const ir::json::Value frame = ir::json::parse(*err);
    EXPECT_EQ(member(frame, "type").string, "error");
    EXPECT_EQ(member(frame, "error_id").string, "serve.frame");
    const auto result = client.recv_line();
    ASSERT_TRUE(result.has_value());
    const ir::json::Value done = ir::json::parse(*result);
    EXPECT_EQ(member(done, "id").string, "after");
    EXPECT_EQ(member(member(done, "result"), "status").string, "ok");
    daemon.wait();
    EXPECT_EQ(daemon.stats().jobs_rejected, 1u);
    EXPECT_EQ(daemon.stats().jobs_ok, 1u);
}

TEST(ServeDaemon, DrainCompletesAdmittedJobsAndRefusesNew)
{
    serve::DaemonOptions options;
    options.workers = 1;
    options.start_paused = true;
    serve::Daemon daemon(options);
    daemon.listen(test_socket_path());

    serve::Client client;
    ASSERT_TRUE(client.connect(daemon.socket_path()));
    ASSERT_TRUE(client.send_line(submit_frame("d1", state_job())));
    ASSERT_TRUE(client.send_line(submit_frame("d2", trajectory_job())));

    // Both jobs must be admitted (parked on the paused queue) before the
    // drain begins, or they would be serve.draining rejections too.
    for (int spin = 0; daemon.stats().jobs_accepted < 2 && spin < 500;
         ++spin) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    ASSERT_EQ(daemon.stats().jobs_accepted, 2u);

    daemon.begin_shutdown();
    ASSERT_TRUE(client.send_line(submit_frame("d3", state_job())));
    const auto refused = client.recv_line();
    ASSERT_TRUE(refused.has_value());
    const ir::json::Value frame = ir::json::parse(*refused);
    EXPECT_EQ(member(frame, "type").string, "error");
    EXPECT_EQ(member(frame, "error_id").string, "serve.draining");
    EXPECT_EQ(member(frame, "id").string, "d3");

    // The drain executes and streams both admitted jobs.
    daemon.resume();
    for (const char* id : {"d1", "d2"}) {
        const auto line = client.recv_line();
        ASSERT_TRUE(line.has_value()) << id;
        const ir::json::Value res = ir::json::parse(*line);
        EXPECT_EQ(member(res, "type").string, "result");
        EXPECT_EQ(member(res, "id").string, id);
        EXPECT_EQ(member(member(res, "result"), "status").string, "ok");
    }
    daemon.wait();
    const serve::ServeStats st = daemon.stats();
    EXPECT_EQ(st.jobs_ok, 2u);
    EXPECT_EQ(st.jobs_rejected, 1u);
}

// --------------------------------------------------------------- facade ---

TEST(ServeRun, RunResultJsonSchemaIsStable)
{
    serve::RunRequest request =
        serve::RunRequest::from_qdj(ir::to_qdj(state_job()));
    const serve::RunResult result = serve::execute(request);
    ASSERT_TRUE(result.ok());
    const ir::json::Value v = ir::json::parse(result.to_json());
    for (const char* key :
         {"schema", "file", "name", "engine", "status", "error_id",
          "message", "value", "std_error", "warm", "repeat",
          "compile_seconds", "exec_seconds", "seconds"}) {
        EXPECT_NE(v.find(key), nullptr) << key;
    }
    EXPECT_EQ(member(v, "schema").integer, serve::kRunResultSchema);
}

TEST(ServeRun, RejectsBadRepeatAndUnknownNoise)
{
    serve::RunRequest request = serve::RunRequest::from_job(state_job());
    request.repeat = 0;
    serve::RunResult result = serve::execute(request);
    EXPECT_EQ(result.status, "rejected");
    EXPECT_EQ(result.error_id, "serve.request");

    ir::Job job = trajectory_job();
    job.noise = "NOT_A_PRESET";
    result = serve::execute(serve::RunRequest::from_job(job));
    EXPECT_EQ(result.status, "rejected");
    EXPECT_EQ(result.error_id, "qdj.job");
}

TEST(ServeRun, EngineFailuresCarryExecIds)
{
    // Programmatic jobs skip the .qdj decoder's field and size checks, so
    // each of these reaches its engine, which throws.
    {
        // Trajectory: no shots to average.
        const serve::RunResult result =
            serve::execute(serve::RunRequest::from_job(trajectory_job(0)));
        EXPECT_EQ(result.status, "failed");
        EXPECT_EQ(result.error_id, "exec.trajectory");
        EXPECT_NE(result.message.find("trials"), std::string::npos)
            << result.message;
    }
    {
        // State: 2^60 amplitudes, which no machine holds; compiling the
        // X gate's plan throws before anything register-sized is built.
        ir::Job job = state_job();
        job.circuit = Circuit(WireDims::uniform(60, 2));
        job.circuit.append(gates::X(), {0});
        const serve::RunResult result =
            serve::execute(serve::RunRequest::from_job(job));
        EXPECT_EQ(result.status, "failed");
        EXPECT_EQ(result.error_id, "exec.state");
    }
    {
        // Density: SC's per-channel two-qudit rate over 144^2 - 1
        // channels is a total error probability above 1. Admission would
        // reject the model first, so it is off.
        ir::Job job = trajectory_job();
        job.engine = "density";
        job.circuit = Circuit(WireDims({12, 12}));
        job.circuit.append(Gate("id", {12, 12}, Matrix::identity(144)),
                           {0, 1});
        serve::RunRequest request = serve::RunRequest::from_job(job);
        request.admission = exec::Admission::kNever;
        const serve::RunResult result = serve::execute(request);
        EXPECT_EQ(result.status, "failed");
        EXPECT_EQ(result.error_id, "exec.density");
        EXPECT_NE(result.message.find("probabilities"), std::string::npos)
            << result.message;
    }
}

}  // namespace
}  // namespace qd
