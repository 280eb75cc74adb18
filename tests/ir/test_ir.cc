/**
 * @file test_ir.cc
 * Circuit IR round-trip and adversarial-decode tests.
 *
 * Round-trip: every paper construction serializes to .qdj and decodes
 * back to a circuit whose gates are BITWISE identical, and whose
 * execution on all three engines (state vector, trajectory, density
 * matrix) is bitwise identical to the original.
 *
 * Adversarial: every stable qdj.* error id is produced by at least one
 * malformed input, decode never crashes, and truncating a valid document
 * at any byte yields a structured ParseError.
 *
 * Decoder and hash contracts: the checked-in job corpus re-encodes byte
 * for byte; member order, spacing and duplicated keys do not change what
 * a document decodes to; every single-byte mutation of two small
 * documents either decodes or throws a qdj.* id; repeated gates decode to
 * one shared payload; the hex-float fast path agrees with strtod and
 * printf("%a") bit for bit; and circuit_hash / same_content see every
 * flipped matrix bit, swapped wire pair and changed dim.
 */
#include "qdsim/ir/ir.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "apps/arithmetic.h"
#include "apps/grover.h"
#include "apps/neuron.h"
#include "constructions/gen_toffoli.h"
#include "constructions/incrementer.h"
#include "noise/density_matrix.h"
#include "noise/models.h"
#include "noise/trajectory.h"
#include "qdsim/circuit.h"
#include "qdsim/exec/compiled_circuit.h"
#include "qdsim/gate_library.h"
#include "qdsim/ir/json.h"
#include "qdsim/simulator.h"
#include "qdsim/verify/verify.h"

namespace qd {
namespace {

bool
bitwise_equal(const Matrix& a, const Matrix& b)
{
    if (a.rows() != b.rows() || a.cols() != b.cols()) {
        return false;
    }
    return std::memcmp(a.data().data(), b.data().data(),
                       a.data().size() * sizeof(Complex)) == 0;
}

bool
bitwise_equal(const StateVector& a, const StateVector& b)
{
    if (a.size() != b.size()) {
        return false;
    }
    return std::memcmp(a.amplitudes().data(), b.amplitudes().data(),
                       a.amplitudes().size() * sizeof(Complex)) == 0;
}

/** Asserts decoded == original: dims, wires, and every gate bitwise. */
void
expect_identical(const Circuit& original, const Circuit& decoded,
                 const std::string& label)
{
    ASSERT_EQ(original.dims().dims(), decoded.dims().dims()) << label;
    ASSERT_EQ(original.num_ops(), decoded.num_ops()) << label;
    for (std::size_t i = 0; i < original.num_ops(); ++i) {
        const Operation& a = original.ops()[i];
        const Operation& b = decoded.ops()[i];
        EXPECT_EQ(a.wires, b.wires) << label << " op " << i;
        ASSERT_EQ(a.gate.dims(), b.gate.dims()) << label << " op " << i;
        EXPECT_TRUE(bitwise_equal(a.gate.matrix(), b.gate.matrix()))
            << label << " op " << i << " (" << a.gate.name() << " vs "
            << b.gate.name() << ")";
    }
}

struct NamedCircuit {
    std::string name;
    Circuit circuit;
};

/** The full construction corpus (every paper circuit the library builds)
 *  plus library-gate circuits covering the parametric families. */
std::vector<NamedCircuit>
build_corpus()
{
    std::vector<NamedCircuit> corpus;
    for (const auto method : ctor::all_methods()) {
        auto gt = ctor::build_gen_toffoli(method, 5);
        corpus.push_back({"gen-toffoli/" + gt.label,
                          std::move(gt.circuit)});
    }
    corpus.push_back(
        {"incrementer/qutrit-n6", ctor::build_qutrit_incrementer(6)});
    corpus.push_back(
        {"incrementer/qutrit-n5-three-qutrit",
         ctor::build_qutrit_incrementer(
             5, ctor::IncGranularity::kThreeQutrit)});
    corpus.push_back({"incrementer/qubit-staircase-n6",
                      ctor::build_qubit_staircase_incrementer(6)});
    corpus.push_back(
        {"arithmetic/add-13-n6", apps::build_add_constant(6, 13)});
    corpus.push_back(
        {"arithmetic/decrementer-n6", apps::build_decrementer(6)});
    for (const auto method : {apps::MczMethod::kQutrit,
                              apps::MczMethod::kQubitNoAncilla,
                              apps::MczMethod::kAtomic}) {
        const int n = 4;
        const char* label =
            method == apps::MczMethod::kQutrit ? "qutrit"
            : method == apps::MczMethod::kQubitNoAncilla
                ? "qubit-no-ancilla"
                : "atomic";
        corpus.push_back(
            {std::string("grover/") + label + "-n4",
             apps::build_grover_circuit(
                 n, 5, apps::grover_optimal_iterations(n), method)});
    }
    {
        const std::vector<int> inputs = {1, -1, 1, 1, -1, 1, -1, 1};
        const std::vector<int> weights = {1, 1, -1, 1, -1, -1, 1, 1};
        corpus.push_back({"neuron/qutrit-n3",
                          apps::build_neuron_circuit(
                              inputs, weights,
                              apps::NeuronMethod::kQutrit)});
        corpus.push_back({"neuron/qubit-n3",
                          apps::build_neuron_circuit(
                              inputs, weights,
                              apps::NeuronMethod::kQubitNoAncilla)});
    }
    {
        // Parametric + structural families, mixed radix, wrappers.
        Circuit c(WireDims({2, 3, 4, 2}));
        c.append(gates::H(), {0});
        c.append(gates::P(0.37), {0});
        c.append(gates::RZ(-1.25), {3});
        c.append(gates::Xpow(0.5), {3});
        c.append(gates::H3(), {1});
        c.append(gates::Z3(), {1});
        c.append(gates::shift(4), {2});
        c.append(gates::unshift(4), {2});
        c.append(gates::Zd(4), {2});
        c.append(gates::fourier(4), {2});
        c.append(gates::swap_levels(4, 1, 3), {2});
        c.append(gates::phase_level(4, 2, 2.1), {2});
        c.append(gates::embed(gates::H(), 3), {1});
        c.append(gates::embed(gates::X(), 4), {2});
        c.append(gates::Xplus1().controlled(2, 1), {3, 1});
        c.append(gates::X().controlled(3, 2), {1, 0});
        c.append(gates::H3().inverse(), {1});
        c.append(gates::T().inverse(), {0});
        corpus.push_back({"library/mixed-radix-families", std::move(c)});
    }
    {
        // A raw-matrix gate no registry family matches: must survive via
        // the hex-float matrix form bit for bit.
        Matrix m = Matrix::identity(2);
        m(0, 0) = Complex(0.123456789012345678, -0.5);
        m(0, 1) = Complex(0.987654321, 0.5);
        m(1, 0) = Complex(-0.987654321, 0.5);
        m(1, 1) = Complex(0.123456789012345678, 0.5);
        Circuit c(WireDims::uniform(1, 2));
        c.append(gates::from_matrix("arbitrary", {2}, std::move(m)), {0});
        corpus.push_back({"library/raw-matrix", std::move(c)});
    }
    return corpus;
}

TEST(IrRoundTrip, FullCorpusBitwiseExact)
{
    for (const NamedCircuit& entry : build_corpus()) {
        const std::string text = ir::to_qdj(entry.circuit);
        Circuit decoded = ir::circuit_from_qdj(text);
        expect_identical(entry.circuit, decoded, entry.name);
        // The cache key and its tie-break must agree too.
        EXPECT_TRUE(ir::same_content(entry.circuit, decoded)) << entry.name;
        EXPECT_EQ(ir::circuit_hash(entry.circuit),
                  ir::circuit_hash(decoded))
            << entry.name;
        // Second generation is a fixed point of serialization.
        EXPECT_EQ(text, ir::to_qdj(decoded)) << entry.name;
    }
}

TEST(IrRoundTrip, StateEngineBitwise)
{
    for (const NamedCircuit& entry : build_corpus()) {
        if (entry.circuit.dims().size() > Index{1} << 12) {
            continue;  // keep the test fast; width adds nothing here
        }
        const Circuit decoded =
            ir::circuit_from_qdj(ir::to_qdj(entry.circuit));
        // Compile both directly (no service cache: the decoded circuit
        // would hit the original's artifact and the test would be vacuous).
        const exec::CompiledCircuit a(entry.circuit);
        const exec::CompiledCircuit b(decoded);
        EXPECT_TRUE(bitwise_equal(simulate(a), simulate(b))) << entry.name;
    }
}

Circuit
noisy_workload()
{
    Circuit c(WireDims::uniform(2, 3));
    for (int l = 0; l < 2; ++l) {
        c.append(gates::H3(), {0});
        c.append(gates::H3(), {1});
        c.append(gates::Xplus1().controlled(3, 1), {0, 1});
    }
    return c;
}

TEST(IrRoundTrip, TrajectoryEngineBitwise)
{
    const Circuit original = noisy_workload();
    const Circuit decoded = ir::circuit_from_qdj(ir::to_qdj(original));
    const noise::NoiseModel model = noise::sc();
    noise::TrajectoryOptions options;
    options.trials = 40;
    options.seed = 505;
    options.keep_per_trial = true;
    const noise::TrajectoryCompilation a(original, model);
    const noise::TrajectoryCompilation b(decoded, model);
    const auto ra = noise::run_noisy_trials(a, options);
    const auto rb = noise::run_noisy_trials(b, options);
    EXPECT_EQ(ra.mean_fidelity, rb.mean_fidelity);
    EXPECT_EQ(ra.std_error, rb.std_error);
    EXPECT_EQ(ra.per_trial, rb.per_trial);
}

TEST(IrRoundTrip, DensityEngineBitwise)
{
    const Circuit original = noisy_workload();
    const Circuit decoded = ir::circuit_from_qdj(ir::to_qdj(original));
    const noise::NoiseModel model = noise::sc();
    const noise::DensityCompilation a(original, model);
    const noise::DensityCompilation b(decoded, model);
    const StateVector initial(original.dims());
    EXPECT_EQ(noise::density_matrix_fidelity(a, initial),
              noise::density_matrix_fidelity(b, initial));
}

TEST(IrRoundTrip, JobEnvelope)
{
    ir::Job job;
    job.name = "t";
    job.engine = "trajectory";
    job.shots = 123;
    job.seed = 77;
    job.batch = 4;
    job.fusion = false;
    job.noise = "SC";
    job.circuit = noisy_workload();
    const ir::Job decoded = ir::job_from_qdj(ir::to_qdj(job));
    EXPECT_EQ(decoded.name, "t");
    EXPECT_EQ(decoded.engine, "trajectory");
    EXPECT_EQ(decoded.shots, 123);
    EXPECT_EQ(decoded.seed, 77u);
    EXPECT_EQ(decoded.batch, 4);
    EXPECT_FALSE(decoded.fusion);
    EXPECT_EQ(decoded.noise, "SC");
    expect_identical(job.circuit, decoded.circuit, "job");
    // A plain circuit document is a job with execution defaults.
    const ir::Job plain =
        ir::job_from_qdj(ir::to_qdj(noisy_workload()));
    EXPECT_EQ(plain.engine, "state");
    EXPECT_TRUE(plain.noise.empty());
}

TEST(IrRoundTrip, JobSeedsSpanTheFullUnsignedRange)
{
    // to_qdj writes any uint64 seed; seeds at and above 2^63 used to come
    // back as qdj.job errors from a signed parse.
    for (const std::uint64_t seed :
         {std::uint64_t{1} << 63, std::numeric_limits<std::uint64_t>::max()}) {
        ir::Job job;
        job.seed = seed;
        job.circuit = noisy_workload();
        EXPECT_EQ(ir::job_from_qdj(ir::to_qdj(job)).seed, seed);
    }
}

TEST(IrGateRegistry, RecognizeRebuildsBitwise)
{
    const std::vector<Gate> gates = {
        gates::X(), gates::Y(), gates::Z(), gates::H(), gates::S(),
        gates::T(), gates::P(0.3), gates::RZ(1.1), gates::Xpow(0.25),
        gates::CNOT(), gates::CZ(), gates::CCX(), gates::X01(),
        gates::X02(), gates::X12(), gates::Xplus1(), gates::Xminus1(),
        gates::Z3(), gates::H3(), gates::shift(5), gates::unshift(7),
        gates::swap_levels(4, 1, 3), gates::Zd(5), gates::fourier(6),
        gates::phase_level(3, 2, 0.7), gates::embed(gates::H(), 3),
        gates::Xplus1().controlled(3, 1), gates::H3().inverse(),
        gates::X().controlled(2, 1).controlled(2, 0),
    };
    for (const Gate& g : gates) {
        const auto spec = gates::recognize_gate(g);
        ASSERT_TRUE(spec.has_value()) << g.name();
        ASSERT_TRUE(gates::registry_has_family(spec->family)) << g.name();
        const Gate rebuilt = gates::build_gate(*spec, g.dims());
        EXPECT_EQ(rebuilt.name(), g.name());
        EXPECT_EQ(rebuilt.dims(), g.dims());
        EXPECT_TRUE(bitwise_equal(rebuilt.matrix(), g.matrix()))
            << g.name();
    }
}

TEST(IrGateRegistry, AmbiguousNamesAreDistinct)
{
    // swap_levels / phase_level on d != 3 used to collide with the d=3
    // names; the registry requires names to identify gates uniquely.
    EXPECT_NE(gates::swap_levels(3, 0, 1).name(),
              gates::swap_levels(4, 0, 1).name());
    EXPECT_NE(gates::phase_level(3, 1, 0.5).name(),
              gates::phase_level(4, 1, 0.5).name());
    EXPECT_THROW(gates::phase_level(3, 7, 0.5), std::invalid_argument);
}

// ---------------------------------------------------------- adversarial ---

struct BadDoc {
    const char* id;    ///< expected stable error id
    const char* text;  ///< malformed .qdj input
};

/** Every stable error id, each produced by at least one input. Decoding
 *  must throw ParseError with exactly the expected id — never crash. */
const BadDoc kBadDocs[] = {
    {"qdj.syntax", ""},
    {"qdj.syntax", "not json"},
    {"qdj.syntax", "{\"qdj\": 1"},
    {"qdj.syntax", "{\"qdj\": 1} trailing"},
    {"qdj.syntax", "[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[["
                   "[[[[[[[[[[[[[[[[[[[[[[[["},
    {"qdj.version", "{}"},
    {"qdj.version", "{\"qdj\": 99, \"kind\": \"circuit\"}"},
    {"qdj.version", "{\"qdj\": \"x\", \"kind\": \"circuit\"}"},
    {"qdj.schema", "{\"qdj\": 1}"},
    {"qdj.schema", "{\"qdj\": 1, \"kind\": \"recipe\"}"},
    {"qdj.schema", "{\"qdj\": 1, \"kind\": \"circuit\"}"},
    {"qdj.schema",
     "{\"qdj\": 1, \"kind\": \"circuit\", \"dims\": [2], \"ops\": 5}"},
    {"qdj.schema",
     "{\"qdj\": 1, \"kind\": \"circuit\", \"dims\": [2], "
     "\"ops\": [{\"wires\": [0]}]}"},
    {"qdj.dims",
     "{\"qdj\": 1, \"kind\": \"circuit\", \"dims\": [], \"ops\": []}"},
    {"qdj.dims",
     "{\"qdj\": 1, \"kind\": \"circuit\", \"dims\": [1], \"ops\": []}"},
    {"qdj.dims",
     "{\"qdj\": 1, \"kind\": \"circuit\", \"dims\": [2, 65], "
     "\"ops\": []}"},
    {"qdj.wires",
     "{\"qdj\": 1, \"kind\": \"circuit\", \"dims\": [2], "
     "\"ops\": [{\"gate\": \"X\", \"wires\": []}]}"},
    {"qdj.wires",
     "{\"qdj\": 1, \"kind\": \"circuit\", \"dims\": [2], "
     "\"ops\": [{\"gate\": \"X\", \"wires\": [3]}]}"},
    {"qdj.wires",
     "{\"qdj\": 1, \"kind\": \"circuit\", \"dims\": [2, 2], "
     "\"ops\": [{\"gate\": \"CNOT\", \"wires\": [0, 0]}]}"},
    {"qdj.unknown-gate",
     "{\"qdj\": 1, \"kind\": \"circuit\", \"dims\": [2], "
     "\"ops\": [{\"gate\": \"FROB\", \"wires\": [0]}]}"},
    {"qdj.params",
     "{\"qdj\": 1, \"kind\": \"circuit\", \"dims\": [2], "
     "\"ops\": [{\"gate\": \"P\", \"wires\": [0]}]}"},
    {"qdj.params",
     "{\"qdj\": 1, \"kind\": \"circuit\", \"dims\": [2], "
     "\"ops\": [{\"gate\": \"controlled\", \"i\": [1], "
     "\"wires\": [0]}]}"},
    {"qdj.dim-mismatch",
     "{\"qdj\": 1, \"kind\": \"circuit\", \"dims\": [3], "
     "\"ops\": [{\"gate\": \"X\", \"wires\": [0]}]}"},
    {"qdj.matrix",
     "{\"qdj\": 1, \"kind\": \"circuit\", \"dims\": [2], "
     "\"ops\": [{\"gate\": \"matrix\", \"name\": \"m\", "
     "\"m\": [[[1, 0]]], \"wires\": [0]}]}"},
    {"qdj.number",
     "{\"qdj\": 1, \"kind\": \"circuit\", \"dims\": [2], "
     "\"ops\": [{\"gate\": \"P\", \"r\": [\"zzz\"], \"wires\": [0]}]}"},
    {"qdj.non-finite",
     "{\"qdj\": 1, \"kind\": \"circuit\", \"dims\": [2], "
     "\"ops\": [{\"gate\": \"matrix\", \"name\": \"m\", "
     "\"m\": [[[\"inf\", 0], [0, 0]], [[0, 0], [1, 0]]], "
     "\"wires\": [0]}]}"},
    {"qdj.job",
     "{\"qdj\": 1, \"kind\": \"job\", \"engine\": \"warp\", "
     "\"circuit\": {\"dims\": [2], \"ops\": []}}"},
    {"qdj.job",
     "{\"qdj\": 1, \"kind\": \"job\", \"engine\": \"trajectory\", "
     "\"circuit\": {\"dims\": [2], \"ops\": []}}"},
    {"qdj.job",
     "{\"qdj\": 1, \"kind\": \"job\", \"shots\": 0, "
     "\"circuit\": {\"dims\": [2], \"ops\": []}}"},
    {"qdj.job",
     "{\"qdj\": 1, \"kind\": \"job\", \"seed\": -1, "
     "\"circuit\": {\"dims\": [2], \"ops\": []}}"},
    {"qdj.job",  // 2^64
     "{\"qdj\": 1, \"kind\": \"job\", \"seed\": 18446744073709551616, "
     "\"circuit\": {\"dims\": [2], \"ops\": []}}"},
    {"qdj.job",
     "{\"qdj\": 1, \"kind\": \"job\", \"seed\": 1.5, "
     "\"circuit\": {\"dims\": [2], \"ops\": []}}"},
};

TEST(IrAdversarial, EveryErrorIdStableAndStructured)
{
    for (const BadDoc& doc : kBadDocs) {
        try {
            (void)ir::job_from_qdj(doc.text);
            FAIL() << "accepted: " << doc.text;
        } catch (const ir::ParseError& e) {
            EXPECT_EQ(e.error().id, doc.id) << doc.text;
            EXPECT_FALSE(std::string(e.what()).empty());
            // Rejections convert into structured verify reports carrying
            // the id as the rule, for the admission pipeline.
            const verify::Report report = ir::to_report(e.error());
            EXPECT_TRUE(report.has_errors());
            EXPECT_TRUE(report.has_rule(doc.id));
        }
    }
}

TEST(IrAdversarial, CircuitKindRequiredByCircuitDecoder)
{
    // circuit_from_qdj rejects job documents (schema, not a crash).
    const std::string job_text = ir::to_qdj([] {
        ir::Job j;
        j.circuit = Circuit(WireDims::uniform(1, 2));
        return j;
    }());
    try {
        (void)ir::circuit_from_qdj(job_text);
        FAIL() << "circuit decoder accepted a job document";
    } catch (const ir::ParseError& e) {
        EXPECT_EQ(e.error().id, "qdj.schema");
    }
}

TEST(IrAdversarial, TruncationNeverCrashes)
{
    const std::string text = ir::to_qdj([] {
        ir::Job j;
        j.engine = "trajectory";
        j.noise = "SC";
        j.circuit = noisy_workload();
        return j;
    }());
    // Every prefix that stops before the closing brace is malformed and
    // must raise a structured error (prefixes past it differ only in
    // trailing whitespace and stay valid).
    const std::size_t body_end = text.find_last_of('}');
    ASSERT_NE(body_end, std::string::npos);
    for (std::size_t n = 0; n <= body_end; ++n) {
        const std::string prefix = text.substr(0, n);
        EXPECT_THROW((void)ir::job_from_qdj(prefix), ir::ParseError)
            << "prefix length " << n;
    }
    EXPECT_NO_THROW((void)ir::job_from_qdj(text));
}

TEST(IrHashing, NameExcludedContentSensitive)
{
    Circuit a(WireDims::uniform(1, 2));
    a.append(gates::X(), {0});
    // Same matrix under a different label: the same content.
    Circuit b(WireDims::uniform(1, 2));
    b.append(gates::from_matrix("relabeled", {2},
                                gates::X().matrix()), {0});
    EXPECT_TRUE(ir::same_content(a, b));
    EXPECT_EQ(ir::circuit_hash(a), ir::circuit_hash(b));
    // Different wires / different matrix: different hash.
    Circuit c(WireDims::uniform(2, 2));
    c.append(gates::X(), {1});
    EXPECT_NE(ir::circuit_hash(a), ir::circuit_hash(c));
    Circuit d(WireDims::uniform(1, 2));
    d.append(gates::Z(), {0});
    EXPECT_NE(ir::circuit_hash(a), ir::circuit_hash(d));
}


TEST(IrHashing, EveryMutationChangesHashAndContent)
{
    Circuit base(WireDims({3, 3, 2}));
    base.append(gates::H3(), {0});
    base.append(gates::Xplus1().controlled(3, 1), {0, 1});
    base.append(gates::X().controlled(3, 2), {1, 2});
    const std::uint64_t h = ir::circuit_hash(base);
    EXPECT_TRUE(ir::same_content(base, base));

    // One flipped bit in one matrix entry.
    Matrix m = base.ops()[0].gate.matrix();
    m(1, 2) = Complex(std::bit_cast<double>(
                          std::bit_cast<std::uint64_t>(m(1, 2).real()) ^ 1),
                      m(1, 2).imag());
    Circuit flipped(base.dims());
    flipped.append(gates::from_matrix("H3", {3}, m), {0});
    flipped.append(base.ops()[1].gate, base.ops()[1].wires);
    flipped.append(base.ops()[2].gate, base.ops()[2].wires);

    // A swapped wire pair.
    Circuit swapped(base.dims());
    swapped.append(base.ops()[0].gate, {0});
    swapped.append(base.ops()[1].gate, {1, 0});
    swapped.append(base.ops()[2].gate, {1, 2});

    // A changed dim (an idle wire's).
    Circuit redimmed(WireDims({3, 3, 2, 2}));
    for (const Operation& op : base.ops()) {
        redimmed.append(op.gate, op.wires);
    }
    Circuit grown(WireDims({3, 3, 2, 3}));
    for (const Operation& op : base.ops()) {
        grown.append(op.gate, op.wires);
    }

    for (const Circuit* other : {&flipped, &swapped, &redimmed, &grown}) {
        EXPECT_NE(ir::circuit_hash(*other), h);
        EXPECT_FALSE(ir::same_content(base, *other));
        EXPECT_FALSE(ir::same_content(*other, base));
    }
    EXPECT_NE(ir::circuit_hash(redimmed), ir::circuit_hash(grown));
}

// ---------------------------------------------------- decoder contracts ---

std::string
read_file(const std::filesystem::path& path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

/** The checked-in job corpus: the .qdj files of bench/jobs, by name. */
std::vector<std::filesystem::path>
corpus_files()
{
    std::vector<std::filesystem::path> files;
    for (const auto& e : std::filesystem::directory_iterator(
             std::filesystem::path(QD_SOURCE_DIR) / "bench" / "jobs")) {
        if (e.path().extension() == ".qdj") {
            files.push_back(e.path());
        }
    }
    std::sort(files.begin(), files.end());
    return files;
}

/** Asserts two decoded jobs agree: envelope, content, hash and names. */
void
expect_same_job(const ir::Job& a, const ir::Job& b, const std::string& label)
{
    EXPECT_EQ(a.name, b.name) << label;
    EXPECT_EQ(a.engine, b.engine) << label;
    EXPECT_EQ(a.shots, b.shots) << label;
    EXPECT_EQ(a.seed, b.seed) << label;
    EXPECT_EQ(a.batch, b.batch) << label;
    EXPECT_EQ(a.fusion, b.fusion) << label;
    EXPECT_EQ(a.noise, b.noise) << label;
    expect_identical(a.circuit, b.circuit, label);
    EXPECT_TRUE(ir::same_content(a.circuit, b.circuit)) << label;
    EXPECT_EQ(ir::circuit_hash(a.circuit), ir::circuit_hash(b.circuit))
        << label;
    ASSERT_EQ(a.circuit.num_ops(), b.circuit.num_ops()) << label;
    for (std::size_t i = 0; i < a.circuit.num_ops(); ++i) {
        EXPECT_EQ(a.circuit.ops()[i].gate.name(),
                  b.circuit.ops()[i].gate.name())
            << label << " op " << i;
    }
}

TEST(IrCorpus, EveryJobFileReencodesByteForByte)
{
    const auto files = corpus_files();
    ASSERT_FALSE(files.empty());
    for (const auto& file : files) {
        const std::string text = read_file(file);
        const ir::Job job = ir::job_from_qdj(text);
        EXPECT_EQ(ir::to_qdj(job), text) << file;
    }
}

/** JSON text of a DOM value with every object's members in reverse order
 *  and extra whitespace around every token. */
void
write_reordered(const ir::json::Value& v, std::string& out)
{
    using Kind = ir::json::Value::Kind;
    const auto quoted = [&out](const std::string& s) {
        out += '"';
        for (const char c : s) {
            if (c == '"' || c == '\\') {
                out += '\\';
            }
            out += c;
        }
        out += '"';
    };
    switch (v.kind) {
    case Kind::kObject:
        out += "{\n\t";
        for (auto it = v.object.rbegin(); it != v.object.rend(); ++it) {
            if (it != v.object.rbegin()) {
                out += " ,\r\n ";
            }
            quoted(it->first);
            out += " :  ";
            write_reordered(it->second, out);
        }
        out += "\n}";
        break;
    case Kind::kArray:
        out += "[ ";
        for (std::size_t i = 0; i < v.array.size(); ++i) {
            out += i == 0 ? "" : " , ";
            write_reordered(v.array[i], out);
        }
        out += " ]";
        break;
    case Kind::kString: quoted(v.string); break;
    case Kind::kBool: out += v.boolean ? "true" : "false"; break;
    case Kind::kNumber: out += std::to_string(v.integer); break;
    case Kind::kNull: out += "null"; break;
    }
}

TEST(IrDecoder, MemberOrderAndSpacingDoNotMatter)
{
    // A construction-corpus job with both op forms: library specs
    // (nested "base" objects) and raw 9x9 matrices.
    ir::Job job;
    job.name = "w3 \"quoted\" \\ name";
    job.engine = "trajectory";
    job.noise = "SC";
    job.shots = 17;
    job.seed = 99;
    job.circuit = ctor::build_gen_toffoli(ctor::Method::kQutrit, 3).circuit;
    const std::string text = ir::to_qdj(job);
    ASSERT_NE(text.find("\"matrix\""), std::string::npos);
    const ir::Job decoded = ir::job_from_qdj(text);
    expect_identical(job.circuit, decoded.circuit, "direct");

    std::string reordered;
    write_reordered(ir::json::parse(text), reordered);
    ASSERT_NE(reordered, text);
    ASSERT_LT(reordered.find("\"circuit\""), reordered.find("\"qdj\""));
    expect_same_job(decoded, ir::job_from_qdj(reordered), "reordered");

    for (const auto& file : corpus_files()) {
        const std::string corpus = read_file(file);
        std::string r;
        write_reordered(ir::json::parse(corpus), r);
        expect_same_job(ir::job_from_qdj(corpus), ir::job_from_qdj(r),
                        file.string());
    }
}

TEST(IrDecoder, DuplicatedKeysKeepTheFirstValue)
{
    const std::string doc =
        "{\"qdj\": 1, \"kind\": \"job\", \"shots\": 7, \"shots\": 9,"
        " \"engine\": \"state\", \"engine\": \"warp\", \"circuit\": "
        "{\"dims\": [2, 3], \"dims\": [2], \"ops\": ["
        "{\"gate\": \"X\", \"wires\": [0], \"wires\": [1], \"gate\": \"Y\"},"
        "{\"gate\": \"matrix\", \"m\": [[[0, 0], [1, 0]], [[1, 0], [0, 0]]],"
        " \"m\": 5, \"name\": \"a\", \"name\": 7, \"wires\": [0]}]}}";
    const ir::Job job = ir::job_from_qdj(doc);
    // json::Value::find's rule: the first member with a key wins.
    const ir::json::Value dom = ir::json::parse(doc);
    EXPECT_EQ(job.shots, dom.find("shots")->integer);
    EXPECT_EQ(job.shots, 7);
    EXPECT_EQ(job.engine, "state");
    EXPECT_EQ(job.circuit.dims().dims(), (std::vector<int>{2, 3}));
    ASSERT_EQ(job.circuit.num_ops(), 2u);
    EXPECT_EQ(job.circuit.ops()[0].gate.name(), "X");
    EXPECT_EQ(job.circuit.ops()[0].wires, (std::vector<int>{0}));
    EXPECT_EQ(job.circuit.ops()[1].gate.name(), "a");
    EXPECT_TRUE(bitwise_equal(job.circuit.ops()[1].gate.matrix(),
                              gates::X().matrix()));
}

TEST(IrDecoder, MutantsDecodeOrThrowAQdjId)
{
    ir::Job raw;
    raw.name = "raw";
    for (const NamedCircuit& entry : build_corpus()) {
        if (entry.name == "library/raw-matrix") {
            raw.circuit = entry.circuit;
        }
    }
    ASSERT_EQ(raw.circuit.num_ops(), 1u);
    const std::vector<std::string> docs = {
        read_file(corpus_files().front()), ir::to_qdj(raw)};
    ASSERT_NE(docs[1].find("\"m\""), std::string::npos);
    long decoded = 0;
    long rejected = 0;
    const auto check = [&](const std::string& mutant) {
        try {
            (void)ir::job_from_qdj(mutant);
            ++decoded;
        } catch (const ir::ParseError& e) {
            ++rejected;
            EXPECT_EQ(e.error().id.rfind("qdj.", 0), 0u)
                << e.error().id << " for:\n" << mutant;
        }
    };
    for (const std::string& doc : docs) {
        for (std::size_t i = 0; i < doc.size(); ++i) {
            std::string deleted = doc;
            deleted.erase(i, 1);
            check(deleted);
            for (const char c : {'"', '{', ']', ',', '0', 'x'}) {
                if (doc[i] != c) {
                    std::string replaced = doc;
                    replaced[i] = c;
                    check(replaced);
                }
            }
        }
    }
    // Both outcomes occur: deleting a space decodes, a quote does not.
    EXPECT_GT(decoded, 0);
    EXPECT_GT(rejected, 0);
}

TEST(IrDecoder, RepeatedGatesShareOnePayload)
{
    Matrix m = Matrix::identity(2);
    m(0, 1) = Complex(0.25, 0);
    const Gate raw = gates::from_matrix("raw", {2}, m);
    Circuit c(WireDims({3, 3, 2}));
    c.append(gates::H3(), {0});
    c.append(gates::Xplus1().controlled(3, 1), {0, 1});
    c.append(gates::H3(), {1});
    c.append(raw, {2});
    c.append(gates::Xplus1().controlled(3, 1), {1, 0});
    c.append(gates::H3(), {0});
    c.append(gates::from_matrix("raw", {2}, m), {2});
    c.append(gates::P(0.5), {2});
    const Circuit d = ir::circuit_from_qdj(ir::to_qdj(c));
    expect_identical(c, d, "shared");
    const auto& ops = d.ops();
    // Same spec text on same operand dims: one payload.
    EXPECT_TRUE(ops[0].gate.same_payload(ops[2].gate));
    EXPECT_TRUE(ops[0].gate.same_payload(ops[5].gate));
    EXPECT_TRUE(ops[1].gate.same_payload(ops[4].gate));
    EXPECT_TRUE(ops[3].gate.same_payload(ops[6].gate));
    // Different gates keep their own.
    EXPECT_FALSE(ops[0].gate.same_payload(ops[1].gate));
    EXPECT_FALSE(ops[3].gate.same_payload(ops[7].gate));
    // Copies share the digest cache too.
    EXPECT_EQ(ops[0].gate.digest(), gates::H3().digest());
    EXPECT_NE(ops[0].gate.digest(), ops[3].gate.digest());
}

TEST(IrDecoder, ReusedNonUnitaryMatrixIsOneFinding)
{
    // Decoded ops that repeat a raw matrix share its payload, and verify
    // reports a gate's unitarity once per payload: one finding, however
    // many ops use it (as for one Gate appended N times in process).
    Circuit c(WireDims::uniform(2, 2));
    const Gate lossy =
        gates::from_matrix("lossy", {2}, Matrix{{1, 0}, {0, Real(0.5)}});
    for (int i = 0; i < 5; ++i) {
        c.append(lossy, {i % 2});
    }
    const Circuit d = ir::circuit_from_qdj(ir::to_qdj(c));
    EXPECT_EQ(verify::analyze(c).count_rule("circuit.non-unitary"), 1u);
    EXPECT_EQ(verify::analyze(d).count_rule("circuit.non-unitary"), 1u);

    // Distinct matrices are distinct findings.
    c.append(gates::from_matrix("lossy", {2},
                                Matrix{{1, 0}, {0, Real(0.25)}}),
             {0});
    const Circuit e = ir::circuit_from_qdj(ir::to_qdj(c));
    EXPECT_EQ(verify::analyze(e).count_rule("circuit.non-unitary"), 2u);
}

TEST(IrEncoder, ManyDistinctMatricesUnderOneName)
{
    // The encoder's gate memo must tell apart thousands of gates that
    // share a name (as decoded raw matrices without a "name" do) and
    // still reuse the text of each repeated one.
    constexpr int kDistinct = 3000;
    std::vector<Gate> distinct;
    for (int k = 0; k < kDistinct; ++k) {
        Matrix m = Matrix::identity(2);
        m(0, 1) = Complex(static_cast<Real>(k) / kDistinct, 0);
        distinct.push_back(gates::from_matrix("m", {2}, std::move(m)));
    }
    Circuit c(WireDims::uniform(2, 2));
    for (int k = 0; k < kDistinct; ++k) {
        c.append(distinct[k], {k % 2});
    }
    for (int k = kDistinct - 1; k >= 0; --k) {
        // Equal content in a separate payload: matched by content.
        c.append(gates::from_matrix("m", {2}, distinct[k].matrix()),
                 {k % 2});
    }
    // The same matrix under another name keeps its own text.
    c.append(gates::from_matrix("other", {2}, distinct[7].matrix()), {1});

    const std::string text = ir::to_qdj(c);
    const Circuit d = ir::circuit_from_qdj(text);
    expect_identical(c, d, "one name");
    EXPECT_EQ(text, ir::to_qdj(d));
    const auto& ops = d.ops();
    for (int k = 0; k < kDistinct; ++k) {
        EXPECT_TRUE(
            ops[k].gate.same_payload(ops[2 * kDistinct - 1 - k].gate))
            << k;
    }
    EXPECT_FALSE(ops[0].gate.same_payload(ops[1].gate));
    EXPECT_EQ(ops.back().gate.name(), "other");
    EXPECT_FALSE(ops.back().gate.same_payload(ops[7].gate));
}

TEST(IrDecoder, HexFloatFastPathMatchesStrtodAndPrintf)
{
    std::mt19937_64 rng(20190531);
    std::vector<double> values = {
        0.0, -0.0, 1.0, -1.5, 0.1, 1.0 / 3,
        std::numeric_limits<double>::min(),
        std::numeric_limits<double>::max(),
        std::numeric_limits<double>::lowest(),
        std::numeric_limits<double>::denorm_min(),
        -std::numeric_limits<double>::denorm_min(),
        std::numeric_limits<double>::min() / 3};
    for (int i = 0; i < 5000; ++i) {
        double v = std::bit_cast<double>(rng());
        if (!std::isfinite(v)) {
            v = 0.5;
        }
        values.push_back(v);
        values.push_back(std::ldexp(v, -1000));  // subnormals
    }
    const auto strtod_reads = [](const std::string& s, double& out) {
        char* end = nullptr;
        out = std::strtod(s.c_str(), &end);
        return !s.empty() && end == s.c_str() + s.size();
    };
    std::vector<std::string> texts = {
        "0x1p", "0x", "0x-1p0", "-0x+1p0", "0X1P0", "0x.8p1", "0x1.p0",
        " 0x1p0", "+0x1p0", "+1", ".5", "5.", "1e", "1e999", "1e-400",
        "inf", "-nan", "0x1.00000000000008p0", "0x1.000000000000080001p0",
        "0x1.fffffffffffff8p1023", "0x1p-1075", "0x1.8p-1075", "1-2"};
    char buf[64];
    for (const double v : values) {
        std::snprintf(buf, sizeof(buf), "%a", v);
        texts.emplace_back(buf);
        std::snprintf(buf, sizeof(buf), "%.17g", v);
        texts.emplace_back(buf);
        std::snprintf(buf, sizeof(buf), "%.3e", v);
        texts.emplace_back(buf);
    }
    for (int i = 0; i < 2000; ++i) {
        // Long hex mantissas exercise rounding past 53 bits.
        std::string s = "0x1.";
        for (int k = 0; k < 20; ++k) {
            s += "0123456789abcdef"[rng() % 16];
        }
        s += 'p';
        s += std::to_string(static_cast<int>(rng() % 2200) - 1100);
        texts.push_back(s);
    }
    for (const std::string& s : texts) {
        double want = 0;
        double got = 0;
        const bool reads = strtod_reads(s, want);
        ASSERT_EQ(ir::json::parse_real(s, got), reads) << s;
        if (reads) {
            EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
                      std::bit_cast<std::uint64_t>(want))
                << s;
        }
    }

    // The encoder writes every entry exactly as "%a" does.
    Circuit c(WireDims::uniform(1, 2));
    for (std::size_t i = 0; i + 4 <= values.size(); i += 4) {
        Matrix m(2, 2);
        m(0, 0) = Complex(values[i], values[i + 1]);
        m(1, 1) = Complex(values[i + 2], values[i + 3]);
        m(0, 1) = Complex(0.0, 0.5);  // never a library gate
        c.append(gates::from_matrix("m", {2}, std::move(m)), {0});
    }
    const std::string text = ir::to_qdj(c);
    std::size_t at = 0;
    for (std::size_t i = 0; i + 4 <= values.size(); i += 4) {
        for (std::size_t k = i; k < i + 4; ++k) {
            std::snprintf(buf, sizeof(buf), "\"%a\"", values[k]);
            at = text.find(buf, at);
            ASSERT_NE(at, std::string::npos) << buf;
        }
    }
    expect_identical(c, ir::circuit_from_qdj(text), "hex floats");
}

}  // namespace
}  // namespace qd
