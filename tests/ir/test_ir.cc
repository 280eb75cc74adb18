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
 */
#include "qdsim/ir/ir.h"

#include <cstdint>
#include <cstring>
#include <limits>
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
#include "qdsim/simulator.h"

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
        // Canonical bytes (and so the cache key) must agree too.
        EXPECT_EQ(ir::canonical_bytes(entry.circuit),
                  ir::canonical_bytes(decoded))
            << entry.name;
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
    // Same matrix under a different label: identical canonical bytes.
    Circuit b(WireDims::uniform(1, 2));
    b.append(gates::from_matrix("relabeled", {2},
                                gates::X().matrix()), {0});
    EXPECT_EQ(ir::canonical_bytes(a), ir::canonical_bytes(b));
    EXPECT_EQ(ir::circuit_hash(a), ir::circuit_hash(b));
    // Different wires / different matrix: different hash.
    Circuit c(WireDims::uniform(2, 2));
    c.append(gates::X(), {1});
    EXPECT_NE(ir::circuit_hash(a), ir::circuit_hash(c));
    Circuit d(WireDims::uniform(1, 2));
    d.append(gates::Z(), {0});
    EXPECT_NE(ir::circuit_hash(a), ir::circuit_hash(d));
}

}  // namespace
}  // namespace qd
