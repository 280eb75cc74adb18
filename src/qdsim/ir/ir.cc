#include "qdsim/ir/ir.h"

#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <utility>

#include "qdsim/gate_library.h"
#include "qdsim/ir/json.h"

namespace qd::ir {

// ---------------------------------------------------------------- errors ---

ParseError::ParseError(Error e) : std::runtime_error(format(e)),
                                  error_(std::move(e)) {}

std::string
ParseError::format(const Error& e)
{
    std::string out = e.id + ": " + e.message;
    if (e.line > 0) {
        out += " (line " + std::to_string(e.line) + ")";
    }
    if (e.op_index >= 0) {
        out += " (op " + std::to_string(e.op_index) + ")";
    }
    return out;
}

verify::Report
to_report(const Error& error)
{
    verify::Report report;
    std::string message = error.message;
    if (error.line > 0) {
        message += " (line " + std::to_string(error.line) + ")";
    }
    report.add(error.id, verify::Severity::kError, error.op_index,
               std::move(message));
    return report;
}

// --------------------------------------------------------------- hashing ---

std::uint64_t
fnv1a(const std::uint8_t* data, std::size_t n)
{
    std::uint64_t h = 1469598103934665603ULL;  // FNV offset basis
    for (std::size_t i = 0; i < n; ++i) {
        h ^= data[i];
        h *= 1099511628211ULL;  // FNV prime
    }
    return h;
}

namespace {

void
put_u32(std::vector<std::uint8_t>& out, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i) {
        out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
}

void
put_u64(std::vector<std::uint8_t>& out, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
}

}  // namespace

std::vector<std::uint8_t>
canonical_bytes(const Circuit& circuit)
{
    // Reserved to the exact encoded size, so encoding allocates once.
    std::size_t size = 4 + 4 + 4 * circuit.dims().dims().size() + 8;
    for (const Operation& op : circuit.ops()) {
        size += 4 + 4 * op.wires.size() + 8 +
                16 * op.gate.matrix().data().size();
    }
    std::vector<std::uint8_t> out;
    out.reserve(size);
    for (const char c : {'Q', 'D', 'J', char{kQdjVersion}}) {
        out.push_back(static_cast<std::uint8_t>(c));
    }
    put_u32(out, static_cast<std::uint32_t>(circuit.num_wires()));
    for (const int d : circuit.dims().dims()) {
        put_u32(out, static_cast<std::uint32_t>(d));
    }
    put_u64(out, static_cast<std::uint64_t>(circuit.num_ops()));
    for (const Operation& op : circuit.ops()) {
        put_u32(out, static_cast<std::uint32_t>(op.wires.size()));
        for (const int w : op.wires) {
            put_u32(out, static_cast<std::uint32_t>(w));
        }
        const Matrix& m = op.gate.matrix();
        put_u64(out, static_cast<std::uint64_t>(m.rows()));
        for (const Complex& v : m.data()) {
            put_u64(out, std::bit_cast<std::uint64_t>(v.real()));
            put_u64(out, std::bit_cast<std::uint64_t>(v.imag()));
        }
    }
    return out;
}

std::uint64_t
circuit_hash(const Circuit& circuit)
{
    const std::vector<std::uint8_t> bytes = canonical_bytes(circuit);
    return fnv1a(bytes.data(), bytes.size());
}

// -------------------------------------------------------------- encoding ---

namespace {

// Decode limits for untrusted input: far above anything the engines can
// simulate, low enough that a hostile document cannot make the decoder
// itself allocate unboundedly.
constexpr int kMaxWires = 64;
constexpr int kMaxDim = 64;
constexpr Index kMaxStates = Index{1} << 32;
constexpr std::size_t kMaxMatrixRows = 4096;

/** Full-precision text form of a double ("%a" hex-float). */
std::string
hexfloat(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%a", v);
    return buf;
}

void
append_escaped(std::string& out, std::string_view s)
{
    out += '"';
    for (const char c : s) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        case '\r': out += "\\r"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(c));
                out += buf;
            } else {
                out += c;  // UTF-8 bytes (e.g. the dagger) pass through
            }
        }
    }
    out += '"';
}

void
append_ints(std::string& out, const std::vector<int>& v)
{
    out += '[';
    for (std::size_t i = 0; i < v.size(); ++i) {
        if (i != 0) {
            out += ',';
        }
        out += std::to_string(v[i]);
    }
    out += ']';
}

/** Emits the members of a gate spec ("gate", "i", "r", "base"), no braces. */
void
append_spec_members(std::string& out, const gates::GateSpec& spec)
{
    out += "\"gate\":";
    append_escaped(out, spec.family);
    if (!spec.iparams.empty()) {
        out += ",\"i\":";
        append_ints(out, spec.iparams);
    }
    if (!spec.rparams.empty()) {
        out += ",\"r\":[";
        for (std::size_t i = 0; i < spec.rparams.size(); ++i) {
            if (i != 0) {
                out += ',';
            }
            append_escaped(out, hexfloat(spec.rparams[i]));
        }
        out += ']';
    }
    if (spec.base) {
        out += ",\"base\":{";
        append_spec_members(out, *spec.base);
        out += '}';
    }
}

void
append_op(std::string& out, const Operation& op)
{
    out += "    {";
    if (const auto spec = gates::recognize_gate(op.gate)) {
        append_spec_members(out, *spec);
    } else {
        out += "\"gate\":\"matrix\",\"name\":";
        append_escaped(out, op.gate.name());
        out += ",\"m\":[";
        const Matrix& m = op.gate.matrix();
        for (std::size_t r = 0; r < m.rows(); ++r) {
            if (r != 0) {
                out += ',';
            }
            out += '[';
            for (std::size_t c = 0; c < m.cols(); ++c) {
                if (c != 0) {
                    out += ',';
                }
                out += '[';
                append_escaped(out, hexfloat(m(r, c).real()));
                out += ',';
                append_escaped(out, hexfloat(m(r, c).imag()));
                out += ']';
            }
            out += ']';
        }
        out += ']';
    }
    out += ",\"wires\":";
    append_ints(out, op.wires);
    out += '}';
}

void
append_circuit_members(std::string& out, const Circuit& circuit)
{
    out += "  \"dims\": ";
    append_ints(out, circuit.dims().dims());
    out += ",\n  \"ops\": [\n";
    const auto& ops = circuit.ops();
    for (std::size_t i = 0; i < ops.size(); ++i) {
        append_op(out, ops[i]);
        if (i + 1 != ops.size()) {
            out += ',';
        }
        out += '\n';
    }
    out += "  ]";
}

}  // namespace

std::string
to_qdj(const Circuit& circuit)
{
    std::string out = "{\n  \"qdj\": " + std::to_string(kQdjVersion) +
                      ",\n  \"kind\": \"circuit\",\n";
    append_circuit_members(out, circuit);
    out += "\n}\n";
    return out;
}

std::string
to_qdj(const Job& job)
{
    std::string out = "{\n  \"qdj\": " + std::to_string(kQdjVersion) +
                      ",\n  \"kind\": \"job\",\n";
    if (!job.name.empty()) {
        out += "  \"name\": ";
        append_escaped(out, job.name);
        out += ",\n";
    }
    out += "  \"engine\": ";
    append_escaped(out, job.engine);
    out += ",\n  \"shots\": " + std::to_string(job.shots);
    out += ",\n  \"seed\": " + std::to_string(job.seed);
    out += ",\n  \"batch\": " + std::to_string(job.batch);
    out += ",\n  \"fusion\": ";
    out += job.fusion ? "true" : "false";
    if (!job.noise.empty()) {
        out += ",\n  \"noise\": ";
        append_escaped(out, job.noise);
    }
    out += ",\n  \"circuit\": {\n";
    append_circuit_members(out, job.circuit);
    out += "\n  }\n}\n";
    return out;
}

// -------------------------------------------------------------- decoding ---

namespace {

using json::Value;
using Kind = Value::Kind;

[[noreturn]] void
fail(const char* id, std::string message, int line, long op_index = -1)
{
    throw ParseError({id, std::move(message), line, op_index});
}

const Value&
require(const Value& obj, std::string_view key, const char* id,
        long op_index = -1)
{
    const Value* v = obj.find(key);
    if (v == nullptr) {
        fail(id, "missing \"" + std::string(key) + "\" member", obj.line,
             op_index);
    }
    return *v;
}

long long
require_int(const Value& v, const char* id, const char* what,
            long op_index = -1)
{
    if (!v.is(Kind::kNumber) || !v.integral) {
        fail(id, std::string(what) + " must be an integer", v.line, op_index);
    }
    return v.integer;
}

const std::string&
require_string(const Value& v, const char* id, const char* what,
               long op_index = -1)
{
    if (!v.is(Kind::kString)) {
        fail(id, std::string(what) + " must be a string", v.line, op_index);
    }
    return v.string;
}

/** Numeric literal: a JSON number, or a string holding a hex-float. */
double
decode_real(const Value& v, long op_index)
{
    if (v.is(Kind::kNumber)) {
        return v.number;
    }
    if (v.is(Kind::kString)) {
        const std::string& s = v.string;
        if (!s.empty()) {
            char* end = nullptr;
            const double d = std::strtod(s.c_str(), &end);
            if (end == s.c_str() + s.size()) {
                return d;
            }
        }
        fail("qdj.number", "unparseable numeric literal \"" + s + "\"",
             v.line, op_index);
    }
    fail("qdj.number", "expected a number or a hex-float string", v.line,
         op_index);
}

double
decode_finite_real(const Value& v, long op_index)
{
    const double d = decode_real(v, op_index);
    if (!std::isfinite(d)) {
        fail("qdj.non-finite", "non-finite value \"" +
             (v.is(Kind::kString) ? v.string : std::to_string(v.number)) +
             "\"", v.line, op_index);
    }
    return d;
}

std::vector<int>
decode_dims(const Value& v)
{
    if (!v.is(Kind::kArray) || v.array.empty()) {
        fail("qdj.dims", "\"dims\" must be a non-empty array", v.line);
    }
    if (v.array.size() > kMaxWires) {
        fail("qdj.dims", "too many wires (max " +
             std::to_string(kMaxWires) + ")", v.line);
    }
    std::vector<int> dims;
    Index total = 1;
    for (const Value& e : v.array) {
        const long long d = require_int(e, "qdj.dims", "wire dim");
        if (d < 2 || d > kMaxDim) {
            fail("qdj.dims", "wire dim " + std::to_string(d) +
                 " out of range [2, " + std::to_string(kMaxDim) + "]",
                 e.line);
        }
        total *= static_cast<Index>(d);
        if (total > kMaxStates) {
            fail("qdj.dims", "register too large to simulate", e.line);
        }
        dims.push_back(static_cast<int>(d));
    }
    return dims;
}

gates::GateSpec
decode_spec(const Value& v, long op_index)
{
    gates::GateSpec spec;
    spec.family = require_string(require(v, "gate", "qdj.schema", op_index),
                                 "qdj.schema", "\"gate\"", op_index);
    if (!gates::registry_has_family(spec.family)) {
        fail("qdj.unknown-gate",
             "unknown gate family \"" + spec.family + "\"", v.line, op_index);
    }
    if (const Value* i = v.find("i")) {
        if (!i->is(Kind::kArray)) {
            fail("qdj.params", "\"i\" must be an array of integers", i->line,
                 op_index);
        }
        for (const Value& e : i->array) {
            const long long x =
                require_int(e, "qdj.params", "integer parameter", op_index);
            if (x < 0 || x > kMaxDim * kMaxDim) {
                fail("qdj.params", "integer parameter out of range", e.line,
                     op_index);
            }
            spec.iparams.push_back(static_cast<int>(x));
        }
    }
    if (const Value* r = v.find("r")) {
        if (!r->is(Kind::kArray)) {
            fail("qdj.params", "\"r\" must be an array of reals", r->line,
                 op_index);
        }
        for (const Value& e : r->array) {
            spec.rparams.push_back(decode_finite_real(e, op_index));
        }
    }
    if (const Value* base = v.find("base")) {
        if (!base->is(Kind::kObject)) {
            fail("qdj.params", "\"base\" must be a gate object", base->line,
                 op_index);
        }
        spec.base = std::make_shared<const gates::GateSpec>(
            decode_spec(*base, op_index));
    }
    return spec;
}

Gate
decode_matrix_gate(const Value& v, const std::vector<int>& operand_dims,
                   long op_index)
{
    std::string name = "matrix";
    if (const Value* n = v.find("name")) {
        name = require_string(*n, "qdj.schema", "\"name\"", op_index);
    }
    std::size_t n = 1;
    for (const int d : operand_dims) {
        n *= static_cast<std::size_t>(d);
    }
    if (n > kMaxMatrixRows) {
        fail("qdj.matrix", "raw matrix too large (" + std::to_string(n) +
             " rows; max " + std::to_string(kMaxMatrixRows) + ")", v.line,
             op_index);
    }
    const Value& m = require(v, "m", "qdj.matrix", op_index);
    if (!m.is(Kind::kArray) || m.array.size() != n) {
        fail("qdj.matrix", "expected " + std::to_string(n) +
             " matrix rows for the operand wires", m.line, op_index);
    }
    Matrix out(n, n);
    for (std::size_t r = 0; r < n; ++r) {
        const Value& row = m.array[r];
        if (!row.is(Kind::kArray) || row.array.size() != n) {
            fail("qdj.matrix", "matrix row " + std::to_string(r) +
                 " must have " + std::to_string(n) + " entries", row.line,
                 op_index);
        }
        for (std::size_t c = 0; c < n; ++c) {
            const Value& entry = row.array[c];
            if (!entry.is(Kind::kArray) || entry.array.size() != 2) {
                fail("qdj.matrix",
                     "matrix entry must be a [re, im] pair", entry.line,
                     op_index);
            }
            out(r, c) = Complex(decode_finite_real(entry.array[0], op_index),
                                decode_finite_real(entry.array[1], op_index));
        }
    }
    return gates::from_matrix(std::move(name), operand_dims, std::move(out));
}

void
decode_op(const Value& v, long op_index, const std::vector<int>& dims,
          Circuit& circuit)
{
    if (!v.is(Kind::kObject)) {
        fail("qdj.schema", "op must be an object", v.line, op_index);
    }
    const Value& wires_v = require(v, "wires", "qdj.wires", op_index);
    if (!wires_v.is(Kind::kArray) || wires_v.array.empty()) {
        fail("qdj.wires", "\"wires\" must be a non-empty array", wires_v.line,
             op_index);
    }
    std::vector<int> wires;
    std::vector<int> operand_dims;
    for (const Value& e : wires_v.array) {
        const long long w = require_int(e, "qdj.wires", "wire", op_index);
        if (w < 0 || w >= static_cast<long long>(dims.size())) {
            fail("qdj.wires", "wire " + std::to_string(w) +
                 " out of range for a " + std::to_string(dims.size()) +
                 "-wire register", e.line, op_index);
        }
        for (const int seen : wires) {
            if (seen == static_cast<int>(w)) {
                fail("qdj.wires", "duplicate wire " + std::to_string(w),
                     e.line, op_index);
            }
        }
        wires.push_back(static_cast<int>(w));
        operand_dims.push_back(dims[static_cast<std::size_t>(w)]);
    }

    const std::string& family = require_string(
        require(v, "gate", "qdj.schema", op_index), "qdj.schema", "\"gate\"",
        op_index);
    Gate gate;
    if (family == "matrix") {
        gate = decode_matrix_gate(v, operand_dims, op_index);
    } else {
        const gates::GateSpec spec = decode_spec(v, op_index);
        try {
            gate = gates::build_gate(spec, operand_dims);
        } catch (const std::invalid_argument& e) {
            fail("qdj.params", e.what(), v.line, op_index);
        }
    }
    if (gate.dims() != operand_dims) {
        fail("qdj.dim-mismatch", "gate \"" + gate.name() +
             "\" does not act on the operand wire dims", v.line, op_index);
    }
    circuit.append(gate, wires);
}

Circuit
decode_circuit_body(const Value& v)
{
    if (!v.is(Kind::kObject)) {
        fail("qdj.schema", "\"circuit\" must be an object", v.line);
    }
    const std::vector<int> dims =
        decode_dims(require(v, "dims", "qdj.schema"));
    const Value& ops = require(v, "ops", "qdj.schema");
    if (!ops.is(Kind::kArray)) {
        fail("qdj.schema", "\"ops\" must be an array", ops.line);
    }
    Circuit circuit{WireDims(dims)};
    for (std::size_t i = 0; i < ops.array.size(); ++i) {
        decode_op(ops.array[i], static_cast<long>(i), dims, circuit);
    }
    return circuit;
}

/** Parses the document, checks version, returns (kind, root). */
std::pair<std::string, Value>
decode_document(std::string_view text)
{
    Value doc = json::parse(text);
    if (!doc.is(Kind::kObject)) {
        fail("qdj.schema", "top-level value must be an object", doc.line);
    }
    const Value* version = doc.find("qdj");
    if (version == nullptr) {
        fail("qdj.version", "missing \"qdj\" version field", doc.line);
    }
    const long long vnum = require_int(*version, "qdj.version",
                                       "\"qdj\" version");
    if (vnum != kQdjVersion) {
        fail("qdj.version", "unsupported .qdj version " +
             std::to_string(vnum) + " (this build reads version " +
             std::to_string(kQdjVersion) + ")", version->line);
    }
    std::string kind = require_string(require(doc, "kind", "qdj.schema"),
                                      "qdj.schema", "\"kind\"");
    if (kind != "circuit" && kind != "job") {
        fail("qdj.schema", "unknown document kind \"" + kind + "\"",
             doc.line);
    }
    return {std::move(kind), std::move(doc)};
}

}  // namespace

Circuit
circuit_from_qdj(std::string_view text)
{
    auto [kind, doc] = decode_document(text);
    if (kind != "circuit") {
        fail("qdj.schema",
             "expected a kind \"circuit\" document, got \"" + kind + "\"",
             doc.line);
    }
    return decode_circuit_body(doc);
}

Job
job_from_qdj(std::string_view text)
{
    auto [kind, doc] = decode_document(text);
    Job job;
    if (kind == "circuit") {
        job.circuit = decode_circuit_body(doc);
        return job;
    }
    if (const Value* name = doc.find("name")) {
        job.name = require_string(*name, "qdj.job", "\"name\"");
    }
    if (const Value* engine = doc.find("engine")) {
        job.engine = require_string(*engine, "qdj.job", "\"engine\"");
    }
    if (job.engine != "state" && job.engine != "trajectory" &&
        job.engine != "density") {
        fail("qdj.job", "unknown engine \"" + job.engine +
             "\" (expected state, trajectory or density)", doc.line);
    }
    if (const Value* shots = doc.find("shots")) {
        const long long s = require_int(*shots, "qdj.job", "\"shots\"");
        if (s < 1 || s > 100000000) {
            fail("qdj.job", "\"shots\" out of range", shots->line);
        }
        job.shots = static_cast<int>(s);
    }
    if (const Value* seed = doc.find("seed")) {
        // The full uint64 range: to_qdj writes any Job::seed.
        const bool in_range =
            seed->is(Kind::kNumber) &&
            ((seed->integral && seed->integer >= 0) || seed->above_i64);
        if (!in_range) {
            fail("qdj.job", "\"seed\" must be an integer in [0, 2^64)",
                 seed->line);
        }
        job.seed = static_cast<std::uint64_t>(seed->integer);
    }
    if (const Value* batch = doc.find("batch")) {
        const long long b = require_int(*batch, "qdj.job", "\"batch\"");
        if (b < 0 || b > 4096) {
            fail("qdj.job", "\"batch\" out of range", batch->line);
        }
        job.batch = static_cast<int>(b);
    }
    if (const Value* fusion = doc.find("fusion")) {
        if (!fusion->is(Kind::kBool)) {
            fail("qdj.job", "\"fusion\" must be a boolean", fusion->line);
        }
        job.fusion = fusion->boolean;
    }
    if (const Value* noise = doc.find("noise")) {
        job.noise = require_string(*noise, "qdj.job", "\"noise\"");
    }
    if (job.noise.empty() &&
        (job.engine == "trajectory" || job.engine == "density")) {
        fail("qdj.job", "engine \"" + job.engine +
             "\" requires a \"noise\" preset", doc.line);
    }
    job.circuit = decode_circuit_body(require(doc, "circuit", "qdj.schema"));
    return job;
}

}  // namespace qd::ir
