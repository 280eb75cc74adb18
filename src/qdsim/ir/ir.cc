#include "qdsim/ir/ir.h"

#include <array>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <span>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "qdsim/gate_library.h"
#include "qdsim/hash.h"
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
circuit_hash(const Circuit& circuit)
{
    Hasher h(kQdjVersion);
    const std::vector<int>& dims = circuit.dims().dims();
    h.add(dims.size());
    for (const int d : dims) {
        h.add(static_cast<std::uint64_t>(d));
    }
    h.add(circuit.num_ops());
    for (const Operation& op : circuit.ops()) {
        // The wire count, then the wires 16 bits each: one word per op of
        // up to three wires. (Wires past 2^16 alias; same_content still
        // tells such circuits apart.)
        std::uint64_t word = op.wires.size();
        int bits = 16;
        for (const int w : op.wires) {
            if (bits == 64) {
                h.add(word);
                word = 0;
                bits = 0;
            }
            word = word << 16 | (static_cast<std::uint64_t>(w) & 0xFFFF);
            bits += 16;
        }
        h.add(word);
        h.add(op.gate.digest());
    }
    return h.finish();
}

bool
same_content(const Circuit& a, const Circuit& b)
{
    if (a.dims().dims() != b.dims().dims() || a.num_ops() != b.num_ops()) {
        return false;
    }
    // Payload pairs already found equal, direct-mapped on a's payload:
    // decoded circuits hold one payload per distinct gate, so a few dozen
    // slots spare thousands of ops their matrix comparison.
    constexpr std::size_t kSlots = 64;
    std::array<std::pair<const void*, const void*>, kSlots> equal{};
    for (std::size_t i = 0; i < a.num_ops(); ++i) {
        const Operation& x = a.ops()[i];
        const Operation& y = b.ops()[i];
        if (x.wires != y.wires) {
            return false;
        }
        if (x.gate.same_payload(y.gate)) {
            continue;
        }
        const void* px = x.gate.payload_id();
        const void* py = y.gate.payload_id();
        auto& slot =
            equal[(reinterpret_cast<std::uintptr_t>(px) >> 4) % kSlots];
        if (slot.first == px && slot.second == py) {
            continue;
        }
        const Matrix& mx = x.gate.matrix();
        const Matrix& my = y.gate.matrix();
        if (mx.rows() != my.rows() || mx.cols() != my.cols() ||
            std::memcmp(mx.data().data(), my.data().data(),
                        mx.data().size() * sizeof(Complex)) != 0) {
            return false;
        }
        slot = {px, py};
    }
    return true;
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

template <class Int>
void
append_int(std::string& out, Int v)
{
    char buf[24];
    out.append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
}

/** Appends `v` as a quoted full-precision hex float, exactly as printf's
 *  "%a" writes it. */
void
append_hexfloat(std::string& out, double v)
{
    char buf[48];
    char* p = buf;
    *p++ = '"';
    if (std::isnormal(v) || v == 0) {
        // to_chars writes normals and zeros as "%a" does, minus the "0x".
        if (std::signbit(v)) {
            *p++ = '-';
            v = -v;
        }
        *p++ = '0';
        *p++ = 'x';
        p = std::to_chars(p, buf + sizeof(buf) - 1, v,
                          std::chars_format::hex)
                .ptr;
    } else {
        p += std::snprintf(p, sizeof(buf) - 2, "%a", v);  // subnormal, inf, nan
    }
    *p++ = '"';
    out.append(buf, p);
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
        append_int(out, v[i]);
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
            append_hexfloat(out, spec.rparams[i]);
        }
        out += ']';
    }
    if (spec.base) {
        out += ",\"base\":{";
        append_spec_members(out, *spec.base);
        out += '}';
    }
}

/** Emits an op's gate members: its spec, or the raw-matrix form. */
void
append_gate_members(std::string& out, const Gate& gate)
{
    if (const auto spec = gates::recognize_gate(gate)) {
        append_spec_members(out, *spec);
        return;
    }
    out += "\"gate\":\"matrix\",\"name\":";
    append_escaped(out, gate.name());
    out += ",\"m\":[";
    const Matrix& m = gate.matrix();
    out.reserve(out.size() + 48 * m.data().size() + 4 * m.rows());
    for (std::size_t r = 0; r < m.rows(); ++r) {
        out += r != 0 ? ",[" : "[";
        for (std::size_t c = 0; c < m.cols(); ++c) {
            out += c != 0 ? ",[" : "[";
            append_hexfloat(out, m(r, c).real());
            out += ',';
            append_hexfloat(out, m(r, c).imag());
            out += ']';
        }
        out += ']';
    }
    out += ']';
}

/** True if both gates have the same name, dims and matrix bits: the
 *  inputs gates::recognize_gate reads. */
bool
same_gate(const Gate& a, const Gate& b)
{
    if (a.same_payload(b)) {
        return true;
    }
    if (a.name() != b.name() || a.dims() != b.dims()) {
        return false;
    }
    const Matrix& ma = a.matrix();
    const Matrix& mb = b.matrix();
    return std::memcmp(ma.data().data(), mb.data().data(),
                       ma.data().size() * sizeof(Complex)) == 0;
}

/** Memo key of a gate for the encoder: its name and matrix digest. */
std::uint64_t
gate_key(const Gate& gate)
{
    Hasher h(gate.digest());
    h.add_bytes(gate.name().data(), gate.name().size());
    return h.finish();
}

void
append_circuit_members(std::string& out, const Circuit& circuit)
{
    // Each distinct gate is recognized once; later ops reuse its text.
    const auto& ops = circuit.ops();
    std::vector<std::string> texts;
    std::vector<std::size_t> text_of(ops.size());
    std::unordered_multimap<std::uint64_t, std::size_t> first_op;
    std::size_t size = 32 + 4 * circuit.dims().dims().size();
    for (std::size_t i = 0; i < ops.size(); ++i) {
        const Gate& gate = ops[i].gate;
        const std::uint64_t key = gate_key(gate);
        text_of[i] = texts.size();
        for (auto [it, end] = first_op.equal_range(key); it != end; ++it) {
            if (same_gate(ops[it->second].gate, gate)) {
                text_of[i] = text_of[it->second];
                break;
            }
        }
        if (text_of[i] == texts.size()) {
            append_gate_members(texts.emplace_back(), gate);
            first_op.emplace(key, i);
        }
        size += 24 + texts[text_of[i]].size() + 4 * ops[i].wires.size();
    }
    out.reserve(out.size() + size);
    out += "  \"dims\": ";
    append_ints(out, circuit.dims().dims());
    out += ",\n  \"ops\": [\n";
    for (std::size_t i = 0; i < ops.size(); ++i) {
        out += "    {";
        out += texts[text_of[i]];
        out += ",\"wires\":";
        append_ints(out, ops[i].wires);
        out += i + 1 != ops.size() ? "},\n" : "}\n";
    }
    out += "  ]";
}

void
append_header(std::string& out, const char* kind)
{
    out += "{\n  \"qdj\": ";
    append_int(out, kQdjVersion);
    out += ",\n  \"kind\": \"";
    out += kind;
    out += "\",\n";
}

}  // namespace

std::string
to_qdj(const Circuit& circuit)
{
    std::string out;
    append_header(out, "circuit");
    append_circuit_members(out, circuit);
    out += "\n}\n";
    return out;
}

std::string
to_qdj(const Job& job)
{
    std::string out;
    append_header(out, "job");
    if (!job.name.empty()) {
        out += "  \"name\": ";
        append_escaped(out, job.name);
        out += ",\n";
    }
    out += "  \"engine\": ";
    append_escaped(out, job.engine);
    out += ",\n  \"shots\": ";
    append_int(out, job.shots);
    out += ",\n  \"seed\": ";
    append_int(out, job.seed);
    out += ",\n  \"batch\": ";
    append_int(out, job.batch);
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

using json::Tape;
using Ix = Tape::Ix;
using Kind = json::Value::Kind;
constexpr Ix kNone = Tape::kNone;

[[noreturn]] void
fail(const char* id, std::string message, int line, long op_index = -1)
{
    throw ParseError({id, std::move(message), line, op_index});
}

/** Decodes a scanned document in the fixed check order. */
class Decoder {
  public:
    explicit Decoder(std::string_view text) : t_(json::scan(text)) {}

    int line(Ix v) const { return t_.line(v); }

    /** Checks the envelope; returns the document kind. */
    std::string document() const
    {
        if (!t_.is(0, Kind::kObject)) {
            fail("qdj.schema", "top-level value must be an object", line(0));
        }
        const Ix version = t_.find(0, "qdj");
        if (version == kNone) {
            fail("qdj.version", "missing \"qdj\" version field", line(0));
        }
        const long long vnum =
            require_int(version, "qdj.version", "\"qdj\" version");
        if (vnum != kQdjVersion) {
            fail("qdj.version", "unsupported .qdj version " +
                 std::to_string(vnum) + " (this build reads version " +
                 std::to_string(kQdjVersion) + ")", line(version));
        }
        std::string kind = require_string(require(0, "kind", "qdj.schema"),
                                          "qdj.schema", "\"kind\"");
        if (kind != "circuit" && kind != "job") {
            fail("qdj.schema", "unknown document kind \"" + kind + "\"",
                 line(0));
        }
        return kind;
    }

    void job_fields(Job& job)
    {
        if (const Ix name = t_.find(0, "name"); name != kNone) {
            job.name = require_string(name, "qdj.job", "\"name\"");
        }
        if (const Ix engine = t_.find(0, "engine"); engine != kNone) {
            job.engine = require_string(engine, "qdj.job", "\"engine\"");
        }
        if (job.engine != "state" && job.engine != "trajectory" &&
            job.engine != "density") {
            fail("qdj.job", "unknown engine \"" + job.engine +
                 "\" (expected state, trajectory or density)", line(0));
        }
        if (const Ix shots = t_.find(0, "shots"); shots != kNone) {
            const long long s = require_int(shots, "qdj.job", "\"shots\"");
            if (s < 1 || s > 100000000) {
                fail("qdj.job", "\"shots\" out of range", line(shots));
            }
            job.shots = static_cast<int>(s);
        }
        if (const Ix seed = t_.find(0, "seed"); seed != kNone) {
            // The full uint64 range: to_qdj writes any Job::seed.
            const json::Integer k = t_.is(seed, Kind::kNumber)
                                        ? t_.integer(seed)
                                        : json::Integer{};
            if (!((k.ok && k.value >= 0) || k.above_i64)) {
                fail("qdj.job", "\"seed\" must be an integer in [0, 2^64)",
                     line(seed));
            }
            job.seed = static_cast<std::uint64_t>(k.value);
        }
        if (const Ix batch = t_.find(0, "batch"); batch != kNone) {
            const long long b = require_int(batch, "qdj.job", "\"batch\"");
            if (b < 0 || b > 4096) {
                fail("qdj.job", "\"batch\" out of range", line(batch));
            }
            job.batch = static_cast<int>(b);
        }
        if (const Ix fusion = t_.find(0, "fusion"); fusion != kNone) {
            if (!t_.is(fusion, Kind::kBool)) {
                fail("qdj.job", "\"fusion\" must be a boolean", line(fusion));
            }
            job.fusion = t_.raw(fusion) == "true";
        }
        if (const Ix noise = t_.find(0, "noise"); noise != kNone) {
            job.noise = require_string(noise, "qdj.job", "\"noise\"");
        }
        if (job.noise.empty() &&
            (job.engine == "trajectory" || job.engine == "density")) {
            fail("qdj.job", "engine \"" + job.engine +
                 "\" requires a \"noise\" preset", line(0));
        }
        job.circuit = circuit_body(require(0, "circuit", "qdj.schema"));
    }

    Circuit circuit_body(Ix v)
    {
        if (!t_.is(v, Kind::kObject)) {
            fail("qdj.schema", "\"circuit\" must be an object", line(v));
        }
        const std::vector<int> dims =
            decode_dims(require(v, "dims", "qdj.schema"));
        const Ix ops = require(v, "ops", "qdj.schema");
        if (!t_.is(ops, Kind::kArray)) {
            fail("qdj.schema", "\"ops\" must be an array", line(ops));
        }
        Circuit circuit{WireDims(dims)};
        long i = 0;
        for (Ix op = ops + 1; op < t_[ops].next; op = t_[op].next, ++i) {
            decode_op(op, i, dims, circuit);
        }
        return circuit;
    }

  private:
    Ix require(Ix obj, std::string_view key, const char* id,
               long op_index = -1) const
    {
        const Ix v = t_.find(obj, key);
        if (v == kNone) {
            fail(id, "missing \"" + std::string(key) + "\" member",
                 line(obj), op_index);
        }
        return v;
    }

    long long require_int(Ix v, const char* id, const char* what,
                          long op_index = -1) const
    {
        const json::Integer k =
            t_.is(v, Kind::kNumber) ? t_.integer(v) : json::Integer{};
        if (!k.ok) {
            fail(id, std::string(what) + " must be an integer", line(v),
                 op_index);
        }
        return k.value;
    }

    std::string require_string(Ix v, const char* id, const char* what,
                               long op_index = -1) const
    {
        if (!t_.is(v, Kind::kString)) {
            fail(id, std::string(what) + " must be a string", line(v),
                 op_index);
        }
        return t_.string(v);
    }

    /** Numeric literal: a JSON number, or a string holding a hex-float. */
    double decode_real(Ix v, long op_index) const
    {
        if (t_.is(v, Kind::kNumber)) {
            return t_.real(v);
        }
        if (t_.is(v, Kind::kString)) {
            const std::string unescaped =
                t_[v].escaped ? t_.string(v) : std::string();
            const std::string_view s =
                t_[v].escaped ? std::string_view(unescaped) : t_.raw(v);
            double d = 0;
            if (!s.empty() && json::parse_real(s, d)) {
                return d;
            }
            fail("qdj.number",
                 "unparseable numeric literal \"" + std::string(s) + "\"",
                 line(v), op_index);
        }
        fail("qdj.number", "expected a number or a hex-float string",
             line(v), op_index);
    }

    double decode_finite_real(Ix v, long op_index) const
    {
        const double d = decode_real(v, op_index);
        if (!std::isfinite(d)) {
            fail("qdj.non-finite", "non-finite value \"" +
                 (t_.is(v, Kind::kString) ? t_.string(v)
                                          : std::to_string(t_.real(v))) +
                 "\"", line(v), op_index);
        }
        return d;
    }

    std::vector<int> decode_dims(Ix v) const
    {
        if (!t_.is(v, Kind::kArray) || t_.size(v) == 0) {
            fail("qdj.dims", "\"dims\" must be a non-empty array", line(v));
        }
        if (t_.size(v) > kMaxWires) {
            fail("qdj.dims", "too many wires (max " +
                 std::to_string(kMaxWires) + ")", line(v));
        }
        std::vector<int> dims;
        Index total = 1;
        for (Ix e = v + 1; e < t_[v].next; e = t_[e].next) {
            const long long d = require_int(e, "qdj.dims", "wire dim");
            if (d < 2 || d > kMaxDim) {
                fail("qdj.dims", "wire dim " + std::to_string(d) +
                     " out of range [2, " + std::to_string(kMaxDim) + "]",
                     line(e));
            }
            total *= static_cast<Index>(d);
            if (total > kMaxStates) {
                fail("qdj.dims", "register too large to simulate", line(e));
            }
            dims.push_back(static_cast<int>(d));
        }
        return dims;
    }

    gates::GateSpec decode_spec(Ix v, long op_index) const
    {
        gates::GateSpec spec;
        spec.family =
            require_string(require(v, "gate", "qdj.schema", op_index),
                           "qdj.schema", "\"gate\"", op_index);
        if (!gates::registry_has_family(spec.family)) {
            fail("qdj.unknown-gate",
                 "unknown gate family \"" + spec.family + "\"", line(v),
                 op_index);
        }
        if (const Ix i = t_.find(v, "i"); i != kNone) {
            if (!t_.is(i, Kind::kArray)) {
                fail("qdj.params", "\"i\" must be an array of integers",
                     line(i), op_index);
            }
            for (Ix e = i + 1; e < t_[i].next; e = t_[e].next) {
                const long long x = require_int(e, "qdj.params",
                                                "integer parameter", op_index);
                if (x < 0 || x > kMaxDim * kMaxDim) {
                    fail("qdj.params", "integer parameter out of range",
                         line(e), op_index);
                }
                spec.iparams.push_back(static_cast<int>(x));
            }
        }
        if (const Ix r = t_.find(v, "r"); r != kNone) {
            if (!t_.is(r, Kind::kArray)) {
                fail("qdj.params", "\"r\" must be an array of reals", line(r),
                     op_index);
            }
            for (Ix e = r + 1; e < t_[r].next; e = t_[e].next) {
                spec.rparams.push_back(decode_finite_real(e, op_index));
            }
        }
        if (const Ix base = t_.find(v, "base"); base != kNone) {
            if (!t_.is(base, Kind::kObject)) {
                fail("qdj.params", "\"base\" must be a gate object",
                     line(base), op_index);
            }
            spec.base = std::make_shared<const gates::GateSpec>(
                decode_spec(base, op_index));
        }
        return spec;
    }

    Gate decode_matrix_gate(Ix v, long op_index) const
    {
        std::string name = "matrix";
        if (const Ix n = t_.find(v, "name"); n != kNone) {
            name = require_string(n, "qdj.schema", "\"name\"", op_index);
        }
        std::size_t n = 1;
        for (const int d : operand_dims_) {
            n *= static_cast<std::size_t>(d);
        }
        if (n > kMaxMatrixRows) {
            fail("qdj.matrix", "raw matrix too large (" + std::to_string(n) +
                 " rows; max " + std::to_string(kMaxMatrixRows) + ")",
                 line(v), op_index);
        }
        const Ix m = require(v, "m", "qdj.matrix", op_index);
        if (!t_.is(m, Kind::kArray) || t_.size(m) != n) {
            fail("qdj.matrix", "expected " + std::to_string(n) +
                 " matrix rows for the operand wires", line(m), op_index);
        }
        Matrix out(n, n);
        Ix row = m + 1;
        for (std::size_t r = 0; r < n; ++r, row = t_[row].next) {
            if (!t_.is(row, Kind::kArray) || t_.size(row) != n) {
                fail("qdj.matrix", "matrix row " + std::to_string(r) +
                     " must have " + std::to_string(n) + " entries",
                     line(row), op_index);
            }
            Ix entry = row + 1;
            for (std::size_t c = 0; c < n; ++c, entry = t_[entry].next) {
                if (!t_.is(entry, Kind::kArray) || t_.size(entry) != 2) {
                    fail("qdj.matrix",
                         "matrix entry must be a [re, im] pair",
                         line(entry), op_index);
                }
                const Ix re = entry + 1;
                out(r, c) =
                    Complex(decode_finite_real(re, op_index),
                            decode_finite_real(t_[re].next, op_index));
            }
        }
        return gates::from_matrix(std::move(name), operand_dims_,
                                  std::move(out));
    }

    void decode_op(Ix v, long op_index, const std::vector<int>& dims,
                   Circuit& circuit)
    {
        if (!t_.is(v, Kind::kObject)) {
            fail("qdj.schema", "op must be an object", line(v), op_index);
        }
        const Ix wires_v = require(v, "wires", "qdj.wires", op_index);
        if (!t_.is(wires_v, Kind::kArray) ||
            t_[wires_v].next == wires_v + 1) {
            fail("qdj.wires", "\"wires\" must be a non-empty array",
                 line(wires_v), op_index);
        }
        wires_.clear();
        operand_dims_.clear();
        for (Ix e = wires_v + 1; e < t_[wires_v].next; e = t_[e].next) {
            const long long w = require_int(e, "qdj.wires", "wire", op_index);
            if (w < 0 || w >= static_cast<long long>(dims.size())) {
                fail("qdj.wires", "wire " + std::to_string(w) +
                     " out of range for a " + std::to_string(dims.size()) +
                     "-wire register", line(e), op_index);
            }
            for (const int seen : wires_) {
                if (seen == static_cast<int>(w)) {
                    fail("qdj.wires", "duplicate wire " + std::to_string(w),
                         line(e), op_index);
                }
            }
            wires_.push_back(static_cast<int>(w));
            operand_dims_.push_back(dims[static_cast<std::size_t>(w)]);
        }

        const Ix family = require(v, "gate", "qdj.schema", op_index);
        if (!t_.is(family, Kind::kString)) {
            fail("qdj.schema", "\"gate\" must be a string", line(family),
                 op_index);
        }
        const bool matrix = t_[family].escaped
                                ? t_.string(family) == "matrix"
                                : t_.raw(family) == "matrix";

        // The gate is a function of the operand dims and the text of the
        // members it decodes from, so ops that agree on both share the
        // gate built for the first: it passed every check a repeat would
        // run. The key spells both out: the dims (each below 65) after
        // their count, then each member as kind, length and text, or
        // 0xff when absent.
        memo_key_.assign(1, static_cast<char>(operand_dims_.size()));
        for (const int d : operand_dims_) {
            memo_key_ += static_cast<char>(d);
        }
        const auto add_member = [this](Ix m) {
            if (m == kNone) {
                memo_key_ += '\xff';
                return;
            }
            const std::string_view raw = t_.raw(m);
            const auto size = static_cast<std::uint32_t>(raw.size());
            memo_key_ += static_cast<char>(t_[m].kind);
            memo_key_.append(reinterpret_cast<const char*>(&size),
                             sizeof(size));
            memo_key_ += raw;
        };
        static constexpr const char* kMatrixMembers[] = {"name", "m"};
        static constexpr const char* kSpecMembers[] = {"i", "r", "base"};
        add_member(family);
        for (const char* member :
             matrix ? std::span<const char* const>(kMatrixMembers)
                    : std::span<const char* const>(kSpecMembers)) {
            add_member(t_.find(v, member));
        }
        if (const auto hit = memo_.find(memo_key_); hit != memo_.end()) {
            circuit.append(hit->second, wires_);
            return;
        }

        Gate gate;
        if (matrix) {
            gate = decode_matrix_gate(v, op_index);
        } else {
            const gates::GateSpec spec = decode_spec(v, op_index);
            try {
                gate = gates::build_gate(spec, operand_dims_);
            } catch (const std::invalid_argument& e) {
                fail("qdj.params", e.what(), line(v), op_index);
            }
        }
        if (gate.dims() != operand_dims_) {
            fail("qdj.dim-mismatch", "gate \"" + gate.name() +
                 "\" does not act on the operand wire dims", line(v),
                 op_index);
        }
        memo_.emplace(memo_key_, gate);
        circuit.append(gate, wires_);
    }

    Tape t_;
    std::unordered_map<std::string, Gate> memo_;  ///< distinct gates
    std::string memo_key_;
    std::vector<int> wires_;         ///< the current op's wires
    std::vector<int> operand_dims_;  ///< their dims
};

}  // namespace

Circuit
circuit_from_qdj(std::string_view text)
{
    Decoder decoder(text);
    const std::string kind = decoder.document();
    if (kind != "circuit") {
        fail("qdj.schema",
             "expected a kind \"circuit\" document, got \"" + kind + "\"",
             decoder.line(0));
    }
    return decoder.circuit_body(0);
}

Job
job_from_qdj(std::string_view text)
{
    Decoder decoder(text);
    Job job;
    if (decoder.document() == "circuit") {
        job.circuit = decoder.circuit_body(0);
    } else {
        decoder.job_fields(job);
    }
    return job;
}

}  // namespace qd::ir
