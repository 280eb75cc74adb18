#!/usr/bin/env python3
"""Project-specific greppable-invariant lint.

Usage: lint_invariants.py [--root DIR]
       lint_invariants.py --self-test

Invariants that would otherwise be re-checked by hand, gated in CI
before anything is built (first-stage gate, like
compare_bench.py --self-test):

  obs-in-omp     obs:: instrumentation hooks must not be called inside
                 an OpenMP parallel region (PR 6's rule: the counter
                 slabs are per-thread aggregated OUTSIDE the region;
                 hooks inside would tear or serialize the hot loop).
                 Detected by brace-tracking the statement or block that
                 follows every `#pragma omp parallel...` in src/.
  raw-assert     no raw assert() in library code (src/): asserts vanish
                 in Release builds, so invariants must either throw or
                 be static_assert. Tests/benches may assert freely.
  bench-metrics  the bench gate must actually gate: every
                 bench/baselines/BENCH_*.json is listed in
                 compare_bench.py's TRACKED table, every TRACKED file
                 has a baseline, and every tracked metric exists in its
                 baseline file (a renamed metric would otherwise pass
                 the gate by matching nothing).
  ir-error-ids   every stable "qdj.*" decode-error id raised anywhere in
                 src/qdsim/ir/ must appear verbatim in
                 tests/ir/test_ir.cc, so no rejection path can be added
                 (or an id renamed) without an adversarial decode test
                 covering it. Both sides are scanned as RAW text —
                 strip_comments blanks string contents, which would
                 erase the ids themselves.
  exec-error-ids every stable "exec.*" engine-failure id raised anywhere
                 in src/serve/ must appear verbatim in a test under
                 tests/serve/ (raw text, as above), so no engine's
                 failure id can be added or renamed untested.
  idle-placement under src/noise/, only error_placement.cc calls
                 schedule_asap( or moment_duration(: idle noise is
                 scheduled in one place (idle_stretches), which both
                 noise engines read, so they cannot drift apart. The
                 inline definition in noise_model.h is not a call.

--self-test runs every check against generated good/bad fixtures so a
broken linter fails CI in seconds.
"""

import argparse
import importlib.util
import json
import os
import re
import sys
import tempfile

OBS_CALL = re.compile(r"\bobs::\w+")
RAW_ASSERT = re.compile(r"(?<![_\w])assert\s*\(")
OMP_PARALLEL = re.compile(r"#\s*pragma\s+omp\s.*\bparallel\b")


def strip_comments(text):
    """Removes // and /* */ comments (keeps line structure for numbering)."""
    out = []
    i, n = 0, len(text)
    while i < n:
        if text.startswith("//", i):
            j = text.find("\n", i)
            i = n if j < 0 else j
        elif text.startswith("/*", i):
            j = text.find("*/", i + 2)
            out.append("\n" * text.count("\n", i, n if j < 0 else j + 2))
            i = n if j < 0 else j + 2
        elif text[i] in "\"'":
            q = text[i]
            out.append(q)
            i += 1
            while i < n and text[i] != q:
                if text[i] == "\\":
                    out.append("..")
                    i += 2
                else:
                    out.append("." if text[i] != "\n" else "\n")
                    i += 1
            out.append(q)
            i += 1
        else:
            out.append(text[i])
            i += 1
    return "".join(out)


def omp_region_span(text, pragma_end):
    """Returns (start, end) of the construct following an omp pragma at
    pragma_end: the brace block if one opens before a top-level ';',
    otherwise the single statement (e.g. a braceless for body counts via
    its own braces or trailing ';')."""
    depth = 0
    i = pragma_end
    n = len(text)
    opened = False
    while i < n:
        c = text[i]
        if c == "{":
            depth += 1
            opened = True
        elif c == "}":
            depth -= 1
            if opened and depth == 0:
                return pragma_end, i + 1
        elif c == ";" and depth == 0 and opened is False:
            # Statement without braces ended (pure `parallel for` over a
            # single expression-statement loop still contains its `;`s
            # inside the for(...) parens — treat parens as nesting too).
            return pragma_end, i + 1
        elif c == "(":
            depth += 1
        elif c == ")":
            depth -= 1
        i += 1
    return pragma_end, n


def check_obs_in_omp(root):
    """Flags obs:: calls inside OpenMP parallel regions in src/."""
    findings = []
    for dirpath, _, files in os.walk(os.path.join(root, "src")):
        for name in sorted(files):
            if not name.endswith((".cc", ".h")):
                continue
            path = os.path.join(dirpath, name)
            with open(path, encoding="utf-8") as f:
                text = strip_comments(f.read())
            for m in OMP_PARALLEL.finditer(text):
                line_end = text.find("\n", m.end())
                # honour pragma line continuations
                while line_end > 0 and text[line_end - 1] == "\\":
                    line_end = text.find("\n", line_end + 1)
                start, end = omp_region_span(
                    text, len(text) if line_end < 0 else line_end)
                for call in OBS_CALL.finditer(text, start, end):
                    line = text.count("\n", 0, call.start()) + 1
                    findings.append(
                        f"{os.path.relpath(path, root)}:{line}: "
                        f"{call.group(0)} inside an OpenMP parallel "
                        f"region (hooks must run outside; aggregate "
                        f"per-thread and report after the join)")
    return findings


def check_raw_assert(root):
    """Flags raw assert() in library code under src/."""
    findings = []
    for dirpath, _, files in os.walk(os.path.join(root, "src")):
        for name in sorted(files):
            if not name.endswith((".cc", ".h")):
                continue
            path = os.path.join(dirpath, name)
            with open(path, encoding="utf-8") as f:
                text = strip_comments(f.read())
            for m in RAW_ASSERT.finditer(text):
                line = text.count("\n", 0, m.start()) + 1
                findings.append(
                    f"{os.path.relpath(path, root)}:{line}: raw assert() "
                    f"in library code (it vanishes in Release; throw or "
                    f"static_assert instead)")
    return findings


def load_tracked(root):
    """Imports compare_bench.py and returns its TRACKED table."""
    path = os.path.join(root, "scripts", "compare_bench.py")
    spec = importlib.util.spec_from_file_location("compare_bench", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACKED, module.normalize_spec


def check_bench_metrics(root):
    """Cross-checks bench/baselines against compare_bench.py TRACKED."""
    findings = []
    tracked, normalize = load_tracked(root)
    baseline_dir = os.path.join(root, "bench", "baselines")
    baselines = sorted(f for f in os.listdir(baseline_dir)
                       if f.startswith("BENCH_") and f.endswith(".json"))
    for name in baselines:
        if name not in tracked:
            findings.append(
                f"bench/baselines/{name}: baseline exists but the file "
                f"is not in compare_bench.py TRACKED (its regressions "
                f"would never gate)")
    for name, specs in tracked.items():
        path = os.path.join(baseline_dir, name)
        if not os.path.exists(path):
            findings.append(
                f"compare_bench.py TRACKED lists {name} but "
                f"bench/baselines/{name} does not exist")
            continue
        with open(path, encoding="utf-8") as f:
            baseline = json.load(f)
        for spec in specs:
            metric, _ = normalize(spec)
            if metric not in baseline:
                findings.append(
                    f"bench/baselines/{name}: tracked metric "
                    f"'{metric}' missing from the baseline (the gate "
                    f"would compare nothing)")
    return findings


IR_ERROR_ID = re.compile(r'"(qdj\.[a-z][a-z-]*)"')
EXEC_ERROR_ID = re.compile(r'"(exec\.[a-z][a-z-]*)"')


def raw_texts(root, rel):
    """Yields (relative path, raw text) of every .cc/.h file under rel."""
    for dirpath, _, files in os.walk(os.path.join(root, rel)):
        for name in sorted(files):
            if name.endswith((".cc", ".h")):
                path = os.path.join(dirpath, name)
                with open(path, encoding="utf-8") as f:
                    yield os.path.relpath(path, root), f.read()


def raised_ids(root, rel, pattern):
    """Maps every id `pattern` finds under rel to the first file raising
    it. RAW text: the ids live inside string literals, which
    strip_comments blanks out."""
    raised = {}
    for path, text in raw_texts(root, rel):
        for m in pattern.finditer(text):
            raised.setdefault(m.group(1), path)
    return raised


def check_ir_error_ids(root):
    """Requires every qdj.* id raised in src/qdsim/ir/ to appear in the
    adversarial decode tests (raw text on both sides)."""
    findings = []
    ir_dir = os.path.join(root, "src", "qdsim", "ir")
    test_path = os.path.join(root, "tests", "ir", "test_ir.cc")
    if not os.path.isdir(ir_dir):
        return findings
    raised = raised_ids(root, os.path.join("src", "qdsim", "ir"),
                        IR_ERROR_ID)
    if not raised:
        findings.append(
            "src/qdsim/ir/: no qdj.* error ids found — either the decoder "
            "lost its structured rejections or the id pattern drifted")
        return findings
    if not os.path.exists(test_path):
        findings.append(
            "tests/ir/test_ir.cc missing: the adversarial decode tests "
            "that pin every qdj.* error id are gone")
        return findings
    with open(test_path, encoding="utf-8") as f:
        tested = set(IR_ERROR_ID.findall(f.read()))
    for error_id in sorted(set(raised) - tested):
        findings.append(
            f"{raised[error_id]}: error id \"{error_id}\" is raised but "
            f"never appears in tests/ir/test_ir.cc (every stable decode "
            f"rejection needs an adversarial test)")
    return findings


def check_exec_error_ids(root):
    """Requires every exec.* id raised in src/serve/ to appear in a test
    under tests/serve/ (raw text on both sides)."""
    raised = raised_ids(root, os.path.join("src", "serve"), EXEC_ERROR_ID)
    tested = set()
    for _, text in raw_texts(root, os.path.join("tests", "serve")):
        tested.update(EXEC_ERROR_ID.findall(text))
    return [
        f"{raised[error_id]}: error id \"{error_id}\" is raised but "
        f"never appears in tests/serve/ (every engine-failure id needs "
        f"a test)"
        for error_id in sorted(set(raised) - tested)
    ]


IDLE_CALL = re.compile(r"\b(schedule_asap|moment_duration)\s*\(")
IDLE_OWNER = "error_placement.cc"
# `Real moment_duration(bool has_multi_qudit) const {`: a definition.
IDLE_DEFINITION = re.compile(r"\bReal\s+moment_duration\s*\(")


def check_idle_placement(root):
    """Flags schedule_asap / moment_duration calls under src/noise/
    outside error_placement.cc."""
    findings = []
    noise_dir = os.path.join(root, "src", "noise")
    for dirpath, _, files in os.walk(noise_dir):
        for name in sorted(files):
            if not name.endswith((".cc", ".h")) or name == IDLE_OWNER:
                continue
            path = os.path.join(dirpath, name)
            with open(path, encoding="utf-8") as f:
                text = strip_comments(f.read())
            definitions = {m.start() + m.group(0).index("moment_duration")
                           for m in IDLE_DEFINITION.finditer(text)}
            for m in IDLE_CALL.finditer(text):
                if m.start() in definitions:
                    continue
                line = text.count("\n", 0, m.start()) + 1
                findings.append(
                    f"{os.path.relpath(path, root)}:{line}: "
                    f"{m.group(1)}() called outside {IDLE_OWNER} (idle "
                    f"noise is placed once, by idle_stretches)")
    return findings


CHECKS = {
    "obs-in-omp": check_obs_in_omp,
    "raw-assert": check_raw_assert,
    "bench-metrics": check_bench_metrics,
    "ir-error-ids": check_ir_error_ids,
    "exec-error-ids": check_exec_error_ids,
    "idle-placement": check_idle_placement,
}


def run_checks(root):
    failures = 0
    for name, check in CHECKS.items():
        findings = check(root)
        status = "OK" if not findings else f"{len(findings)} finding(s)"
        print(f"lint_invariants: {name:14s} {status}")
        for f in findings:
            print(f"  {f}")
        failures += len(findings)
    return failures


# ------------------------------------------------------------- self-test

GOOD_CC = """
void hot() {
#pragma omp parallel for schedule(static)
    for (int i = 0; i < n; ++i) { work(i); }
    obs::record_pass(n);  // outside the region: fine
}
"""

BAD_OMP_CC = """
void hot() {
#pragma omp parallel
    {
        work();
        obs::record_pass(1);
    }
}
"""

BAD_OMP_FOR_CC = """
void hot() {
#pragma omp parallel for
    for (int i = 0; i < n; ++i) {
        obs::bump(i);
    }
}
"""

COMMENT_ONLY_CC = """
void hot() {
#pragma omp parallel
    {
        // obs::record_pass(1) would be wrong here
        work();
    }
}
"""

BAD_ASSERT_CC = """
#include <cassert>
void f(int x) { assert(x > 0); }
"""

GOOD_ASSERT_CC = """
void f(int x) {
    static_assert(sizeof(int) == 4, "ILP32/LP64 only");
    my_assert(x);  // not the macro
}
"""


IR_CC = """
void decode() {
    fail("qdj.syntax", "bad token");
    fail("qdj.wires", "duplicate wire");  // raised on two paths
}
"""

IR_TEST_GOOD = """
const char* kIds[] = {"qdj.syntax", "qdj.wires"};
"""

IR_TEST_BAD = """
const char* kIds[] = {"qdj.syntax"};  // qdj.wires untested
"""

SERVE_CC = """
const char* id(bool state) {
    return state ? "exec.state" : "exec.density";
}
"""

SERVE_TEST_GOOD = """
EXPECT_EQ(execute(huge_state_job()).error_id, "exec.state");
EXPECT_EQ(execute(bad_density_job()).error_id, "exec.density");
"""

SERVE_TEST_BAD = """
EXPECT_EQ(execute(huge_state_job()).error_id, "exec.state");
"""

NOISE_MODEL_H = """
struct NoiseModel {
    /** Duration of a moment; call moment_duration(true) for two-qudit. */
    Real moment_duration(bool has_multi_qudit) const {
        return has_multi_qudit ? dt_2q : dt_1q;
    }
};
"""

PLACEMENT_CC = """
IdleStretches idle_stretches(const Circuit& c, const NoiseModel& m) {
    for (const Moment& moment : schedule_asap(c)) {
        add(m.moment_duration(moment.has_multi_qudit));
    }
}
"""

ENGINE_GOOD_CC = """
// Reads the placement; never calls schedule_asap(c) itself.
void build(const Circuit& c, const NoiseModel& m) {
    const IdleStretches idle = idle_stretches(c, m);
}
"""

ENGINE_BAD_CC = """
void build(const Circuit& c, const NoiseModel& m) {
    for (const Moment& moment : schedule_asap(c)) {
        charge(m.moment_duration(moment.has_multi_qudit));
    }
}
"""


def write(root, rel, content):
    path = os.path.join(root, rel)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as f:
        f.write(content)


def expect(cond, label, problems):
    print(f"  self-test: {label}: {'ok' if cond else 'FAIL'}")
    if not cond:
        problems.append(label)


def make_fixture_repo(root, *, bad):
    write(root, "src/good.cc", GOOD_CC + GOOD_ASSERT_CC)
    write(root, "src/commented.cc", COMMENT_ONLY_CC)
    if bad:
        write(root, "src/bad_omp.cc", BAD_OMP_CC)
        write(root, "src/bad_omp_for.cc", BAD_OMP_FOR_CC)
        write(root, "src/bad_assert.cc", BAD_ASSERT_CC)
    write(
        root, "scripts/compare_bench.py", """
TRACKED = {
    "BENCH_a.json": ["speedup", {"metric": "ghost", "mode": "exact"}],
    "BENCH_missing.json": ["speedup"],
}
def normalize_spec(spec):
    if isinstance(spec, str):
        return spec, "min"
    return spec["metric"], spec["mode"]
""" if bad else """
TRACKED = {"BENCH_a.json": ["speedup"]}
def normalize_spec(spec):
    if isinstance(spec, str):
        return spec, "min"
    return spec["metric"], spec["mode"]
""")
    write(root, "bench/baselines/BENCH_a.json",
          json.dumps({"speedup": 2.0}))
    if bad:
        write(root, "bench/baselines/BENCH_orphan.json",
              json.dumps({"speedup": 1.0}))
    write(root, "src/qdsim/ir/ir.cc", IR_CC)
    write(root, "tests/ir/test_ir.cc",
          IR_TEST_BAD if bad else IR_TEST_GOOD)
    write(root, "src/serve/run.cc", SERVE_CC)
    write(root, "tests/serve/test_serve.cc",
          SERVE_TEST_BAD if bad else SERVE_TEST_GOOD)
    write(root, "src/noise/noise_model.h", NOISE_MODEL_H)
    write(root, "src/noise/error_placement.cc", PLACEMENT_CC)
    write(root, "src/noise/density_matrix.cc",
          ENGINE_BAD_CC if bad else ENGINE_GOOD_CC)


def self_test():
    problems = []
    with tempfile.TemporaryDirectory() as tmp:
        good = os.path.join(tmp, "good")
        make_fixture_repo(good, bad=False)
        expect(check_obs_in_omp(good) == [], "clean omp fixture passes",
               problems)
        expect(check_raw_assert(good) == [], "clean assert fixture passes",
               problems)
        expect(check_bench_metrics(good) == [],
               "consistent bench tables pass", problems)
        expect(check_ir_error_ids(good) == [],
               "fully tested ir error ids pass", problems)
        expect(check_exec_error_ids(good) == [],
               "fully tested exec error ids pass", problems)
        expect(check_idle_placement(good) == [],
               "idle noise scheduled only by error_placement.cc passes",
               problems)

        bad = os.path.join(tmp, "bad")
        make_fixture_repo(bad, bad=True)
        omp = check_obs_in_omp(bad)
        expect(len(omp) == 2 and any("bad_omp.cc" in f for f in omp)
               and any("bad_omp_for.cc" in f for f in omp),
               "obs:: inside parallel block and parallel-for flagged",
               problems)
        expect(check_raw_assert(bad) != [], "raw assert flagged", problems)
        bench = check_bench_metrics(bad)
        expect(any("ghost" in f for f in bench),
               "missing tracked metric flagged", problems)
        expect(any("BENCH_missing.json" in f for f in bench),
               "tracked file without baseline flagged", problems)
        expect(any("BENCH_orphan.json" in f for f in bench),
               "untracked baseline flagged", problems)
        ir = check_ir_error_ids(bad)
        expect(len(ir) == 1 and "qdj.wires" in ir[0],
               "untested ir error id flagged", problems)
        ex = check_exec_error_ids(bad)
        expect(len(ex) == 1 and "exec.density" in ex[0],
               "untested exec error id flagged", problems)
        idle = check_idle_placement(bad)
        expect(len(idle) == 2
               and all("density_matrix.cc" in f for f in idle)
               and any("schedule_asap" in f for f in idle)
               and any("moment_duration" in f for f in idle),
               "idle noise scheduled by an engine flagged", problems)
    if problems:
        print(f"lint_invariants --self-test: FAILED ({len(problems)})")
        return 1
    print("lint_invariants --self-test: all checks behave")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", default=os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))))
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    return 1 if run_checks(args.root) else 0


if __name__ == "__main__":
    sys.exit(main())
