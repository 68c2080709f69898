#!/usr/bin/env python3
"""Self-test for tools/qc_analyze — golden findings over the fixture
corpus, waiver round-trip, CLI/JSON contract, and the repo-clean gate.

The fixture files under tools/qc_analyze/fixtures/ seed every rule with
positives (marked `// expect: <rule>[, <rule>]` on the finding line) and
negatives (everything unmarked). The analyzer must detect 100% of the
positives and produce zero findings on the negatives — asserted as exact
set equality on (file, line, rule), not subset checks, so both missed
detections and false positives fail.

waivers.cpp is asserted explicitly (its waiver comments occupy the
trailing-comment position the markers would use).

Registered with ctest as `qc_analyze_selftest` (see CMakeLists.txt);
also runnable directly: python3 tests/test_qc_analyze.py
"""

import json
import os
import re
import subprocess
import sys
import tempfile
import unittest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL_DIR = os.path.join(REPO, "tools", "qc_analyze")
FIXTURE_DIR = os.path.join(TOOL_DIR, "fixtures")

sys.path.insert(0, TOOL_DIR)
import qc_analyze  # noqa: E402

EXPECT = re.compile(r"//.*?\bexpect:\s*([a-z0-9-]+(?:\s*,\s*[a-z0-9-]+)*)")

WAIVERS_CPP = os.path.join("tools", "qc_analyze", "fixtures", "waivers.cpp")


def fixture_files():
    return sorted(
        os.path.join(FIXTURE_DIR, name)
        for name in os.listdir(FIXTURE_DIR)
        if name.endswith(".cpp")
    )


def rel(path):
    return os.path.relpath(path, REPO)


def marker_expectations():
    """(file, line, rule) for every `expect:` marker in the corpus."""
    expected = set()
    for path in fixture_files():
        if rel(path) == WAIVERS_CPP:
            continue
        with open(path, encoding="utf-8") as f:
            for lineno, line in enumerate(f, 1):
                m = EXPECT.search(line)
                if not m:
                    continue
                for rule in re.split(r"\s*,\s*", m.group(1)):
                    expected.add((rel(path), lineno, rule))
    return expected


def line_of(path, needle):
    """1-based line number of the unique line containing `needle`."""
    with open(path, encoding="utf-8") as f:
        hits = [i for i, line in enumerate(f, 1) if needle in line]
    assert len(hits) == 1, f"{needle!r} matched lines {hits} in {path}"
    return hits[0]


def line_ending_with(path, suffix):
    """1-based line number of the unique line that ends with `suffix`."""
    with open(path, encoding="utf-8") as f:
        hits = [i for i, line in enumerate(f, 1) if line.rstrip().endswith(suffix)]
    assert len(hits) == 1, f"suffix {suffix!r} matched lines {hits} in {path}"
    return hits[0]


def line_following(path, needle, what):
    """1-based line of the first line containing `what` after the unique
    line containing `needle`."""
    start = line_of(path, needle)
    with open(path, encoding="utf-8") as f:
        for i, line in enumerate(f, 1):
            if i > start and what in line:
                return i
    raise AssertionError(f"no {what!r} after line {start} in {path}")


class GoldenFindings(unittest.TestCase):
    """Exact-match detection over the seeded corpus."""

    @classmethod
    def setUpClass(cls):
        cls.findings, cls.nfiles = qc_analyze.analyze(
            fixture_files(), set(qc_analyze.RULES))
        cls.errors = [f for f in cls.findings if not f.waived]
        cls.waived = [f for f in cls.findings if f.waived]

    def test_corpus_covers_every_rule(self):
        # The acceptance bar is >= 3 positives and >= 3 negatives per
        # rule; negatives are everything unmarked, so here we check the
        # positive side and that no rule went unseeded.
        per_rule = {}
        for _, _, rule in marker_expectations():
            per_rule[rule] = per_rule.get(rule, 0) + 1
        per_rule["collective-divergence"] = (
            per_rule.get("collective-divergence", 0) + 3)  # waivers.cpp seeds
        for rule in qc_analyze.RULES:
            self.assertGreaterEqual(
                per_rule.get(rule, 0), 3,
                f"fixture corpus seeds fewer than 3 positives for {rule}")

    def test_exact_findings_match_markers(self):
        wfile = os.path.join(REPO, WAIVERS_CPP)
        expected = marker_expectations() | {
            # waivers.cpp: reason-less waiver is an error, wrong-rule and
            # missing waivers do not suppress the finding.
            (WAIVERS_CPP, line_ending_with(
                wfile, "lint:allow(collective-divergence)"),
             "collective-divergence"),
            (WAIVERS_CPP, line_of(wfile, "lint:allow(raw-shift)"),
             "collective-divergence"),
            (WAIVERS_CPP, line_following(
                wfile, "void unwaived_divergence", "comm.barrier()"),
             "collective-divergence"),
        }
        actual = {(f.file, f.line, f.rule) for f in self.errors}
        missed = expected - actual
        spurious = actual - expected
        self.assertFalse(missed, f"positives not detected: {sorted(missed)}")
        self.assertFalse(spurious, f"false positives: {sorted(spurious)}")

    def test_waiver_round_trip(self):
        wfile = os.path.join(REPO, WAIVERS_CPP)
        by_line = {f.line: f for f in self.waived if f.file == WAIVERS_CPP}
        with_reason = line_of(wfile, "waiver with a reason becomes a note")
        above = line_of(wfile, "waiver on the preceding line") + 1
        self.assertEqual(sorted(by_line), sorted([with_reason, above]))
        self.assertEqual(by_line[with_reason].reason,
                         "fixture: waiver with a reason becomes a note")
        self.assertEqual(by_line[above].reason,
                         "fixture: waiver on the preceding line")
        # The reason-less waiver surfaces as an error naming the problem.
        reasonless = line_ending_with(
            wfile, "lint:allow(collective-divergence)")
        msgs = [f.message for f in self.errors
                if f.file == WAIVERS_CPP and f.line == reasonless]
        self.assertEqual(msgs, ["waiver without a reason"])

    def test_helper_attribution(self):
        # The finding inside fill_scratch must say it was reached via the
        # closure's helper call — the case the regex lint rule missed.
        sc = os.path.join("tools", "qc_analyze", "fixtures",
                          "submit_closure.cpp")
        via = [f for f in self.errors
               if f.file == sc and "via helper 'fill_scratch'" in f.message]
        self.assertEqual(len(via), 1)


class CliContract(unittest.TestCase):
    def run_cli(self, *args):
        return subprocess.run(
            [sys.executable, os.path.join(TOOL_DIR, "qc_analyze.py"), *args],
            capture_output=True, text=True, cwd=REPO)

    def test_json_output_and_exit_code(self):
        with tempfile.TemporaryDirectory() as tmp:
            out = os.path.join(tmp, "findings.json")
            proc = self.run_cli(
                "--paths",
                os.path.join(FIXTURE_DIR, "collective_divergence.cpp"),
                "--json", out)
            self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
            with open(out, encoding="utf-8") as f:
                payload = json.load(f)
        self.assertEqual(payload["summary"]["errors"], 5)
        self.assertEqual(payload["summary"]["files"], 1)
        for finding in payload["findings"]:
            self.assertEqual(finding["rule"], "collective-divergence")
            self.assertTrue(finding["hint"])

    def test_rule_filter(self):
        proc = self.run_cli(
            "--paths", os.path.join(FIXTURE_DIR, "p2p_matching.cpp"),
            "--rules", "p2p-sendrecv")
        lines = [l for l in proc.stdout.splitlines() if l.startswith("error:")]
        self.assertEqual(len(lines), 3)
        self.assertTrue(all("[p2p-sendrecv]" in l for l in lines))

    def test_compile_db_discovery_keeps_to_the_source_roots(self):
        # A build's compile db also lists TUs outside src/, tools/,
        # tests/, bench/ and examples/: the header-check TUs CMake
        # generates in the build tree, and bench_suite/ when it is
        # configured from the root. Discovery leaves them out.
        src_tu = os.path.join(REPO, "src", "common", "cli.cpp")
        outside = [os.path.join(REPO, "build", "header_check", "common",
                                "bits.hpp.cpp"),
                   os.path.join(REPO, "bench_suite", "suite.cpp")]
        counts = []
        for tus in ([src_tu], [src_tu, *outside]):
            with tempfile.TemporaryDirectory() as tmp:
                with open(os.path.join(tmp, "compile_commands.json"), "w",
                          encoding="utf-8") as f:
                    json.dump([{"directory": tmp, "file": tu,
                                "command": f"c++ -c {tu}"} for tu in tus], f)
                out = os.path.join(tmp, "findings.json")
                proc = self.run_cli("-p", tmp, "--json", out)
                self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
                with open(out, encoding="utf-8") as f:
                    counts.append(json.load(f)["summary"]["files"])
        self.assertEqual(counts[0], counts[1])

    def test_unknown_rule_is_an_error(self):
        proc = self.run_cli("--paths", FIXTURE_DIR, "--rules", "no-such-rule")
        self.assertEqual(proc.returncode, 2)


class RepoIsClean(unittest.TestCase):
    """The acceptance gate: the repository itself carries zero unwaived
    findings (fixtures are excluded from default discovery)."""

    def test_default_dirs_clean(self):
        files = qc_analyze.files_from_paths(qc_analyze.DEFAULT_DIRS)
        self.assertNotIn(os.path.join(REPO, WAIVERS_CPP), files,
                         "fixtures must not be swept into default runs")
        findings, nfiles = qc_analyze.analyze(files, set(qc_analyze.RULES))
        self.assertGreater(nfiles, 50)
        errors = [f for f in findings if not f.waived]
        self.assertFalse(
            errors,
            "unwaived findings in the repo:\n" + "\n".join(
                f"  {f.file}:{f.line}: [{f.rule}] {f.message}"
                for f in errors))
        # Every waiver in the tree must carry its reason through.
        for f in findings:
            if f.waived:
                self.assertTrue(f.reason.strip(),
                                f"waiver without reason at {f.file}:{f.line}")


if __name__ == "__main__":
    unittest.main(verbosity=2)
