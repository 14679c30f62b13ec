#!/usr/bin/env python3
"""Fixture tests for gslint (registered with ctest as `gslint_fixtures`).

Every file under fixtures/ is a self-describing test case:

  * line 1 carries `// gslint-fixture: <rel>` — the path, relative to src/,
    the file pretends to live at (directory-scoped rules key off it);
  * each expected finding is declared where it happens with a comment
    `// EXPECT: <line> <rule-id>`; a line that legitimately produces two
    findings declares two EXPECT comments.

The test lexes each fixture, runs the full rule catalogue against the
declared path, and requires the produced (line, rule) multiset to equal the
declared one — so both false negatives AND false positives fail the suite.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import unittest

_HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, _HERE)

from gslint import (check_docs_catalogue, check_single_registration,  # noqa: E402
                    documented_metrics)
from lexer import lex  # noqa: E402
from rules import check_file, metric_registrations  # noqa: E402

_FIXTURES = os.path.join(_HERE, "fixtures")
_FIXTURE_REL = re.compile(r"gslint-fixture:\s*(\S+)")
_EXPECT = re.compile(r"EXPECT:\s*(\d+)\s+([a-z-]+)")


def _load_fixture(path: str) -> tuple[str, str, list[tuple[int, str]]]:
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    rel_match = _FIXTURE_REL.search(text)
    if rel_match is None:
        raise AssertionError(f"{path}: missing '// gslint-fixture: <rel>'")
    expected = [(int(line), rule) for line, rule in _EXPECT.findall(text)]
    return rel_match.group(1), text, sorted(expected)


class FixtureTest(unittest.TestCase):
    """Each fixture's declared findings must match the rules exactly."""

    def test_fixtures_exist(self) -> None:
        names = sorted(os.listdir(_FIXTURES))
        self.assertGreaterEqual(len(names), 10)
        # Every rule must be exercised by at least one fixture.
        all_expected = set()
        for name in names:
            _rel, _text, expected = _load_fixture(
                os.path.join(_FIXTURES, name))
            all_expected.update(rule for _line, rule in expected)
        self.assertEqual(
            all_expected,
            {"banned-rng", "unordered-iteration", "raw-thread",
             "parallel-stl", "missing-contract", "metric-name",
             "layer-dispatch"})

    def test_fixture_findings(self) -> None:
        for name in sorted(os.listdir(_FIXTURES)):
            path = os.path.join(_FIXTURES, name)
            rel, text, expected = _load_fixture(path)
            with self.subTest(fixture=name, rel=rel):
                lexed = lex(path, text)
                got = sorted((f.line, f.rule)
                             for f in check_file(lexed, rel))
                self.assertEqual(got, expected)


class LexerTest(unittest.TestCase):
    def test_comments_and_strings_are_blanked(self) -> None:
        lexed = lex("t.cpp",
                    'int x = 1; // std::thread here\n'
                    'const char* s = "std::rand()";\n'
                    '/* rand() */ int y = 2;\n')
        self.assertNotIn("thread", lexed.code_lines[0])
        self.assertNotIn("rand", lexed.code_lines[1])
        self.assertIn('""', lexed.code_lines[1])
        self.assertIn("int y = 2;", lexed.code_lines[2])
        self.assertIn("std::thread here", lexed.comments[1])
        self.assertIn("rand()", lexed.comments[3])

    def test_raw_string_is_blanked(self) -> None:
        lexed = lex("t.cpp", 'auto s = R"lint(std::thread)lint"; int z;\n')
        self.assertNotIn("thread", lexed.code_lines[0])
        self.assertIn("int z;", lexed.code_lines[0])

    def test_multiline_raw_string_preserves_line_count(self) -> None:
        lexed = lex("t.cpp", 'auto s = R"(a\nb\nc)"; int tail;\n')
        self.assertEqual(len(lexed.code_lines), 4)  # 3 lines + final flush
        self.assertIn("int tail;", lexed.code_lines[2])

    def test_digit_separator_is_not_a_char_literal(self) -> None:
        lexed = lex("t.cpp", "int big = 1'000'000; // note\n")
        self.assertIn("1'000'000", lexed.code_lines[0])
        self.assertIn("note", lexed.comments[1])

    def test_block_comment_spans_lines(self) -> None:
        lexed = lex("t.cpp", "/* std::thread\nrand() */ int ok;\n")
        self.assertNotIn("thread", lexed.code_lines[0])
        self.assertIn("int ok;", lexed.code_lines[1])
        self.assertIn("std::thread", lexed.comments[1])
        self.assertIn("rand()", lexed.comments[2])


class MetricRegistrationTest(unittest.TestCase):
    def test_multiline_call_site_yields_name(self) -> None:
        lexed = lex("t.cpp",
                    'Counter& c = registry.counter(\n'
                    '    "gs_requests_total",\n'
                    '    "help text", labels);\n')
        self.assertEqual(metric_registrations(lexed),
                         [(2, "counter", "gs_requests_total")])

    def test_comment_prose_never_registers(self) -> None:
        lexed = lex("t.cpp",
                    '// call registry.counter("gs_fake_total") to register\n'
                    'int x = 0;\n')
        self.assertEqual(metric_registrations(lexed), [])

    def test_duplicate_site_flagged_once_per_site(self) -> None:
        registrations = [("src/a.cpp", 3, "gs_dup_total"),
                         ("src/b.cpp", 9, "gs_dup_total"),
                         ("src/a.cpp", 5, "gs_unique_total")]
        findings = check_single_registration(registrations)
        self.assertEqual(len(findings), 2)
        self.assertTrue(all(f.rule == "metric-name" for f in findings))
        self.assertTrue(all("gs_dup_total" in f.message for f in findings))

    def test_catalogue_extraction_requires_markers(self) -> None:
        self.assertIsNone(documented_metrics("no markers `gs_x_total`"))
        doc = ("prose `gs_outside_total`\n"
               "<!-- metric-catalogue:begin -->\n"
               "| `gs_a_total` | counter |\n"
               "and `gs_b_ms` inline\n"
               "<!-- metric-catalogue:end -->\n")
        self.assertEqual(documented_metrics(doc), {"gs_a_total", "gs_b_ms"})

    def test_catalogue_must_match_registrations(self) -> None:
        repo_root = os.path.dirname(os.path.dirname(_HERE))
        registrations = [("src/x.cpp", 1, "gs_never_registered_total")]
        findings = check_docs_catalogue(repo_root, registrations)
        # The real docs file exists; the fake registration is missing from
        # it, and everything the doc lists is "registered nowhere".
        self.assertTrue(any(
            "gs_never_registered_total" in f.message and
            "not in the catalogue" in f.message for f in findings))


class CliTest(unittest.TestCase):
    """The gslint CLI must exit 1 on findings and 0 on clean input."""

    def _run(self, *files: str) -> subprocess.CompletedProcess:
        repo_root = os.path.dirname(os.path.dirname(_HERE))
        return subprocess.run(
            [sys.executable, os.path.join(_HERE, "gslint.py"),
             "--root", repo_root, *files],
            capture_output=True, text=True, check=False)

    def test_dirty_file_fails(self) -> None:
        proc = self._run(os.path.join(_FIXTURES, "banned_rng.cpp"))
        self.assertEqual(proc.returncode, 1)
        self.assertIn("banned-rng", proc.stdout)

    def test_clean_file_passes(self) -> None:
        proc = self._run(os.path.join(_FIXTURES, "contract_ok.hpp"))
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertIn("OK", proc.stdout)


if __name__ == "__main__":
    unittest.main()
