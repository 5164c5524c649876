#!/usr/bin/env python3
"""kdash_lint — project-specific static checks for the kdash tree.

clang-tidy and -Wthread-safety know nothing about this project's own
contracts; these rules encode the ones that have actually bitten or
nearly bitten:

  fault-site-grammar     Every site literal passed to KDASH_INJECT_FAULT /
                         fault::Check matches the KDASH_FAULTS grammar
                         (lowercase dot-separated [a-z][a-z0-9_]* segments),
                         so every injection point is addressable from a
                         KDASH_FAULTS environment spec.
  fault-site-registered  Every such literal is listed in kKnownFaultSites
                         (src/common/fault.h). A literal followed by `+`
                         (runtime suffix, e.g. per-shard names) must match
                         a registry family entry ending in `<N>`.
  fault-site-unused      Every kKnownFaultSites entry is evaluated by at
                         least one injection point — the registry and the
                         code cannot drift apart in either direction.
  metric-name-grammar    Every metric name literal passed to GetCounter /
                         GetGauge / GetHistogram matches the same grammar
                         as fault sites, so metric names stay greppable
                         and dashboard-safe.
  metric-name-registered Every such literal is listed in kKnownMetrics
                         (src/obs/metrics.h). A literal followed by `+`
                         (runtime suffix, e.g. per-shard histograms) must
                         match a registry family entry ending in `<N>`.
  metric-name-unused     Every kKnownMetrics entry is resolved by at least
                         one call site — same no-drift contract as fault
                         sites.
  detach                 No std::thread::detach(): a detached thread that
                         touches anything with a lifetime is a shutdown
                         use-after-free by construction.
  naked-new              No naked `new`: ownership goes through
                         make_unique/make_shared. (Intentional leaks for
                         static-destruction ordering are waived, loudly.)
  raw-read               istream::read() appears only inside the checked
                         Reader helpers of src/core/index_io.cc — every
                         other byte off a stream goes through a helper
                         that bounds-checks the length first.
  raw-number-parse       No strto*/ato*/std::sto* calls, and no
                         from_chars outside src/common/parse_number.h: text
                         becomes a number only through ParseNumber, which
                         rejects saturation, a leading '+' or blank, and
                         trailing junk.

Waivers: a violating line is allowed when it, or one of the two lines
above it, carries

    // kdash-lint: allow(<rule>) <rationale>

The rationale is mandatory in spirit: a waiver with no explanation will
not survive review, and the grep for `kdash-lint: allow` is the audit
trail of every exception in the tree.

Usage:
    python3 tools/kdash_lint.py [--root REPO_ROOT]
    python3 tools/kdash_lint.py --selftest   # run the fixture suite

Exit status: 0 = clean, 1 = violations (or selftest failures), 2 = usage.
"""

from __future__ import annotations

import argparse
import pathlib
import re
import sys
from typing import List, NamedTuple, Sequence, Set, Tuple

SITE_GRAMMAR = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*)*$")
WAIVER = re.compile(r"kdash-lint:\s*allow\(([a-z-]+)\)(\s*\S)?")
REGISTRY = re.compile(r"kKnownFaultSites\[\]\s*=\s*\{(.*?)\};", re.S)
METRIC_REGISTRY = re.compile(r"kKnownMetrics\[\]\s*=\s*\{(.*?)\};", re.S)
FAULT_CALL = re.compile(
    r'(?:KDASH_INJECT_FAULT|fault::Check)\s*\(\s*"([^"]*)"\s*([+)])')
METRIC_CALL = re.compile(
    r'(?:GetCounter|GetGauge|GetHistogram)\s*\(\s*"([^"]*)"\s*([+)])')
DETACH = re.compile(r"\.detach\s*\(\s*\)")
NAKED_NEW = re.compile(r"\bnew\b")
RAW_READ = re.compile(r"\.read\s*\(")
RAW_NUMBER_PARSE = re.compile(
    r"\b(?:strto(?:l|ll|ul|ull|d|f|ld|imax|umax)|ato(?:i|l|ll|f)|"
    r"sto(?:i|l|ll|ul|ull|f|d|ld)|from_chars)\s*\(")

# The one sanctioned home of from_chars: ParseNumber itself.
PARSE_NUMBER_FILE = ("common", "parse_number.h")

# The one sanctioned home of raw istream::read calls.
READER_FILE = "index_io.cc"


class Violation(NamedTuple):
    path: pathlib.Path
    line: int  # 1-based
    rule: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_comments(text: str, strip_strings: bool = False) -> str:
    """Blank out comments (and optionally string/char literals), keeping
    every newline so line numbers survive."""
    out: List[str] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if ch == "/" and nxt == "/":
            while i < n and text[i] != "\n":
                i += 1
        elif ch == "/" and nxt == "*":
            i += 2
            while i < n and not (text[i] == "*" and i + 1 < n and
                                 text[i + 1] == "/"):
                if text[i] == "\n":
                    out.append("\n")
                i += 1
            i += 2
        elif ch in "\"'":
            quote = ch
            literal = [ch]
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\" and i + 1 < n:
                    literal.append(text[i:i + 2])
                    i += 2
                else:
                    literal.append(text[i])
                    i += 1
            literal.append(quote)
            i += 1
            out.append(f'{quote}{quote}' if strip_strings else
                       "".join(literal))
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def line_of(text: str, offset: int) -> int:
    return text.count("\n", 0, offset) + 1


def waived(lines: Sequence[str], line: int, rule: str) -> bool:
    """True when `line` (1-based) or one of the two lines above it carries
    a matching waiver comment."""
    for candidate in range(max(1, line - 2), line + 1):
        m = WAIVER.search(lines[candidate - 1])
        if m and m.group(1) == rule:
            return True
    return False


def parse_registry(header_text: str, pattern: re.Pattern = REGISTRY,
                   what: str = "kKnownFaultSites in src/common/fault.h",
                   ) -> List[str]:
    m = pattern.search(strip_comments(header_text))
    if m is None:
        raise SystemExit(f"kdash_lint: cannot find {what}")
    return re.findall(r'"([^"]+)"', m.group(1))


def check_registry(entries: Sequence[str], registry_path: pathlib.Path,
                   rule_prefix: str = "fault-site",
                   array_name: str = "kKnownFaultSites") -> List[Violation]:
    violations = []
    seen: Set[str] = set()
    for entry in entries:
        if entry in seen:
            violations.append(Violation(
                registry_path, 1, f"{rule_prefix}-registered",
                f'registry entry "{entry}" is listed more than once'))
        seen.add(entry)
        bare = entry.replace("<N>", "n")
        if not SITE_GRAMMAR.match(bare):
            violations.append(Violation(
                registry_path, 1, f"{rule_prefix}-grammar",
                f'registry entry "{entry}" does not match the site grammar'))
    if sorted(entries) != list(entries):
        violations.append(Violation(
            registry_path, 1, f"{rule_prefix}-registered",
            f"{array_name} must stay sorted"))
    return violations


def check_name_calls(path: pathlib.Path, code: str, call_pattern: re.Pattern,
                     registry: Sequence[str], used: Set[str],
                     rule_prefix: str, array_ref: str) -> List[Violation]:
    """Shared literal-vs-registry check for fault sites and metric names:
    an exact literal (terminator `)`) must be a registered entry; a literal
    with a runtime suffix (terminator `+`) must name a `<N>` family."""
    violations: List[Violation] = []
    exact = {e for e in registry if "<N>" not in e}
    families = [e[:-len("<N>")] for e in registry if e.endswith("<N>")]
    for m in call_pattern.finditer(code):
        name, terminator = m.group(1), m.group(2)
        line = line_of(code, m.start())
        if terminator == ")":
            if not SITE_GRAMMAR.match(name):
                violations.append(Violation(
                    path, line, f"{rule_prefix}-grammar",
                    f'name "{name}" does not match '
                    "[a-z][a-z0-9_]*(.[a-z][a-z0-9_]*)*"))
            elif name not in exact:
                violations.append(Violation(
                    path, line, f"{rule_prefix}-registered",
                    f'name "{name}" is not in {array_ref}'))
            else:
                used.add(name)
        else:  # literal + runtime suffix: must name a registered family
            family = next((f for f in families if f == name), None)
            if family is None:
                violations.append(Violation(
                    path, line, f"{rule_prefix}-registered",
                    f'parameterized name "{name}<runtime>" has no '
                    f'matching "{name}<N>" family in {array_ref}'))
            else:
                used.add(family + "<N>")
    return violations


def lint_file(path: pathlib.Path, registry: Sequence[str],
              used_sites: Set[str], metric_registry: Sequence[str] = (),
              used_metrics: Set[str] | None = None) -> List[Violation]:
    text = path.read_text()
    lines = text.splitlines()
    code = strip_comments(text)              # strings kept: site literals
    bare = strip_comments(text, strip_strings=True)  # for `new` tokens
    violations: List[Violation] = []

    violations.extend(check_name_calls(
        path, code, FAULT_CALL, registry, used_sites,
        "fault-site", "kKnownFaultSites (src/common/fault.h)"))
    violations.extend(check_name_calls(
        path, code, METRIC_CALL, metric_registry,
        used_metrics if used_metrics is not None else set(),
        "metric-name", "kKnownMetrics (src/obs/metrics.h)"))

    for m in DETACH.finditer(bare):
        line = line_of(bare, m.start())
        if not waived(lines, line, "detach"):
            violations.append(Violation(
                path, line, "detach",
                "std::thread::detach() — join it, or waive with a "
                "lifetime argument"))

    for m in NAKED_NEW.finditer(bare):
        line = line_of(bare, m.start())
        if not waived(lines, line, "naked-new"):
            violations.append(Violation(
                path, line, "naked-new",
                "naked `new` — use std::make_unique/make_shared"))

    reader_span: Tuple[int, int] = (-1, -1)
    if path.name == READER_FILE:
        start = next((i + 1 for i, l in enumerate(lines)
                      if re.match(r"\s*class Reader\b", l)), None)
        if start is not None:
            end = next((i + 1 for i in range(start, len(lines))
                        if lines[i].startswith("};")), len(lines))
            reader_span = (start, end)
    for m in RAW_READ.finditer(bare):
        line = line_of(bare, m.start())
        if reader_span[0] <= line <= reader_span[1]:
            continue
        if not waived(lines, line, "raw-read"):
            violations.append(Violation(
                path, line, "raw-read",
                "raw istream::read — go through the checked Reader "
                "helpers in src/core/index_io.cc"))

    in_parse_number = path.parts[-2:] == PARSE_NUMBER_FILE
    for m in RAW_NUMBER_PARSE.finditer(bare):
        line = line_of(bare, m.start())
        if m.group().startswith("from_chars") and in_parse_number:
            continue
        if not waived(lines, line, "raw-number-parse"):
            violations.append(Violation(
                path, line, "raw-number-parse",
                "hand-rolled number parse — use ParseNumber "
                "(src/common/parse_number.h)"))

    return violations


def gather(root: pathlib.Path) -> List[pathlib.Path]:
    files: List[pathlib.Path] = []
    for sub, patterns in (("src", ("*.h", "*.cc")),
                          ("tools", ("*.h", "*.cc")),
                          ("examples", ("*.cpp",)),
                          ("bench", ("*.h", "*.cc"))):
        base = root / sub
        if not base.is_dir():
            continue
        for pattern in patterns:
            files.extend(sorted(base.rglob(pattern)))
    return files


def run(root: pathlib.Path) -> int:
    fault_h = root / "src" / "common" / "fault.h"
    metrics_h = root / "src" / "obs" / "metrics.h"
    registry = parse_registry(fault_h.read_text())
    metric_registry = parse_registry(
        metrics_h.read_text(), METRIC_REGISTRY,
        "kKnownMetrics in src/obs/metrics.h")
    violations = check_registry(registry, fault_h)
    violations.extend(check_registry(
        metric_registry, metrics_h, "metric-name", "kKnownMetrics"))
    used_sites: Set[str] = set()
    used_metrics: Set[str] = set()
    for path in gather(root):
        violations.extend(lint_file(path, registry, used_sites,
                                    metric_registry, used_metrics))
    for entry in registry:
        if entry not in used_sites:
            violations.append(Violation(
                fault_h, 1, "fault-site-unused",
                f'registry entry "{entry}" is evaluated by no injection '
                "point — remove it or add the site"))
    for entry in metric_registry:
        if entry not in used_metrics:
            violations.append(Violation(
                metrics_h, 1, "metric-name-unused",
                f'registry entry "{entry}" is resolved by no call site — '
                "remove it or add the instrumentation"))
    for v in violations:
        print(v, file=sys.stderr)
    if violations:
        print(f"kdash_lint: {len(violations)} violation(s)", file=sys.stderr)
        return 1
    return 0


FIXTURE_HEADER = re.compile(r"//\s*kdash-lint-fixture:\s*expect=([a-z,-]+)")


def selftest(root: pathlib.Path) -> int:
    """Run every fixture under tests/lint_fixtures/ and compare the set of
    fired rules against the fixture's declared expectation."""
    fixture_dir = root / "tests" / "lint_fixtures"
    fixtures = sorted(fixture_dir.glob("*.cc"))
    if not fixtures:
        print(f"kdash_lint: no fixtures in {fixture_dir}", file=sys.stderr)
        return 1
    registry = parse_registry((root / "src" / "common" / "fault.h")
                              .read_text())
    metric_registry = parse_registry(
        (root / "src" / "obs" / "metrics.h").read_text(), METRIC_REGISTRY,
        "kKnownMetrics in src/obs/metrics.h")
    failures = 0
    for fixture in fixtures:
        header = FIXTURE_HEADER.search(fixture.read_text())
        if header is None:
            print(f"FAIL {fixture.name}: missing "
                  "`// kdash-lint-fixture: expect=...` header",
                  file=sys.stderr)
            failures += 1
            continue
        expected = set(header.group(1).split(",")) - {"clean"}
        got = {v.rule for v in lint_file(fixture, registry, set(),
                                         metric_registry, set())}
        if got == expected:
            print(f"ok   {fixture.name}: {sorted(got) or ['clean']}")
        else:
            print(f"FAIL {fixture.name}: expected {sorted(expected)}, "
                  f"got {sorted(got)}", file=sys.stderr)
            failures += 1
    if failures:
        print(f"kdash_lint selftest: {failures} fixture(s) failed",
              file=sys.stderr)
        return 1
    print(f"kdash_lint selftest: {len(fixtures)} fixtures passed")
    return 0


def main(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=pathlib.Path,
                        default=pathlib.Path(__file__).resolve().parent.parent)
    parser.add_argument("--selftest", action="store_true",
                        help="run the fixture suite instead of linting")
    args = parser.parse_args(argv)
    if args.selftest:
        return selftest(args.root)
    return run(args.root)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
