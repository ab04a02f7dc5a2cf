#!/usr/bin/env python3
"""Repo-specific lint for the pup library.

Rules (kept deliberately few and sharp -- each one encodes a layering or
contract decision the compiler cannot see):

1. transport-encapsulation: the Mailbox and the Machine transport calls
   (post / receive / receive_required / has_message) may be used only inside
   src/sim/ and src/coll/.  Everything above the collectives layer moves
   data through annotated collectives, which is what lets the protocol
   validator reason about message flow.

2. api-preconditions: every header reachable from the umbrella header
   core/api.hpp must validate its public entry points -- the header (or its
   sibling .cpp) must contain at least one PUP_REQUIRE, or carry an explicit
   waiver comment:  // lint: allow-no-preconditions

3. plan-layering: src/plan/ sits on top of the library -- it may include
   plan/, core/, dist/, coll/, sim/, support/, and the static-analysis
   headers (analysis/static/, so the resilient executor can verify plans in
   debug builds), and nothing outside src/plan/ may include a plan/ header
   (core must never grow a dependency on the plan layer; the existing entry
   points stay plan-free).  Exception: src/analysis/static/ consumes
   compiled plans by design -- it is a diagnostic layer sitting above
   src/plan/, and nothing in src/ outside tests/tools depends on it except
   src/plan/resilient.*.

4. fault-layering: fault injection (sim/fault.hpp) is a transport-boundary
   concern.  Only src/sim/, the reliable layer (src/coll/reliable.*), and
   the operation-level recovery executor (src/plan/resilient.*) may
   reference the fault headers or the FaultPlan type; everything else must
   stay oblivious -- recovery is the reliable/recovery layers' job, and
   callers configure faults through Machine::set_fault_plan only.  (The
   chaos-soak harness src/service/chaos.* is allowlisted: its purpose is
   deriving and installing seeded fault schedules.  So is the environment
   reader src/support/env.*, which validates a PUP_FAULTS spec at startup.)

5. epoch-layering: epoch checkpoints (sim/epoch.hpp, Machine::
   checkpoint_epoch / rollback_epoch) are the recovery layer's mechanism.
   Only src/sim/, src/coll/reliable.*, and src/plan/resilient.* may
   reference them; algorithms must not roll their own state back
   (mark_epoch_boundary, a pure annotation, stays callable from anywhere).

6. paired-annotation: phase annotations in src/core, src/coll, src/plan,
   and src/service must be scope-balanced and use registered names.  The
   static verifier's trace cross-check aligns executions with compiled
   schedules by these annotations, so an unbalanced or unregistered phase
   breaks the alignment invisibly.  Concretely: (a) a PhaseScope must be a
   named local (a temporary closes its phase on the same statement);
   (b) raw annotate_phase_begin/annotate_phase_end calls must balance in
   LIFO order with matching arguments within each file (library code
   outside src/sim/ uses PhaseScope, so there should be none); (c) every
   phase name literal, and every string literal passed to the point-event
   entry Machine::annotate_event, must appear in REGISTERED_PHASES below --
   register new phases and events here when introducing them.

7. service-layering: src/service/ is the topmost layer -- it may include
   service/, plan/, core/, dist/, coll/, sim/, and support/ headers (it
   consumes compiled plans, the resilient executor, and the machine), and
   nothing below it -- src/ outside src/service/ -- may include a
   service/ header.  The library must stay usable without the server.

8. service-event-registry: every string literal in src/ naming a
   service.* or plan.cancel* observer event must be registered in
   REGISTERED_PHASES, even when the name reaches annotate_event through a
   variable (the cache hit/miss and deadline/cancel/watchdog trip events
   are selected by a ternary, which rule 6's literal check cannot see).

9. kernels-layering: src/core/kernels/ is the bottommost compute layer --
   it may include only support/ and its own headers, never sim/, dist/,
   coll/, or plan/.  Kernels operate on raw spans their callers hand them;
   digests and modeled costs must stay invariant under kernels::set_path,
   which only holds if the kernels cannot reach any layer that accounts or
   ships data.

10. env-edge: the library never reads the process environment.  Under
   src/, only src/support/env.* -- the strict PUP_* reader that process
   entry points (the test main, examples, benches) call once at startup --
   may include support/env.hpp or call getenv; everything else takes its
   configuration from its caller (MachineOptions, set_fault_plan,
   Server::Options, kernels::set_path).

Exit status 0 when clean; 1 with one "file:line: rule: message" per finding.
`lint.py --selftest` seeds one violation per rule-6 defect class into a
temporary tree and checks each is reported.
"""

from __future__ import annotations

import re
import sys
import tempfile
from pathlib import Path

WAIVER = "lint: allow-no-preconditions"

TRANSPORT_ALLOWED_DIRS = ("src/sim", "src/coll")
TRANSPORT_PATTERNS = [
    (re.compile(r'#\s*include\s*"sim/mailbox\.hpp"'), "includes sim/mailbox.hpp"),
    (re.compile(r"\bMailbox\b"), "names sim::Mailbox"),
    (re.compile(r"\.\s*post\s*\("), "calls Machine::post"),
    (re.compile(r"\.\s*receive\s*\("), "calls Machine::receive"),
    (re.compile(r"\.\s*receive_required\s*\("), "calls Machine::receive_required"),
    (re.compile(r"\.\s*has_message\s*\("), "calls Machine::has_message"),
]

COMMENT_RE = re.compile(r"^\s*(//|\*)")


def strip_block_comments(text: str) -> str:
    """Blanks /* ... */ regions, preserving line structure."""
    out = []
    in_block = False
    i = 0
    while i < len(text):
        if not in_block and text.startswith("/*", i):
            in_block = True
            i += 2
            out.append("  ")
        elif in_block and text.startswith("*/", i):
            in_block = False
            i += 2
            out.append("  ")
        else:
            out.append(text[i] if text[i] == "\n" or not in_block else " ")
            i += 1
    return "".join(out)


def check_transport_encapsulation(root: Path) -> list[str]:
    findings = []
    for path in sorted((root / "src").rglob("*.[ch]pp")):
        rel = path.relative_to(root).as_posix()
        if any(rel.startswith(d + "/") for d in TRANSPORT_ALLOWED_DIRS):
            continue
        text = strip_block_comments(path.read_text())
        for lineno, line in enumerate(text.splitlines(), start=1):
            if COMMENT_RE.match(line):
                continue
            code = line.split("//", 1)[0]
            for pattern, what in TRANSPORT_PATTERNS:
                if pattern.search(code):
                    findings.append(
                        f"{rel}:{lineno}: transport-encapsulation: {what}; "
                        f"direct transport access is restricted to "
                        f"{' and '.join(TRANSPORT_ALLOWED_DIRS)}"
                    )
    return findings


PLAN_ALLOWED_PREFIXES = ("plan/", "core/", "dist/", "coll/", "sim/",
                         "support/", "analysis/static/")
INCLUDE_RE = re.compile(r'#\s*include\s*"([^"]+)"')


def check_plan_layering(root: Path) -> list[str]:
    findings = []
    for path in sorted((root / "src").rglob("*.[ch]pp")):
        rel = path.relative_to(root).as_posix()
        # The static plan analyzer and the service layer consume compiled
        # plans by design; they are the non-plan directories allowed to
        # see plan/ headers (src/service/ has its own stricter rule 7).
        if rel.startswith("src/service/"):
            continue
        in_plan = (rel.startswith("src/plan/")
                   or rel.startswith("src/analysis/static/"))
        text = strip_block_comments(path.read_text())
        for lineno, line in enumerate(text.splitlines(), start=1):
            if COMMENT_RE.match(line):
                continue
            m = INCLUDE_RE.search(line.split("//", 1)[0])
            if not m:
                continue
            inc = m.group(1)
            if in_plan:
                if "/" in inc and not inc.startswith(PLAN_ALLOWED_PREFIXES):
                    findings.append(
                        f"{rel}:{lineno}: plan-layering: src/plan/ may "
                        f"depend only on {', '.join(PLAN_ALLOWED_PREFIXES)} "
                        f"(found \"{inc}\")"
                    )
            elif inc.startswith("plan/"):
                findings.append(
                    f"{rel}:{lineno}: plan-layering: only src/plan/ may "
                    f"include plan/ headers; the core library must not "
                    f"depend on the plan layer (found \"{inc}\")"
                )
    return findings


KERNELS_ALLOWED_PREFIXES = ("support/", "core/kernels/")


def check_kernels_layering(root: Path) -> list[str]:
    """core/kernels/ may include only support/ and its own headers.

    The kernel layer operates on raw spans its callers hand it; letting it
    see machines, distributions, or plans would couple the SIMD
    dispatch to layers that must stay bit-identical regardless of kernel
    path.  (Rule name: kernels-layering.)
    """
    findings = []
    kernels_dir = root / "src" / "core" / "kernels"
    if not kernels_dir.is_dir():
        return findings
    for path in sorted(kernels_dir.rglob("*.[ch]pp")):
        rel = path.relative_to(root).as_posix()
        text = strip_block_comments(path.read_text())
        for lineno, line in enumerate(text.splitlines(), start=1):
            if COMMENT_RE.match(line):
                continue
            m = INCLUDE_RE.search(line.split("//", 1)[0])
            if not m:
                continue
            inc = m.group(1)
            if "/" in inc and not inc.startswith(KERNELS_ALLOWED_PREFIXES):
                findings.append(
                    f"{rel}:{lineno}: kernels-layering: src/core/kernels/ "
                    f"may include only "
                    f"{', '.join(KERNELS_ALLOWED_PREFIXES)} "
                    f"(found \"{inc}\")"
                )
    return findings


# src/service/chaos.* is the seeded chaos-soak harness: deriving and
# installing fault schedules is its entire purpose, so it joins the
# transport-boundary layers on the fault allowlist, as does the environment
# reader src/support/env.*, which parses PUP_FAULTS to reject a malformed
# spec at startup.  The server proper (src/service/server.*) stays
# oblivious per rule 4.
FAULT_ALLOWED = ("src/sim/", "src/coll/reliable.", "src/plan/resilient.",
                 "src/service/chaos.", "src/support/env.")
FAULT_PATTERNS = [
    (re.compile(r'#\s*include\s*"sim/fault\.hpp"'), "includes sim/fault.hpp"),
    (re.compile(r"\bFaultPlan\b"), "names sim::FaultPlan"),
    (re.compile(r"\bFaultRule\b"), "names sim::FaultRule"),
]

EPOCH_ALLOWED = ("src/sim/", "src/coll/reliable.", "src/plan/resilient.")
EPOCH_PATTERNS = [
    (re.compile(r'#\s*include\s*"sim/epoch\.hpp"'), "includes sim/epoch.hpp"),
    (re.compile(r"\bEpochCheckpoint\b"), "names sim::EpochCheckpoint"),
    (re.compile(r"\bcheckpoint_epoch\b"), "calls Machine::checkpoint_epoch"),
    (re.compile(r"\brollback_epoch\b"), "calls Machine::rollback_epoch"),
]


def check_fault_layering(root: Path) -> list[str]:
    findings = []
    for path in sorted((root / "src").rglob("*.[ch]pp")):
        rel = path.relative_to(root).as_posix()
        if any(rel.startswith(p) for p in FAULT_ALLOWED):
            continue
        text = strip_block_comments(path.read_text())
        for lineno, line in enumerate(text.splitlines(), start=1):
            if COMMENT_RE.match(line):
                continue
            code = line.split("//", 1)[0]
            for pattern, what in FAULT_PATTERNS:
                if pattern.search(code):
                    findings.append(
                        f"{rel}:{lineno}: fault-layering: {what}; fault "
                        f"injection may be referenced only by src/sim/, "
                        f"src/coll/reliable.*, and src/plan/resilient.* -- "
                        f"layers above configure it via "
                        f"Machine::set_fault_plan"
                    )
    return findings


def check_epoch_layering(root: Path) -> list[str]:
    findings = []
    for path in sorted((root / "src").rglob("*.[ch]pp")):
        rel = path.relative_to(root).as_posix()
        if any(rel.startswith(p) for p in EPOCH_ALLOWED):
            continue
        text = strip_block_comments(path.read_text())
        for lineno, line in enumerate(text.splitlines(), start=1):
            if COMMENT_RE.match(line):
                continue
            code = line.split("//", 1)[0]
            for pattern, what in EPOCH_PATTERNS:
                if pattern.search(code):
                    findings.append(
                        f"{rel}:{lineno}: epoch-layering: {what}; epoch "
                        f"checkpoint/rollback may be referenced only by "
                        f"src/sim/, src/coll/reliable.*, and "
                        f"src/plan/resilient.* -- algorithms emit "
                        f"mark_epoch_boundary() at most"
                    )
    return findings


ENV_ALLOWED = "src/support/env."
ENV_PATTERNS = [
    (re.compile(r'#\s*include\s*"support/env\.hpp"'),
     "includes support/env.hpp"),
    (re.compile(r"\bgetenv\s*\("), "calls getenv"),
]


def check_env_edge(root: Path) -> list[str]:
    """Only src/support/env.* may read the environment (rule 10)."""
    findings = []
    for path in sorted((root / "src").rglob("*.[ch]pp")):
        rel = path.relative_to(root).as_posix()
        if rel.startswith(ENV_ALLOWED):
            continue
        text = strip_block_comments(path.read_text())
        for lineno, line in enumerate(text.splitlines(), start=1):
            if COMMENT_RE.match(line):
                continue
            code = line.split("//", 1)[0]
            for pattern, what in ENV_PATTERNS:
                if pattern.search(code):
                    findings.append(
                        f"{rel}:{lineno}: env-edge: {what}; the library "
                        f"never reads the environment -- only "
                        f"src/support/env.* may, for process entry points "
                        f"to call"
                    )
    return findings


REGISTERED_PHASES = {
    "pack.compose", "pack.decompose",
    "ranking.initial", "ranking.final",
    "unpack.requests", "unpack.replies", "unpack.place",
    "plan.compile",
    "plan.cache.hit", "plan.cache.miss", "plan.cache.evict",
    "plan.cache.invalidate",
    "plan.verify",
    "plan.cancel.rollback",
    "reliable.corrupt", "reliable.dedup", "reliable.drain",
    "reliable.heartbeat", "reliable.nak", "reliable.retransmit",
    "service.execute",
    "service.cache.hit", "service.cache.miss",
    "service.brownout.enter", "service.brownout.exit",
    "service.watchdog.trip", "service.deadline.miss",
    "service.cancelled",
}

PHASE_DIRS = ("src/core", "src/coll", "src/plan", "src/service")
PHASE_SCOPE_NAMED_RE = re.compile(
    r"PhaseScope\s+\w+\s*(?:\(|\{)\s*\w+\s*,\s*\"([^\"]+)\"")
PHASE_SCOPE_TEMP_RE = re.compile(r"PhaseScope\s*[({]")
PHASE_BEGIN_RE = re.compile(r"annotate_phase_begin\s*\(\s*([^)]*?)\s*\)")
PHASE_END_RE = re.compile(r"annotate_phase_end\s*\(\s*([^)]*?)\s*\)")
EVENT_LITERAL_RE = re.compile(r'annotate_event\s*\(\s*"([^"]*)"\s*\)')


def check_paired_annotations(root: Path) -> list[str]:
    findings = []
    for d in PHASE_DIRS:
        for path in sorted((root / d).rglob("*.[ch]pp")):
            rel = path.relative_to(root).as_posix()
            text = strip_block_comments(path.read_text())
            stack: list[tuple[int, str]] = []
            for lineno, line in enumerate(text.splitlines(), start=1):
                if COMMENT_RE.match(line):
                    continue
                code = line.split("//", 1)[0]
                named = PHASE_SCOPE_NAMED_RE.search(code)
                if named:
                    name = named.group(1)
                    if name not in REGISTERED_PHASES:
                        findings.append(
                            f"{rel}:{lineno}: paired-annotation: phase "
                            f"\"{name}\" is not registered; add it to "
                            f"REGISTERED_PHASES in tools/lint.py"
                        )
                elif PHASE_SCOPE_TEMP_RE.search(code):
                    findings.append(
                        f"{rel}:{lineno}: paired-annotation: temporary "
                        f"PhaseScope closes its phase on the same "
                        f"statement; bind it to a named local"
                    )
                for m in EVENT_LITERAL_RE.finditer(code):
                    if m.group(1) not in REGISTERED_PHASES:
                        findings.append(
                            f"{rel}:{lineno}: paired-annotation: event "
                            f"\"{m.group(1)}\" is not registered; add it "
                            f"to REGISTERED_PHASES in tools/lint.py"
                        )
                for m in PHASE_BEGIN_RE.finditer(code):
                    arg = m.group(1).strip()
                    lit = re.fullmatch(r'"([^"]*)"', arg)
                    if lit and lit.group(1) not in REGISTERED_PHASES:
                        findings.append(
                            f"{rel}:{lineno}: paired-annotation: phase "
                            f"\"{lit.group(1)}\" is not registered; add it "
                            f"to REGISTERED_PHASES in tools/lint.py"
                        )
                    stack.append((lineno, arg))
                for m in PHASE_END_RE.finditer(code):
                    arg = m.group(1).strip()
                    if not stack:
                        findings.append(
                            f"{rel}:{lineno}: paired-annotation: "
                            f"annotate_phase_end({arg}) without a matching "
                            f"annotate_phase_begin"
                        )
                    elif stack[-1][1] != arg:
                        findings.append(
                            f"{rel}:{lineno}: paired-annotation: "
                            f"annotate_phase_end({arg}) closes "
                            f"annotate_phase_begin({stack[-1][1]}) from "
                            f"line {stack[-1][0]}; phases must nest"
                        )
                        stack.pop()
                    else:
                        stack.pop()
            for lineno, arg in stack:
                findings.append(
                    f"{rel}:{lineno}: paired-annotation: "
                    f"annotate_phase_begin({arg}) is never closed"
                )
    return findings


# Rule 8 (service-event-registry): the deadline/cancel/brown-out/watchdog
# observer events are emitted through variables (e.g. the trip-cause
# ternary in server.cpp), which rule 6's literal-only check cannot see.
# This sweep closes the gap from the other side: every string literal in
# src/ that names a service.* or plan.cancel* phase must be registered in
# REGISTERED_PHASES, no matter how it reaches annotate_event.
SERVICE_EVENT_LITERAL_RE = re.compile(
    r'"((?:service|plan\.cancel)(?:\.[a-z_]+)+)"')


def check_service_event_registry(root: Path) -> list[str]:
    findings = []
    for path in sorted((root / "src").rglob("*.[ch]pp")):
        rel = path.relative_to(root).as_posix()
        text = strip_block_comments(path.read_text())
        for lineno, line in enumerate(text.splitlines(), start=1):
            if COMMENT_RE.match(line):
                continue
            code = line.split("//", 1)[0]
            for m in SERVICE_EVENT_LITERAL_RE.finditer(code):
                if m.group(1) not in REGISTERED_PHASES:
                    findings.append(
                        f"{rel}:{lineno}: service-event-registry: "
                        f"\"{m.group(1)}\" names a service/plan.cancel "
                        f"observer event but is not in REGISTERED_PHASES; "
                        f"register it in tools/lint.py"
                    )
    return findings


SERVICE_ALLOWED_PREFIXES = ("service/", "plan/", "core/", "dist/", "coll/",
                            "sim/", "support/")


def check_service_layering(root: Path) -> list[str]:
    findings = []
    for path in sorted((root / "src").rglob("*.[ch]pp")):
        rel = path.relative_to(root).as_posix()
        in_service = rel.startswith("src/service/")
        text = strip_block_comments(path.read_text())
        for lineno, line in enumerate(text.splitlines(), start=1):
            if COMMENT_RE.match(line):
                continue
            m = INCLUDE_RE.search(line.split("//", 1)[0])
            if not m:
                continue
            inc = m.group(1)
            if in_service:
                if "/" in inc and not inc.startswith(SERVICE_ALLOWED_PREFIXES):
                    findings.append(
                        f"{rel}:{lineno}: service-layering: src/service/ may "
                        f"depend only on "
                        f"{', '.join(SERVICE_ALLOWED_PREFIXES)} "
                        f"(found \"{inc}\")"
                    )
            elif inc.startswith("service/"):
                findings.append(
                    f"{rel}:{lineno}: service-layering: only src/service/ "
                    f"may include service/ headers; the library below must "
                    f"stay usable without the server (found \"{inc}\")"
                )
    return findings


def api_headers(root: Path) -> list[Path]:
    api = root / "src" / "core" / "api.hpp"
    include_re = re.compile(r'#\s*include\s*"([^"]+)"')
    headers = []
    for line in api.read_text().splitlines():
        if COMMENT_RE.match(line):
            continue
        m = include_re.search(line)
        if m:
            headers.append(root / "src" / m.group(1))
    return headers


def check_api_preconditions(root: Path) -> list[str]:
    findings = []
    for header in api_headers(root):
        rel = header.relative_to(root).as_posix()
        if not header.exists():
            findings.append(f"src/core/api.hpp:1: api-preconditions: "
                            f"includes missing header {rel}")
            continue
        sources = [header]
        sibling = header.with_suffix(".cpp")
        if sibling.exists():
            sources.append(sibling)
        combined = "\n".join(s.read_text() for s in sources)
        if "PUP_REQUIRE" in combined or WAIVER in combined:
            continue
        findings.append(
            f"{rel}:1: api-preconditions: public API header reachable from "
            f"core/api.hpp has no PUP_REQUIRE (add precondition checks or a "
            f"'// {WAIVER}' waiver)"
        )
    return findings


def selftest() -> int:
    """Seeds one violation per rule-6 defect class into a temporary tree
    and checks each is reported exactly once, and a clean file not at all
    (mutation testing for the checker itself)."""
    cases = [
        ("event.cpp",
         'void f(sim::Machine& m) { m.annotate_event("core.bogus"); }',
         'event "core.bogus" is not registered'),
        ("raw.cpp",
         'void f(sim::Machine& m) { m.annotate_phase_begin("pack.compose"); }',
         'annotate_phase_begin("pack.compose") is never closed'),
        ("temp.cpp",
         'void f(sim::Machine& m) { sim::PhaseScope(m, "pack.compose"); }',
         "temporary PhaseScope"),
        ("clean.cpp",
         'void f(sim::Machine& m) {\n'
         '  sim::PhaseScope phase(m, "pack.compose");\n'
         '  m.annotate_event("reliable.nak");\n}',
         None),
    ]
    with tempfile.TemporaryDirectory() as tmp:
        for d in PHASE_DIRS:
            (Path(tmp) / d).mkdir(parents=True)
        for name, code, _ in cases:
            (Path(tmp) / "src" / "core" / name).write_text(code + "\n")
        findings = check_paired_annotations(Path(tmp))
    bad = 0
    for name, _, want in cases:
        got = [f for f in findings if f.startswith(f"src/core/{name}:")]
        ok = (len(got) == 1 and want in got[0]) if want else not got
        if not ok:
            bad += 1
            print(f"selftest MISMATCH: {name}: want {want!r}, got {got}")
    print(f"lint selftest: {'FAILED' if bad else 'passed'} -- "
          f"{len(cases)} case(s), {bad} mismatch(es)")
    return 1 if bad else 0


def main(argv: list[str]) -> int:
    if argv[1:] == ["--selftest"]:
        return selftest()
    root = Path(argv[1]).resolve() if len(argv) > 1 else Path(
        __file__).resolve().parent.parent
    findings = []
    findings += check_transport_encapsulation(root)
    findings += check_api_preconditions(root)
    findings += check_plan_layering(root)
    findings += check_kernels_layering(root)
    findings += check_fault_layering(root)
    findings += check_epoch_layering(root)
    findings += check_env_edge(root)
    findings += check_service_layering(root)
    findings += check_paired_annotations(root)
    findings += check_service_event_registry(root)
    for f in findings:
        print(f)
    if findings:
        print(f"lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print("lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
