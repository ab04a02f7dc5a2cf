#!/usr/bin/env python3
"""Rank-privacy static checker for Machine::local_phase bodies.

Every ``machine.local_phase([&](int rank) { ... })`` body runs once per
virtual processor, possibly concurrently under the threaded execution
policy (ExecPolicy::threaded).  The safety contract -- previously enforced
only by a manual audit (see DESIGN.md, "Threaded execution") -- is that
each rank's body writes only rank-private storage:

  * locally-declared variables (including for-loop variables, inner-lambda
    parameters and structured bindings);
  * expressions indexed by the body's rank parameter (``stats[rank]``,
    ``out.vector.local(rank)``, ...);
  * references/spans whose initializer is itself rank-private.

This pass walks every local_phase body in src/core, src/coll, src/plan and
src/dist and reports any mutation (assignment, compound assignment,
increment, or a mutating container-method call) whose target is captured
shared state that is not rank-indexed.

Two body-extraction engines:
  * libclang (python bindings + a loadable libclang), when available: lambda
    bodies are located from the AST of each translation unit, so macro
    tricks or unusual formatting cannot hide a body;
  * a pure-python tokenizer fallback (always available): bodies are located
    by scanning for ``local_phase`` and brace-matching the lambda.

Both engines feed the same analysis core.  Exit status 1 on any violation.

A deliberate shared write can be waived with a trailing comment on the
mutating line::

    global_tally += x;  // rank-privacy: allow -- serialized by phase mutex

Usage: rank_privacy.py [repo_root] [--engine=auto|clang|python] [-v]
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

SCAN_DIRS = ("src/core", "src/coll", "src/plan", "src/dist")
WAIVER = "rank-privacy: allow"

# Container/refcount methods that mutate their receiver.
MUTATING_METHODS = {
    "push_back", "emplace_back", "pop_back", "resize", "assign", "clear",
    "insert", "emplace", "erase", "reserve", "swap", "append", "fill",
    "push_front", "pop_front",
}

ASSIGN_RE = re.compile(
    r"(?<![=!<>+\-*/%&|^])=(?![=])"  # plain '=' that is not part of a
)                                    # comparison or compound operator
COMPOUND_RE = re.compile(r"(\+=|-=|\*=|/=|%=|&=|\|=|\^=|<<=|>>=)")
IDENT_RE = re.compile(r"[A-Za-z_]\w*")

# A declaration: optional qualifiers, a type (identifier chain possibly
# with template args / namespace / cv / ref / ptr), then the declared name.
DECL_RE = re.compile(
    r"^(?:const\s+|constexpr\s+|static\s+)*"
    r"(?:auto|unsigned|signed|bool|char|short|int|long|float|double|"
    r"std::\w[\w:]*|[A-Za-z_]\w*(?:::\w+)+|[A-Za-z_]\w*_t\b|"
    r"[A-Z]\w*)"
    r"(?:\s*<[^;={}]*>)?"
    r"(?:\s+|\s*[&*]+\s*)"
    r"(?:const\s+)?"
    r"([A-Za-z_]\w*)\s*([=({;,]|$)"
)
BINDING_RE = re.compile(r"^(?:const\s+)?auto\s*[&]*\s*\[([^\]]+)\]\s*=")
LAMBDA_PARAM_RE = re.compile(r"\[[^\]]*\]\s*\(([^)]*)\)")
RANGE_FOR_RE = re.compile(
    r"^(?:const\s+)?[\w:<>,\s]+?([&]*)\s*([A-Za-z_]\w*)\s*"
    r"(?<!:):(?!:)\s*(.+)$",
    re.S,
)

CALL_SITE_RE = re.compile(
    r"(?:machine|m)\s*\.\s*local_phase\s*\(\s*\[[^\]]*\]\s*\(\s*"
    r"(?:int|auto)\s+([A-Za-z_]\w*)\s*\)"
)


def strip_comments_and_strings(text: str) -> str:
    """Blanks out comments and literals, preserving offsets and newlines."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            j = n if j < 0 else j
            out.append(" " * (j - i))
            i = j
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            j = n if j < 0 else j + 2
            out.append("".join(ch if ch == "\n" else " " for ch in text[i:j]))
            i = j
        elif c in "\"'":
            q = c
            j = i + 1
            while j < n and text[j] != q:
                j += 2 if text[j] == "\\" else 1
            j = min(j + 1, n)
            out.append(q + " " * (j - i - 2) + (q if j - i >= 2 else ""))
            i = j
        else:
            out.append(c)
            i += 1
    return "".join(out)


def match_brace(text: str, open_idx: int) -> int:
    """Index just past the brace matching text[open_idx] ('{')."""
    depth = 0
    for i in range(open_idx, len(text)):
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
            if depth == 0:
                return i + 1
    return len(text)


def split_statements(body: str):
    """Yields (offset, stmt) pairs: top-level ';'-terminated statements plus
    the headers of for/if/while and nested blocks, recursively flattened.
    Parenthesized regions keep their ';' (for-loop headers are re-split)."""
    stmts = []

    def walk(text: str, base: int) -> None:
        i, n, start = 0, len(text), 0
        depth = 0
        while i < n:
            c = text[i]
            if c == "(" or c == "[":
                depth += 1
            elif c == ")" or c == "]":
                depth -= 1
            elif c == "{":
                header = text[start:i]
                if header.strip():
                    stmts.append((base + start, header))
                end = match_brace(text, i)
                walk(text[i + 1:end - 1], base + i + 1)
                i = end
                start = i
                continue
            elif c == ";" and depth == 0:
                stmt = text[start:i]
                if stmt.strip():
                    stmts.append((base + start, stmt))
                start = i + 1
            i += 1
        tail = text[start:n]
        if tail.strip():
            stmts.append((base + start, tail))

    walk(body, 0)
    return stmts


def split_head(s: str):
    """For a `for/while/if/switch (...)...` statement, returns the
    paren-matched header content and whatever follows the close paren
    (a brace-less body); None when `s` is not such a statement."""
    m = re.match(r"^(?:for|while|if|switch)\s*\(", s)
    if not m:
        return None
    depth = 0
    for i in range(m.end() - 1, len(s)):
        if s[i] == "(":
            depth += 1
        elif s[i] == ")":
            depth -= 1
            if depth == 0:
                return s[m.end():i], s[i + 1:]
    return s[m.end():], ""


def declared_names(stmt: str):
    """Names a statement declares (variables, bindings, loop vars, inner
    lambda parameters)."""
    names = []
    s = stmt.strip()
    # for (init; ...;) / while (...) headers: analyze the inside.
    head = split_head(s)
    if head is not None:
        inner, rest = head
        if ";" not in inner:
            rf = RANGE_FOR_RE.match(inner.strip())
            if rf:
                names.append(
                    ("range_for", rf.group(2), rf.group(1), rf.group(3)))
                names.extend(declared_names(rest))
                return names
        for part in inner.split(";"):
            names.extend(declared_names(part))
        names.extend(declared_names(rest))
        return names
    b = BINDING_RE.match(s)
    if b:
        init = s.split("=", 1)[1] if "=" in s else ""
        for nm in b.group(1).split(","):
            names.append(("decl", nm.strip().lstrip("&").strip(), "", init))
        return names
    d = DECL_RE.match(s)
    if d:
        ref = "&" if re.search(r"[&]\s*" + re.escape(d.group(1)), s[:d.end()]) else ""
        init = s[d.end():] if d.group(2) in "=({" else ""
        names.append(("decl", d.group(1), ref, init))
        # Comma-chained declarators are rare in this codebase; the first
        # name is what matters for privacy.
    for m in LAMBDA_PARAM_RE.finditer(s):
        for param in m.group(1).split(","):
            pm = re.match(r".*?([A-Za-z_]\w*)\s*$", param.strip())
            if pm:
                names.append(("decl", pm.group(1), "", "rank_private"))
    return names


def base_identifier(expr: str) -> str:
    """First identifier of an lvalue chain: '(*out)[i].x' -> 'out'."""
    expr = expr.strip().lstrip("*&(").strip()
    m = IDENT_RE.search(expr)
    return m.group(0) if m else ""


KEYWORDS = {
    "if", "for", "while", "switch", "return", "else", "const", "constexpr",
    "auto", "static", "case", "break", "continue", "sizeof", "new", "delete",
    "true", "false", "this", "do",
}


class BodyAnalyzer:
    """Token-level write analysis of one local_phase body."""

    def __init__(self, rank_var: str):
        self.rank_var = rank_var
        self.private: set[str] = {rank_var}
        self.violations: list[tuple[int, str]] = []

    def is_rank_reachable(self, expr: str) -> bool:
        if re.search(r"\b" + re.escape(self.rank_var) + r"\b", expr):
            return True
        base = base_identifier(expr)
        return base in self.private

    def note_declarations(self, stmt: str) -> None:
        for kind, name, ref, init in declared_names(stmt):
            if not name or name in KEYWORDS:
                continue
            if kind == "range_for":
                # By-value loop vars are copies (private); by-reference loop
                # vars inherit the privacy of the range they walk.
                if not ref or self.is_rank_reachable(init):
                    self.private.add(name)
                continue
            if ref and init != "rank_private" and not self.is_rank_reachable(init):
                continue  # shared alias: stays non-private
            self.private.add(name)

    def check_statement(self, offset: int, stmt: str) -> None:
        s = stmt.strip()
        if not s:
            return
        self.note_declarations(s)
        # Only the non-declaration part of the statement can mutate shared
        # state; a declaration's '=' initializes a fresh (private) object.
        if DECL_RE.match(s) or BINDING_RE.match(s):
            return
        head = split_head(s)
        if head is not None:
            inner, rest = head
            for part in inner.split(";"):
                self.check_mutations(offset, part)
            self.check_statement(offset, rest)
            return
        self.check_mutations(offset, s)

    def check_mutations(self, offset: int, s: str) -> None:
        s = s.strip()
        if not s or DECL_RE.match(s) or BINDING_RE.match(s):
            return
        # x = ... / x += ...
        m = COMPOUND_RE.search(s) or ASSIGN_RE.search(s)
        if m:
            lhs = s[:m.start()]
            if lhs.strip() and not self.is_rank_reachable(lhs):
                self.violations.append((offset, s))
            return
        # ++x / x++ / --x / x-- -- the operand may contain nested casts
        # (e.g. ++out.counters[static_cast<std::size_t>(rank)].x), which a
        # regex cannot bracket-match, so the reachability test widens to the
        # rest of the (';'-terminated) statement.
        for m in re.finditer(r"(?:\+\+|--)\s*(?=[A-Za-z_])", s):
            if not self.is_rank_reachable(s[m.end():]):
                self.violations.append((offset, s))
                return
        for m in re.finditer(r"([A-Za-z_][\w.\[\]>-]*)\s*(?:\+\+|--)", s):
            if not self.is_rank_reachable(m.group(1)):
                self.violations.append((offset, s))
                return
        # obj.chain.method( ... ) with a mutating method
        for m in re.finditer(r"([A-Za-z_]\w*(?:[\w.\[\]<>():-]*?))\.(\w+)\s*\(", s):
            if m.group(2) in MUTATING_METHODS:
                if not self.is_rank_reachable(m.group(1)):
                    self.violations.append((offset, s))
                    return


def find_bodies_python(clean: str):
    """(rank_var, body_start, body_end) for each local_phase lambda, via
    scanning + brace matching."""
    bodies = []
    for m in CALL_SITE_RE.finditer(clean):
        open_idx = clean.find("{", m.end())
        if open_idx < 0:
            continue
        end = match_brace(clean, open_idx)
        bodies.append((m.group(1), open_idx + 1, end - 1))
    return bodies


def find_bodies_clang(path: Path, clean: str, repo: Path):
    """Locate local_phase lambda bodies from the AST.  Returns None when
    libclang is unavailable (caller falls back to the scanner)."""
    try:
        from clang import cindex  # type: ignore
    except ImportError:
        return None
    try:
        index = cindex.Index.create()
    except Exception:
        return None
    args = ["-std=c++20", "-I", str(repo / "src"), "-x", "c++"]
    try:
        tu = index.parse(str(path), args=args)
    except Exception:
        return None

    bodies = []

    def visit(node):
        if (node.kind == cindex.CursorKind.CALL_EXPR
                and node.spelling == "local_phase"):
            for child in node.walk_preorder():
                if child.kind == cindex.CursorKind.LAMBDA_EXPR:
                    rank_var = "rank"
                    for p in child.get_children():
                        if p.kind == cindex.CursorKind.PARM_DECL:
                            rank_var = p.spelling or rank_var
                    ext = child.extent
                    start = ext.start.offset
                    end = ext.end.offset
                    open_idx = clean.find("{", start)
                    if 0 <= open_idx < end:
                        bodies.append((rank_var, open_idx + 1,
                                       match_brace(clean, open_idx) - 1))
                    break
        for child in node.get_children():
            visit(child)

    visit(tu.cursor)
    return bodies


def line_of(text: str, offset: int) -> int:
    return text.count("\n", 0, offset) + 1


def check_file(path: Path, repo: Path, engine: str, verbose: bool):
    raw = path.read_text(encoding="utf-8", errors="replace")
    if "local_phase" not in raw:
        return [], 0
    clean = strip_comments_and_strings(raw)
    bodies = None
    used = "python"
    if engine in ("auto", "clang"):
        bodies = find_bodies_clang(path, clean, repo)
        if bodies is not None:
            used = "clang"
    if bodies is None:
        if engine == "clang":
            print(f"error: --engine=clang requested but libclang is "
                  f"unavailable", file=sys.stderr)
            sys.exit(2)
        bodies = find_bodies_python(clean)
    if verbose and bodies:
        print(f"  {path.relative_to(repo)}: {len(bodies)} local_phase "
              f"body(ies) [{used}]")

    raw_lines = raw.splitlines()
    findings = []
    for rank_var, start, end in bodies:
        analyzer = BodyAnalyzer(rank_var)
        for offset, stmt in split_statements(clean[start:end]):
            analyzer.check_statement(start + offset, stmt)
        for offset, stmt in analyzer.violations:
            line = line_of(clean, offset)
            src_line = raw_lines[line - 1] if line - 1 < len(raw_lines) else ""
            if WAIVER in src_line:
                continue
            findings.append(
                (path, line,
                 f"write to shared state inside local_phase (rank var "
                 f"'{rank_var}'): {' '.join(stmt.split())[:100]}"))
    return findings, len(bodies)


def selftest() -> int:
    """Seeds one violation per defect class into synthetic bodies and checks
    the analyzer flags exactly the bad ones (mutation testing for the
    checker itself; runs in CI alongside the sweep)."""
    cases = [
        ("shared assign",
         "machine.local_phase([&](int rank) { total = 5; });", 1),
        ("shared compound",
         "machine.local_phase([&](int rank) { acc += local[0]; });", 1),
        ("shared push_back",
         "machine.local_phase([&](int rank) { log.push_back(1); });", 1),
        ("shared increment",
         "machine.local_phase([&](int rank) { ++counter; });", 1),
        ("shared alias write",
         "machine.local_phase([&](int rank) { auto& a = shared; a = 1; });",
         1),
        ("rank-indexed ok",
         "machine.local_phase([&](int rank) { slots[rank] = 1; });", 0),
        ("local ok",
         "machine.local_phase([&](int rank) { int x = 0; x += 2; });", 0),
        ("rank-ref alias ok",
         "machine.local_phase([&](int rank) {"
         " auto& a = slots[rank]; a.push_back(1); });", 0),
        ("cast-indexed ok",
         "machine.local_phase([&](int rank) {"
         " out[static_cast<std::size_t>(rank)].resize(4); });", 0),
    ]
    bad = 0
    for name, src, want in cases:
        clean = strip_comments_and_strings(src)
        got = 0
        for rank_var, s, e in find_bodies_python(clean):
            analyzer = BodyAnalyzer(rank_var)
            for off, stmt in split_statements(clean[s:e]):
                analyzer.check_statement(off, stmt)
            got += len(analyzer.violations)
        if got != want:
            bad += 1
            print(f"selftest MISMATCH: {name}: want {want} got {got}")
    print(f"rank-privacy selftest: {'FAILED' if bad else 'passed'} -- "
          f"{len(cases)} case(s), {bad} mismatch(es)")
    return 1 if bad else 0


def main() -> int:
    repo = Path(__file__).resolve().parent.parent
    engine = "auto"
    verbose = False
    for arg in sys.argv[1:]:
        if arg == "--selftest":
            return selftest()
        if arg.startswith("--engine="):
            engine = arg.split("=", 1)[1]
        elif arg in ("-v", "--verbose"):
            verbose = True
        else:
            repo = Path(arg).resolve()
    if engine not in ("auto", "clang", "python"):
        print(f"error: unknown engine '{engine}'", file=sys.stderr)
        return 2

    findings = []
    bodies = 0
    files = 0
    for d in SCAN_DIRS:
        root = repo / d
        if not root.is_dir():
            continue
        for path in sorted(root.rglob("*.hpp")) + sorted(root.rglob("*.cpp")):
            f, b = check_file(path, repo, engine, verbose)
            findings.extend(f)
            bodies += b
            files += 1

    for path, line, msg in findings:
        print(f"{path.relative_to(repo)}:{line}: {msg}")

    status = "FAILED" if findings else "passed"
    print(f"rank-privacy: {status} -- {bodies} local_phase body(ies) across "
          f"{files} file(s), {len(findings)} violation(s)")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
