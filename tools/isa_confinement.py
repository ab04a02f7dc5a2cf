#!/usr/bin/env python3
"""ISA confinement check for the built pup library (x86-64).

The library compiles for the baseline x86-64 ISA.  The native kernel
path's AVX2 code lives in functions marked target("avx2") under
``pup::kernels::(anonymous namespace)::avx2`` (src/core/kernels/), which
only the runtime cpuid check lets run.  An AVX instruction anywhere else
-- a scalar fallback, a dispatcher, or a weak inline function such as
``pup::detail::contract_failure`` that the linker may keep from any
object -- would raise SIGILL on a CPU without AVX instead of running.

This check disassembles every object of the archive (``objdump -d``) and
fails if any function outside the allow-list holds a VEX- or
EVEX-encoded instruction: an encoding that starts with the C4/C5/62
escape, a v-prefixed mnemonic (vzeroupper included), or a %ymm/%zmm
operand.  Weak and COMDAT functions are disassembled like any other.

Usage: isa_confinement.py [--objdump PATH] LIBRARY...
       isa_confinement.py --selftest

Exit status 0 when clean, 1 on any violation, 2 when the disassembly
cannot be produced or holds no function at all.
"""

from __future__ import annotations

import re
import subprocess
import sys

# Namespaces whose functions may hold AVX code (after anonymous namespaces
# are spelled "{anon}" and template arguments, parameter lists and clone
# suffixes are dropped from the demangled name).
ALLOWED_PREFIXES = ("pup::kernels::{anon}::avx2::",)

FUNC_RE = re.compile(r"^[0-9a-f]+ <(.+)>:$")
MEMBER_RE = re.compile(r"^(\S+):\s+file format ")
# Legacy prefixes that may precede a VEX/EVEX escape byte.
SKIP_PREFIXES = {"26", "2e", "36", "3e", "64", "65", "67"}
VEX_ESCAPES = {"c4", "c5", "62"}
AVX_OPERAND_RE = re.compile(r"%[yz]mm\d")


def base_name(demangled: str) -> str:
    """The qualified name of a function, without return type, template
    arguments, parameters or clone suffix."""
    name = demangled.replace("(anonymous namespace)", "{anon}")
    out = []
    depth = 0
    for ch in name:
        if ch in "<([":
            depth += 1
        elif ch in ">)]":
            depth -= 1
        elif depth == 0:
            out.append(ch)
    return "".join(out).strip().split(" ")[-1]


def allowed(demangled: str) -> bool:
    return base_name(demangled).startswith(ALLOWED_PREFIXES)


def is_avx(encoding: str, text: str) -> bool:
    """True when one disassembled instruction is VEX- or EVEX-encoded."""
    for byte in encoding.split():
        if byte not in SKIP_PREFIXES:
            if byte in VEX_ESCAPES:
                return True
            break
    mnemonic = text.split(" ", 1)[0]
    return mnemonic.startswith("v") or bool(AVX_OPERAND_RE.search(text))


def scan(disassembly: str) -> tuple[list[str], int, int]:
    """Returns (violations, functions seen, allowed functions using AVX)."""
    violations = []
    functions = 0
    allowed_avx = set()
    member = "?"
    func = None
    flagged = False
    for line in disassembly.splitlines():
        m = MEMBER_RE.match(line)
        if m:
            member = m.group(1)
            continue
        m = FUNC_RE.match(line)
        if m:
            func = m.group(1)
            flagged = False
            functions += 1
            continue
        parts = line.split("\t")
        if func is None or len(parts) < 3 or not parts[0].strip().endswith(":"):
            continue  # not an instruction, or a wrapped encoding line
        encoding, text = parts[1], parts[2].strip()
        if flagged or not is_avx(encoding, text):
            continue
        if allowed(func):
            allowed_avx.add(func)
            continue
        violations.append(f"{member}: {func}: {text}")
        flagged = True
    return violations, functions, len(allowed_avx)


def run(objdump: str, libraries: list[str]) -> int:
    try:
        res = subprocess.run([objdump, "-d", "-C", *libraries],
                             capture_output=True, text=True, check=False)
    except OSError as e:
        print(f"isa-confinement: cannot run {objdump}: {e}", file=sys.stderr)
        return 2
    if res.returncode != 0:
        print(f"isa-confinement: {objdump} failed:\n{res.stderr}",
              file=sys.stderr)
        return 2
    violations, functions, allowed_avx = scan(res.stdout)
    if functions == 0:
        print("isa-confinement: no function disassembled", file=sys.stderr)
        return 2
    for v in violations:
        print(f"AVX outside the gated kernels: {v}")
    status = "FAILED" if violations else "passed"
    print(f"isa-confinement: {status} -- {functions} function(s), "
          f"{allowed_avx} gated AVX2 function(s), "
          f"{len(violations)} violation(s)")
    return 1 if violations else 0


def selftest() -> int:
    """Seeds one violation per defect class into synthetic disassembly and
    checks the scan flags exactly the bad functions."""
    head = ("\nkernels.cpp.o:     file format elf64-x86-64\n\n"
            "Disassembly of section .text:\n\n")
    clean = ("0000000000000000 <pup::kernels::scalar::mask_count("
             "unsigned char const*, unsigned long)>:\n"
             "   0:\t48 85 f6             \ttest   %rsi,%rsi\n"
             "   3:\tc3                   \tret\n")
    gated = ("0000000000000010 <pup::kernels::(anonymous namespace)::avx2::"
             "mask_count(unsigned char const*, unsigned long)>:\n"
             "  10:\tc5 f5 74 44 17 e0    \tvpcmpeqb -0x20(%rdi,%rdx,1),"
             "%ymm1,%ymm0\n"
             "  16:\tc5 f8 77             \tvzeroupper\n")
    cases = [
        ("baseline function", clean, 0),
        ("gated AVX2 function", gated, 0),
        ("gated template and clone",
         "0000000000000020 <unsigned long pup::kernels::(anonymous namespace)"
         "::avx2::gather<8ul>(unsigned char const*) [clone .cold]>:\n"
         "  20:\tc5 fe 6f 06          \tvmovdqu (%rsi),%ymm0\n", 0),
        ("gated wrapper of a generic template",
         "0000000000000030 <pup::kernels::(anonymous namespace)::avx2::Build<"
         "&(void pup::kernels::(anonymous namespace)::widen_generic<1ul, "
         "true, true>(long*, long*, std::byte const*, unsigned long))>::run("
         "long*, long*, std::byte const*, unsigned long)>:\n"
         "  30:\tc4 e2 7d 31 06       \tvpmovzxbq (%rsi),%ymm0\n", 0),
        ("ymm in a scalar fallback",
         clean + "   4:\tc5 fe 6f 06          \tvmovdqu (%rsi),%ymm0\n", 1),
        ("vzeroupper in a weak inline function",
         "0000000000000040 <pup::detail::contract_failure(char const*, "
         "char const*, char const*, int, std::__cxx11::basic_string<char, "
         "std::char_traits<char>, std::allocator<char> > const&)>:\n"
         "  40:\tc5 f8 77             \tvzeroupper\n", 1),
        ("VEX-encoded BMI2 in a dispatcher",
         "0000000000000050 <pup::kernels::mask_count(unsigned char const*, "
         "unsigned long)>:\n"
         "  50:\tc4 e2 f9 f7 c0       \tshlx   %rax,%rax,%rax\n", 1),
        ("xmm VEX form in generic code",
         "0000000000000060 <pup::kernels::(anonymous namespace)::"
         "gather_generic<8ul>(unsigned char const*)>:\n"
         "  60:\tc5 f9 6f 06          \tvmovdqa (%rsi),%xmm0\n", 1),
        ("generic template whose argument names the gated namespace",
         "0000000000000070 <void pup::kernels::(anonymous namespace)::apply<"
         "&pup::kernels::(anonymous namespace)::avx2::mask_count>(long*)>:\n"
         "  70:\tc5 fd ef c0          \tvpxor  %ymm0,%ymm0,%ymm0\n", 1),
        ("legacy SSE stays allowed",
         "0000000000000080 <pup::kernels::(anonymous namespace)::"
         "mask_widen_generic(unsigned char const*, unsigned long, long*)>:\n"
         "  80:\t66 0f 6f 06          \tmovdqa (%rsi),%xmm0\n"
         "  84:\tf3 45 0f b8 c0       \tpopcnt %r8d,%r8d\n", 0),
    ]
    bad = 0
    for name, body, want in cases:
        got = len(scan(head + body)[0])
        if got != want:
            bad += 1
            print(f"selftest MISMATCH: {name}: want {want} got {got}")
    print(f"isa-confinement selftest: {'FAILED' if bad else 'passed'} -- "
          f"{len(cases)} case(s), {bad} mismatch(es)")
    return 1 if bad else 0


def main(argv: list[str]) -> int:
    objdump = "objdump"
    libraries = []
    args = iter(argv)
    for arg in args:
        if arg == "--selftest":
            return selftest()
        if arg == "--objdump":
            objdump = next(args, objdump)
        else:
            libraries.append(arg)
    if not libraries:
        print(__doc__, file=sys.stderr)
        return 2
    return run(objdump, libraries)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
