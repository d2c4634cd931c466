#!/usr/bin/env python3
"""Repo-convention linter (registered as the `anda_lint` ctest and run
by the lint CI job).

Rules enforced:

  include-root   Quoted #include paths must be src/-rooted: every
                 `#include "X"` in the repo must resolve to src/X.
                 Keeps one canonical spelling per header (no "../"
                 hops, no same-directory shortcuts) so moves are a
                 one-line fix and the include graph greps cleanly.
                 A header sitting next to the including file (test
                 utilities like tests/serve_test_util.h) is allowed.

  no-assert      No bare `assert(...)` under src/. Asserts vanish from
                 every Release build including the sanitizer CI lanes;
                 contracts belong to ANDA_CHECK / ANDA_DCHECK
                 (src/common/check.h), which are exercised there.
                 (static_assert is fine and remains allowed.)

  no-naked-new   No `new` / `delete` expressions under src/. Ownership
                 goes through containers and smart pointers;
                 `= delete` member suppression is of course allowed.

  fn-length      No outermost function body under src/ may run past
                 200 lines, counted from its opening to its closing
                 brace. Lambdas and local blocks count toward their
                 enclosing function, so a function cannot dodge the
                 limit by holding its logic in closures; member
                 functions of a class count one by one. A long
                 function is a set of phases waiting for names.

Usage: tools/anda_lint.py [repo-root]   (defaults to the script's
parent directory). Exits 1 with file:line diagnostics on violations.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

SRC_EXTS = {".cpp", ".h"}
# Directories whose quoted includes must resolve under src/.
INCLUDE_DIRS = ("src", "tests", "tools", "bench", "examples")
# Directories where the assert / new / delete bans apply.
CONTRACT_DIRS = ("src",)

INCLUDE_RE = re.compile(r'^\s*#\s*include\s*"([^"]+)"')
ASSERT_RE = re.compile(r"(?<![\w_])assert\s*\(")
CASSERT_RE = re.compile(r"^\s*#\s*include\s*[<\"](cassert|assert\.h)[>\"]")
NEW_DELETE_RE = re.compile(r"(?<![\w_])(?:new|delete)(?![\w_])")
DELETED_FN_RE = re.compile(r"=\s*delete\b")
MAX_FN_LINES = 200
# Brace heads that open a scope (its members are judged one by one)
# rather than a function body.
SCOPE_HEAD_RE = re.compile(
    r"^(?:typedef\s+)?(?:class|struct|union|enum)\b|\bnamespace\b|"
    r"^extern\s*\"")
TEMPLATE_RE = re.compile(r"^template\s*<")
FN_NAME_RE = re.compile(r"([\w:~]+)\s*\($")


def strip_code(text: str) -> str:
    """Blanks comments, string literals, and char literals, preserving
    line structure so reported line numbers stay accurate."""
    out = []
    i = 0
    n = len(text)
    state = "code"  # code | line_comment | block_comment | string | char
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block_comment"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = "string"
                out.append('"')
                i += 1
                continue
            if c == "'":
                state = "char"
                out.append("'")
                i += 1
                continue
            out.append(c)
        elif state == "line_comment":
            if c == "\n":
                state = "code"
                out.append("\n")
            else:
                out.append(" ")
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append("\n" if c == "\n" else " ")
        elif state in ("string", "char"):
            quote = '"' if state == "string" else "'"
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == quote:
                state = "code"
                out.append(quote)
            elif c == "\n":  # Unterminated (never valid); resync.
                state = "code"
                out.append("\n")
            else:
                out.append(" ")
        i += 1
    return "".join(out)


def strip_template_prefix(head: str) -> str:
    """Drops leading `template <...>` parameter lists from a brace
    head."""
    while TEMPLATE_RE.match(head):
        depth = 0
        for i, c in enumerate(head):
            if c == "<":
                depth += 1
            elif c == ">":
                depth -= 1
                if depth == 0:
                    head = head[i + 1:].lstrip()
                    break
        else:
            break
    return head


def long_functions(code: str) -> list[tuple[int, str, int]]:
    """(first line, name, lines) of every outermost brace block that is
    not a namespace / class / enum scope and spans more than
    MAX_FN_LINES lines. `code` is strip_code() output."""
    # Blank preprocessor lines (with their continuations): macro
    # bodies are not function bodies.
    lines = code.split("\n")
    cont = False
    for i, line in enumerate(lines):
        if cont or line.lstrip().startswith("#"):
            cont = line.rstrip().endswith("\\")
            lines[i] = ""
    code = "\n".join(lines)

    found = []
    stack: list[tuple[str, int, str]] = []  # (kind, line, name)
    head_start = 0
    lineno = 1
    for i, c in enumerate(code):
        if c == "\n":
            lineno += 1
        elif c == "{":
            if any(kind != "scope" for kind, _, _ in stack):
                stack.append(("nested", lineno, ""))
            else:
                head = strip_template_prefix(
                    " ".join(code[head_start:i].split()))
                if SCOPE_HEAD_RE.search(head):
                    stack.append(("scope", lineno, ""))
                else:
                    # The name before the first "(" (none when the
                    # head has no "(": the slice is then empty).
                    m = FN_NAME_RE.search(head[:head.find("(") + 1])
                    name = m.group(1) if m else "block"
                    stack.append(("body", lineno, name))
            head_start = i + 1
        elif c == "}":
            if stack:
                kind, first, name = stack.pop()
                if kind == "body" and lineno - first + 1 > MAX_FN_LINES:
                    found.append((first, name, lineno - first + 1))
            head_start = i + 1
        elif c == ";":
            head_start = i + 1
    return found


def lint_file(path: Path, root: Path, errors: list[str]) -> None:
    rel = path.relative_to(root)
    raw = path.read_text(encoding="utf-8")
    code = strip_code(raw)
    in_src = rel.parts[0] in CONTRACT_DIRS

    # Raw lines for the include check (strip_code blanks the paths).
    for lineno, line in enumerate(raw.splitlines(), start=1):
        m = INCLUDE_RE.match(line)
        if m and not (
            (root / "src" / m.group(1)).is_file()
            or (path.parent / m.group(1)).is_file()
        ):
            errors.append(
                f"{rel}:{lineno}: include-root: \"{m.group(1)}\" does "
                f"not resolve under src/ (includes are src/-rooted)"
            )

    if not in_src:
        return
    for lineno, line in enumerate(code.splitlines(), start=1):
        if CASSERT_RE.match(line) or ASSERT_RE.search(line):
            errors.append(
                f"{rel}:{lineno}: no-assert: use ANDA_CHECK / "
                f"ANDA_DCHECK from common/check.h instead of assert"
            )
        if NEW_DELETE_RE.search(DELETED_FN_RE.sub("", line)):
            errors.append(
                f"{rel}:{lineno}: no-naked-new: raw new/delete; use "
                f"containers or smart pointers"
            )
    for lineno, name, length in long_functions(code):
        errors.append(
            f"{rel}:{lineno}: fn-length: {name} runs {length} lines "
            f"(limit {MAX_FN_LINES}); split it into named phases"
        )


def main(argv: list[str]) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parent.parent
    root = root.resolve()
    files = []
    for d in INCLUDE_DIRS:
        base = root / d
        if base.is_dir():
            files.extend(
                p for p in sorted(base.rglob("*")) if p.suffix in SRC_EXTS
            )
    errors: list[str] = []
    for path in files:
        lint_file(path, root, errors)
    for e in errors:
        print(e)
    print(
        f"anda_lint: {len(files)} files checked, {len(errors)} violation(s)"
    )
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
