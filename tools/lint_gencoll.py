#!/usr/bin/env python3
"""Repo lint for gencoll invariants the compiler cannot see.

Rules (each can be waived per line with `// lint-waive(<rule>)`):

  getenv    std::getenv / getenv() anywhere outside src/util/env.* — every
            environment read must go through util::env_* so values are
            trimmed, validated, ranged, and warn-once logged.
  raw-new   raw `new` / `delete` expressions in src/ — ownership lives in
            containers and smart pointers. Placement new (`new (addr) T`) is
            allowed: it is storage reuse, not allocation. `= delete` member
            suppression is not a delete expression.
  tag-base  duplicate `N << 20` tag-base constants — flat kernels own tag
            space below 1 << 20 and every phase/hierarchy base must pick a
            distinct multiple, or two protocols share a mailbox channel and
            cross-deliver (the same class of bug the ack bit 26 guard traps
            at runtime).
  std-thread
            `std::thread` in src/ outside src/runtime/ — thread ownership
            lives in the runtime (World's rank threads, EventPool's worker
            pool). An ad-hoc thread elsewhere bypasses the event executor's
            managed-blocking accounting and the pool's teardown contract;
            route concurrency through World::run or EventPool instead.
  step-loop `recv_msg(`, `try_recv_msg(` and `send_view(` calls in src/core/
            outside the step interpreter (src/core/executor.cpp) — both
            engines run schedules through its one ScheduleRunner, and a
            second loop over a Schedule's sends and receives would drift
            from it (segmentation, crash_check ticks, spans) unnoticed.
  one-shm-engine
            `shm_tree(` calls in src/ outside the hierarchical executor
            (src/core/hierarchy.cpp) and the World that owns the groups
            (src/runtime/world.*) — every shared-memory intra-node phase runs
            through execute_hierarchical on runtime::ShmTree, and a second
            caller would be a second intra-node executor.
  env-table every `GENCOLL_*` string literal passed to a util::env_* reader
            in src/ must have a row in README.md's environment table, and
            every row there must be read by such a call — the table is the
            inventory of knobs, so a knob cannot appear or vanish unseen.
            Waivable on the reading line only.

Usage:
  tools/lint_gencoll.py [--root DIR]   # lint src/, tools/ and README.md under DIR
  tools/lint_gencoll.py --selftest     # prove the rules on synthetic cases

Exit status: 0 clean, 1 findings, 2 usage/internal error.
"""

from __future__ import annotations

import argparse
import pathlib
import re
import sys
from typing import Iterable, NamedTuple

WAIVE_RE = re.compile(r"//\s*lint-waive\(([a-z-]+)\)")
GETENV_RE = re.compile(r"\bgetenv\s*\(")
# `new` not immediately followed by `(`: placement new is storage reuse.
RAW_NEW_RE = re.compile(r"\bnew\b(?!\s*\()")
TAG_BASE_RE = re.compile(r"\b(\d+)\s*<<\s*20\b")
# std::this_thread (sleep/yield) is fine; the rule targets thread *creation*
# types, which only src/runtime/ may own.
STD_THREAD_RE = re.compile(r"\bstd::thread\b")
# Transport calls that execute a schedule's steps. The schedule builders'
# prog.send( / prog.recv( append steps and must not match.
STEP_LOOP_RE = re.compile(r"\b(?:try_recv_msg|recv_msg|send_view)\s*\(")

# The one step interpreter.
INTERPRETER = "src/core/executor.cpp"

# Requests for a World's shared-memory group object.
SHM_TREE_RE = re.compile(r"\bshm_tree\s*\(")

# The one shared-memory executor, and the World that hands out its groups.
SHM_ENGINE_HOMES = ("src/core/hierarchy.cpp", "src/runtime/world.hpp",
                    "src/runtime/world.cpp")

# The one blessed home for environment reads.
ENV_HOME = ("src/util/env.hpp", "src/util/env.cpp")

# The document whose environment table lists every GENCOLL_* knob, one row
# per variable: `| `GENCOLL_NAME` | values | default | effect |`.
ENV_TABLE_DOC = "README.md"
ENV_ROW_RE = re.compile(r"^\|\s*`(GENCOLL_[A-Z0-9_]+)`\s*\|")
# A util::env_* read of a literal knob name; the call may wrap after `(`.
ENV_READ_RE = re.compile(
    r'\b(?:util::)?env_(?:string|int|flag)\s*\(\s*"(GENCOLL_[A-Z0-9_]+)"')


class Finding(NamedTuple):
    path: str
    line: int
    rule: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_code(line: str, keep_strings: bool = False) -> str:
    """Drop // comments and, unless keep_strings, string/char literals so
    tokens inside them never match. (Block comments are rare in this codebase
    and the rules below are word-anchored, so line-local stripping is enough
    in practice.)"""
    out = []
    i = 0
    n = len(line)
    while i < n:
        c = line[i]
        if c == "/" and i + 1 < n and line[i + 1] == "/":
            break
        if c in "\"'":
            quote = c
            start = i
            i += 1
            while i < n and line[i] != quote:
                i += 2 if line[i] == "\\" else 1
            i += 1
            if keep_strings:
                out.append(line[start:i])
            continue
        out.append(c)
        i += 1
    return "".join(out)


def waived(line: str, rule: str) -> bool:
    return any(m.group(1) == rule for m in WAIVE_RE.finditer(line))


def lint_getenv(rel: str, lineno: int, code: str, raw: str) -> Iterable[Finding]:
    if rel.replace("\\", "/") in ENV_HOME:
        return
    if GETENV_RE.search(code) and not waived(raw, "getenv"):
        yield Finding(rel, lineno, "getenv",
                      "read the environment through util::env_* (src/util/env.hpp), "
                      "not getenv")


def lint_raw_new(rel: str, lineno: int, code: str, raw: str) -> Iterable[Finding]:
    if not rel.replace("\\", "/").startswith("src/"):
        return
    if waived(raw, "raw-new"):
        return
    if code.lstrip().startswith("#"):
        return  # preprocessor (e.g. #include <new>)
    if RAW_NEW_RE.search(code):
        yield Finding(rel, lineno, "raw-new",
                      "raw new in src/: own storage with containers or smart "
                      "pointers (placement new is exempt)")
    # A delete expression; `= delete` member suppression is not one.
    code_no_suppress = re.sub(r"=\s*delete\b", "", code)
    if re.search(r"\bdelete\b", code_no_suppress):
        yield Finding(rel, lineno, "raw-new",
                      "raw delete in src/: pair allocation with RAII instead")


def lint_std_thread(rel: str, lineno: int, code: str, raw: str) -> Iterable[Finding]:
    rel_posix = rel.replace("\\", "/")
    if not rel_posix.startswith("src/") or rel_posix.startswith("src/runtime/"):
        return
    if STD_THREAD_RE.search(code) and not waived(raw, "std-thread"):
        yield Finding(rel, lineno, "std-thread",
                      "std::thread outside src/runtime/: spawn work through "
                      "World::run or runtime::EventPool so the executor's "
                      "blocking accounting and teardown stay correct")


def lint_step_loop(rel: str, lineno: int, code: str, raw: str) -> Iterable[Finding]:
    rel_posix = rel.replace("\\", "/")
    if not rel_posix.startswith("src/core/") or rel_posix == INTERPRETER:
        return
    if STEP_LOOP_RE.search(code) and not waived(raw, "step-loop"):
        yield Finding(rel, lineno, "step-loop",
                      "schedule transport call outside the step interpreter: "
                      "run steps through exec_detail::ScheduleRunner "
                      f"({INTERPRETER})")


def lint_one_shm_engine(rel: str, lineno: int, code: str, raw: str) -> Iterable[Finding]:
    rel_posix = rel.replace("\\", "/")
    if not rel_posix.startswith("src/") or rel_posix in SHM_ENGINE_HOMES:
        return
    if SHM_TREE_RE.search(code) and not waived(raw, "one-shm-engine"):
        yield Finding(rel, lineno, "one-shm-engine",
                      "shared-memory group requested outside the hierarchical "
                      "executor: run intra-node phases through "
                      "core::execute_hierarchical (src/core/hierarchy.cpp)")


def lint_tag_bases(files: dict[str, list[str]]) -> Iterable[Finding]:
    """Collect every `N << 20` on a tag-defining line; duplicate N values are
    collisions. Non-tag uses of `<< 20` (byte-size math, env bounds) are out
    of scope — the rule keys on 'tag' appearing on the line."""
    sites: dict[int, list[tuple[str, int]]] = {}
    waivers: set[tuple[str, int]] = set()
    for rel, lines in files.items():
        for lineno, raw in enumerate(lines, start=1):
            if "tag" not in raw.lower():
                continue
            code = strip_code(raw)
            for m in TAG_BASE_RE.finditer(code):
                base = int(m.group(1))
                sites.setdefault(base, []).append((rel, lineno))
                if waived(raw, "tag-base"):
                    waivers.add((rel, lineno))
    for base, where in sorted(sites.items()):
        if len(where) < 2:
            continue
        spots = ", ".join(f"{p}:{n}" for p, n in where)
        for rel, lineno in where:
            if (rel, lineno) in waivers:
                continue
            yield Finding(rel, lineno, "tag-base",
                          f"tag base {base} << 20 defined at more than one site "
                          f"({spots}): two protocols would share a mailbox channel")


def lint_env_table(files: dict[str, list[str]]) -> Iterable[Finding]:
    """Match util::env_* reads of literal GENCOLL_* names in src/ against the
    rows of the environment table, in both directions."""
    doc = files.get(ENV_TABLE_DOC)
    if doc is None:
        return
    rows: dict[str, int] = {}
    for lineno, raw in enumerate(doc, start=1):
        m = ENV_ROW_RE.match(raw)
        if m:
            rows.setdefault(m.group(1), lineno)
    read: set[str] = set()
    for rel, lines in files.items():
        if not rel.startswith("src/"):
            continue
        text = "\n".join(strip_code(raw, keep_strings=True) for raw in lines)
        for m in ENV_READ_RE.finditer(text):
            name = m.group(1)
            read.add(name)
            lineno = text.count("\n", 0, m.start()) + 1
            if name not in rows and not waived(lines[lineno - 1], "env-table"):
                yield Finding(rel, lineno, "env-table",
                              f"{name} is read here but has no row in "
                              f"{ENV_TABLE_DOC}'s environment table")
    for name, lineno in rows.items():
        if name not in read:
            yield Finding(ENV_TABLE_DOC, lineno, "env-table",
                          f"{name} has an environment-table row but no "
                          "util::env_* call in src/ reads it")


def lint_files(files: dict[str, list[str]]) -> list[Finding]:
    findings: list[Finding] = list(lint_env_table(files))
    files = {rel: lines for rel, lines in files.items() if rel != ENV_TABLE_DOC}
    for rel, lines in files.items():
        for lineno, raw in enumerate(lines, start=1):
            code = strip_code(raw)
            findings.extend(lint_getenv(rel, lineno, code, raw))
            findings.extend(lint_raw_new(rel, lineno, code, raw))
            findings.extend(lint_std_thread(rel, lineno, code, raw))
            findings.extend(lint_step_loop(rel, lineno, code, raw))
            findings.extend(lint_one_shm_engine(rel, lineno, code, raw))
    findings.extend(lint_tag_bases(files))
    return sorted(findings)


def load_tree(root: pathlib.Path) -> dict[str, list[str]]:
    files: dict[str, list[str]] = {}
    for sub in ("src", "tools"):
        base = root / sub
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix not in (".hpp", ".cpp", ".h", ".cc"):
                continue
            rel = path.relative_to(root).as_posix()
            files[rel] = path.read_text(encoding="utf-8").splitlines()
    doc = root / ENV_TABLE_DOC
    if doc.is_file():
        files[ENV_TABLE_DOC] = doc.read_text(encoding="utf-8").splitlines()
    return files


def selftest() -> int:
    def run(files: dict[str, str]) -> list[Finding]:
        return lint_files({k: v.splitlines() for k, v in files.items()})

    cases = [
        # getenv fires outside the env home, is quiet inside it, and waives.
        ("getenv fires", {"src/core/a.cpp": 'const char* v = std::getenv("X");'},
         ["getenv"]),
        ("getenv home ok", {"src/util/env.cpp": 'const char* v = std::getenv("X");'},
         []),
        ("getenv waived", {"src/core/a.cpp":
                           'const char* v = getenv("X");  // lint-waive(getenv)'},
         []),
        ("getenv in comment ok", {"src/core/a.cpp": "// ad-hoc getenv(...) is bad"},
         []),
        # raw-new fires on new/delete, spares placement new and = delete.
        ("raw new fires", {"src/core/a.cpp": "auto* p = new Widget;"}, ["raw-new"]),
        ("raw delete fires", {"src/core/a.cpp": "delete p;"}, ["raw-new"]),
        ("placement new ok", {"src/core/a.cpp": "new (&slot) Slot();"}, []),
        ("deleted member ok", {"src/core/a.hpp": "World(const World&) = delete;"},
         []),
        ("new outside src ok", {"tools/t.cpp": "auto* p = new Widget;"}, []),
        ("raw new waived", {"src/util/env.cpp":
                            "static auto* s = new std::set<int>();  "
                            "// lint-waive(raw-new)"},
         []),
        ("new in string ok", {"src/core/a.cpp": 'log("a new epoch began");'}, []),
        # std-thread fires outside src/runtime/, is quiet inside it, waives,
        # and never matches std::this_thread sleeps.
        ("std-thread fires", {"src/core/a.cpp": "std::thread t([] {});"},
         ["std-thread"]),
        ("std-thread runtime ok",
         {"src/runtime/pool.cpp": "std::vector<std::thread> workers_;"}, []),
        ("std-thread waived",
         {"src/obs/a.cpp": "std::thread t(fn);  // lint-waive(std-thread)"}, []),
        ("std-thread tools ok", {"tools/t.cpp": "std::thread t(fn);"}, []),
        ("this_thread ok",
         {"src/core/a.cpp": "std::this_thread::sleep_for(ms);"}, []),
        ("std-thread in comment ok",
         {"src/core/a.cpp": "// never use std::thread here"}, []),
        # step-loop fires on schedule transport calls in src/core/ outside
        # the interpreter, waives, and spares the builders' prog.send/recv.
        ("step-loop fires",
         {"src/core/hierarchy.cpp": "auto m = comm.recv_msg(s.peer, s.tag, len);"},
         ["step-loop"]),
        ("step-loop try_recv fires",
         {"src/core/a.cpp": "auto r = comm.try_recv_msg(p, t, n, true);"},
         ["step-loop"]),
        ("step-loop send_view fires",
         {"src/core/a.cpp": "comm.send_view(s.peer, s.tag, view);"},
         ["step-loop"]),
        ("step-loop interpreter ok",
         {"src/core/executor.cpp": "m = comm.recv_msg(s.peer, s.tag, len);"}, []),
        ("step-loop waived",
         {"src/core/a.cpp":
          "comm.send_view(p, t, v);  // lint-waive(step-loop)"}, []),
        ("step-loop builders ok",
         {"src/core/knomial.cpp": "prog.recv(peer, tag, off, n);\n"
                                  "prog.send(peer, tag, off, n);"}, []),
        ("step-loop outside core ok",
         {"src/runtime/comm.cpp": "const Message m = recv_msg(source, tag, n);"},
         []),
        # one-shm-engine fires on shm_tree( in src/ outside the executor and
        # the World, and waives.
        ("one-shm-engine fires",
         {"src/api/gencoll.cpp":
          "runtime::ShmTree& t = comm.world().shm_tree(base, s);"},
         ["one-shm-engine"]),
        ("one-shm-engine executor ok",
         {"src/core/hierarchy.cpp":
          "runtime::ShmTree& tree = comm.world().shm_tree(base, s);"}, []),
        ("one-shm-engine world ok",
         {"src/runtime/world.cpp":
          "ShmTree& World::shm_tree(int base_rank, int size) {"}, []),
        ("one-shm-engine waived",
         {"src/core/a.cpp":
          "auto& t = world.shm_tree(0, 4);  // lint-waive(one-shm-engine)"},
         []),
        ("one-shm-engine outside src ok",
         {"tests/runtime/t.cpp": "ShmTree& t = world.shm_tree(0, 4);"}, []),
        # tag-base fires only on duplicates of tag-defining lines.
        ("tag collision fires",
         {"src/core/a.hpp": "inline constexpr int kFooTag = 8 << 20;",
          "src/core/b.hpp": "inline constexpr int kBarTag = 8 << 20;"},
         ["tag-base", "tag-base"]),
        ("distinct tags ok",
         {"src/core/a.hpp": "inline constexpr int kFooTag = 8 << 20;\n"
                            "inline constexpr int kBarTag = 9 << 20;"},
         []),
        ("size math ok", {"src/util/b.cpp": "std::size_t mb = 1ULL << 20;"}, []),
        ("tag collision waived",
         {"src/core/a.hpp": "inline constexpr int kFooTag = 8 << 20;  "
                            "// lint-waive(tag-base)",
          "src/core/b.hpp": "inline constexpr int kBarTag = 8 << 20;"},
         ["tag-base"]),
        # env-table fires on a read without a row and on a row without a
        # read, follows a call that wraps after `(`, and waives on the read.
        ("env-table matched ok",
         {"README.md": "| `GENCOLL_FOO` | integer | `1` | Foo. |",
          "src/runtime/a.cpp": 'auto v = util::env_int("GENCOLL_FOO", 1, 1, 8);'},
         []),
        ("env-table wrapped read ok",
         {"README.md": "| `GENCOLL_FOO` | integer | `1` | Foo. |",
          "src/runtime/a.cpp": "auto v = util::env_int(\n"
                               '    "GENCOLL_FOO", 1, 1, 8);'},
         []),
        ("env-table read without row fires",
         {"README.md": "| `GENCOLL_FOO` | integer | `1` | Foo. |",
          "src/runtime/a.cpp": 'auto v = util::env_int("GENCOLL_FOO", 1, 1, 8);\n'
                               'if (util::env_flag("GENCOLL_BAR")) {}'},
         ["env-table"]),
        ("env-table row without read fires",
         {"README.md": "| `GENCOLL_FOO` | integer | `1` | Foo. |\n"
                       "| `GENCOLL_GONE` | integer | unset | Removed knob. |",
          "src/runtime/a.cpp": 'auto v = util::env_int("GENCOLL_FOO", 1, 1, 8);'},
         ["env-table"]),
        ("env-table read in comment does not count",
         {"README.md": "| `GENCOLL_FOO` | integer | `1` | Foo. |",
          "src/runtime/a.cpp": '// util::env_int("GENCOLL_FOO", 1, 1, 8) is gone'},
         ["env-table"]),
        ("env-table read outside src ignored",
         {"README.md": "",
          "tools/t.cpp": 'auto v = util::env_int("GENCOLL_TOOL", 1, 1, 8);'},
         []),
        ("env-table read waived",
         {"README.md": "",
          "src/runtime/a.cpp":
          'auto v = util::env_int("GENCOLL_FOO", 1, 1, 8);  '
          "// lint-waive(env-table)"},
         []),
    ]

    failures = 0
    for name, files, want_rules in cases:
        got = [f.rule for f in run(files)]
        if got != want_rules:
            print(f"selftest FAILED: {name}: want {want_rules}, got {got}")
            failures += 1
    if failures:
        return 2
    print(f"selftest OK ({len(cases)} cases)")
    return 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", default=".",
                        help="repository root (lints <root>/src, <root>/tools "
                             "and <root>/README.md)")
    parser.add_argument("--selftest", action="store_true",
                        help="run the rule selftest instead of linting")
    args = parser.parse_args(argv)
    if args.selftest:
        return selftest()

    root = pathlib.Path(args.root)
    if not (root / "src").is_dir():
        print(f"lint_gencoll: no src/ under {root}", file=sys.stderr)
        return 2
    findings = lint_files(load_tree(root))
    for f in findings:
        print(f)
    if findings:
        print(f"lint_gencoll: {len(findings)} finding(s)")
        return 1
    print("lint_gencoll: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
