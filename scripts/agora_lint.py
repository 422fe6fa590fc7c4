#!/usr/bin/env python3
"""AgoraDB repo-specific lint.

Machine-checks the engine's source-level invariants that generic tooling
cannot express (docs/ANALYSIS.md has the full rationale):

  open-next-contract      Open()/Next() are the *only* entry points into an
                          operator: the non-virtual wrappers in
                          src/exec/physical_op.cc own instrumentation and
                          debug verification, so calling OpenImpl()/
                          NextImpl() directly anywhere else silently skips
                          both. Declarations and definitions are fine;
                          calls are not.
  exec-node-container     src/exec is the vectorized hot path: node-based
                          std containers (map/set/unordered_map/
                          unordered_set) there regress the flat-hash kernel
                          work. Use JoinHashTable/GroupKeyTable or sorted
                          vectors.
  exec-per-row-string-key src/exec must not build per-row std::string keys
                          (AppendKeyBytes loops); key comparisons go
                          through HashBatch/BatchEqualRows.
  expr-per-row-value      src/expr is the expression hot path: boxing rows
                          through Value (per-row AppendValue/GetValue on
                          eval paths) undoes the vectorized kernels. Write
                          through ResizeForOverwrite + mutable_*_data, or
                          justify the boxed slow path with an allow
                          comment.
  raw-new-delete          Operators and optimizer passes own memory via
                          unique_ptr/shared_ptr/Arena only; raw new/delete
                          is banned in src/exec and src/optimizer.
  file-io-outside-storage Direct file IO (fopen, std::ofstream/ifstream/
                          fstream, ::open, .open) is confined to
                          src/storage/ and src/txn/: everything else goes
                          through the storage-layer helpers (ReadCsvFile/
                          WriteCsvFile, SpillManager), which own error
                          handling, temp-file cleanup, and the spill IO
                          accounting.
  catalog-mutation-outside-ddl
                          In src/engine/database.cc, mutating catalog_
                          (CreateTable/RegisterTable/DropTable/
                          AttachSearchIndexes) is only legal inside the
                          writer-locked statement handlers
                          (Execute{CreateTable,DropTable,CreateIndex,
                          Insert,Update,Delete,Copy}). The catalog's
                          internal lock makes any single call safe, but a
                          mutation reached from a read path breaks the
                          reader/writer contract of the engine lock that
                          concurrent SELECTs rely on.
  metrics-doc-drift       Every metric name registered in
                          src/engine/database.cc, named in the ExecStats
                          counter table (src/exec/physical_op.h), or
                          registered in src/server/*.cc (the server_*
                          serving series, gauges included) must be
                          documented in docs/METRICS.md (the enforced
                          metric contract).
  env-doc-drift           Every AGORA_* environment knob read via getenv()
                          or an Env* wrapper anywhere in src/ must be
                          documented in docs/OPERATIONS.md (the operator
                          runbook is the enforced knob contract; a knob you
                          cannot find in the runbook does not exist to an
                          operator).
  compile-commands        Every src/*.cc must appear in the build tree's
                          compile_commands.json, so clang-tidy and editors
                          see the same translation units this lint does.
  unannotated-mutex       Every mutex member under src/ (std::mutex,
                          std::shared_mutex, or the annotated agora
                          Mutex/SharedMutex wrappers) must be referenced
                          by at least one AGORA_* thread-safety
                          annotation (AGORA_GUARDED_BY, AGORA_ACQUIRE,
                          ...), so the clang -Wthread-safety leg actually
                          covers it; an unannotated mutex is a lock the
                          analysis silently ignores. See docs/ANALYSIS.md
                          "Compile-time lock discipline".
  manual-lock-unlock      Bare .lock()/.unlock()/.try_lock() calls are
                          banned in src/ outside the wrapper layer
                          (src/common/mutex.h): manual pairing is exactly
                          the bug class the RAII guards + capability
                          annotations eliminate, and the thread-safety
                          analysis cannot see through an unannotated
                          manual call.

A finding can be suppressed for one line with a justification comment,
either trailing the offending line or on a comment-only line directly
above it:

    std::map<K, V> cold_path_;  // agora-lint: allow(exec-node-container) why

Exit status: 0 clean, 1 findings, 2 usage/configuration error.

Self-test mode (`--self-test`) lints the golden-violation fixtures under
tests/lint_fixtures/ instead of the tree: each fixture declares the path
it should be judged as (`// lint-as: src/exec/...`) and the rules it must
trip (`// expect-violation: <rule>`); the self-test fails unless every
expectation fires and nothing unexpected does. This proves each rule
still catches its target pattern.
"""

import argparse
import json
import os
import re
import sys

RULES = (
    "open-next-contract",
    "exec-node-container",
    "exec-per-row-string-key",
    "expr-per-row-value",
    "raw-new-delete",
    "file-io-outside-storage",
    "catalog-mutation-outside-ddl",
    "metrics-doc-drift",
    "env-doc-drift",
    "compile-commands",
    "unannotated-mutex",
    "manual-lock-unlock",
)

# Files exempt from the Open/Next wrapper rule: the wrapper itself and the
# header that declares the protocol.
OPEN_NEXT_EXEMPT = ("src/exec/physical_op.cc", "src/exec/physical_op.h")

# The annotated wrapper layer is the one place allowed to touch the raw
# primitives' lock()/unlock() members directly.
MANUAL_LOCK_EXEMPT = ("src/common/mutex.h",)

# A mutex-typed data member: optionally `mutable`, a std mutex flavor or
# one of the annotated agora wrappers, then the member name. `\s+` after
# the type keeps MutexLock/ReaderMutexLock guard locals from matching;
# requiring `;`, `{` or `=` next keeps references (`SharedMutex& mu_`)
# and parameters out.
MUTEX_MEMBER_RE = re.compile(
    r"^\s*(?:mutable\s+)?"
    r"(?:std\s*::\s*(?:shared_|recursive_|timed_|shared_timed_)?mutex"
    r"|Mutex|SharedMutex)\s+(\w+)\s*(?:;|\{|=)")

# Identifiers referenced inside any AGORA_* annotation's parentheses
# (AGORA_GUARDED_BY(mu_), AGORA_ACQUIRE(mu), AGORA_EXCLUDES(a, b), ...).
ANNOTATION_ARG_RE = re.compile(r"\bAGORA_[A-Z_]+\s*\(([^()]*)\)")

# A manual lock-primitive call: member access followed by one of the
# std lock-management verbs. The RAII guards (MutexLock & friends) and
# the capitalized wrapper methods (Lock/Unlock) do not match.
MANUAL_LOCK_RE = re.compile(
    r"(?:\.|->)\s*(lock|unlock|lock_shared|unlock_shared|"
    r"try_lock(?:_shared|_for|_until)?)\s*\(")

ALLOW_RE = re.compile(r"agora-lint:\s*allow\(([a-z-]+)\)")
LINT_AS_RE = re.compile(r"//\s*lint-as:\s*(\S+)")
EXPECT_RE = re.compile(r"//\s*expect-violation:\s*([a-z-]+)")

METRIC_NAME_RE = re.compile(
    r'"([a-z][a-z0-9_]*(?:_total|_seconds|_rows|_threads)|server_[a-z0-9_]+)"')


def is_metric_source(rel_path):
    """Files whose string literals register metrics: the engine registry,
    the ExecStats counter table it exports, and the server front end
    (server_* series)."""
    return (rel_path in ("src/engine/database.cc", "src/exec/physical_op.h")
            or (rel_path.startswith("src/server/") and rel_path.endswith(".cc")))

# The knob name is the first argument of getenv() or of an Env* helper
# that wraps it (EnvInt("AGORA_PORT", ...) in src/server/server.cc).
ENV_KNOB_RE = re.compile(r'(?:getenv|\bEnv[A-Z]\w*)\s*\(\s*"(AGORA_[A-Z0-9_]+)"')
ENV_CALL_RE = re.compile(r"\bgetenv\s*\(|\bEnv[A-Z]\w*\s*\(")

# Statement handlers that run under the engine's writer lock and are the
# only legal sites for catalog_ mutation in src/engine/database.cc.
CATALOG_WRITER_FNS = frozenset((
    "ExecuteCreateTable", "ExecuteDropTable", "ExecuteCreateIndex",
    "ExecuteInsert", "ExecuteUpdate", "ExecuteDelete", "ExecuteCopy",
))
CATALOG_MUTATION_RE = re.compile(
    r"\bcatalog_\s*\.\s*"
    r"(CreateTable|RegisterTable|DropTable|AttachSearchIndexes)\s*\(")
# A function-definition opener: unindented line ending in an identifier
# followed by '(' (return type and qualifiers before it). Heuristic, but
# database.cc is clang-formatted so definitions always start at column 0.
FN_DEF_RE = re.compile(r"^[A-Za-z_][^;={}]*?\b(\w+)\s*\(")


class Finding:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_comments_and_strings(text):
    """Replaces comment/string contents with spaces, preserving newlines
    and column positions, so rule regexes never match quoted or
    commented-out code."""
    out = []
    i, n = 0, len(text)
    NORMAL, LINE, BLOCK, STR, CHR = range(5)
    state = NORMAL
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == NORMAL:
            if c == "/" and nxt == "/":
                state = LINE
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = BLOCK
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = STR
                out.append(" ")
                i += 1
                continue
            if c == "'":
                state = CHR
                out.append(" ")
                i += 1
                continue
            out.append(c)
        elif state == LINE:
            if c == "\n":
                state = NORMAL
                out.append("\n")
            else:
                out.append(" ")
        elif state == BLOCK:
            if c == "*" and nxt == "/":
                state = NORMAL
                out.append("  ")
                i += 2
                continue
            out.append("\n" if c == "\n" else " ")
        elif state in (STR, CHR):
            quote = '"' if state == STR else "'"
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == quote:
                state = NORMAL
                out.append(" ")
            else:
                out.append("\n" if c == "\n" else " ")
        i += 1
    return "".join(out)


def collect_allows(raw_lines, stripped_lines):
    """Maps 1-based line number -> set of rule names allowed on it. An
    allow on a comment-only line (no code once comments/strings are
    stripped) also covers the next line, NOLINTNEXTLINE-style."""
    allows = {}
    for idx, line in enumerate(raw_lines, 1):
        for m in ALLOW_RE.finditer(line):
            allows.setdefault(idx, set()).add(m.group(1))
            comment_only = (idx <= len(stripped_lines)
                            and not stripped_lines[idx - 1].strip())
            if comment_only:
                allows.setdefault(idx + 1, set()).add(m.group(1))
    return allows


def line_findings(rel_path, raw_text):
    """Runs the per-line rules against one file. `rel_path` decides which
    rules apply (fixtures override it with a lint-as directive)."""
    raw_lines = raw_text.splitlines()
    stripped_lines = strip_comments_and_strings(raw_text).splitlines()
    allows = collect_allows(raw_lines, stripped_lines)
    findings = []

    def add(lineno, rule, message):
        if rule in allows.get(lineno, ()):
            return
        findings.append(Finding(rel_path, lineno, rule, message))

    in_exec = rel_path.startswith("src/exec/")
    in_opt = rel_path.startswith("src/optimizer/")
    in_expr = rel_path.startswith("src/expr/")
    in_database_cc = rel_path == "src/engine/database.cc"
    in_src = rel_path.startswith("src/")
    manual_lock_applies = in_src and rel_path not in MANUAL_LOCK_EXEMPT
    # Names referenced by any thread-safety annotation anywhere in the
    # file; a mutex member must show up here (or carry an allow) so the
    # clang -Wthread-safety leg actually checks it.
    annotated_names = set()
    if in_src:
        for args in ANNOTATION_ARG_RE.findall("\n".join(stripped_lines)):
            annotated_names.update(re.findall(r"\w+", args))
    current_fn = None  # enclosing function, tracked for in_database_cc
    file_io_applies = (rel_path.startswith("src/")
                       and not rel_path.startswith("src/storage/")
                       and not rel_path.startswith("src/txn/"))
    open_next_applies = (rel_path.startswith("src/")
                         and rel_path not in OPEN_NEXT_EXEMPT)

    decl_re = re.compile(r"(virtual\s+)?Status\s+(OpenImpl|NextImpl)\s*\(")
    defn_re = re.compile(r"::\s*(OpenImpl|NextImpl)\s*\(")
    call_re = re.compile(r"(OpenImpl|NextImpl)\s*\(")
    container_re = re.compile(
        r"std\s*::\s*(unordered_map|unordered_set|map|set)\s*<")
    key_bytes_re = re.compile(r"\bAppendKeyBytes\s*\(")
    per_row_value_re = re.compile(r"\.\s*(AppendValue|GetValue)\s*\(")
    new_re = re.compile(r"\bnew\s+[A-Za-z_(:]")
    delete_re = re.compile(r"\bdelete\s*(\[\s*\]\s*)?[A-Za-z_(*]")
    file_io_re = re.compile(
        r"\bfopen\s*\(|std\s*::\s*[oi]?fstream\b|::open\s*\(|\.\s*open\s*\(")

    for lineno, line in enumerate(stripped_lines, 1):
        if open_next_applies and call_re.search(line):
            if not decl_re.search(line) and not defn_re.search(line):
                add(lineno, "open-next-contract",
                    "direct OpenImpl/NextImpl call bypasses the "
                    "instrumented Open()/Next() wrappers "
                    "(src/exec/physical_op.cc owns that layer)")
        if in_exec:
            m = container_re.search(line)
            if m:
                add(lineno, "exec-node-container",
                    f"std::{m.group(1)} in the vectorized hot path; use "
                    "the flat hash tables (exec/hash_table.h) or a sorted "
                    "vector")
            if (key_bytes_re.search(line)
                    and rel_path not in OPEN_NEXT_EXEMPT):
                add(lineno, "exec-per-row-string-key",
                    "per-row string key encoding in src/exec; use "
                    "HashBatch/BatchEqualRows or GroupKeyTable")
        if in_expr:
            m = per_row_value_re.search(line)
            if m:
                add(lineno, "expr-per-row-value",
                    f"per-row Value boxing ({m.group(1)}) on the expression "
                    "eval path; use the typed batch kernels "
                    "(ResizeForOverwrite + mutable_*_data) or justify the "
                    "slow path")
        if in_exec or in_opt:
            if new_re.search(line):
                add(lineno, "raw-new-delete",
                    "raw `new` in operator/optimizer code; use "
                    "make_unique/make_shared or the Arena")
            if delete_re.search(line):
                add(lineno, "raw-new-delete",
                    "raw `delete` in operator/optimizer code; ownership "
                    "belongs to smart pointers or the Arena")
        if in_database_cc:
            if line and not line[0].isspace():
                m = FN_DEF_RE.match(line)
                if m:
                    current_fn = m.group(1)
            m = CATALOG_MUTATION_RE.search(line)
            if m and current_fn not in CATALOG_WRITER_FNS:
                add(lineno, "catalog-mutation-outside-ddl",
                    f"catalog_.{m.group(1)}() outside the writer-locked "
                    "DDL/DML handlers "
                    f"(in {current_fn or 'file scope'}); concurrent SELECTs "
                    "rely on catalog mutations staying behind the engine's "
                    "writer lock")
        if in_src:
            m = MUTEX_MEMBER_RE.match(line)
            if m and m.group(1) not in annotated_names:
                add(lineno, "unannotated-mutex",
                    f"mutex member '{m.group(1)}' is referenced by no "
                    "AGORA_* thread-safety annotation; add "
                    "AGORA_GUARDED_BY/AGORA_ACQUIRE coverage so the "
                    "-Wthread-safety leg checks it (conventions: "
                    "docs/ANALYSIS.md)")
        if manual_lock_applies:
            m = MANUAL_LOCK_RE.search(line)
            if m:
                add(lineno, "manual-lock-unlock",
                    f"manual .{m.group(1)}() call; use the RAII guards "
                    "(MutexLock/ReaderMutexLock/WriterMutexLock or a "
                    "scoped capability) so acquire/release pairing is "
                    "machine-checked")
        if file_io_applies and file_io_re.search(line):
            add(lineno, "file-io-outside-storage",
                "direct file IO outside src/storage//src/txn; go through "
                "the storage helpers (ReadCsvFile/WriteCsvFile, "
                "SpillManager) so error handling, cleanup, and spill "
                "accounting stay in one layer")
    return findings


def metrics_doc_findings(rel_path, text, metrics_md_text):
    """Every metric name registered in a metric source (is_metric_source)
    must appear in docs/METRICS.md (the name set test_metrics enforces,
    plus server_* gauges)."""
    findings = []
    seen = set()
    for lineno, line in enumerate(text.splitlines(), 1):
        for m in METRIC_NAME_RE.finditer(line):
            name = m.group(1)
            if name in seen:
                continue
            seen.add(name)
            if f"`{name}`" not in metrics_md_text \
                    and name not in metrics_md_text:
                findings.append(Finding(
                    rel_path, lineno, "metrics-doc-drift",
                    f"metric '{name}' is registered but undocumented in "
                    "docs/METRICS.md"))
    return findings


def env_doc_findings(rel_path, raw_text, operations_md_text):
    """Every AGORA_* env knob read via getenv() in src/ must appear in
    docs/OPERATIONS.md. Knob names live inside string literals, so this
    rule reads raw lines (unlike the stripped-line rules) but still
    requires the getenv call itself to survive comment stripping, and it
    honors the same allow() suppressions."""
    findings = []
    if not rel_path.startswith("src/"):
        return findings
    raw_lines = raw_text.splitlines()
    stripped_lines = strip_comments_and_strings(raw_text).splitlines()
    allows = collect_allows(raw_lines, stripped_lines)
    seen = set()
    for lineno, stripped in enumerate(stripped_lines, 1):
        if not ENV_CALL_RE.search(stripped):
            continue
        for m in ENV_KNOB_RE.finditer(raw_lines[lineno - 1]):
            name = m.group(1)
            if name in seen:
                continue
            seen.add(name)
            if "env-doc-drift" in allows.get(lineno, ()):
                continue
            if f"`{name}`" not in operations_md_text \
                    and name not in operations_md_text:
                findings.append(Finding(
                    rel_path, lineno, "env-doc-drift",
                    f"env knob '{name}' is read here but undocumented in "
                    "docs/OPERATIONS.md (the operator runbook)"))
    return findings


def load_compile_commands(build_dir):
    path = os.path.join(build_dir, "compile_commands.json")
    if not os.path.isfile(path):
        return None
    with open(path, encoding="utf-8") as f:
        entries = json.load(f)
    return {os.path.realpath(e["file"]) for e in entries}


def iter_source_files(repo):
    for root in ("src",):
        for dirpath, _dirnames, filenames in os.walk(os.path.join(repo, root)):
            for name in sorted(filenames):
                if name.endswith((".cc", ".h")):
                    full = os.path.join(dirpath, name)
                    yield os.path.relpath(full, repo).replace(os.sep, "/")


def lint_tree(repo, build_dir):
    findings = []
    compiled = load_compile_commands(build_dir)
    if compiled is None:
        findings.append(Finding(
            os.path.join(build_dir, "compile_commands.json"), 0,
            "compile-commands",
            "missing compilation database; configure with CMake (the tree "
            "sets CMAKE_EXPORT_COMPILE_COMMANDS=ON)"))
    operations_md = os.path.join(repo, "docs", "OPERATIONS.md")
    ops_text = ""
    if os.path.isfile(operations_md):
        with open(operations_md, encoding="utf-8") as f:
            ops_text = f.read()
    with open(os.path.join(repo, "docs", "METRICS.md"),
              encoding="utf-8") as f:
        md_text = f.read()
    for rel in iter_source_files(repo):
        full = os.path.join(repo, rel)
        with open(full, encoding="utf-8") as f:
            text = f.read()
        findings.extend(line_findings(rel, text))
        findings.extend(env_doc_findings(rel, text, ops_text))
        if is_metric_source(rel):
            findings.extend(metrics_doc_findings(rel, text, md_text))
        if (compiled is not None and rel.endswith(".cc")
                and os.path.realpath(full) not in compiled):
            findings.append(Finding(
                rel, 0, "compile-commands",
                "translation unit missing from compile_commands.json "
                "(stale build tree? re-run cmake)"))
    return findings


def self_test(repo):
    """Lints tests/lint_fixtures/*; every `expect-violation` must fire and
    nothing else may. Returns a list of human-readable failures."""
    fixtures_dir = os.path.join(repo, "tests", "lint_fixtures")
    failures = []
    fixture_files = sorted(
        f for f in os.listdir(fixtures_dir) if f.endswith(".cc"))
    if not fixture_files:
        return ["no fixtures found in tests/lint_fixtures"]
    with open(os.path.join(repo, "docs", "METRICS.md"),
              encoding="utf-8") as f:
        md_text = f.read()
    ops_path = os.path.join(repo, "docs", "OPERATIONS.md")
    ops_text = ""
    if os.path.isfile(ops_path):
        with open(ops_path, encoding="utf-8") as f:
            ops_text = f.read()
    for name in fixture_files:
        path = os.path.join(fixtures_dir, name)
        with open(path, encoding="utf-8") as f:
            text = f.read()
        m = LINT_AS_RE.search(text)
        lint_as = m.group(1) if m else f"tests/lint_fixtures/{name}"
        expected = sorted(EXPECT_RE.findall(text))
        findings = line_findings(lint_as, text)
        findings.extend(env_doc_findings(lint_as, text, ops_text))
        if is_metric_source(lint_as):
            findings.extend(metrics_doc_findings(lint_as, text, md_text))
        got = sorted({f.rule for f in findings})
        missing = [r for r in expected if r not in got]
        unexpected = [r for r in got if r not in expected]
        for rule in missing:
            failures.append(
                f"{name}: expected rule '{rule}' did not fire (judged as "
                f"{lint_as})")
        for rule in unexpected:
            failures.append(
                f"{name}: rule '{rule}' fired but was not expected")
    return failures


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repo", default=None,
                        help="repository root (default: parent of scripts/)")
    parser.add_argument("--build-dir", default="build",
                        help="build tree holding compile_commands.json")
    parser.add_argument("--self-test", action="store_true",
                        help="lint the golden-violation fixtures instead of "
                             "the tree and verify every rule fires")
    args = parser.parse_args()

    repo = args.repo or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isdir(os.path.join(repo, "src")):
        print(f"agora_lint: no src/ under {repo}", file=sys.stderr)
        return 2

    if args.self_test:
        failures = self_test(repo)
        if failures:
            for f in failures:
                print(f"agora_lint self-test FAILED: {f}")
            return 1
        print("agora_lint self-test: all fixture violations detected")
        return 0

    build_dir = args.build_dir
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(repo, build_dir)
    findings = lint_tree(repo, build_dir)
    for finding in findings:
        print(finding)
    if findings:
        print(f"agora_lint: {len(findings)} finding(s)")
        return 1
    print("agora_lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
