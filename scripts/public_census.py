#!/usr/bin/env python3
"""Public-surface census: a `pub` item nothing outside its crate names.

Rule: every `pub fn|struct|enum|trait|type|const|static` declared in
`crates/<c>/src` whose name (five letters or more) occurs as a word in no
`.rs` file outside `crates/<c>/` is flagged. Consumers are the other
crates, `crates/bench`, `benchmark/`, `examples/`, the root `tests/` and
`src/`; the shims are neither subjects nor consumers. Shorter names are
skipped: a word that short matches too much to mean anything. Comments
(`//`, `///`, `//!`, `/* */`) are neither uses nor declarations; string
literals are uses.

A flagged name must have a line in `public_census.allow` giving one of the
reasons that file's header defines; a listed name that is no longer
flagged is an error too, so the list can only shrink. A `signature:` line
must resolve: where its type or item is itself flagged, that name's own
line is followed, until an unflagged name or a `paper:`/`test:` line ends
the chain. Exit status 1 on any error.

`--list` prints every flagged name with where it is declared, listed or
not, and the per-crate counts, and exits 0. `--self-test` runs the census
on synthetic trees in a temporary directory and checks that each kind of
violation fails it.
"""

import io
import os
import re
import sys
import tempfile
from collections import defaultdict
from contextlib import redirect_stderr, redirect_stdout

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ALLOW = os.path.join("scripts", "public_census.allow")
CONSUMER_DIRS = ["crates", "benchmark", "examples", "tests", "src"]
# Consumers only: the shims stand in for external crates, and `bench` is
# a set of report binaries.
NOT_SUBJECTS = {"shims", "bench"}
MIN_LEN = 5

DECL = re.compile(
    r"^\s*pub\s+(?:(?:const|unsafe|async)\s+)*"
    r"(?:fn|struct|enum|trait|type|const|static)\s+(?:mut\s+)?([A-Za-z_]\w*)",
    re.M,
)
WORD = re.compile(r"[A-Za-z_]\w*")
# Where a comment or a literal may start: a comment, a raw string (its
# `#`s captured), a string, or a quote that opens a char literal or a
# lifetime.
TOKEN = re.compile(r"//|/\*|\bb?r(#*)\"|\bb?\"|\"|'")
STRING_REST = re.compile(r'(?:\\.|[^"\\])*"', re.S)
CHAR = re.compile(r"'(?:\\(?:x[0-9a-fA-F]{2}|u\{[0-9a-fA-F]+\}|.)|[^'\\\n])'")


def strip_comments(text):
    """`text` with every comment removed; a block comment leaves its
    newlines behind, so line numbers hold. Literals are kept whole, so a
    `//` inside a string is not a comment."""
    out = []
    at = 0
    while m := TOKEN.search(text, at):
        out.append(text[at : m.start()])
        tok = m.group(0)
        if tok == "//":
            end = text.find("\n", m.end())
            at = len(text) if end < 0 else end
        elif tok == "/*":
            depth, at = 1, m.end()
            while depth and at < len(text):
                if text.startswith("/*", at):
                    depth, at = depth + 1, at + 2
                elif text.startswith("*/", at):
                    depth, at = depth - 1, at + 2
                else:
                    if text[at] == "\n":
                        out.append("\n")
                    at += 1
        elif m.group(1) is not None:
            close = text.find('"' + m.group(1), m.end())
            at = len(text) if close < 0 else close + 1 + len(m.group(1))
            out.append(text[m.start() : at])
        elif tok.endswith('"'):
            rest = STRING_REST.match(text, m.end())
            at = rest.end() if rest else len(text)
            out.append(text[m.start() : at])
        else:
            char = CHAR.match(text, m.start())
            at = char.end() if char else m.end()
            out.append(text[m.start() : at])
    out.append(text[at:])
    return "".join(out)


def rust_files(top):
    for dirpath, dirnames, filenames in os.walk(top):
        dirnames[:] = [d for d in dirnames if d not in ("target", "out")]
        for f in filenames:
            if f.endswith(".rs"):
                yield os.path.join(dirpath, f)


def read_code(path):
    with open(path, encoding="utf-8") as f:
        return strip_comments(f.read())


def census(root):
    """Returns (declared, flagged, src_words): per subject crate, every
    public name with its `file:line`, the flagged subset, and the words of
    its `src/`."""
    declared = defaultdict(dict)
    src_words = defaultdict(set)
    crates_using = defaultdict(set)  # word -> crates (None: outside crates/)
    for top in CONSUMER_DIRS:
        for path in rust_files(os.path.join(root, top)):
            rel = os.path.relpath(path, root).split(os.sep)
            crate = rel[1] if rel[0] == "crates" and len(rel) > 1 else None
            if crate == "shims":
                continue
            code = read_code(path)
            words = set(WORD.findall(code))
            for word in words:
                crates_using[word].add(crate)
            if crate in NOT_SUBJECTS or crate is None or rel[2] != "src":
                continue
            src_words[crate] |= words
            for m in DECL.finditer(code):
                if len(m.group(1)) >= MIN_LEN:
                    lineno = code.count("\n", 0, m.start(1)) + 1
                    declared[crate].setdefault(m.group(1), f"{os.path.join(*rel)}:{lineno}")
    flagged = {
        crate: {n: w for n, w in names.items() if not crates_using[n] - {crate}}
        for crate, names in declared.items()
    }
    return declared, flagged, src_words


def reason_error(root, crate, reason, src_words):
    """Why an allow-list reason is malformed, or None."""
    kind, _, rest = reason.partition(":")
    if kind == "signature":
        parts = rest.split("::")
        if len(parts) != 2 or not all(parts):
            return "want `signature:Type::item`"
        missing = [p for p in parts if p not in src_words[crate]]
        if missing:
            return f"`{'`, `'.join(missing)}` not found in crates/{crate}/src"
        return None
    if kind == "paper":
        ref, _, test = rest.partition(" ")
        if not ref:
            return "want `paper:<§ or Fig.> <file>::<test>`"
    elif kind == "test":
        test = rest
    else:
        return "reason must be `signature:`, `paper:` or `test:`"
    path, sep, name = test.strip().rpartition("::")
    if not sep:
        return f"want `{kind}:...<file>::<test>`"
    try:
        code = read_code(os.path.join(root, path))
    except OSError:
        return f"no test file {path}"
    if not re.search(rf"\bfn {re.escape(name)}\b", code):
        return f"no test `{name}` in {path}"
    return None


def chain_error(crate, name, allowed, flagged, seen=()):
    """Why `name`'s allow-list line does not resolve to a root, or None.
    A `signature:` line is followed through each of its two parts that
    is itself flagged; an unflagged part, a `paper:` line or a `test:`
    line is a root."""
    if name in seen:
        return f"cycle through `{name}`"
    reason = allowed.get((crate, name))
    if reason is None:
        return f"ends at `{name}`, which is flagged and not listed"
    kind, _, rest = reason.partition(":")
    if kind != "signature":
        return None
    for part in rest.split("::"):
        if part in flagged.get(crate, {}):
            if problem := chain_error(crate, part, allowed, flagged, (*seen, name)):
                return problem
    return None


def check(root):
    """Runs the census against `root`'s allow-list; returns the errors and
    a one-line summary."""
    _, flagged, src_words = census(root)
    errors = []
    allowed = {}
    lines = []
    with open(os.path.join(root, ALLOW), encoding="utf-8") as f:
        for lineno, raw in enumerate(f, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            at = f"{ALLOW}:{lineno}"
            parts = line.split(None, 2)
            if len(parts) < 3:
                errors.append(f"{at}: want `crate name reason`")
                continue
            crate, name, reason = parts
            allowed[(crate, name)] = reason
            lines.append((at, crate, name, reason))
    for at, crate, name, reason in lines:
        if name not in flagged.get(crate, {}):
            errors.append(f"{at}: `{crate} {name}` is no longer flagged: delete the line")
        elif problem := reason_error(root, crate, reason, src_words):
            errors.append(f"{at}: {problem}")
        elif problem := chain_error(crate, name, allowed, flagged):
            errors.append(f"{at}: the signature chain does not resolve: {problem}")
    for crate in sorted(flagged):
        for name, where in sorted(flagged[crate].items()):
            if (crate, name) not in allowed:
                errors.append(
                    f"{where}: `{name}` is public but nothing outside crates/{crate} uses it: "
                    "make it pub(crate), delete it, or allow-list it with a reason"
                )
    total = sum(len(v) for v in flagged.values())
    return errors, f"public census: {total} flagged, {len(allowed)} allow-listed, {len(errors)} errors"


def run(root):
    errors, summary = check(root)
    for e in errors:
        print(e, file=sys.stderr)
    print(summary)
    return 1 if errors else 0


# A consumer crate `b` using part of crate `a`, and a test of `a`: the
# census passes on it as written, and each case below breaks it once.
SELF_TEST_TREE = {
    "crates/a/src/lib.rs": (
        "pub fn shared_fn() {}\n"
        "pub struct Widget;\n"
        "pub struct Gizmo;\n"
        "impl Widget {\n"
        "    pub fn gadget(&self) -> Gizmo { Gizmo }\n"
        "}\n"
    ),
    "crates/a/tests/use_a.rs": "#[test]\nfn gizmo_works() {}\n",
    "crates/b/src/lib.rs": (
        "// Quoting \"gadget\" in a comment: not a use, and no string.\n"
        "pub fn run() {\n"
        "    a::shared_fn();\n"
        '    let _ = (a::Widget.gadget(), "//", \'"\');\n'
        "}\n"
    ),
    ALLOW: "a Gizmo signature:Widget::gadget\n",
}

SELF_TEST_CASES = [
    (
        "an unused pub fn",
        {"crates/a/src/lib.rs": "pub fn orphan_fn() {}\n"},
        "`orphan_fn` is public but nothing outside",
    ),
    (
        "a name mentioned outside only in a comment",
        {
            "crates/a/src/lib.rs": "pub fn quietly() {}\n",
            "crates/b/src/lib.rs": "/* a::quietly() */\n/// a::quietly()\n",
        },
        "`quietly` is public but nothing outside",
    ),
    (
        "a stale allow-list line",
        {ALLOW: "a shared_fn signature:Widget::gadget\n"},
        "`a shared_fn` is no longer flagged",
    ),
    (
        "a signature chain ending at a flagged name",
        {
            "crates/a/src/lib.rs": "pub struct Sprocket;\npub fn make_sprocket() -> Sprocket { Sprocket }\n",
            ALLOW: "a Sprocket signature:Widget::make_sprocket\n",
        },
        "does not resolve: ends at `make_sprocket`",
    ),
    (
        "a signature chain that cycles",
        {
            "crates/a/src/lib.rs": "pub struct Sprocket;\npub fn make_sprocket() -> Sprocket { Sprocket }\n",
            ALLOW: (
                "a Sprocket signature:Widget::make_sprocket\n"
                "a make_sprocket signature:Sprocket::gadget\n"
            ),
        },
        "does not resolve: cycle",
    ),
    (
        "a test: reason naming a test that does not exist",
        {ALLOW: "a Gizmo test:crates/a/tests/use_a.rs::no_such_test\n"},
        "no test `no_such_test`",
    ),
]


def self_test():
    """Builds the synthetic tree once clean and once per case; each case
    appends to the tree's files and must fail with its diagnostic."""
    failures = []
    cases = [("the clean tree", {}, None), *SELF_TEST_CASES]
    for title, additions, expect in cases:
        with tempfile.TemporaryDirectory() as tmp:
            for rel, text in SELF_TEST_TREE.items():
                path = os.path.join(tmp, rel)
                os.makedirs(os.path.dirname(path), exist_ok=True)
                with open(path, "w", encoding="utf-8") as f:
                    f.write(text + additions.get(rel, ""))
            err = io.StringIO()
            with redirect_stderr(err), redirect_stdout(io.StringIO()):
                status = run(tmp)
        if expect is None and status != 0:
            failures.append(f"{title}: want exit 0, got {status}:\n{err.getvalue()}")
        elif expect is not None and (status != 1 or expect not in err.getvalue()):
            failures.append(f"{title}: want exit 1 and `{expect}`, got {status}:\n{err.getvalue()}")
    for f in failures:
        print(f"census self-test: {f}", file=sys.stderr)
    print(f"census self-test: {len(cases) - len(failures)} of {len(cases)} cases behave")
    return 1 if failures else 0


def main():
    args = sys.argv[1:]
    if "--self-test" in args:
        return self_test()
    if "--list" in args:
        declared, flagged, _ = census(ROOT)
        for crate in sorted(declared):
            print(f"{crate}: {len(flagged[crate])} of {len(declared[crate])} public names flagged")
            for name, where in sorted(flagged[crate].items()):
                print(f"  {name}  ({where})")
        return 0
    return run(ROOT)


if __name__ == "__main__":
    sys.exit(main())
