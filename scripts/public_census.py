#!/usr/bin/env python3
"""Public-surface census: a `pub` item nothing outside its crate names.

Rule: every `pub fn|struct|enum|trait|type|const|static` declared in
`crates/<c>/src` whose name (five letters or more) occurs as a word in no
`.rs` file outside `crates/<c>/` is flagged. Consumers are the other
crates, `crates/bench`, `benchmark/`, `examples/`, the root `tests/` and
`src/`; the shims are neither subjects nor consumers. Shorter names are
skipped: a word that short matches too much to mean anything.

A flagged name must have a line in `public_census.allow` giving one of the
reasons that file's header defines; a listed name that is no longer
flagged is an error too, so the list can only shrink. Exit status 1 on
any error.

`--list` prints every flagged name with where it is declared, listed or
not, and the per-crate counts, and exits 0.
"""

import os
import re
import sys
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ALLOW = os.path.join(ROOT, "scripts", "public_census.allow")
CONSUMER_DIRS = ["crates", "benchmark", "examples", "tests", "src"]
# Consumers only: the shims stand in for external crates, and `bench` is
# a set of report binaries.
NOT_SUBJECTS = {"shims", "bench"}
# Crates whose flagged names have not been triaged yet (ROADMAP item 7).
PENDING_CRATES = {"netpipe"}
MIN_LEN = 5

DECL = re.compile(
    r"^\s*pub\s+(?:(?:const|unsafe|async)\s+)*"
    r"(?:fn|struct|enum|trait|type|const|static)\s+(?:mut\s+)?([A-Za-z_]\w*)"
)
WORD = re.compile(r"[A-Za-z_]\w*")


def rust_files(top):
    for dirpath, dirnames, filenames in os.walk(top):
        dirnames[:] = [d for d in dirnames if d not in ("target", "out")]
        for f in filenames:
            if f.endswith(".rs"):
                yield os.path.join(dirpath, f)


def crate_of(path):
    """The directory under `crates/` a file belongs to, or None."""
    rel = os.path.relpath(path, ROOT).split(os.sep)
    return rel[1] if rel[0] == "crates" and len(rel) > 1 else None


def census():
    """Returns (declared, flagged, src_words): per subject crate, every
    public name with its `file:line`, the flagged subset, and the words of
    its `src/`."""
    declared = defaultdict(dict)
    src_words = defaultdict(set)
    crates_using = defaultdict(set)  # word -> crates (None: outside crates/)
    for top in CONSUMER_DIRS:
        for path in rust_files(os.path.join(ROOT, top)):
            crate = crate_of(path)
            if crate == "shims":
                continue
            with open(path, encoding="utf-8") as f:
                text = f.read()
            words = set(WORD.findall(text))
            for word in words:
                crates_using[word].add(crate)
            src = os.path.join(ROOT, "crates", str(crate), "src") + os.sep
            if crate in NOT_SUBJECTS or crate is None or not path.startswith(src):
                continue
            src_words[crate] |= words
            for lineno, line in enumerate(text.splitlines(), 1):
                m = DECL.match(line)
                if m and len(m.group(1)) >= MIN_LEN:
                    where = f"{os.path.relpath(path, ROOT)}:{lineno}"
                    declared[crate].setdefault(m.group(1), where)
    flagged = {
        crate: {n: w for n, w in names.items() if not crates_using[n] - {crate}}
        for crate, names in declared.items()
    }
    return declared, flagged, src_words


def reason_error(crate, reason, src_words):
    """Why an allow-list reason is malformed, or None."""
    kind, _, rest = reason.partition(":")
    if kind == "signature":
        parts = rest.split("::")
        if len(parts) != 2 or not all(parts):
            return "want `signature:Type::item`"
        missing = [p for p in parts if p not in src_words[crate]]
        if missing:
            return f"`{'`, `'.join(missing)}` not found in crates/{crate}/src"
    elif kind == "paper":
        ref, _, test = rest.partition(" ")
        path, sep, name = test.strip().rpartition("::")
        if not ref or not sep:
            return "want `paper:<§ or Fig.> <file>::<test>`"
        try:
            with open(os.path.join(ROOT, path), encoding="utf-8") as f:
                text = f.read()
        except OSError:
            return f"no test file {path}"
        if not re.search(rf"\bfn {re.escape(name)}\b", text):
            return f"no test `{name}` in {path}"
    elif kind == "pending":
        if crate not in PENDING_CRATES:
            return f"`pending:` is only for {', '.join(sorted(PENDING_CRATES))}"
    else:
        return "reason must be `signature:`, `paper:` or `pending:`"
    return None


def main():
    declared, flagged, src_words = census()
    if "--list" in sys.argv[1:]:
        for crate in sorted(declared):
            print(f"{crate}: {len(flagged[crate])} of {len(declared[crate])} public names flagged")
            for name, where in sorted(flagged[crate].items()):
                print(f"  {name}  ({where})")
        return 0
    errors = []
    allowed = set()
    with open(ALLOW, encoding="utf-8") as f:
        for lineno, raw in enumerate(f, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            at = f"scripts/public_census.allow:{lineno}"
            parts = line.split(None, 2)
            if len(parts) < 3:
                errors.append(f"{at}: want `crate name reason`")
                continue
            crate, name, reason = parts
            allowed.add((crate, name))
            if name not in flagged.get(crate, {}):
                errors.append(f"{at}: `{crate} {name}` is no longer flagged: delete the line")
            elif problem := reason_error(crate, reason, src_words):
                errors.append(f"{at}: {problem}")
    for crate in sorted(flagged):
        for name, where in sorted(flagged[crate].items()):
            if (crate, name) not in allowed:
                errors.append(
                    f"{where}: `{name}` is public but nothing outside crates/{crate} uses it: "
                    "make it pub(crate), delete it, or allow-list it with a reason"
                )
    for e in errors:
        print(e, file=sys.stderr)
    total = sum(len(v) for v in flagged.values())
    print(f"public census: {total} flagged, {len(allowed)} allow-listed, {len(errors)} errors")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
