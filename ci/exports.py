#!/usr/bin/env python3
"""Check that every library export has a caller.

For each `val` in lib/*/*.mli, search every .ml/.mli under lib, bin,
bench, examples, perfbench and test, other than the value's own .ml and
.mli, for its bare name. Fails when:

  - no other file names it (the export has no caller), or
  - only files under test/ name it and its doc comment does not begin
    with "Test oracle:".

A bare-name match may come from an unrelated identifier, so the check
can pass an unused export but never fails a used one. Operators are not
checked. Run from the root of the checkout:

  python3 ci/exports.py
"""

import glob
import os
import re
import sys

DIRS = ["lib", "bin", "bench", "examples", "perfbench", "test"]
VAL = re.compile(r"^val\s+([a-z_][\w']*)", re.M)


def sources():
    files = {}
    for d in DIRS:
        for ext in ("ml", "mli"):
            for path in glob.glob(f"{d}/**/*.{ext}", recursive=True):
                if "/_build/" in path or path.startswith("_build"):
                    continue
                with open(path) as f:
                    files[path] = f.read()
    return files


def doc_after(text, pos):
    """The doc comment that directly follows the declaration at `pos`
    (this codebase documents a value below its signature)."""
    m = re.match(r"val[^\n]*\n(?:[ \t]+[^\n]*\n)*[ \t]*\(\*\*(.*?)\*\)", text[pos:], re.S)
    return m.group(1).strip() if m else ""


def main():
    files = sources()
    failures = []
    for mli in sorted(glob.glob("lib/*/*.mli")):
        own = {mli, mli[:-1]}
        text = files[mli]
        for m in VAL.finditer(text):
            name = m.group(1)
            word = re.compile(r"(?<![\w'])" + re.escape(name) + r"(?![\w'])")
            users = [p for p, src in files.items() if p not in own and word.search(src)]
            if not users:
                failures.append(f"{mli}: val {name} has no caller")
            elif all(p.startswith("test/") for p in users):
                if not doc_after(text, m.start()).startswith("Test oracle:"):
                    failures.append(
                        f"{mli}: val {name} is named only by tests and is "
                        "not marked \"Test oracle:\""
                    )
    for line in failures:
        print(line)
    print(f"exports: {len(failures)} problem(s)")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
