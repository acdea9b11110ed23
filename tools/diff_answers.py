"""Compare two answer dumps of tools/compare_answers.py, allowing float noise.

    python3 tools/diff_answers.py A.json B.json

Every integer, string, boolean and null in A must equal the one at the same
place in B, and both dumps must have the same shape; the script lists the
first differences and exits 1 otherwise. Floats may differ: for each
top-level key it prints how many floats differ and the largest relative
difference |a - b| / max(|a|, |b|). Use it where `cmp` is too strict, for a
change that legitimately moves floats by an ulp.
"""

import json
import sys

SHOWN = 10  # exact differences listed per key


def walk(a, b, path, floats, exact):
    """Collect relative float differences into floats, other ones into exact."""
    if type(a) is float and type(b) is float:
        scale = max(abs(a), abs(b))
        floats.append(0.0 if a == b else abs(a - b) / scale)
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for i, (x, y) in enumerate(zip(a, b)):
            walk(x, y, f"{path}[{i}]", floats, exact)
    elif isinstance(a, dict) and isinstance(b, dict) and a.keys() == b.keys():
        for key in a:
            walk(a[key], b[key], f"{path}.{key}", floats, exact)
    elif type(a) is not type(b) or a != b:
        exact.append(f"{path}: {a!r} != {b!r}")


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    dumps = []
    for name in argv:
        with open(name) as f:
            dumps.append(json.load(f))
    a, b = dumps
    failed = a.keys() != b.keys()
    if failed:
        print(f"top-level keys differ: {sorted(a)} != {sorted(b)}")
    for key in sorted(a.keys() & b.keys()):
        floats, exact = [], []
        walk(a[key], b[key], key, floats, exact)
        moved = sum(d > 0.0 for d in floats)
        print(
            f"{key}: {len(floats)} floats, {moved} differ, largest relative "
            f"difference {max(floats, default=0.0):.3g}; "
            f"{len(exact)} exact differences"
        )
        for line in exact[:SHOWN]:
            print(f"  {line}")
        failed = failed or bool(exact)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
