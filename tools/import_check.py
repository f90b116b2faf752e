#!/usr/bin/env python3
"""Check that importing sepprob and its CLI loads no heavy module.

    python3 -I tools/import_check.py [SRC]

The script imports mpmath, notes the loaded modules, then imports sepprob
and sepprob.cli: from the directory SRC when it is given, else from
wherever the interpreter finds the installed package.  It prints the
path sepprob came from and each of HEAVY that the second import added,
one a line, and exits 1 when it added any.  Run it with -I, so that no
environment variable or user site adds modules of its own.  It measures
no time, so its verdict does not depend on the host.
"""

import sys

# the modules a cold CLI run should not pay for: dataclasses brings in
# inspect (and with it ast and dis); csv is needed only by --format csv;
# hashlib costs about 4.7 ms to import (it loads OpenSSL), and the table
# check uses zlib, which the interpreter has loaded at start-up
HEAVY = ("dataclasses", "inspect", "csv", "hashlib")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv:
        sys.path.insert(0, argv[0])
    import mpmath  # noqa: F401  (every run loads it before sepprob)
    before = set(sys.modules)
    import sepprob
    import sepprob.cli  # noqa: F401
    added = [name for name in HEAVY
             if name in sys.modules and name not in before]
    print(f"sepprob from {sepprob.__file__}")
    for name in added:
        print(name)
    return 1 if added else 0


if __name__ == "__main__":
    sys.exit(main())
