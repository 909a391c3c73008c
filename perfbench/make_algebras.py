"""Write the lie-ladder algebra files with idealkit's own constructors.

Usage: python3 make_algebras.py OUT_DIR STEM:KIND:N [...]

KIND is a ``make_algebra`` kind, or ``sum`` for sp(6) + sp(4) built with
``matlie.direct_sum``.  Runs in a child interpreter against the checkout's
``src`` so that the benchmark process never imports idealkit.
"""

import os
import sys

from idealkit import matlie


def main(argv) -> int:
    out_dir, specs = argv[0], argv[1:]
    for spec in specs:
        stem, kind, n = spec.split(":")
        if kind == "sum":
            algebra = matlie.direct_sum(matlie.sp_standard(3), matlie.sp_standard(2))
        else:
            algebra = matlie.make_algebra(kind, int(n))
        matlie.save_algebra(algebra, os.path.join(out_dir, f"{stem}.json"))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
