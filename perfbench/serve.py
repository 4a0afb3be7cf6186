"""Launch ``aalwines serve`` for http-mixed, optionally with the tracer.

    python3 perfbench/serve.py [--trace-dir DIR] SERVE-ARGS...

With ``--trace-dir`` the tracer's wrappers are installed before
``repro.cli.main(["serve", ...])`` runs, so the pre-fork workers inherit
them through fork. Requests without an ``X-Request-Id`` header are not
recorded.
"""

from __future__ import annotations

import sys


def main(argv) -> int:
    if argv[:1] == ["--trace-dir"]:
        import tracer

        tracer.install(argv[1])
        argv = argv[2:]
    from repro.cli import main as cli_main

    return cli_main(["serve", *argv])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
