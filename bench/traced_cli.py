"""Run one `degenstein` CLI command with the benchmark's spans installed.

Usage: python3 bench/traced_cli.py SPANS_JSON <degenstein arguments...>

The import of the package is itself a span ("cli.import").  The spans are
written to SPANS_JSON when the command returns, and the process exits with
the command's exit code.
"""

import sys
import time

from tracer import Tracer


def main():
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    t0 = time.perf_counter()
    import degenstein.cli
    tracer.span("cli.import", t0, time.perf_counter())
    tracer.install()
    tracer.enable(True)
    try:
        code = degenstein.cli.main(argv)
    finally:
        tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
