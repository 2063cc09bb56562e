"""Run the zxwebs CLI with every layer traced.

Usage: python3 perfbench/traced_cli.py SPANS_JSON <zxwebs arguments...>

Stdout, stderr and the exit code are the CLI's own; the spans and counters
go to SPANS_JSON when the CLI returns.
"""

import sys

from tracer import ROOT, Tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    import zxwebs.cli

    code = tracer.wrap(ROOT, zxwebs.cli.main)(argv)
    sys.stdout.flush()
    tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
