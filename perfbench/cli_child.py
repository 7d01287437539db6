"""Run one `pbracket` command with spans recorded inside the process.

Usage: python cli_child.py <pbracket arguments>

Used by traced cli_cold runs in place of ``python -m pbracket.cli``.  Stdout
and the exit code are the command's own; the span summary is written to
stderr as one line starting with the span marker.
"""

import json
import sys

from tracing import SPAN_MARKER, Tracer

import pbracket.cli


def main() -> int:
    tracer = Tracer()
    tracer.install()
    code = pbracket.cli.main(sys.argv[1:])
    sys.stdout.flush()
    sys.stderr.write(SPAN_MARKER + json.dumps(tracer.summary()) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
