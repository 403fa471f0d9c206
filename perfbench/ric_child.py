"""Traced `tsgbomp` command: what `python -m tsgbomp.cli ARGS` does, with the
ric_cold span wrappers installed.

    python3 perfbench/ric_child.py SPANS_OUT ARGS...

Writes the spans to SPANS_OUT and exits with the command's exit code.
"""

import sys

import tsgbomp.cli

import layers
from tracing import Tracer

if __name__ == "__main__":
    tracer = Tracer()
    with tracer.installed(layers.RIC_CHILD_TARGETS):
        code = tsgbomp.cli.main(sys.argv[2:])
    tracer.dump(sys.argv[1])
    sys.exit(code)
