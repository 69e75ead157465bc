"""One nilharm CLI invocation under the layer tracer.

Usage: python -X importtime cli_child.py [--import-only | <cli arguments>]

Times `import nilharm.cli`, installs the tracer, runs nilharm.cli.main
with the given arguments (its standard output is passed through
unchanged and counted), and writes a one-line JSON report of per-layer
self times and counters to standard error.  With --import-only it stops
after the import.
"""

import json
import sys
import time

from tracer import TRACE_MARKER, Tracer


class _CountingStream:
    def __init__(self, inner):
        self.inner = inner
        self.bytes = 0

    def write(self, text):
        self.bytes += len(text.encode())
        return self.inner.write(text)

    def __getattr__(self, name):
        return getattr(self.inner, name)


def main(argv):
    t0 = time.perf_counter()
    import nilharm.cli
    import_s = time.perf_counter() - t0
    tracer = Tracer()
    rc, bytes_out = 0, 0
    if argv != ["--import-only"]:
        tracer.install()
        stream = _CountingStream(sys.stdout)
        sys.stdout = stream
        try:
            rc = nilharm.cli.main(argv)
        finally:
            sys.stdout = stream.inner
            sys.stdout.flush()
        bytes_out = stream.bytes
    report = {"import_s": import_s, "self_s": dict(tracer.self_s),
              "counts": dict(tracer.counts), "bytes_out": bytes_out}
    print(TRACE_MARKER + json.dumps(report), file=sys.stderr)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
