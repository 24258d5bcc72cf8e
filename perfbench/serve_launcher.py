"""Start a ``repro serve --jobs 1`` daemon on an ephemeral port.

The benchmark starts the daemon through this launcher rather than the
``repro`` CLI so that the traced run can install its wrappers inside
the daemon process (``--trace-dir DIR``); the daemon's spans are
written to DIR when it shuts down on SIGTERM. SIGUSR1 clears the
daemon's counters, which the benchmark sends when its timed pass
starts. The first line on stdout is the daemon's "listening on" line.
"""

from __future__ import annotations

import argparse
import asyncio
import os
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trace-dir", default=None)
    args = parser.parse_args()

    if args.trace_dir:
        import tracing

        tracing.install(args.trace_dir, serve=True)
        signal.signal(signal.SIGUSR1,
                      lambda *_: tracing.RECORDER.counts.clear())
    from repro.serve.server import ServeConfig, serve_forever

    code = asyncio.run(serve_forever(ServeConfig(port=0, jobs=1)))
    if args.trace_dir:
        tracing.RECORDER.flush(args.trace_dir)
    return code


if __name__ == "__main__":
    sys.exit(main())
