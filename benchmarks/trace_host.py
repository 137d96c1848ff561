"""Run one ``xpharq`` CLI command with tracing installed; write its spans.

    python3 benchmarks/trace_host.py TRACE_JSON -- sweep --config ...

Used for the traced run of the subprocess workload.  Spans recorded in
process-pool workers stay in those workers and are not written.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import xpharq.cli  # noqa: E402
from tracing import Tracer, write_trace  # noqa: E402


def main() -> int:
    out_path, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: trace_host.py TRACE_JSON -- CLI-ARGS...")
    tracer = Tracer()
    tracer.install()
    tracer.qid = 0
    try:
        return xpharq.cli.main(argv)
    finally:
        tracer.uninstall()
        write_trace(out_path, tracer.spans, tracer.counters)


if __name__ == "__main__":
    raise SystemExit(main())
