"""Run one wqisa CLI command in this fresh process and time it.

usage: python child.py RESULT_JSON OP_ID TRACE -- <wqisa arguments>

Writes RESULT_JSON with the monotonic clock readings just before and just
after ``wqisa.cli.main``, its return code and the peak resident set. With
TRACE=1 the layer wrappers from tracing.py are installed first and the
op's spans are added to the file. The parent launches this with PYTHONPATH pointing at the
checked-out source, so ``ready`` minus the launch time is interpreter
start plus ``import wqisa``.
"""

import json
import sys
import time


def peak_rss_kib() -> int:
    """This process's own resident high-water mark.

    Not ru_maxrss: Linux carries the launching process's high-water mark
    across exec into it, so a child of a large parent would report the
    parent's peak.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        return next(int(ln.split()[1]) for ln in fh if ln.startswith("VmHWM:"))


def main(argv: list[str]) -> int:
    result_path, op, trace = argv[0], int(argv[1]), argv[2] == "1"
    cli_args = argv[argv.index("--") + 1:]
    import numpy  # noqa: F401  the host-speed probe ends here, before any wqisa code

    probe = time.clock_gettime(time.CLOCK_MONOTONIC)
    from wqisa import cli

    entry, payload = cli.main, {"op": op, "probe": probe}
    if trace:
        import tracing

        tracer = tracing.Tracer(op)
        payload["installed"] = tracing.install(tracer)
        entry = tracer.wrap(tracing.ROOT_SPAN, cli.main)
    payload["ready"] = time.clock_gettime(time.CLOCK_MONOTONIC)
    rc = entry(cli_args)
    payload["done"] = time.clock_gettime(time.CLOCK_MONOTONIC)
    payload["rc"] = rc
    payload["peak_rss_kib"] = peak_rss_kib()
    sys.stdout.flush()
    if trace:
        payload["spans"] = tracer.spans
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
