"""Run one orbitkit CLI command as one benchmark job, in this interpreter.

    python3 perfbench/child.py SRC RECORD TRACE -- CLI-ARGS...

The report goes to standard output exactly as ``python -m orbitkit.cli``
would print it.  When the command returns, the timing record is written as
JSON to RECORD: when this file started running, when ``import orbitkit.cli``
finished, the seconds spent in the CLI's set-up steps (spec loading, which
builds the ring, and the CLI's own LazardGroup), and, with TRACE = 1, the
spans of every call into the wrapped layers.
"""

import time

START = time.monotonic()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

import layers  # noqa: E402
from spans import Recorder, clock  # noqa: E402

SETUP_STEPS = ("load_ring_spec", "load_qp_spec", "load_subring_spec",
               "LazardGroup")


def _time_setup(cli, total):
    """Add the time of every call to a CLI set-up step to ``total[0]``."""
    def timed(fn):
        def call(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                total[0] += clock() - start
        return call
    for name in SETUP_STEPS:
        fn = getattr(cli, name, None)
        if fn is not None:
            setattr(cli, name, timed(fn))


def main():
    src, record_path, trace = sys.argv[1], sys.argv[2], sys.argv[3] == "1"
    if sys.argv[4] != "--":
        raise SystemExit("usage: child.py SRC RECORD TRACE -- CLI-ARGS...")
    src = os.path.abspath(src)
    sys.path[0] = src
    begin = clock()
    import orbitkit.cli as cli
    imported = clock()
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"orbitkit was imported from {cli.__file__}, "
                         f"not from {src}")
    recorder = Recorder()
    missing = []
    if trace:
        recorder.spans.append(["cli.import", begin, imported, -1, 0])
        missing = layers.install(recorder)
    setup = [0.0]
    _time_setup(cli, setup)
    try:
        status = cli.main(sys.argv[5:])
    finally:
        sys.stdout.flush()
        with open(record_path, "w", encoding="utf-8") as fh:
            json.dump({"start": START, "imported": imported,
                       "setup_s": setup[0], "missing": missing,
                       "spans": recorder.spans}, fh)
    return status


if __name__ == "__main__":
    sys.exit(main())
