"""Run one `spc` command in this process under the benchmark's clocks.

    python3 -m perfbench.child --marks FILE [--spans FILE] [--setup-only] -- SPC-ARGS

Without ``--spans`` the only instrumentation is two clock reads: when
``spc_train`` is entered and when the output directory has been renamed
into place.  ``--spans`` also installs the span tracer of
``perfbench.trace``.  ``--setup-only`` stops the run at the first call into
training, so set-up can be sampled cheaply.  The marks file gets the clock
readings, the exit code and the peak resident memory of this process.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time


class _SetupDone(Exception):
    """Raised at the first call into training in a --setup-only run."""


def _install_clock(cli, marks: dict, setup_only: bool) -> None:
    train, finalize = cli.spc_train, cli._finalize

    def clocked_train(*args, **kwargs):
        marks["train_start"] = time.monotonic()
        if setup_only:
            raise _SetupDone
        result = train(*args, **kwargs)
        marks["train_end"] = time.monotonic()
        return result

    def clocked_finalize(*args, **kwargs):
        finalize(*args, **kwargs)
        marks["finalized"] = time.monotonic()

    cli.spc_train, cli._finalize = clocked_train, clocked_finalize


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench.child")
    parser.add_argument("--marks", required=True)
    parser.add_argument("--spans", default=None)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("spc_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    spc_args = args.spc_args[1:] if args.spc_args[:1] == ["--"] else args.spc_args

    import spc.cli as cli

    source = os.path.join(os.getcwd(), "src", "spc")
    if os.path.dirname(os.path.abspath(cli.__file__)) != source:
        print(f"spc imported from {cli.__file__}, not from {source}", file=sys.stderr)
        return 2

    tracer = None
    if args.spans:
        from perfbench import trace

        tracer = trace.Tracer(run=os.path.basename(os.path.dirname(args.marks)))
        trace.install(tracer)

    marks: dict = {}
    _install_clock(cli, marks, args.setup_only)
    try:
        code = cli.main(spc_args)
    except _SetupDone:
        code = 0
    marks["exit_code"] = code
    marks["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(args.marks, "w") as f:
        json.dump(marks, f)
    if tracer is not None:
        with open(args.spans, "w") as f:
            json.dump(tracer.records(), f)
    return code


if __name__ == "__main__":
    sys.exit(main())
