"""Traced stand-in for ``python -m trapkit.cli``, used by the traced pass.

Run as ``python perfbench/cli_traced.py <cli arguments>`` with
``PERFBENCH_TRACE_OUT`` naming the JSON file to write. It times the import
of ``trapkit.cli``, installs the tracer, runs ``trapkit.cli.main`` and
writes the spans and counts when the command ends. The exit code is the
CLI's own.
"""

import json
import os
import sys
import time

t_start = time.perf_counter()
import trapkit.cli as cli  # noqa: E402

t_imported = time.perf_counter()

from tracing import Tracer  # noqa: E402


def main() -> int:
    tracer = Tracer()
    tracer.install()
    tracer.add_span("cli.import", t_start, t_imported)
    code = 1
    try:
        code = cli.main(sys.argv[1:])
    except SystemExit as exc:  # argparse rejects bad arguments this way
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        tracer.uninstall()
        out = {
            "spans": tracer.spans,
            "counts": {name: n for (_, name), n in tracer.counts.items()},
        }
        with open(os.environ["PERFBENCH_TRACE_OUT"], "w", encoding="utf-8") as fh:
            json.dump(out, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
