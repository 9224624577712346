"""Run one eigenone CLI command in this process with the layer tracer on.

    python perfbench/traced_cli.py specht audit --n 9 --family n-2,2 --seed 1 --jobs 1

Standard output is the CLI's own report, unchanged.  The last line of
standard error is ``PERFBENCH_TRACE <json>``: the tracer's export plus the
state read at exit (matrices cached, binding errors).  The exit code is the
CLI's.  One command per process, so no cache outlives a command, as in the
CLI.
"""

import json
import sys

from tracer import Tracer

import eigenone.cli


def main(argv: list[str]) -> int:
    tracer = Tracer()
    tracer.install()
    try:
        rc = eigenone.cli.main(argv)
    except SystemExit as e:
        rc = 0 if e.code is None else e.code if isinstance(e.code, int) else 1
    sys.stdout.flush()
    out = tracer.export()
    out["binding_errors"] = tracer.binding_errors()
    out["matrix_cache_size"] = len(getattr(sys.modules.get("eigenone.specht"), "_MATRIX_CACHE", ()))
    sys.stderr.write("PERFBENCH_TRACE " + json.dumps(out) + "\n")
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
