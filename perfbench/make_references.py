"""Write perfbench/references.json: the digest of each command's result.

    python3 perfbench/make_references.py

Run once, at the commit whose outputs are the reference.  A battery command's
reference is its committed report ``out/<ref>.json``; a command outside the
battery is run once here with the default seed.  disc-verify keeps only its
seed-independent ``special`` block.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS, result_digest

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    refs = {}
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for cmds in WORKLOADS.values():
        for cmd in cmds:
            if cmd.battery:
                result = json.loads((ROOT / "out" / f"{cmd.ref}.json").read_text())["result"]
            else:
                proc = subprocess.run([sys.executable, "-m", "eigenone", *cmd.argv, "--jobs", "1"],
                                      env=env, cwd=ROOT, capture_output=True, text=True)
                if proc.returncode != cmd.expect:
                    print(f"{cmd.ref}: exit {proc.returncode}, expected {cmd.expect}", file=sys.stderr)
                    return 1
                result = json.loads(proc.stdout)["result"]
            if cmd.ref == "disc_verify":
                refs["disc_verify.special"] = result_digest(result["special"])
            else:
                refs[cmd.ref] = result_digest(result)
    path = Path(__file__).resolve().parent / "references.json"
    path.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(refs)} references to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
