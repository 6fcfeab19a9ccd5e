#!/usr/bin/env python3
"""Regenerate bench/frozen.json from one untraced pass of each workload.

    python3 bench/freeze.py

Query and orbit digests are frozen for ``workloads.FROZEN_SEED``; report
digests hold for every seed.  Nothing is written unless every operation
passes its own checks.  Run this only for a change that is meant to alter
outputs, and review the diff of frozen.json with it.
"""

import json
import sys

import run
import workloads


def main() -> int:
    api = run.load_onecyl()
    frozen = {}
    for name, cls in workloads.WORKLOADS.items():
        seed = workloads.FROZEN_SEED
        workload = cls(api, seed, smoke=False)
        inputs = workload.setup_inputs()
        p = run.run_pass(workload, inputs, run.RefClock(), check=True)
        attempted, failed, problems = run.judge(inputs, [p], None)
        if failed:
            print("\n".join(problems), file=sys.stderr)
            return 1
        frozen[name] = {"seed": None if name == "report" else seed, "digests": p.digests}
        print("%s: %d operations" % (name, attempted))
    (run.HERE / "frozen.json").write_text(json.dumps(frozen, indent=0) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
