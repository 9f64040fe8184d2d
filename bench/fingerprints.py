"""Record the training fingerprints that run.py checks at workload seed 0.

    python3 bench/fingerprints.py [WORKLOAD ...]

Runs the first rounds of the named workloads (default: all) at workload
seed 0, enough to cover a run at seed 0 on a machine twice as fast as the
one that recorded them; later rounds go unchecked by fingerprint. Writes,
per (workload, agent, training seed), the hash of the reward sequence, the
total steps and whether the run converged. Re-record only when a change is
meant to alter what the agents learn, and say so.
"""

from __future__ import annotations

import json
import sys

import workloads
from tracing import Tracer

# train-converge: the acceptance seeds 0-9
ROUNDS = {"train-converge": 10, "train-churn": 150, "artifacts": 70}


def main() -> int:
    names = sys.argv[1:] or list(workloads.WORKLOADS)
    table = workloads.load_fingerprints()
    for workload in names:
        with Tracer(spans=False) as tracer:
            session = workloads.Session(workload, 0, tracer)
            session.run(rounds=ROUNDS[workload])
        failures = session.failures()
        if failures:
            print("\n".join(failures), file=sys.stderr)
            return 1
        table[workload] = dict(sorted(session.observed.items()))
        for kind in workloads.KINDS:
            runs = [v for k, v in session.observed.items() if k.startswith(f"{kind}/")]
            print(f"{workload} {kind}: {sum(r['converged'] for r in runs)}/{len(runs)} "
                  f"converged, {sum(r['steps'] for r in runs)} steps")
    workloads.FINGERPRINT_FILE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"written to {workloads.FINGERPRINT_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
