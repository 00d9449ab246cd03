"""Record the reference CSVs that pin the benchmark's simulate and dmin-pdf outputs.

    python3 perfbench/record.py [--seeds 0-10] [--workloads study-nt3,cer-nt8,cer-nt16]

Runs one full-size cycle of each workload per seed with the checkout's
fdprecode and stores every CSV it writes in perfbench/reference.json, keyed
by workload, seed and call. Later runs at those seeds must reproduce them
byte for byte. Re-record only when a change is meant to alter the outputs,
and say so with the change.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE = os.path.join(HERE, "reference.json")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-10", help="inclusive range A-B")
    parser.add_argument("--workloads", default="study-nt3,cer-nt8,cer-nt16")
    args = parser.parse_args()
    lo, hi = (int(v) for v in args.seeds.split("-"))
    with open(REFERENCE, encoding="utf-8") as f:
        refs = json.load(f)
    for workload in args.workloads.split(","):
        for seed in range(lo, hi + 1):
            workdir = os.path.join(ROOT, ".perfbench-work", f"record-{workload}-{seed}")
            os.makedirs(workdir, exist_ok=True)
            try:
                subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), "run",
                                "--workload", workload, "--seed", str(seed), "--seconds", "0",
                                "--workdir", workdir], cwd=ROOT, check=True, timeout=600)
                with open(os.path.join(workdir, "result.json"), encoding="utf-8") as f:
                    result = json.load(f)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            refs.setdefault(workload, {})[str(seed)] = result["csv"]
            print(f"{workload} seed {seed}: {sorted(result['csv'])}", flush=True)
    with open(REFERENCE, "w", encoding="utf-8") as f:
        json.dump(refs, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
