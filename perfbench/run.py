"""homsim benchmark: one command, one workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The program is taken from the checkout's
src/ (nothing is installed).  Whole rounds of the workload run until their
timed work adds up to --seconds; each round is a fresh Python process
(workload.py), which pays the cold `import homsim` as every command-line
invocation does.  The end-to-end metrics are medians over the rounds.  With
--trace 1 one more process times each layer (probes.py).  The last line of
standard output is the JSON result.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("mc_markovian", "mc_nonmarkovian", "sweep_curves")
# setup_s is the median of at least this many cold imports: one per round,
# topped up by processes that only import
SETUP_SAMPLES = 3
TIME_LIMIT_S = 170


class ChildFailed(Exception):
    pass


def _run_json(argv, env, deadline):
    """Run a child in its own process group and parse its last output line.

    The child and anything it started are killed at the deadline.
    """
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise ChildFailed(f"out of time: {' '.join(argv[1:])}") from None
    if proc.returncode != 0:
        raise ChildFailed(f"exit code {proc.returncode}: {' '.join(argv[1:])}")
    return json.loads(out.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "homsim", "__init__.py")):
        print(f"no homsim sources under {src}; run from the root of a checkout",
              file=sys.stderr)
        return 2

    env = dict(os.environ, PYTHONPATH=src, PYTHONNOUSERSITE="1")
    scratch = os.path.join(root, ".perfbench_out", f"{args.workload}-{os.getpid()}")
    child = [sys.executable, os.path.join(HERE, "workload.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--scratch", scratch]
    deadline = time.monotonic() + TIME_LIMIT_S
    os.makedirs(scratch)
    try:
        rounds = []
        while not rounds or sum(r["wall_s"] for r in rounds) < args.seconds:
            rounds.append(_run_json(child + ["--round", str(len(rounds))], env, deadline))
        imports = [r["import_s"] for r in rounds]
        while len(imports) < SETUP_SAMPLES:
            imports.append(_run_json(child + ["--import-only"], env, deadline))
        if args.trace:
            rounds_json = os.path.join(scratch, "rounds.json")
            with open(rounds_json, "w") as fh:
                json.dump(rounds, fh)
            metrics = _run_json(child + ["--probes", rounds_json], env, deadline)["metrics"]
        else:
            metrics = {name: {"value": statistics.median(values), "unit": unit}
                       for name, unit, values in (
                           ("setup_s", "s", imports),
                           ("wall_s", "s", [r["wall_s"] for r in rounds]),
                           ("peak_rss_mb", "MB", [r["peak_rss_mb"] for r in rounds]),
                           ("output_mb", "MB", [r["output_bytes"] / 1e6 for r in rounds]))}
    except ChildFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            os.rmdir(os.path.dirname(scratch))
    print(json.dumps({"correct": all(r["correct"] for r in rounds),
                      "attempted": sum(r["attempted"] for r in rounds),
                      "failed": sum(r["failed"] for r in rounds),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
