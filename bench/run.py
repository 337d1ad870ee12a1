"""Benchmark of thinspec: one workload per process, timed from outside.

    python3 bench/run.py --workload ellipse_sweep --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from src/.
The run repeats whole rounds of the workload for about --seconds seconds.
Each call of a round is timed on its own, and a round's time is the sum of
each call's fastest time over the rounds after the first. The host's speed
swings for minutes at a time, so a fixed pure-Python loop is timed before
every call, and wall_s and setup_s are rescaled by the loop's lower
quartile to the speed of the reference machine. With --trace 0 it
reports the end-to-end metrics (wall_s, setup_s, peak_rss_mb). With
--trace 1 each untraced round is followed by a traced one, and it reports
the per-layer metrics (medians over traced rounds) and the tracing overhead
(traced minus untraced round time). Every round's
outputs are checked against independent references; the last line of
standard output is one JSON object with correct, attempted, failed and
metrics.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_PROBES = 4
LOOP_SAMPLES = 8
# lower quartile of one loop_timings() sample on the reference machine
# (bench/README.md); wall_s and setup_s are expressed at that host speed
LOOP_REF_S = 0.0037


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print the set-up time and exit (used for repeat samples)")
    return p.parse_args(argv)


def _spin():
    """A fixed pure-Python loop. It holds no data and calls no library, so
    its time follows the host's CPU speed, not the state of the process."""
    x = 0
    for i in range(100_000):
        x += i
    return x


def loop_timings(n=LOOP_SAMPLES):
    """Seconds of n back-to-back runs of the fixed loop."""
    out = []
    for _ in range(n):
        t = time.perf_counter()
        _spin()
        out.append(time.perf_counter() - t)
    return out


def run_round(wl, inputs, refs, loops=None):
    """Run and check one round; return (seconds of each call, attempted, failed).
    With a list `loops`, time the fixed loop before each call and append
    the timings to it."""
    calls = wl.calls(inputs)
    results, walls = [], []
    for _, thunk in calls:
        if loops is not None:
            loops.extend(loop_timings())
        start = time.perf_counter()
        try:
            results.append(thunk())
        except Exception:  # a raising call fails its operations; keep measuring
            traceback.print_exc(file=sys.stderr)
            results.append(None)
        walls.append(time.perf_counter() - start)
    ok = wl.check(inputs, results, refs)
    attempted = sum(ops for ops, _ in calls)
    if len(ok) != attempted:
        raise RuntimeError(f"check judged {len(ok)} operations, round has {attempted}")
    return walls, attempted, attempted - sum(bool(x) for x in ok)


def measure(wl, inputs, refs, args):
    """Run steps until the next one would end after args.seconds (at least
    one). A step is an untraced round, followed with --trace 1 by a traced
    round under a fresh Tracer. Returns (untraced walls, loop timings of
    each untraced round, traced walls, per-layer metrics of each traced
    round, attempted, failed)."""
    import tracer  # loads scipy, so only after main() has set the thread count

    walls, loops, traced_walls, layers, steps = [], [], [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        step = time.perf_counter()
        loops.append([])
        wall, att, fail = run_round(wl, inputs, refs, loops[-1])
        walls.append(wall)
        attempted, failed = attempted + att, failed + fail
        if args.trace:
            tr = tracer.Tracer()
            tr.install()
            try:
                wall, att, fail = run_round(wl, inputs, refs)
            finally:
                tr.uninstall()
            traced_walls.append(wall)
            layers.append(tracer.layer_metrics(tr))
            attempted, failed = attempted + att, failed + fail
        steps.append(time.perf_counter() - step)
        if time.perf_counter() - start + statistics.median(steps) > args.seconds:
            return walls, loops, traced_walls, layers, attempted, failed


def round_time(walls):
    """Sum over the calls of a round of each call's fastest time, the first
    (warm-up) round excluded when there are more."""
    timed = walls[1:] or walls
    return sum(min(column) for column in zip(*timed))


def loop_quartile(loops):
    """Lower quartile of the loop timings, the warm-up round's excluded."""
    timed = [t for ts in (loops[1:] or loops) for t in ts]
    return statistics.quantiles(timed, n=4)[0]


def setup_samples(args, own):
    """Set-up time of this process plus SETUP_PROBES fresh processes."""
    samples = [own]
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    for _ in range(SETUP_PROBES):
        out = subprocess.run(cmd, check=True, capture_output=True, text=True, timeout=120)
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return samples


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "thinspec" / "__init__.py").is_file():
        print(f"bench: no thinspec sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # one BLAS thread (at most nproc), set before numpy loads; probes inherit it
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    inputs = wl.inputs(args.seed)
    setup_own = time.perf_counter() - _T0
    if args.setup_only:
        print(repr(setup_own))
        return 0
    refs = wl.references(inputs)

    walls, loops, traced_walls, layers, attempted, failed = measure(wl, inputs, refs, args)
    fastest, loop = round_time(walls), loop_quartile(loops)
    if args.trace:
        metrics = {name: (statistics.median(m[name][0] for m in layers), unit)
                   for name, (_, unit) in layers[0].items()}
        metrics["trace.overhead_s"] = (round_time(traced_walls) - fastest, "s")
    else:
        setup = statistics.median(setup_samples(args, setup_own))
        print(f"{args.workload} median set-up as timed = {setup:.6g} s")
        metrics = {
            "wall_s": (fastest * LOOP_REF_S / loop, "s"),
            "setup_s": (setup * LOOP_REF_S / loop, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }

    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(f"{args.workload} rounds = {len(walls) + len(traced_walls)}, "
          f"operations attempted = {attempted}, failed = {failed}")
    print(f"{args.workload} fastest round as timed = {fastest:.6g} s, fixed loop lower quartile = "
          f"{loop * 1e3:.4g} ms (reference {LOOP_REF_S * 1e3:.4g} ms)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
