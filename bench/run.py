"""Run one benchmark workload and print its metrics as one JSON line.

    python3 bench/run.py --workload pipeline --seed 1 --seconds 21 --trace 0

The program is imported from the checkout's `src/`; without it the run
stops with a non-zero exit code and prints no result. The run sets up its
inputs SETUPS times (setup_s is the median), then repeats timed rounds of a
fixed list of operations until the rounds have taken `--seconds` (run_s is
the median round). Set-up and round times are wall times scaled to a
reference CPU speed by the probe in hostspeed.py. Then the outputs are
checked: the first round that did not raise against the reference
computations, every later round against it, which it must reproduce exactly.
The quality metrics come from that first round. The unscaled medians of
set-up and round wall times go to standard error.

With `--trace 1` the rounds alternate untraced and traced, the set-ups are
traced, and the per-layer metrics are printed instead: one set-up plus one
traced round, medians over the repetitions, and trace.overhead_s, the median
traced round minus the median untraced round. The spans are written to
.bench_out/trace-<workload>-<seed>.json.

The last line of standard output is
{"correct": bool, "attempted": int, "failed": int, "metrics": {name: {"value", "unit"}}}.
Progress goes to standard error. The exit code is 0 only when every check
passed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT = ROOT / ".bench_out"
SETUPS = 3
# One BLAS thread. On a shared 2-core machine, with OpenBLAS's default two
# threads a shrunk pipeline's victim stage took 2.1 to 3.1 s over four runs;
# with one thread it took 1.95 to 2.27 s and the quality metrics were equal.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "peak_rss_mb": "MB",
    "agr_at_10": "ratio",
    "hit_at_10": "ratio",
    "plaus_dual": "ratio",
}


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def import_program():
    """Import recattack from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    if not (src / "recattack" / "__init__.py").is_file():
        raise SystemExit(f"bench: no program at {src}/recattack")
    sys.path.insert(0, str(src))
    import recattack

    if Path(recattack.__file__).resolve().parent != (src / "recattack").resolve():
        raise SystemExit(f"bench: recattack imported from {recattack.__file__}, not {src}")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("pipeline", "sweep", "pollute"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"  # read when numpy loads, so set before importing it
    import_program()
    sys.path.insert(0, str(BENCH_DIR))
    from workloads import WORKLOADS, Failures

    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return run(args, work, WORKLOADS[args.workload](work, args.seed), Failures())
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run(args, work: Path, wl, failures) -> int:
    import tracing
    from hostspeed import HostSpeed
    from reference import require

    tracer = tracing.Tracer() if args.trace else None

    windows = {}  # phase -> (start, end) on the perf_counter clock

    def timed(phase: str, traced: bool, fn, *fargs):
        restore = None
        if traced:
            tracer.phase = phase
            restore = tracing.instrument(tracer)
        try:
            start = time.perf_counter()
            out = fn(*fargs)
            windows[phase] = (start, time.perf_counter())
            return out
        finally:
            if restore is not None:
                restore()

    prints, state, results = [], None, []
    with HostSpeed(work / "hostspeed.log") as speed:
        for i in range(SETUPS):
            state = None  # free the previous set-up before building the next
            state = timed(f"setup{i}", tracer is not None, wl.setup, i)
            prints.append(wl.fingerprint(state))
        measured = 0.0
        while not results or measured < args.seconds or (tracer is not None and len(results) < 2):
            r = len(results)
            results.append(timed(f"round{r}", tracer is not None and r % 2 == 1, wl.run_round, state, r))
            start, end = windows[f"round{r}"]
            measured += end - start
            if r == 0:
                # The peak grows a little with each round (120 MB after six
                # pipeline rounds, 113 MB after two), and a slow host runs
                # fewer rounds; read it after the first, before any check.
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    scale = {phase: speed.scale(*w) for phase, w in windows.items()}
    scaled = {phase: (w[1] - w[0]) * scale[phase] for phase, w in windows.items()}
    for phase, (start, end) in windows.items():
        log(f"{wl.name}: {phase} {end - start:.3f}s wall, {scaled[phase]:.3f}s at reference speed")
    setups = [f"setup{i}" for i in range(SETUPS)]
    rounds = {traced: [f"round{r}" for r in range(len(results)) if (r % 2 == 1) == traced]
              for traced in (False, True)}

    failures.check(require, all(p == prints[0] for p in prints), "the set-ups differ")
    wl.check_setup(state, failures)
    for r, res in enumerate(results):
        wl.check_round(state, res, r, failures)
    attempted = wl.ops_per_round * len(results)
    quality = {name: 0.0 for name in ("agr_at_10", "hit_at_10", "plaus_dual")}
    done = next((res for res in results
                 if not all(isinstance(out, Exception) for out in res.outputs)), None)
    if done is not None:
        try:
            quality = wl.quality(state, done, failures)
        except Exception as exc:
            failures.messages.append(f"quality metrics: {type(exc).__name__}: {exc}")
    correct = not failures.messages and failures.failed < attempted
    for msg in failures.messages[:20]:
        log(f"{wl.name}: CHECK FAILED: {msg}")

    if tracer is None:
        log(f"{wl.name}: unscaled setup_s "
            f"{statistics.median(windows[p][1] - windows[p][0] for p in setups)!r} run_s "
            f"{statistics.median(windows[p][1] - windows[p][0] for p in rounds[False])!r}")
        values = {
            "setup_s": statistics.median(scaled[p] for p in setups),
            "run_s": statistics.median(scaled[p] for p in rounds[False]),
            "peak_rss_mb": peak_rss_mb,
            **quality,
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
    else:
        overhead = (statistics.median(scaled[p] for p in rounds[True])
                    - statistics.median(scaled[p] for p in rounds[False]))
        values = tracing.combine(tracer.spans, setups, rounds[True], scale, overhead)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in tracing.PER_LAYER}
        trace_path = OUT / f"trace-{wl.name}-{args.seed}.json"
        tracer.write(trace_path)
        log(f"{wl.name}: {len(tracer.spans)} spans written to {trace_path}")

    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failures.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
