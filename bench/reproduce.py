"""Re-run the reference figures in bench/README.md.

    python3 bench/reproduce.py

Runs bench/run.py for seeds 1 to 10 on every workload in BENCHMARK.json with
tracing off, then once per workload with tracing on (seed 1), one run at a
time, and prints Markdown tables: the median and quartiles of every
end-to-end metric with their spread (interquartile range over median), the
same for the unscaled wall times of set-up and round, and the traced
per-layer breakdown. Raw result lines go to .bench_out/reproduce.jsonl.
"""

from __future__ import annotations

import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SEEDS = range(1, 11)
UNSCALED = re.compile(r": unscaled setup_s (\S+) run_s (\S+)$", re.M)


def quartiles(vals: list[float]) -> tuple[float, float, float, float]:
    """q1, median, q3 and the spread (q3 - q1) / median."""
    q1, med, q3 = statistics.quantiles(vals, n=4)
    return q1, med, q3, (q3 - q1) / med


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    res = json.loads(lines[-1])
    if not trace:
        setup_s, run_s = UNSCALED.search(proc.stderr).groups()
        res["unscaled"] = {"setup_s": float(setup_s), "run_s": float(run_s)}
    return res


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    log = ROOT / ".bench_out" / "reproduce.jsonl"
    log.parent.mkdir(exist_ok=True)

    results: dict[str, list[dict]] = {w: [] for w in workloads}
    traced: dict[str, dict] = {}
    with open(log, "a", encoding="utf-8") as fh:
        for w in workloads:
            for seed in SEEDS:
                res = run_once(w, seed, seconds, 0)
                results[w].append(res)
                fh.write(json.dumps({"workload": w, "seed": seed, "trace": 0, **res}) + "\n")
                fh.flush()
                print(f"{w} seed {seed}: run_s {res['metrics']['run_s']['value']:.3f}",
                      file=sys.stderr, flush=True)
            traced[w] = run_once(w, SEEDS[0], seconds, 1)
            fh.write(json.dumps({"workload": w, "seed": SEEDS[0], "trace": 1, **traced[w]}) + "\n")

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    print(f"End-to-end, seeds {SEEDS[0]}-{SEEDS[-1]}, run_seconds {seconds}:\n")
    print("| workload | metric | unit | q1 | median | q3 | spread | bound | failed/attempted |")
    print("|---|---|---|---|---|---|---|---|---|")
    for w in workloads:
        runs = results[w]
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        for m in spec["end_to_end"]:
            q1, med, q3, spread = quartiles([r["metrics"][m["name"]]["value"] for r in runs])
            print(f"| {w} | {m['name']} | {m['unit']} | {q1:.4g} | {med:.4g} | {q3:.4g} | "
                  f"{spread:.3f} | {bounds[m['name']]} | {failed}/{attempted} |")
    print("\nUnscaled wall times of the same runs:\n")
    print("| workload | metric | unit | q1 | median | q3 | spread |")
    print("|---|---|---|---|---|---|---|")
    for w in workloads:
        for name in ("setup_s", "run_s"):
            q1, med, q3, spread = quartiles([r["unscaled"][name] for r in results[w]])
            print(f"| {w} | {name} (wall) | s | {q1:.4g} | {med:.4g} | {q3:.4g} | {spread:.3f} |")
    print(f"\nPer-layer, traced run of seed {SEEDS[0]}:\n")
    print("| metric | unit | " + " | ".join(workloads) + " |")
    print("|---|---|" + "---|" * len(workloads))
    for m in spec["per_layer"]:
        cells = [f"{traced[w]['metrics'][m['name']]['value']:.4g}" for w in workloads]
        print(f"| {m['name']} | {m['unit']} | " + " | ".join(cells) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
