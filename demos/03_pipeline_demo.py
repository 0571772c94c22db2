#!/usr/bin/env python3
"""End-to-end pipeline in a few lines, plus the study drivers.

Everything here also exists as CLI subcommands; the equivalent invocations
are printed at the end.
"""

from recattack import build_config, run_alpha_sweep, run_pipeline

flat = {
    "seed": "0",
    "out_dir": "demo_out",
    "corpus.synthetic.num_items": "100",
    "corpus.synthetic.num_users": "150",
    "corpus.synthetic.num_groups": "5",
    "oracle.k": "50",
    "synth.count": "300",
    "synth.maxlen": "11",
    "attack.num_users": "10",
    "attack.num_targets": "2",
}

print("=== full pipeline ===")
report = run_pipeline(build_config(flat))
print(report.as_text())

print("\n=== decay sensitivity sweep (shared victim and query set) ===")
for row in run_alpha_sweep(build_config(dict(flat, out_dir="demo_out/sweep")),
                           [0.7, 0.9, 0.97]):
    print(row)

print("\nCLI equivalents:")
print("  recattack pipeline --out demo_out --set corpus.synthetic.num_items=100 ...")
print("  recattack alpha-sweep --alphas 0.7,0.9,0.97 --out demo_out/sweep ...")
print("artifacts land under demo_out/: corpus.txt, victim.params, queries.tsv,")
print("surrogate.params, polluted.tsv, stage_*.json, report.{json,txt,csv}")
