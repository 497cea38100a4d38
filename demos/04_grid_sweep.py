"""A miniature (dimension multiplier x noise level) grid sweep with the
99.9% good-model rule, written to CSV/JSON exactly like the CLI's
`hdcrypt grid` command.

Run:  python demos/04_grid_sweep.py out/        (a few seconds)
"""

import sys

from hdcrypt.experiments import ExperimentSpec, run_grid

out_dir = sys.argv[1] if len(sys.argv) > 1 else "grid-demo-out"

spec = ExperimentSpec(
    key_dim=10,
    multipliers=(10, 25, 50),
    sigmas=(0.1, 0.4, 0.7),
    p_stuck_on=0.05, p_stuck_off=0.05,
    train_size=6_000, val_size=1_500, test_size=3_000,
    master_seed=2026,
)

print(f"sweeping {len(spec.multipliers) * len(spec.sigmas)} cells "
      f"(k={spec.key_dim}, P_on=P_off={spec.p_stuck_on}) ...")
report = run_grid(spec)

print(f"\n{'cell':<24} {'accuracy':>9} {'distinct':>9} {'epochs':>7} {'good':>5}")
for row in report.rows:
    print(f"{row.cell:<24} {row.test_accuracy:>9.4f} "
          f"{row.distinct_fraction:>9.3f} {row.epochs:>7} "
          f"{str(row.good_flag):>5}")

import os
os.makedirs(out_dir, exist_ok=True)
report.save(csv_path=os.path.join(out_dir, "grid.csv"),
            json_path=os.path.join(out_dir, "grid.json"))
print(f"\nwrote {out_dir}/grid.csv and {out_dir}/grid.json")
print("cells at or above 99.9% accuracy count as good; more expansion "
      "buys tolerance to more noise.")
