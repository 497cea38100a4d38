"""Tour of the crossbar simulator: random target conductances, per-read
Gaussian variability, stuck cells, and the clamp at the resistance rails.

Run:  python demos/01_crossbar_noise.py
"""

import numpy as np

from hdcrypt import Crossbar, CrossbarConfig, spawn_rng

cfg = CrossbarConfig(rows=4, cols=6, r_lrs=1e3, r_hrs=1e4, sigma_frac=0.1,
                     p_stuck_on=0.1, p_stuck_off=0.1, seed=7)
xbar = Crossbar.new_random(cfg)

print(f"geometry        : {cfg.rows} word lines x {cfg.cols} bit lines")
print(f"conductance     : [{cfg.g_off:.2e}, {cfg.g_on:.2e}] S "
      f"(from {cfg.r_hrs:.0f} / {cfg.r_lrs:.0f} ohm)")
print(f"read noise std  : {cfg.noise_std:.2e} S "
      f"({cfg.sigma_frac} x conductance range)")
print(f"stuck cells     : {np.count_nonzero(xbar.stuck_mask)} of "
      f"{cfg.rows * cfg.cols}\n")

v = np.array([0.8, -0.3, 0.5, -1.0])
rng = spawn_rng(0, "demo-reads")
print("five noisy reads of the same input (uA):")
for i in range(5):
    out = xbar.read_vmm(v, rng)
    print(f"  read {i}: {np.array2string(out * 1e6, precision=2)}")

print("\nnoise is fresh per read but every effective conductance stays")
print("inside the rails:")
eff = xbar.effective_read_matrix(spawn_rng(1, "instrumented"))
print(f"  min {eff.min():.3e} S >= G_off, max {eff.max():.3e} S <= G_on")

silent = Crossbar.new_random(CrossbarConfig(rows=4, cols=6, r_lrs=1e3, r_hrs=1e4,
                                            sigma_frac=0.0, p_stuck_on=0.0,
                                            p_stuck_off=0.0, seed=8))
a = silent.read_vmm(v, spawn_rng(2, "a"))
b = silent.read_vmm(v, spawn_rng(3, "b"))
print(f"\nwith sigma = 0 the array is a plain matrix multiply; two reads "
      f"agree bitwise: {np.array_equal(a, b)}")
