"""Image encryption in three stages (original, expanded, thresholded),
the pixel statistics that make the ciphertext look like noise, and a
digit-reconstruction comparison against the no-expansion benchmark.

Run:  python demos/03_image_pipeline.py        (about 20 seconds)
"""

import numpy as np

from hdcrypt import pixel_histogram, spawn_rng, threshold_binarize
from hdcrypt.datasets import synthetic_digits, synthetic_natural_image
from hdcrypt.encoder import project_streamed
from hdcrypt.experiments import run_image_cell
from hdcrypt.imagecrypto import adjacency_stats, bits_to_plane
from hdcrypt.rng import derive_seed

MASTER = 7
SIZE, MULT = 96, 4

img = synthetic_natural_image(SIZE, seed=MASTER)
pre = project_streamed(img.flatten(), SIZE * SIZE * MULT, sigma=1.0,
                       seed=derive_seed(MASTER, "enc"),
                       rng=spawn_rng(MASTER, "pass"))
bits = threshold_binarize(pre, float(np.median(pre)))

stages = {
    "original": img.pixels,
    "expanded": bits_to_plane(pre, SIZE, SIZE, MULT),
    "ciphertext": bits_to_plane(bits, SIZE, SIZE, MULT),
}
print(f"{SIZE}x{SIZE} image -> {bits.size}-bit ciphertext "
      f"(popcount {int(bits.sum())})\n")
print("adjacent-pixel correlation by stage:")
print(f"  {'stage':<11} {'horizontal':>11} {'vertical':>9} {'diagonal':>9}")
for name, plane in stages.items():
    rs = [adjacency_stats(plane, d).correlation
          for d in ("horizontal", "vertical", "diagonal")]
    print(f"  {name:<11} {rs[0]:>11.4f} {rs[1]:>9.4f} {rs[2]:>9.4f}")

hist = pixel_histogram(bits)
print(f"\nciphertext bit histogram: zeros={hist[0]}, ones={hist[1]} "
      f"(balanced by the calibrated threshold)\n")

print("reconstruction under encoder noise, hypervector pipeline vs")
print("no-expansion benchmark (1250 digits, multiplier 4):")
images, _ = synthetic_digits(1500, seed=derive_seed(MASTER, "digits"))
train_imgs, test_imgs = images[:1250], images[1250:]
for sigma in (0.5, 2.0, 3.0):
    bhv, _, _ = run_image_cell(train_imgs, test_imgs, sigma, None,
                               derive_seed(MASTER, "bhv"), multiplier=MULT)
    bench, _, _ = run_image_cell(train_imgs, test_imgs, sigma, None,
                                 derive_seed(MASTER, "bench"), pipeline="benchmark")
    winner = "hypervector" if bhv.rmse < bench.rmse else "benchmark"
    print(f"  sigma={sigma}: bhv rmse={bhv.rmse:.4f}, "
          f"benchmark rmse={bench.rmse:.4f}  -> {winner} wins")
print("\nthe benchmark is sharper at low noise, but its error keeps climbing")
print("with sigma while the thresholded code degrades more slowly; with more")
print("training images the crossover moves to lower noise (the acceptance")
print("suite pins it within sigma <= 2.0 at 2000 images).")
