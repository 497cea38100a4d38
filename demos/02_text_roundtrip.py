"""Text encryption end to end, desk scale: random secret vectors per
character, noisy crossbar encoding into binary hypervectors, a trained
softmax decoder, and the pass-to-pass uniqueness of the ciphertext.

Run:  python demos/02_text_roundtrip.py        (a few seconds)
"""

from hdcrypt import (Crossbar, CrossbarConfig, SecretKeyTable, decrypt_text,
                     encrypt_text, spawn_rng, uniqueness_stats)
from hdcrypt.experiments import DEFAULT_TEXT_TRAIN, train_text_system
from hdcrypt.rng import derive_seed

MASTER = 42

cfg = CrossbarConfig(rows=10, cols=500, r_lrs=1e3, r_hrs=1e4, sigma_frac=0.1,
                     p_stuck_on=0.02, p_stuck_off=0.02,
                     seed=derive_seed(MASTER, "xbar"))
xbar = Crossbar.new_random(cfg)
keys = SecretKeyTable.new_random(10, derive_seed(MASTER, "keys"))

print("training the decoder on 12K noisy encodings ...")
model, epsilon, accuracy, report = train_text_system(
    xbar, keys, (12_000, 3_000, 5_000), DEFAULT_TEXT_TRAIN, MASTER)
print(f"  threshold epsilon = {epsilon:.3e}")
# epochs = 0 with best_epoch = -1: the closed-form start already had
# validation loss 0.0, which no SGD epoch can beat
print(f"  epochs            = {report.epochs_run} "
      f"(best epoch {report.best_epoch}, initial validation loss "
      f"{report.init_val_loss:.3g})")
print(f"  test accuracy     = {accuracy:.4f}\n")

message = "Attack at dawn. Bring 7 kayaks + snacks!"
ct = encrypt_text(message, keys, xbar, epsilon, spawn_rng(MASTER, "message"))
print(f"plaintext : {message!r}")
print(f"ciphertext: {len(ct)} blocks of {ct.dim} bits "
      f"({len(ct.to_bytes())} bytes on the wire)")
print(f"decrypted : {decrypt_text(ct, model)!r}\n")

print("the same character never encrypts the same way twice (200 passes):")
rng = spawn_rng(MASTER, "uniqueness")
for ch in "AB":
    stats = uniqueness_stats(ch, 200, keys, xbar, epsilon, rng)
    print(f"  {ch!r}: distinct fraction {stats.distinct_fraction:.2f}, "
          f"mean pairwise Hamming {stats.mean_pairwise_hamming:.3f} x dim")

ct2 = encrypt_text(message, keys, xbar, epsilon, spawn_rng(MASTER, "again"))
same = sum(a == b for a, b in zip(ct.blocks, ct2.blocks))
print(f"\nre-encrypting the message shares {same}/{len(ct)} identical blocks "
      f"with the first ciphertext, yet both decrypt correctly: "
      f"{decrypt_text(ct2, model) == message}")
