"""The three workloads, each driven only through hdcrypt's public API.

Every workload takes a `Run` (seed, run length, tracer, work directory)
and a sizes record. It sets up, then repeats whole rounds of the same
operations until the run length is used, and never stops inside a round.
All inputs come from the benchmark seed through `sub_seed`; the program
receives only the generated values.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import resource
import statistics
import time
from dataclasses import dataclass, replace

import numpy as np

import checks
from hdcrypt import cli, crossbar, datasets, encoder, experiments, imagecrypto, textcrypto
from hdcrypt.rng import derive_seed

# Table-1 row 10x500, sigma 0.1, 2 % stuck-on and stuck-off cells: the
# paper's 100 % row and the unit of every table and grid sweep.
TEXT_ROW = dict(rows=10, cols=500, r_lrs=1e3, r_hrs=1e4, sigma=0.1, p_on=0.02, p_off=0.02)

IMAGE_MULTIPLIER = 4
IMAGE_SIGMA = 1.0


@dataclass(frozen=True)
class TextTrainSizes:
    train: int = 6000
    val: int = 1500
    test: int = 3000
    # Early stopping is held off (patience = epochs), so every cell runs
    # the same number of SGD steps whatever its seed.
    epochs: int = 60
    uniqueness_passes: int = experiments.UNIQUENESS_PASSES
    ones_chars: int = 2000
    reads: int = 2000
    setup_repeats: int = 9
    setup_again_per_round: int = 9


@dataclass(frozen=True)
class TextCryptSizes:
    train: int = 3000
    val: int = 750
    test: int = 1500
    message_chars: int = 8000
    # One decryption takes a tenth of a second and its time scatters by
    # +-25 %, so each message is decrypted several times per sample.
    decrypts: int = 4
    setup_repeats: int = 3


@dataclass(frozen=True)
class ImageCellSizes:
    image: int = 64
    # One streamed encryption is half a second and its time scatters
    # by +-15 %, so each round encrypts twice.
    encryptions: int = 2
    train_digits: int = 300
    test_digits: int = 100
    epochs: int = 6
    setup_repeats: int = 9
    setup_again_per_round: int = 15


FULL_SIZES = {
    "text-train": TextTrainSizes(),
    "text-crypt": TextCryptSizes(),
    "image-cell": ImageCellSizes(),
}

TINY_SIZES = {
    "text-train": TextTrainSizes(train=1500, val=300, test=300, epochs=15,
                                 uniqueness_passes=40, ones_chars=1000, reads=500,
                                 setup_repeats=3, setup_again_per_round=1),
    "text-crypt": TextCryptSizes(train=600, val=200, test=200, message_chars=200, decrypts=2,
                                 setup_repeats=1),
    # fewer digits or epochs than these no longer beat the mean image
    "image-cell": ImageCellSizes(image=48, encryptions=1, setup_repeats=1,
                                 setup_again_per_round=1),
}


def sub_seed(seed, *labels):
    """A 63-bit seed mixed from the benchmark seed and labels."""
    h = hashlib.blake2b(repr((int(seed),) + labels).encode(), digest_size=8)
    return int.from_bytes(h.digest(), "little") >> 1


def new_rng(seed, *labels):
    return np.random.Generator(np.random.PCG64(sub_seed(seed, *labels)))


def clock():
    """(wall, process CPU) seconds now; see Run.record."""
    return time.perf_counter(), time.process_time()


def random_text(rng, n):
    """n characters drawn uniformly from the 94-character set."""
    return "".join(textcrypto.CHARSET[i] for i in rng.integers(0, len(textcrypto.CHARSET), n))


class Run:
    """State of one benchmark run: samples, counts and check failures."""

    def __init__(self, seed, seconds, tracer=None, workdir=None):
        self.seed = seed
        self.seconds = seconds
        self.tracer = tracer
        self.workdir = workdir
        self.samples = {}
        self.wall_samples = {}
        self.attempted = 0
        self.failed = 0
        self.failures = []  # failed correctness checks
        self.errors = []  # operations that raised or exited non-zero
        self.seeded = []  # per-round seeded results, compared traced vs untraced
        self.rounds = 0
        self.peak_rss_mib = None
        self._round = [0.0, 0.0]  # CPU and wall seconds of program work this round
        self._setup_again = []  # set-ups to time again after every round

    def sample(self, metric, value):
        self.samples.setdefault(metric, []).append(value)

    def record(self, metric, start, stop=None, work=None, ops=1):
        """Sample the CPU seconds per op from `start` to `stop` (now by
        default), or `work` per CPU second; the wall-clock figure goes to
        wall_samples.

        Timings are process CPU time: on a shared virtual machine the
        hypervisor takes the vCPU away for 5-18 % of a run, by an amount
        that changes from run to run, and CPU time leaves that out. With
        one BLAS thread the process runs one thread, so on an idle host
        its CPU time is its wall time.
        """
        wall, cpu = (b - a for a, b in zip(start, stop or clock()))
        if metric != "setup_s":
            self._round[0] += cpu
            self._round[1] += wall
        self.sample(metric, cpu / ops if work is None else work / cpu)
        self.wall_samples.setdefault(metric, []).append(wall / ops if work is None
                                                        else work / wall)

    def check(self, reason):
        if reason is not None:
            self.failures.append(reason)

    def untraced(self):
        return self.tracer.paused() if self.tracer else contextlib.nullcontext()

    def setup(self, fn, repeats, again_per_round=0):
        """Run fn `repeats` times now and `again_per_round` times after
        every round; setup_s is the median of all their times.

        The host's speed swung by up to 1.8x for seconds at a time, so a
        set-up of a few tens of milliseconds timed only at the start
        caught whichever speed held then. Timed again between rounds, its
        samples span the run like round_s's.
        """
        def timed():
            start = clock()
            result = fn()
            self.record("setup_s", start)
            return result
        self._setup_again = [timed] * again_per_round
        result = None
        for _ in range(repeats):
            result = timed()
        return result

    def rounds_until_done(self, round_fn):
        """Repeat whole rounds until the run length is used.

        round_s is the time of the program work a round records, without
        the benchmark's own checks. peak_rss_mib is read after the first
        round, which does the same work in every run: read at the end it
        moved by 50 MiB with the number of rounds a run happened to fit.
        """
        start = time.perf_counter()
        while True:
            self._round = [0.0, 0.0]
            round_fn(self.rounds)
            self.sample("round_s", self._round[0])
            self.wall_samples.setdefault("round_s", []).append(self._round[1])
            self.rounds += 1
            if self.peak_rss_mib is None:
                self.peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            for timed_setup in self._setup_again:
                timed_setup()
            if time.perf_counter() - start >= self.seconds:
                return

    def metrics(self):
        """Median of each sample list, plus peak memory."""
        out = {name: statistics.median(v) for name, v in self.samples.items()}
        out["peak_rss_mib"] = self.peak_rss_mib
        return out


# --- text-train ---------------------------------------------------------------


def _row_config(seed):
    return crossbar.CrossbarConfig(
        rows=TEXT_ROW["rows"], cols=TEXT_ROW["cols"], r_lrs=TEXT_ROW["r_lrs"],
        r_hrs=TEXT_ROW["r_hrs"], sigma_frac=TEXT_ROW["sigma"],
        p_stuck_on=TEXT_ROW["p_on"], p_stuck_off=TEXT_ROW["p_off"], seed=seed)


def _check_noisy_reads(run, xbar, keys, n_reads):
    cfg = xbar.config
    v = keys.vectors[int(new_rng(run.seed, "read-check-char").integers(len(keys.vectors)))]
    reads = encoder.crossbar_pre_threshold_batch(
        xbar, np.tile(v, (n_reads, 1)), new_rng(run.seed, "read-check-noise"))
    run.check(checks.noisy_read_mean(reads, v, xbar.g_target,
                                     xbar.stuck_mask == crossbar.STUCK_FREE,
                                     cfg.noise_std, cfg.g_off, cfg.g_on))


def text_train(run, sizes):
    """One Table-1 text cell per round through experiments.run_text_cell.

    The set-up builds the key material a text encryptor needs: crossbar,
    key table and calibrated threshold. The two tables alone take half a
    millisecond, too little to time steadily.
    """
    def build():
        xbar = crossbar.Crossbar.new_random(_row_config(sub_seed(run.seed, "read-check-crossbar")))
        keys = textcrypto.SecretKeyTable.new_random(TEXT_ROW["rows"],
                                                    sub_seed(run.seed, "read-check-keys"))
        epsilon = experiments.calibrate_text_epsilon(xbar, keys, sub_seed(run.seed, "calibrate"))
        return xbar, keys, epsilon
    xbar, keys, epsilon = run.setup(build, sizes.setup_repeats, sizes.setup_again_per_round)
    with run.untraced():
        _check_noisy_reads(run, xbar, keys, sizes.reads)
        rng = new_rng(run.seed, "setup-ones-fraction")
        ct = textcrypto.encrypt_text(random_text(rng, sizes.ones_chars), keys, xbar, epsilon, rng)
        run.check(checks.ones_fraction(ct.bit_matrix()))

    train_cfg = replace(experiments.DEFAULT_TEXT_TRAIN, max_epochs=sizes.epochs,
                        patience=sizes.epochs)

    def one_cell(i):
        cell_seed = sub_seed(run.seed, "text-cell", i)
        cell = experiments.TextCell(
            label=f"bench:text-train:{i}", crossbar=_row_config(sub_seed(cell_seed, "crossbar")),
            key_dim=TEXT_ROW["rows"], sizes=(sizes.train, sizes.val, sizes.test),
            train_cfg=train_cfg, master_seed=cell_seed,
            uniqueness_passes=sizes.uniqueness_passes)
        start = clock()
        row = experiments.run_text_cell(cell)
        run.record("text_cell_s", start)
        run.attempted += 1
        if row.status != "ok":
            run.failed += 1
            run.errors.append(f"cell {i}: {row.reason}")
            return
        run.seeded.append([row.test_accuracy, row.distinct_fraction, row.mean_hamming, row.epochs])
        with run.untraced():
            run.check(checks.text_accuracy(row.test_accuracy))
            run.check(checks.distinct_fraction(row.distinct_fraction))
            run.check(checks.ones_fraction(_cell_ciphertext_bits(cell, sizes.ones_chars)))

    run.rounds_until_done(one_cell)


def _cell_ciphertext_bits(cell, n_chars):
    """Ciphertext bits of random text under the cell's own key material.

    Rebuilds the crossbar, keys and threshold exactly as run_text_cell
    derives them from the cell's seeds.
    """
    xbar = crossbar.Crossbar.new_random(cell.crossbar)
    keys = textcrypto.SecretKeyTable.new_random(cell.key_dim, derive_seed(cell.master_seed, "keys"))
    epsilon = experiments.calibrate_text_epsilon(xbar, keys, cell.master_seed)
    rng = new_rng(cell.master_seed, "ones-fraction")
    ct = textcrypto.encrypt_text(random_text(rng, n_chars), keys, xbar, epsilon, rng)
    return ct.bit_matrix()


# --- text-crypt ---------------------------------------------------------------


def _cli(argv):
    """hdcrypt's CLI in process; returns (exit code, captured stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    return code, err.getvalue().strip()


def _require_cli(argv):
    code, err = _cli(argv)
    if code != 0:
        raise RuntimeError(f"hdcrypt {argv[0]} exited {code}: {err}")


def text_crypt(run, sizes):
    """Key material and a model from the CLI, then seeded messages through
    `hdcrypt encrypt` and `hdcrypt decrypt`."""
    path = {name: os.path.join(run.workdir, name) for name in
            ("xbar.json", "keys.json", "model.json", "plain.txt", "msg.hlct",
             "again.hlct", "roundtrip.txt")}

    def build():
        _require_cli(["gen-crossbar", "--rows", TEXT_ROW["rows"], "--cols", TEXT_ROW["cols"],
                      "--r-lrs", TEXT_ROW["r_lrs"], "--r-hrs", TEXT_ROW["r_hrs"],
                      "--sigma", TEXT_ROW["sigma"], "--p-on", TEXT_ROW["p_on"],
                      "--p-off", TEXT_ROW["p_off"], "--seed", sub_seed(run.seed, "crossbar"),
                      "--out", path["xbar.json"]])
        _require_cli(["gen-keys", "--key-dim", TEXT_ROW["rows"],
                      "--seed", sub_seed(run.seed, "keys"), "--out", path["keys.json"]])
        _require_cli(["train-text", "--crossbar", path["xbar.json"], "--keys", path["keys.json"],
                      "--train-size", sizes.train, "--val-size", sizes.val,
                      "--test-size", sizes.test, "--seed", sub_seed(run.seed, "train"),
                      "--out", path["model.json"]])
    run.setup(build, sizes.setup_repeats)
    with open(path["model.json"], encoding="utf-8") as fh:
        model_doc = json.load(fh)

    def encrypt(seed, out):
        return _cli(["encrypt", "--crossbar", path["xbar.json"], "--keys", path["keys.json"],
                     "--model", path["model.json"], "--in", path["plain.txt"],
                     "--out", out, "--seed", seed])

    def one_message(i):
        text = random_text(new_rng(run.seed, "message", i), sizes.message_chars)
        with open(path["plain.txt"], "w", encoding="ascii") as fh:
            fh.write(text)
        seed = sub_seed(run.seed, "encrypt", i)
        start = clock()
        enc_code, enc_err = encrypt(seed, path["msg.hlct"])
        mid = clock()
        dec_code, dec_err = 0, ""
        for _ in range(sizes.decrypts):
            if dec_code == 0:
                dec_code, dec_err = _cli(["decrypt", "--model", path["model.json"],
                                          "--in", path["msg.hlct"],
                                          "--out", path["roundtrip.txt"]])
        stop = clock()
        run.attempted += 1
        if enc_code != 0 or dec_code != 0:
            run.failed += 1
            run.errors.append(f"message {i}: encrypt exited {enc_code} ({enc_err}), "
                              f"decrypt exited {dec_code} ({dec_err})")
            return
        run.record("encrypt_chars_per_s", start, mid, work=len(text))
        run.record("decrypt_chars_per_s", mid, stop, work=len(text) * sizes.decrypts)
        with open(path["msg.hlct"], "rb") as fh:
            data = fh.read()
        with open(path["roundtrip.txt"], "r", encoding="ascii") as fh:
            decrypted = fh.read()
        run.seeded.append([len(data), hashlib.blake2b(data, digest_size=16).hexdigest(),
                           checks.misdecrypted(text, decrypted)])
        with run.untraced():
            run.check(checks.round_trip_accuracy(text, decrypted))
            run.check(checks.argmax_decryption(data, model_doc, decrypted))
            run.check(checks.hlct_size(data, len(text), TEXT_ROW["cols"]))
            run.check(checks.hlct_bits(data, textcrypto.CipherText.from_bytes(data).bit_matrix()))
            if i == 0:
                code, err = encrypt(sub_seed(run.seed, "encrypt-again"), path["again.hlct"])
                if code != 0:
                    run.check(f"second encryption exited {code}: {err}")
                else:
                    with open(path["again.hlct"], "rb") as fh:
                        run.check(checks.fresh_ciphertext(data, fh.read()))

    run.rounds_until_done(one_message)


# --- image-cell ---------------------------------------------------------------


def image_cell(run, sizes):
    """Streamed encryption of a natural image with its statistics, then one
    hypervector and one benchmark reconstruction cell, every round."""
    def build():
        digits, _ = datasets.synthetic_digits(sizes.train_digits + sizes.test_digits,
                                              sub_seed(run.seed, "digits"))
        image = datasets.synthetic_natural_image(sizes.image, sub_seed(run.seed, "image"))
        return digits, image
    digits, image = run.setup(build, sizes.setup_repeats, sizes.setup_again_per_round)
    train_images, test_images = digits[:sizes.train_digits], digits[sizes.train_digits:]
    baseline = checks.mean_image_rmse(train_images, test_images)
    train_cfg = replace(experiments.DEFAULT_IMAGE_TRAIN, max_epochs=sizes.epochs,
                        patience=sizes.epochs)

    def encrypt_image(j):
        """Streamed encryption plus the program's statistics of the bit plane."""
        flat = image.flatten()
        pre = encoder.project_streamed(flat, flat.size * IMAGE_MULTIPLIER, IMAGE_SIGMA,
                                       sub_seed(run.seed, "image-encoder", j),
                                       new_rng(run.seed, "image-noise", j))
        bhv = encoder.threshold_binarize(pre, float(np.median(pre)))
        plane = imagecrypto.bits_to_plane(bhv, image.height, image.width, IMAGE_MULTIPLIER)
        stats = [imagecrypto.adjacency_stats(plane, d) for d in checks.DIRECTIONS]
        return plane, stats, imagecrypto.pixel_histogram(plane)

    def check_encryption(plane, stats, hist):
        with run.untraced():
            run.check(checks.decorrelated(plane, image.pixels))
            independent = checks.adjacent_correlations(plane)
            for st in stats:
                if not math.isclose(st.correlation, independent[st.direction], abs_tol=1e-9):
                    run.check(f"adjacency_stats {st.direction} correlation {st.correlation} "
                              f"differs from np.corrcoef {independent[st.direction]}")
            if int(hist.sum()) != plane.size:
                run.check(f"pixel histogram counts {int(hist.sum())} of {plane.size} bits")
        return [int(plane.sum()), [round(st.correlation, 12) for st in stats]]

    def reconstruct(i, pipeline):
        start = clock()
        result, _, _ = experiments.run_image_cell(
            train_images, test_images, IMAGE_SIGMA, train_cfg,
            sub_seed(run.seed, "image-cell", i), multiplier=IMAGE_MULTIPLIER, pipeline=pipeline)
        run.record(f"image_{pipeline}_cell_s", start)
        if pipeline == "bhv":
            run.sample("image_bhv_rmse", result.rmse)
        run.check(checks.beats_mean_image(pipeline, result.rmse, baseline))
        return result.rmse

    def attempt(i, name, op):
        """Run one operation; a failing one is counted, not fatal."""
        run.attempted += 1
        try:
            return op()
        except Exception as exc:
            run.failed += 1
            run.errors.append(f"round {i} {name}: {type(exc).__name__}: {exc}")
            return None

    def one_round(i):
        # The round's encryptions are timed together: the first one after
        # the cells runs about 30 % slower than the next (fresh pages), so
        # a per-round mean keeps the same mix in every round.
        start = clock()
        encrypted = [attempt(i, f"encrypt {k}",
                             lambda k=k: encrypt_image(i * sizes.encryptions + k))
                     for k in range(sizes.encryptions)]
        if None not in encrypted:
            run.record("image_encrypt_s", start, ops=len(encrypted))
        seeded = [check_encryption(*e) for e in encrypted if e is not None]
        seeded += [attempt(i, p, lambda p=p: reconstruct(i, p)) for p in ("bhv", "benchmark")]
        run.seeded.append(seeded)

    run.rounds_until_done(one_round)


WORKLOADS = {
    "text-train": text_train,
    "text-crypt": text_crypt,
    "image-cell": image_cell,
}

# The end-to-end metrics every workload prints, with their units. The
# per-operation samples (text_cell_s, encrypt_chars_per_s, image_bhv_rmse
# and the like) stay in the result file.
END_TO_END = {
    "setup_s": "s",
    "round_s": "s",
    "peak_rss_mib": "MiB",
}
