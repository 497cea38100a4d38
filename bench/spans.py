"""In-memory spans around hdcrypt's public functions and methods.

`Tracer.install` replaces each traced function or method with a wrapper
that times the call and charges it to a named span; `Tracer.restore`
puts the originals back. A module-level function is also replaced under
every alias another hdcrypt module imported it as (`from .encoder import
calibrate_epsilon`), so calls that cross a module boundary are caught no
matter which namespace they go through. Methods and classmethods are
replaced on their class, which every instance call resolves through.

Spans are aggregated per name as they close: call count, total time and
self time (total minus the time of the spans that ran inside it), in
process CPU seconds like the end-to-end timings. The program runs in one
thread, so child spans never overlap and their sum is exactly the covered
part of the parent's interval.
"""

import functools
import importlib
import math
import sys
import time
from contextlib import contextmanager

# (module, qualified name inside it). The span is named "<module>.<name>".
SPANS = (
    ("crossbar", "Crossbar.read_vmm_batch"),
    ("crossbar", "Crossbar.read_vmm"),
    ("crossbar", "Crossbar.load"),
    ("encoder", "binarize_batch"),
    ("encoder", "calibrate_epsilon"),
    ("encoder", "IdealEncoder.project_batch"),
    ("encoder", "IdealEncoder.encode_batch"),
    ("encoder", "project_streamed"),
    ("encoder", "threshold_binarize"),
    ("hypervector", "BinaryHypervector.from_bits"),
    ("hypervector", "BinaryHypervector.to_bits"),
    ("textcrypto", "encrypt_text"),
    ("textcrypto", "decrypt_text"),
    ("textcrypto", "CipherText.to_bytes"),
    ("textcrypto", "CipherText.from_bytes"),
    ("textcrypto", "CipherText.bit_matrix"),
    ("textcrypto", "SecretKeyTable.load"),
    ("textcrypto", "build_dataset"),
    ("textcrypto", "uniqueness_stats"),
    ("textcrypto", "evaluate_accuracy"),
    ("decoder", "train"),
    ("decoder", "LinearDecoder.predict_classes"),
    ("decoder", "LinearDecoder.forward_batch"),
    ("decoder", "load_model"),
    ("decoder", "save_model"),
    ("experiments", "run_text_cell"),
    ("experiments", "train_text_system"),
    ("experiments", "calibrate_text_epsilon"),
    ("experiments", "make_text_datasets"),
    ("experiments", "run_image_cell"),
    ("imagecrypto", "BenchmarkEncoder.project_batch"),
    ("imagecrypto", "adjacency_stats"),
    ("imagecrypto", "pixel_histogram"),
    ("imagecrypto", "bits_to_plane"),
    ("datasets", "synthetic_digits"),
    ("datasets", "synthetic_natural_image"),
)

# cli.main gets one span per subcommand, named after argv[0].
CLI_SUBCOMMANDS = ("gen-crossbar", "gen-keys", "train-text", "encrypt", "decrypt")

# Counts recorded at the same boundaries, and ratios derived from them.
COUNTS = (
    "crossbar.cells_read",
    "encoder.project_streamed.weights_drawn",
    "textcrypto.ciphertext_bytes",
    "decoder.train.epochs",
    "decoder.train.steps",
)
DERIVED = ("crossbar.ns_per_cell_read", "decoder.train.ms_per_step")


def _count_read_batch(counts, args, kwargs, result):
    xbar, vs = args[0], args[1] if len(args) > 1 else kwargs["vs"]
    counts["crossbar.cells_read"] += len(vs) * xbar.rows * xbar.cols


def _count_read(counts, args, kwargs, result):
    counts["crossbar.cells_read"] += args[0].rows * args[0].cols


def _count_streamed(counts, args, kwargs, result):
    counts["encoder.project_streamed.weights_drawn"] += len(result) * len(args[0])


def _count_ciphertext(counts, args, kwargs, result):
    counts["textcrypto.ciphertext_bytes"] += len(result)


def _count_train(counts, args, kwargs, result):
    train_set = args[1] if len(args) > 1 else kwargs["train_set"]
    cfg = args[3] if len(args) > 3 else kwargs["cfg"]
    epochs = result[1].epochs_run
    counts["decoder.train.epochs"] += epochs
    counts["decoder.train.steps"] += epochs * math.ceil(len(train_set[0]) / cfg.batch_size)


_COUNTERS = {
    "crossbar.Crossbar.read_vmm_batch": _count_read_batch,
    "crossbar.Crossbar.read_vmm": _count_read,
    "encoder.project_streamed": _count_streamed,
    "textcrypto.CipherText.to_bytes": _count_ciphertext,
    "decoder.train": _count_train,
}


def span_names():
    return [f"{m}.{q}" for m, q in SPANS] + [f"cli.main.{c}" for c in CLI_SUBCOMMANDS]


def metric_names():
    """Every per-layer metric a traced run reports, in report order.

    The cli spans carry no `.calls`: each subcommand runs once per
    operation the workload already counts in `attempted`.
    """
    names = []
    for span in span_names():
        suffixes = ("s", "self_s") if span.startswith("cli.") else ("calls", "s", "self_s")
        names += [f"{span}.{s}" for s in suffixes]
    return names + list(COUNTS) + list(DERIVED)


class Tracer:
    """Aggregated spans and counts; install() patches, restore() unpatches."""

    def __init__(self):
        self.spans = {name: [0, 0.0, 0.0] for name in span_names()}  # calls, s, self_s
        self.counts = {name: 0 for name in COUNTS}
        self._stack = []  # per open span: time spent in its children so far
        self._paused = False
        self._undo = []

    @contextmanager
    def paused(self):
        """Calls made inside run untraced (the benchmark's own checks)."""
        before, self._paused = self._paused, True
        try:
            yield
        finally:
            self._paused = before

    def _wrap(self, fn, name_of, counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            self._stack.append(0.0)
            start = time.process_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.process_time() - start
                child = self._stack.pop()
                rec = self.spans[name_of(args, kwargs)]
                rec[0] += 1
                rec[1] += elapsed
                rec[2] += elapsed - child
                if self._stack:
                    self._stack[-1] += elapsed
            if counter is not None:
                counter(self.counts, args, kwargs, result)
            return result
        return wrapper

    def _replace(self, owner, attr, new):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self):
        cli = importlib.import_module("hdcrypt.cli")
        for mod_name, _ in SPANS:
            importlib.import_module(f"hdcrypt.{mod_name}")
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "hdcrypt" or n.startswith("hdcrypt.")]
        for mod_name, qualname in SPANS:
            module = sys.modules[f"hdcrypt.{mod_name}"]
            span = f"{mod_name}.{qualname}"
            owner_path, _, attr = qualname.rpartition(".")
            owner = getattr(module, owner_path) if owner_path else module
            raw = owner.__dict__[attr]
            fn = raw.__func__ if isinstance(raw, classmethod) else raw
            wrapped = self._wrap(fn, lambda a, k, s=span: s, _COUNTERS.get(span))
            if isinstance(raw, classmethod):
                wrapped = classmethod(wrapped)
            self._replace(owner, attr, wrapped)
            if not owner_path:
                for other in modules:
                    if other is not module and other.__dict__.get(attr) is raw:
                        self._replace(other, attr, wrapped)

        def cli_span(args, kwargs):
            argv = args[0] if args else kwargs["argv"]
            return f"cli.main.{argv[0]}"
        self._replace(cli, "main", self._wrap(cli.main, cli_span, None))

    def restore(self):
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    def metrics(self):
        """Every per-layer metric by name, as a {name: (value, unit)} dict."""
        out = {}
        for span, (calls, total, self_s) in self.spans.items():
            out[f"{span}.calls"] = (calls, "count")
            out[f"{span}.s"] = (total, "s")
            out[f"{span}.self_s"] = (self_s, "s")
        for name, value in self.counts.items():
            out[name] = (value, "count")
        cells = self.counts["crossbar.cells_read"]
        read_s = (self.spans["crossbar.Crossbar.read_vmm_batch"][1]
                  + self.spans["crossbar.Crossbar.read_vmm"][1])
        out["crossbar.ns_per_cell_read"] = (read_s * 1e9 / cells if cells else 0.0, "ns")
        steps = self.counts["decoder.train.steps"]
        train_s = self.spans["decoder.train"][1]
        out["decoder.train.ms_per_step"] = (train_s * 1e3 / steps if steps else 0.0, "ms")
        return {name: out[name] for name in metric_names()}
