"""Memristor crossbar simulator.

Models an analog vector-matrix multiply I = V @ G with three programmable
non-idealities: a bounded conductance range [G_off, G_on] (from the high
and low resistance states), per-read additive Gaussian variability on
every free cell, and cells permanently stuck at either rail.

The noise convention follows hardware practice: each read perturbs each
free cell by Normal(0, sigma_frac * (G_on - G_off)) and the result is
clamped back into [G_off, G_on], because a physical device cannot leave
its rail range. Stuck cells never move.

A crossbar is immutable after construction, so instances can be shared
freely; every read takes its random stream as an explicit argument.
"""

from dataclasses import asdict, dataclass

import numpy as np

from . import jsondoc
from .blocks import block_size, block_slices
from .errors import (ConfigError, DataFormatError, DimensionError, require_batch,
                     require_finite, require_int)
from .rng import spawn_rng

__all__ = ["CrossbarConfig", "Crossbar", "STUCK_FREE", "STUCK_ON", "STUCK_OFF"]

STUCK_FREE = 0
STUCK_ON = 1
STUCK_OFF = 2

_STUCK_TO_CODE = {STUCK_FREE: "F", STUCK_ON: "N", STUCK_OFF: "P"}
_CODE_TO_STUCK = {v: k for k, v in _STUCK_TO_CODE.items()}


@dataclass(frozen=True)
class CrossbarConfig:
    """Geometry, resistance range, and non-ideality parameters.

    rows: word-line (input) count, cols: bit-line (output) count.
    r_lrs / r_hrs: low / high resistance states in ohms; the realizable
    conductance range is [1/r_hrs, 1/r_lrs].
    sigma_frac: per-read Gaussian std as a fraction of that range.
    p_stuck_on / p_stuck_off: per-cell probabilities of being pinned at
    G_on / G_off for the lifetime of the array.
    """

    rows: int
    cols: int
    r_lrs: float
    r_hrs: float
    sigma_frac: float
    p_stuck_on: float
    p_stuck_off: float
    seed: int

    def __post_init__(self):
        for name in ("rows", "cols"):
            require_int(name, getattr(self, name), low=1)
        require_int("seed", self.seed)
        for name in ("r_lrs", "r_hrs"):
            require_finite(name, getattr(self, name))
        if not (0 < self.r_lrs < self.r_hrs):
            raise ConfigError(
                "r_lrs", f"need 0 < r_lrs < r_hrs, got r_lrs={self.r_lrs!r} r_hrs={self.r_hrs!r}"
            )
        for name in ("sigma_frac", "p_stuck_on", "p_stuck_off"):
            require_finite(name, getattr(self, name), low=0)
        if self.p_stuck_on + self.p_stuck_off > 1:
            raise ConfigError("p_stuck_on", "p_stuck_on + p_stuck_off must be <= 1")

    @property
    def g_on(self):
        return 1.0 / self.r_lrs

    @property
    def g_off(self):
        return 1.0 / self.r_hrs

    @property
    def g_range(self):
        return self.g_on - self.g_off

    @property
    def g_mid(self):
        return 0.5 * (self.g_on + self.g_off)

    @property
    def noise_std(self):
        return self.sigma_frac * self.g_range


class Crossbar:
    """An instantiated array: target conductances plus a stuck-cell mask."""

    __slots__ = ("config", "g_target", "stuck_mask", "_noise_scale")

    def __init__(self, config, g_target, stuck_mask):
        shape = (config.rows, config.cols)
        g_target = np.ascontiguousarray(g_target, dtype=np.float64)
        stuck_mask = np.ascontiguousarray(stuck_mask, dtype=np.int8)
        if g_target.shape != shape:
            raise DimensionError(f"g_target shape {g_target.shape}, expected {shape}")
        if stuck_mask.shape != shape:
            raise DimensionError(f"stuck_mask shape {stuck_mask.shape}, expected {shape}")
        if g_target.min() < config.g_off - 1e-18 or g_target.max() > config.g_on + 1e-18:
            raise ConfigError("g_target", "conductances must lie in [G_off, G_on]")
        if not np.all(g_target[stuck_mask == STUCK_ON] == config.g_on):
            raise ConfigError("g_target", "stuck-on cells must sit at G_on")
        if not np.all(g_target[stuck_mask == STUCK_OFF] == config.g_off):
            raise ConfigError("g_target", "stuck-off cells must sit at G_off")
        # per-cell read-noise std: noise_std on free cells, 0 on stuck ones
        noise_scale = config.noise_std * (stuck_mask == STUCK_FREE)
        for arr in (g_target, stuck_mask, noise_scale):
            arr.setflags(write=False)
        object.__setattr__(self, "config", config)
        object.__setattr__(self, "g_target", g_target)
        object.__setattr__(self, "stuck_mask", stuck_mask)
        object.__setattr__(self, "_noise_scale", noise_scale)

    def __setattr__(self, name, value):
        raise AttributeError("Crossbar is immutable")

    @classmethod
    def new_random(cls, config):
        """Build an untuned array from the config's seed.

        Conductances are i.i.d. uniform over [G_off, G_on]; each cell is
        independently stuck-on / stuck-off / free; stuck cells are pinned
        to their rail. Deterministic given config.seed.
        """
        rng = spawn_rng(config.seed, "crossbar-construct")
        shape = (config.rows, config.cols)
        g = rng.uniform(config.g_off, config.g_on, size=shape)
        u = rng.random(size=shape)
        mask = np.full(shape, STUCK_FREE, dtype=np.int8)
        mask[u < config.p_stuck_on] = STUCK_ON
        mask[(u >= config.p_stuck_on) & (u < config.p_stuck_on + config.p_stuck_off)] = STUCK_OFF
        g[mask == STUCK_ON] = config.g_on
        g[mask == STUCK_OFF] = config.g_off
        return cls(config, g, mask)

    @property
    def rows(self):
        return self.config.rows

    @property
    def cols(self):
        return self.config.cols

    def _read_matrices(self, rng, out):
        """Effective conductances of `len(out)` reads, fresh noise on every
        free cell clamped to the rails, written into and returned as the
        C-contiguous float64 buffer `out` of shape (n, rows, cols), from
        n*rows*cols normal draws. Without noise no draw is made, `out` is
        left untouched and g_target is returned as (1, rows, cols)."""
        cfg = self.config
        if cfg.sigma_frac == 0:
            return self.g_target[None]
        g = rng.standard_normal(out=out)
        g *= self._noise_scale
        g += self.g_target
        np.clip(g, cfg.g_off, cfg.g_on, out=g)
        return g

    def effective_read_matrix(self, rng):
        """One read's effective conductances (fresh noise, clamped), for
        instrumenting single reads; draws as `_read_matrices` does."""
        return self._read_matrices(rng, np.empty((1, self.rows, self.cols)))[0].copy()

    def read_vmm(self, v, rng):
        """Analog multiply: returns v @ G_effective for one noisy read."""
        return self.read_vmm_batch(np.asarray(v, dtype=np.float64)[None], rng)[0]

    def read_vmm_batch(self, vs, rng):
        """Many reads, one per row of `vs`, each with fresh noise.

        Consumes the random stream exactly as the equivalent sequence of
        read_vmm calls would, so batched and looped reads agree bitwise.
        """
        vs = require_batch(vs, self.rows)
        out = np.empty((len(vs), self.cols))
        step = block_size(self.rows * self.cols)
        buf = np.empty((min(len(vs), step), self.rows, self.cols))
        for reads in block_slices(len(vs), step):
            g = self._read_matrices(rng, buf[:reads.stop - reads.start])
            # a vector-matrix product per row keeps each read independent
            # of the batch size; one GEMM over the batch rounds differently
            np.matmul(vs[reads, None, :], g, out=out[reads, None, :])
        return out

    # --- serialization ---------------------------------------------------

    def to_json_dict(self):
        codes = "".join(_STUCK_TO_CODE[int(s)] for s in self.stuck_mask.ravel())
        return jsondoc.envelope("crossbar", {
            "config": asdict(self.config),
            "g_target": self.g_target.ravel().tolist(),
            "stuck_mask": codes,
        })

    @classmethod
    def from_json_dict(cls, doc):
        jsondoc.check(doc, "crossbar", ("config", "g_target", "stuck_mask"))
        config = jsondoc.build(CrossbarConfig, doc["config"], "crossbar config")
        shape = (config.rows, config.cols)
        cells = shape[0] * shape[1]
        g = jsondoc.numbers(doc["g_target"], "g_target", "crossbar", (cells,))
        codes = doc["stuck_mask"]
        if not isinstance(codes, str):
            raise DataFormatError("crossbar field 'stuck_mask' must be a string, "
                                  f"got {type(codes).__name__}")
        if len(codes) != cells:
            raise DataFormatError(f"crossbar field 'stuck_mask' has {len(codes)} codes, "
                                  f"expected {cells}")
        try:
            mask = np.array([_CODE_TO_STUCK[c] for c in codes], dtype=np.int8)
        except KeyError as exc:
            raise DataFormatError(f"crossbar field 'stuck_mask' has unknown code "
                                  f"{exc.args[0]!r}") from None
        return cls(config, g.reshape(shape), mask.reshape(shape))

    def save(self, path):
        jsondoc.save(path, self.to_json_dict())

    @classmethod
    def load(cls, path):
        return cls.from_json_dict(jsondoc.load(path))
