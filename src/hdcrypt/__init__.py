"""Stochastic encryption on simulated memristor crossbars.

A noisy analog crossbar read expands a low-dimensional secret vector into
a binary hypervector that changes pass to pass; a trained linear decoder
inverts the code. The package simulates the hardware, implements both the
text and image pipelines, and ships the experiment harness that sweeps
noise levels and code dimensions.
"""

from .crossbar import Crossbar, CrossbarConfig
from .decoder import (HEAD_REGRESSION, HEAD_SOFTMAX, LinearDecoder,
                      TrainConfig, TrainReport, fit_naive_bayes, grad_check,
                      load_model, save_model, train)
from .encoder import (IdealEncoder, calibrate_epsilon, crossbar_pre_threshold,
                      crossbar_pre_threshold_batch, encode_crossbar,
                      encode_crossbar_batch, threshold_binarize)
from .errors import (CharsetError, ConfigError, DataFormatError,
                     DegenerateStatisticError, DimensionError, HdcryptError,
                     TrainingDivergedError)
from .hypervector import BinaryHypervector
from .imagecrypto import (BenchmarkEncoder, GrayImage, adjacency_stats,
                          adjacent_pixel_correlation, binary_pair_counts,
                          bits_to_plane, pixel_histogram)
from .rng import derive_seed, spawn_rng
from .textcrypto import (CHARSET, NUM_CLASSES, CipherText, SecretKeyTable,
                         build_dataset, decrypt_text, encrypt_text,
                         evaluate_accuracy, uniqueness_stats)

__version__ = "0.1.0"
