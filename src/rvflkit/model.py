"""Model variants: RVFL, ELM (no direct link), and the robust weighted variants.

Every fit and scoring pass, in ``train``/``predict`` and in the CV fold code,
maps normalized inputs to the design matrix with ``forward`` and solves the
(r-weighted) ridge problem with ``fit_output_weights``. All of them run with one
BLAS thread (``solver.single_blas_thread``), so their results do not depend on
the core count.

``forward`` allocates only the design matrix: ``design_matrix`` lays out one
C-ordered (l, n + L) array [X, H] (n = 0 input columns without the direct link),
or takes one as ``out``, copies X into its leading columns, and ``hidden_matrix``
writes X W into the rest with one whole GEMM, then adds b and applies the
activation in place. The bytes equal those of ``hstack([X, g(X @ W + b)])``; a
row-blocked GEMM, or one into a block that is not row-major, would not give them.
``train`` and the fold code keep their whole design matrix, which the Gram matrix
reads.

``predict_scores`` is row-blocked instead, so its memory does not grow with rows
times hidden nodes: it normalizes X once, then fills one reused (PREDICT_ROWS,
n + L) buffer per block of rows and writes that block's scores into the result.
Up to PREDICT_ROWS rows this is one GEMM of the whole product's shape, with its
bytes. Above that, the blocked GEMMs round differently from the whole product
(about 1e-15 relative), so the scores' bytes depend on PREDICT_ROWS; labels can
differ only where two class scores tie within that rounding.

The sigmoid is 1 / (1 + exp(-x)) in numpy, in place, with exp's overflow below
x = -709.78 (where the result is 0) silenced. It is ``scipy.special.expit``'s formula
with numpy's exp, which differs from the C library's by up to one ulp, so activations
are within 2 ulp of expit's (4 ulp where 1 + exp(-x) crosses 2**53, near x = -36.9):
sigmoid model files and scores differ from expit's in their last bits. It spares every
command the import of ``scipy.special``, and is faster: 0.63 ms against expit's 1.03 ms
in place on the 766 x 203 hidden block of a design buffer (2-core Xeon VM).

``train`` builds one design matrix and reads it twice: for the ridge fit and for
the predicted labels of the training rows (``TrainedModel.train_predictions``).
Up to PREDICT_ROWS training rows they are the bits ``predict`` gives on those
rows; above that they are the whole product's argmax, which can differ from
``predict``'s only at such a tie. The weighting builds the class geometry only at
tau < 1 (see ``weighting``).
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import struct
from dataclasses import asdict, dataclass, fields

import numpy as np
import numpy.random  # noqa: F401  (loaded at import: every command draws a random layer)

from .data import Dataset, NormalizationParams, apply_normalization, fit_normalization, one_hot
from .solver import single_blas_thread, solve_auto
from .weighting import ContributionScores, WeightingConfig, compute_contribution_scores

VARIANTS = ("rvfl", "elm", "r2vfl-a", "r2vfl-m")
# The robust variants, and the class center each one scores samples against:
# the kernel mean of the class (R2VFL-A) or its feature-wise median (R2VFL-M).
CENTER_SCHEMES = {"r2vfl-a": "average", "r2vfl-m": "median"}
ACTIVATIONS = ("sigmoid", "tanh", "relu")

# Rows per block of ``predict_scores``, whose one design buffer is PREDICT_ROWS x (n + L):
# 1.8 MB at 20 features and 203 hidden nodes. On a 2-core Xeon, 256 and 512 rows
# scored 20 000 rows as fast, 2048 and 4096 rows 5-18 % slower.
PREDICT_ROWS = 1024

MODEL_MAGIC = b"RVFLKIT1"
MODEL_VERSION = 1


class ModelError(ValueError):
    pass


class ModelFormatError(ModelError):
    """Raised for unreadable, corrupted, or wrong-version model files."""


@dataclass(frozen=True)
class ModelConfig:
    variant: str
    hidden_nodes: int = 103
    gamma: float = 1.0
    activation: str = "sigmoid"
    seed: int = 0
    weighting: WeightingConfig | None = None

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ModelError(f"unknown variant {self.variant!r}; expected one of {VARIANTS}")
        if self.activation not in ACTIVATIONS:
            raise ModelError(f"unknown activation {self.activation!r}")
        if not isinstance(self.hidden_nodes, (int, np.integer)) or self.hidden_nodes < 1:
            raise ModelError("hidden_nodes must be an integer >= 1")
        # 1/gamma is the ridge term: gamma = inf drops it, a subnormal gamma overflows it
        if not (0 < self.gamma < math.inf and 1.0 / self.gamma < math.inf):
            raise ModelError(f"gamma must be positive and finite, with a finite 1/gamma; "
                             f"got {self.gamma!r}")
        if not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise ModelError(f"seed must be a non-negative integer, got {self.seed!r}")
        if self.robust != (self.weighting is not None):
            need = "requires a" if self.robust else "takes no"
            raise ModelError(f"variant {self.variant!r} {need} weighting config")

    @property
    def direct_link(self) -> bool:
        return self.variant != "elm"

    @property
    def robust(self) -> bool:
        return self.variant in CENTER_SCHEMES


@dataclass(frozen=True)
class RandomLayer:
    input_weights: np.ndarray  # (n, L), uniform in [-1, 1]
    bias: np.ndarray           # (L,)


def init_random_layer(n_features: int, hidden_nodes: int, seed: int) -> RandomLayer:
    if n_features < 1 or hidden_nodes < 1:
        raise ModelError("need n_features >= 1 and hidden_nodes >= 1")
    rng = np.random.default_rng(seed)
    W = rng.uniform(-1.0, 1.0, size=(n_features, hidden_nodes))
    b = rng.uniform(-1.0, 1.0, size=hidden_nodes)
    return RandomLayer(W, b)


def _activate(Z: np.ndarray, activation: str, out: np.ndarray | None = None) -> np.ndarray:
    if activation == "sigmoid":
        # 1 / (1 + exp(-Z)): exp overflows to inf below Z = -709.78, where the result is 0
        E = np.negative(Z, out=out)
        with np.errstate(over="ignore"):
            np.exp(E, out=E)
        E += 1.0
        return np.divide(1.0, E, out=E)
    if activation == "tanh":
        return np.tanh(Z, out=out)
    if activation == "relu":
        return np.maximum(Z, 0.0, out=out)
    raise ModelError(f"unknown activation {activation!r}")


def hidden_matrix(X: np.ndarray, layer: RandomLayer, activation: str,
                  out: np.ndarray | None = None) -> np.ndarray:
    """g(X W + b), written into ``out`` (l, L), a row-major block, when given."""
    X = np.asarray(X, dtype=np.float64)
    if X.shape[1] != layer.input_weights.shape[0]:
        raise ModelError(f"feature count {X.shape[1]} does not match layer "
                         f"({layer.input_weights.shape[0]})")
    H = np.matmul(X, layer.input_weights, out=out)
    H += layer.bias
    return _activate(H, activation, out=H)


def design_matrix(X: np.ndarray, layer: RandomLayer, activation: str,
                  direct_link: bool, out: np.ndarray | None = None) -> np.ndarray:
    """[X, hidden] with the direct link, else hidden, as one C-ordered array (``out``,
    a C-ordered (l, n + L) array, when given)."""
    n = X.shape[1] if direct_link else 0
    design = np.empty((X.shape[0], n + layer.bias.shape[0])) if out is None else out
    design[:, :n] = X[:, :n]
    hidden_matrix(X, layer, activation, out=design[:, n:])
    return design


def forward(Xn: np.ndarray, layer: RandomLayer, config: ModelConfig,
            out: np.ndarray | None = None) -> np.ndarray:
    """Design matrix of normalized inputs: [Xn, hidden] with the direct link, else hidden."""
    return design_matrix(Xn, layer, config.activation, config.direct_link, out)


def fit_output_weights(design: np.ndarray, Y: np.ndarray, r: np.ndarray | None,
                       gammas) -> list[np.ndarray]:
    """Ridge output weights, one per ridge gamma; per-sample scores r scale the rows of
    design and targets. The gammas share one Gram matrix, and each W equals the one a
    single-gamma call would give."""
    if r is not None:
        design = r[:, None] * design
        Y = r[:, None] * Y
    return solve_auto(design, Y, gammas)


@dataclass(frozen=True)
class TrainedModel:
    random_layer: RandomLayer
    output_weights: np.ndarray
    normalization: NormalizationParams
    config: ModelConfig
    class_names: tuple[str, ...]
    scores: ContributionScores | None = None  # training-time diagnostics (robust variants)
    # argmax labels of the training rows from train's whole design matrix; not saved
    train_predictions: np.ndarray | None = None

    @property
    def n_features(self) -> int:
        return self.random_layer.input_weights.shape[0]


@single_blas_thread()
def train(dataset: Dataset, config: ModelConfig) -> TrainedModel:
    """Fit one model: normalize, project, (optionally) weight, ridge-solve."""
    norm = fit_normalization(dataset.features)
    Xn = apply_normalization(dataset.features, norm)
    layer = init_random_layer(dataset.n_features, config.hidden_nodes, config.seed)
    scores = r = None
    if config.robust:
        scores = compute_contribution_scores(Xn, dataset.labels, config.weighting,
                                             CENTER_SCHEMES[config.variant])
        r = scores.r
    Y = one_hot(dataset.labels, dataset.n_classes)
    design = forward(Xn, layer, config)
    (W2,) = fit_output_weights(design, Y, r, (config.gamma,))
    return TrainedModel(layer, W2, norm, config, dataset.class_names, scores,
                        np.argmax(design @ W2, axis=1))


@single_blas_thread()
def predict_scores(model: TrainedModel, X_raw) -> np.ndarray:
    """Class scores of raw rows, PREDICT_ROWS rows at a time through one design buffer."""
    X = np.asarray(X_raw, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.n_features:
        raise ModelError(f"expected {model.n_features} features, got shape {X.shape}")
    Xn = apply_normalization(X, model.normalization)
    W2 = model.output_weights
    scores = np.empty((len(Xn), W2.shape[1]))
    buffer = np.empty((min(len(Xn), PREDICT_ROWS), W2.shape[0]))
    for start in range(0, len(Xn), PREDICT_ROWS):
        block = Xn[start:start + PREDICT_ROWS]
        design = forward(block, model.random_layer, model.config, out=buffer[:len(block)])
        np.matmul(design, W2, out=scores[start:start + len(block)])
    return scores


def predict(model: TrainedModel, X_raw):
    """Class scores and argmax labels (lowest index wins ties)."""
    scores = predict_scores(model, X_raw)
    return scores, np.argmax(scores, axis=1)


def _write_array(buf: io.BytesIO, arr: np.ndarray):
    arr = np.ascontiguousarray(arr, dtype=np.float64)
    buf.write(struct.pack("<B", arr.ndim))
    for dim in arr.shape:
        buf.write(struct.pack("<q", dim))
    buf.write(arr.tobytes())


def _read_array(buf: io.BytesIO) -> np.ndarray:
    (ndim,) = struct.unpack("<B", buf.read(1))
    shape = tuple(struct.unpack("<q", buf.read(8))[0] for _ in range(ndim))
    count = int(np.prod(shape)) if shape else 1
    raw = buf.read(8 * count)
    if len(raw) != 8 * count:
        raise ModelFormatError("truncated model file")
    return np.frombuffer(raw, dtype="<f8").reshape(shape).copy()


def save_model(model: TrainedModel, path) -> None:
    """Serialize: magic, version, JSON header, float64 payloads, sha256 checksum."""
    header = {**asdict(model.config), "class_names": list(model.class_names),
              "n_features": model.n_features, "has_scores": model.scores is not None}
    if header["weighting"] is not None:
        header["weighting"]["center_scheme"] = CENTER_SCHEMES[model.config.variant]
    buf = io.BytesIO()
    hjson = json.dumps(header, sort_keys=True).encode("utf-8")
    buf.write(struct.pack("<I", len(hjson)))
    buf.write(hjson)
    _write_array(buf, model.random_layer.input_weights)
    _write_array(buf, model.random_layer.bias)
    _write_array(buf, model.output_weights)
    _write_array(buf, model.normalization.minimum)
    _write_array(buf, model.normalization.range)
    if model.scores is not None:
        _write_array(buf, model.scores.cp)
        _write_array(buf, model.scores.m)
        _write_array(buf, model.scores.r)
    payload = buf.getvalue()
    digest = hashlib.sha256(payload).digest()
    with open(path, "wb") as fh:
        fh.write(MODEL_MAGIC)
        fh.write(struct.pack("<I", MODEL_VERSION))
        fh.write(payload)
        fh.write(digest)


def load_model(path) -> TrainedModel:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < len(MODEL_MAGIC) + 4 + 32 or blob[:len(MODEL_MAGIC)] != MODEL_MAGIC:
        raise ModelFormatError("not a model file")
    (version,) = struct.unpack_from("<I", blob, len(MODEL_MAGIC))
    if version != MODEL_VERSION:
        raise ModelFormatError(f"unsupported model format version {version}")
    payload, digest = blob[len(MODEL_MAGIC) + 4:-32], blob[-32:]
    if hashlib.sha256(payload).digest() != digest:
        raise ModelFormatError("checksum mismatch: model file is corrupted")
    try:
        return _parse_payload(payload)
    except ModelFormatError:
        raise
    except (KeyError, TypeError, ValueError, struct.error) as exc:
        raise ModelFormatError(f"malformed model file ({type(exc).__name__}: {exc})") from exc


def _from_header(cls, entries: dict):
    """A config dataclass from the header entries named after its fields."""
    return cls(**{f.name: entries[f.name] for f in fields(cls)})


def _parse_payload(payload: bytes) -> TrainedModel:
    buf = io.BytesIO(payload)
    (hlen,) = struct.unpack("<I", buf.read(4))
    header = json.loads(buf.read(hlen).decode("utf-8"))

    weighting = header["weighting"]
    if weighting is not None:
        if weighting["center_scheme"] != CENTER_SCHEMES.get(header["variant"]):
            raise ModelFormatError(f"center scheme {weighting['center_scheme']!r} does not "
                                   f"match variant {header['variant']!r}")
        weighting = _from_header(WeightingConfig, weighting)
    config = _from_header(ModelConfig, {**header, "weighting": weighting})
    layer = RandomLayer(_read_array(buf), _read_array(buf))
    W2 = _read_array(buf)
    norm = NormalizationParams(_read_array(buf), _read_array(buf))
    scores = None
    if header["has_scores"]:
        scores = ContributionScores(_read_array(buf), _read_array(buf), _read_array(buf))
    n, L, classes = header["n_features"], config.hidden_nodes, len(header["class_names"])
    shapes = {"input weights": (layer.input_weights, (n, L)), "bias": (layer.bias, (L,)),
              "output weights": (W2, (n * config.direct_link + L, classes)),
              "normalization minimum": (norm.minimum, (n,)),
              "normalization range": (norm.range, (n,))}
    if scores is not None:  # cp, m and r: one entry per training row
        shapes.update({name: (a, (scores.r.size,)) for name, a
                       in zip(("cp", "m", "r"), (scores.cp, scores.m, scores.r))})
    for name, (a, shape) in shapes.items():
        if a.shape != shape:
            raise ModelFormatError(f"malformed model file ({name} of shape {a.shape}, "
                                   f"expected {shape})")
    return TrainedModel(layer, W2, norm, config, tuple(header["class_names"]), scores)
