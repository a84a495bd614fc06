"""Model variants: RVFL, ELM (no direct link), and the robust weighted variants.

Every fit and scoring pass, in ``train``/``predict`` and in the CV fold code,
maps normalized inputs to the design matrix with ``forward`` and solves the
(r-weighted) ridge problem with ``fit_output_weights``.
"""

from __future__ import annotations

import hashlib
import io
import json
import struct
from dataclasses import dataclass, replace

import numpy as np

from .data import Dataset, NormalizationParams, apply_normalization, fit_normalization, one_hot
from .kernel import KernelParams
from .solver import solve_auto
from .weighting import ContributionScores, WeightingConfig, compute_contribution_scores

VARIANTS = ("rvfl", "elm", "r2vfl-a", "r2vfl-m")
ACTIVATIONS = ("sigmoid", "tanh", "relu")

MODEL_MAGIC = b"RVFLKIT1"
MODEL_VERSION = 1


class ModelError(ValueError):
    pass


class ModelFormatError(ModelError):
    """Raised for unreadable, corrupted, or wrong-version model files."""


@dataclass(frozen=True)
class ModelConfig:
    variant: str
    hidden_nodes: int
    gamma: float
    activation: str = "sigmoid"
    seed: int = 0
    weighting: WeightingConfig | None = None

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ModelError(f"unknown variant {self.variant!r}; expected one of {VARIANTS}")
        if self.activation not in ACTIVATIONS:
            raise ModelError(f"unknown activation {self.activation!r}")
        if self.hidden_nodes < 1:
            raise ModelError("hidden_nodes must be >= 1")
        if not self.gamma > 0:
            raise ModelError("gamma must be positive")
        if self.variant in ("r2vfl-a", "r2vfl-m") and self.weighting is None:
            raise ModelError(f"variant {self.variant!r} requires a weighting config")

    @property
    def direct_link(self) -> bool:
        return self.variant != "elm"

    @property
    def robust(self) -> bool:
        return self.variant in ("r2vfl-a", "r2vfl-m")

    def resolved_weighting(self) -> WeightingConfig | None:
        """Weighting config with the center scheme forced by the variant."""
        if not self.robust:
            return None
        scheme = "average" if self.variant == "r2vfl-a" else "median"
        return replace(self.weighting, center_scheme=scheme)


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


def _activate(Z: np.ndarray, activation: str) -> np.ndarray:
    if activation == "sigmoid":
        out = np.empty_like(Z)
        pos = Z >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-Z[pos]))
        ez = np.exp(Z[~pos])
        out[~pos] = ez / (1.0 + ez)
        return out
    if activation == "tanh":
        return np.tanh(Z)
    if activation == "relu":
        return np.maximum(Z, 0.0)
    raise ModelError(f"unknown activation {activation!r}")


def hidden_matrix(X: np.ndarray, layer: RandomLayer, activation: str) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.shape[1] != layer.input_weights.shape[0]:
        raise ModelError(f"feature count {X.shape[1]} does not match layer "
                         f"({layer.input_weights.shape[0]})")
    return _activate(X @ layer.input_weights + layer.bias, activation)


def design_matrix(X: np.ndarray, A1: np.ndarray, direct_link: bool) -> np.ndarray:
    if X.shape[0] != A1.shape[0]:
        raise ModelError("row counts differ between inputs and hidden activations")
    if direct_link:
        return np.hstack([X, A1])
    return A1


def forward(Xn: np.ndarray, layer: RandomLayer, config: ModelConfig) -> np.ndarray:
    """Design matrix of normalized inputs: [Xn, hidden] with the direct link, else hidden."""
    A1 = hidden_matrix(Xn, layer, config.activation)
    return design_matrix(Xn, A1, config.direct_link)


def fit_output_weights(design: np.ndarray, Y: np.ndarray, r: np.ndarray | None,
                       gamma: float) -> np.ndarray:
    """Ridge output weights; per-sample scores r scale the rows of design and targets."""
    if r is not None:
        design = r[:, None] * design
        Y = r[:, None] * Y
    return solve_auto(design, Y, gamma)


@dataclass(frozen=True)
class TrainedModel:
    random_layer: RandomLayer
    output_weights: np.ndarray
    normalization: NormalizationParams
    config: ModelConfig
    class_names: tuple[str, ...]
    scores: ContributionScores | None = None  # training-time diagnostics (robust variants)

    @property
    def n_features(self) -> int:
        return self.random_layer.input_weights.shape[0]


def train(dataset: Dataset, config: ModelConfig) -> TrainedModel:
    """Fit one model: normalize, project, (optionally) weight, ridge-solve."""
    norm = fit_normalization(dataset.features)
    Xn = apply_normalization(dataset.features, norm)
    layer = init_random_layer(dataset.n_features, config.hidden_nodes, config.seed)
    scores = r = None
    if config.robust:
        scores = compute_contribution_scores(Xn, dataset.labels, config.resolved_weighting())
        r = scores.r
    Y = one_hot(dataset.labels, dataset.n_classes)
    W2 = fit_output_weights(forward(Xn, layer, config), Y, r, config.gamma)
    return TrainedModel(layer, W2, norm, config, dataset.class_names, scores)


def predict_scores(model: TrainedModel, X_raw) -> np.ndarray:
    X = np.asarray(X_raw, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.n_features:
        raise ModelError(f"expected {model.n_features} features, got shape {X.shape}")
    Xn = apply_normalization(X, model.normalization)
    return forward(Xn, model.random_layer, model.config) @ model.output_weights


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
    cfg = model.config
    header = {
        "variant": cfg.variant,
        "hidden_nodes": cfg.hidden_nodes,
        "gamma": cfg.gamma,
        "activation": cfg.activation,
        "seed": cfg.seed,
        "class_names": list(model.class_names),
        "n_features": model.n_features,
        "has_scores": model.scores is not None,
        "weighting": None,
    }
    if cfg.weighting is not None:
        w = cfg.weighting
        header["weighting"] = {
            "kernel_gamma": w.kernel.gamma,
            "tau_multiplier": w.tau_multiplier,
            "center_scheme": w.center_scheme,
            "delta": w.delta,
            "delta_quantile": w.delta_quantile,
        }
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


def _parse_payload(payload: bytes) -> TrainedModel:
    buf = io.BytesIO(payload)
    (hlen,) = struct.unpack("<I", buf.read(4))
    header = json.loads(buf.read(hlen).decode("utf-8"))

    weighting = None
    if header["weighting"] is not None:
        w = header["weighting"]
        weighting = WeightingConfig(
            kernel=KernelParams(gamma=w["kernel_gamma"]),
            tau_multiplier=w["tau_multiplier"],
            center_scheme=w["center_scheme"],
            delta=w["delta"],
            delta_quantile=w["delta_quantile"],
        )
    config = ModelConfig(
        variant=header["variant"], hidden_nodes=header["hidden_nodes"],
        gamma=header["gamma"], activation=header["activation"],
        seed=header["seed"], weighting=weighting,
    )
    layer = RandomLayer(_read_array(buf), _read_array(buf))
    W2 = _read_array(buf)
    norm = NormalizationParams(_read_array(buf), _read_array(buf))
    scores = None
    if header["has_scores"]:
        scores = ContributionScores(_read_array(buf), _read_array(buf), _read_array(buf))
    return TrainedModel(layer, W2, norm, config, tuple(header["class_names"]), scores)
