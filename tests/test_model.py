import hashlib
import json
import os
import struct
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.special import expit

from rvflkit.data import Dataset, NormalizationParams, apply_normalization, one_hot
from rvflkit.model import ACTIVATIONS, MODEL_MAGIC, MODEL_VERSION, PREDICT_ROWS, ModelConfig, \
    ModelError, ModelFormatError, RandomLayer, TrainedModel, _activate, design_matrix, forward, \
    hidden_matrix, init_random_layer, load_model, predict, predict_scores, save_model, train
from rvflkit.solver import single_blas_thread, solve_primal
from rvflkit.weighting import WeightingConfig
from conftest import fit_with_unit_scores, gaussian_blobs, masked_sigmoid, random_dataset

WCFG = WeightingConfig(kernel_gamma=1.0)


def separable_toy():
    X = np.array([[0.0, 0.0], [0.1, 0.0], [1.0, 1.0], [0.9, 1.0]])
    y = np.array([0, 0, 1, 1])
    return Dataset(X, y, ("lo", "hi"))


class TestRandomLayer:
    def test_deterministic(self):
        a = init_random_layer(4, 10, seed=9)
        b = init_random_layer(4, 10, seed=9)
        np.testing.assert_array_equal(a.input_weights, b.input_weights)
        np.testing.assert_array_equal(a.bias, b.bias)

    def test_range(self):
        layer = init_random_layer(5, 50, seed=1)
        assert np.all(np.abs(layer.input_weights) <= 1)
        assert np.all(np.abs(layer.bias) <= 1)

    def test_shapes_at_grid_maximum(self):
        layer = init_random_layer(3, 203, seed=0)
        assert layer.input_weights.shape == (3, 203)
        assert layer.bias.shape == (203,)


class TestHiddenMatrix:
    def test_sigmoid_at_zero(self):
        layer = RandomLayer(np.zeros((2, 3)), np.zeros(3))
        A1 = hidden_matrix(np.zeros((4, 2)), layer, "sigmoid")
        np.testing.assert_allclose(A1, 0.5)

    def test_relu_at_zero(self):
        layer = RandomLayer(np.zeros((2, 3)), np.zeros(3))
        np.testing.assert_allclose(hidden_matrix(np.zeros((4, 2)), layer, "relu"), 0.0)

    def test_single_node_hand_value(self):
        layer = RandomLayer(np.array([[2.0], [5.0]]), np.array([-2.0]))
        A1 = hidden_matrix(np.array([[1.0, 0.0]]), layer, "sigmoid")
        assert A1[0, 0] == pytest.approx(0.5)

    def test_dimension_mismatch(self):
        layer = RandomLayer(np.zeros((2, 3)), np.zeros(3))
        with pytest.raises(ModelError):
            hidden_matrix(np.zeros((4, 3)), layer, "sigmoid")


class TestSigmoid:
    EDGES = np.array([0.0, 1.0, -1.0, 36.0, -36.0, 745.0, -745.0, 1e3, -1e3])

    def test_matches_masked_reference(self, rng):
        Z = np.concatenate([rng.normal(scale=8.0, size=2000), self.EDGES])
        np.testing.assert_allclose(_activate(Z, "sigmoid"), masked_sigmoid(Z),
                                   rtol=0, atol=2 * np.finfo(np.float64).eps)

    def test_exactly_half_at_zero(self):
        assert _activate(np.zeros(3), "sigmoid").tolist() == [0.5, 0.5, 0.5]

    def test_no_overflow_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            out = _activate(self.EDGES.reshape(3, 3), "sigmoid")
        assert np.all((out >= 0) & (out <= 1))

    def test_within_ulps_of_scipy_expit(self):
        # 1 / (1 + exp(-Z)) is expit's formula; numpy's exp differs from the C library's
        # by up to one ulp. That stays within 2 ulp of expit, except where 1 + exp(-Z)
        # crosses 2**53 (Z near -36.9): there the sum's rounding and the reciprocal's
        # binade double it.
        Z = np.linspace(-750.0, 750.0, 3_000_001)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = _activate(Z, "sigmoid")
        want = expit(Z)
        normal = want >= np.finfo(np.float64).tiny
        ulps = np.abs(got - want)[normal] / np.spacing(want[normal])
        crossing = (Z[normal] > -37.1) & (Z[normal] < -36.7)
        assert ulps[~crossing].max() <= 2 and ulps[crossing].max() <= 4
        # below the smallest normal float (Z < -708.4), within one subnormal step
        assert np.abs(got - want)[~normal].max() <= np.finfo(np.float64).smallest_subnormal

    def test_special_values_equal_scipy_expit(self):
        Z = np.array([0.0, -0.0, np.inf, -np.inf, np.nan])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = _activate(Z, "sigmoid")
        np.testing.assert_array_equal(got, [0.5, 0.5, 1.0, 0.0, np.nan])
        np.testing.assert_array_equal(got, expit(Z))


class TestDesignMatrix:
    def test_concatenation_shape(self, rng):
        X = rng.normal(size=(2, 3))
        layer = init_random_layer(3, 5, seed=0)
        assert design_matrix(X, layer, "sigmoid", True).shape == (2, 8)

    def test_no_direct_link(self, rng):
        X = rng.normal(size=(2, 3))
        layer = init_random_layer(3, 5, seed=0)
        design = design_matrix(X, layer, "sigmoid", False)
        np.testing.assert_array_equal(design, hidden_matrix(X, layer, "sigmoid"))
        assert design.flags.c_contiguous and design.base is None

    def test_input_columns_first(self, rng):
        X = rng.normal(size=(3, 2))
        layer = init_random_layer(2, 4, seed=0)
        np.testing.assert_array_equal(design_matrix(X, layer, "sigmoid", True)[:, :2], X)


def sigmoid_formula(Z):
    """The model's sigmoid, 1 / (1 + exp(-Z)), on a new array."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-Z))


# These oracles pin how the design matrix is laid out and blocked, not the activation
# (TestSigmoid holds the sigmoid against scipy.special.expit), so the sigmoid's is the
# model's own formula.
ACTIVATION_ORACLES = {"sigmoid": sigmoid_formula, "tanh": np.tanh,
                      "relu": lambda Z: np.maximum(Z, 0.0)}


class TestForward:
    """``forward`` builds [Xn, hidden] in one buffer; its bytes must equal those of the
    separate arrays it replaced. ``predict_scores`` scores PREDICT_ROWS rows at a time;
    its bytes must equal those of the separate arrays scored block by block."""

    # (rows, features, hidden nodes): one row, one hidden node, one feature, a dual
    # shape (more columns than rows), and a large prediction
    SHAPES = [(1, 4, 7), (30, 4, 1), (30, 1, 9), (5, 3, 12), (20000, 20, 203)]

    @staticmethod
    def reference(Xn, layer, config):
        H = ACTIVATION_ORACLES[config.activation](Xn @ layer.input_weights + layer.bias)
        return np.hstack([Xn, H]) if config.direct_link else H

    @classmethod
    def blocked_reference_scores(cls, Xn, layer, config, W2):
        return np.vstack([cls.reference(Xn[i:i + PREDICT_ROWS], layer, config) @ W2
                          for i in range(0, len(Xn), PREDICT_ROWS)])

    @staticmethod
    def model(rng, n, L, config, n_classes=3):
        layer = init_random_layer(n, L, seed=1)
        norm = NormalizationParams(rng.normal(size=n), rng.uniform(0.5, 2.0, size=n))
        W2 = rng.normal(size=(n * config.direct_link + L, n_classes))
        return TrainedModel(layer, W2, norm, config, tuple("abc"[:n_classes]))

    @pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "x".join(map(str, s)))
    @pytest.mark.parametrize("activation", ACTIVATIONS)
    @pytest.mark.parametrize("variant", ["rvfl", "elm"])
    def test_bytes_equal_separate_arrays(self, rng, variant, activation, shape):
        l, n, L = shape
        config = ModelConfig(variant, L, 1.0, activation=activation)
        model = self.model(rng, n, L, config)
        X = rng.normal(size=(l, n))
        Xn = apply_normalization(X, model.normalization)
        with single_blas_thread():  # the thread count of every fit and prediction
            D = forward(Xn, model.random_layer, config)
            ref = self.reference(Xn, model.random_layer, config)
            ref_scores = self.blocked_reference_scores(Xn, model.random_layer, config,
                                                       model.output_weights)
        # the Gram's D.T @ D and the scoring GEMM see the old layout only if D is C-ordered
        assert D.flags.c_contiguous and D.shape == ref.shape
        assert D.tobytes() == ref.tobytes()
        assert predict_scores(model, X).tobytes() == ref_scores.tobytes()

    @pytest.mark.parametrize("rows", [1, PREDICT_ROWS - 1, PREDICT_ROWS, PREDICT_ROWS + 1,
                                      2 * PREDICT_ROWS + 3])
    @pytest.mark.parametrize("variant", ["rvfl", "elm"])
    def test_predict_scores_blocks_rows(self, rng, variant, rows):
        config = ModelConfig(variant, 203, 1.0)
        model = self.model(rng, 20, 203, config)
        X = rng.normal(size=(rows, 20))
        Xn = apply_normalization(X, model.normalization)
        scores = predict_scores(model, X)
        with single_blas_thread():
            whole = forward(Xn, model.random_layer, config) @ model.output_weights
            blocked = self.blocked_reference_scores(Xn, model.random_layer, config,
                                                    model.output_weights)
        assert scores.tobytes() == blocked.tobytes()
        if rows <= PREDICT_ROWS:  # one block: the whole product's GEMM, with its bytes
            assert scores.tobytes() == whole.tobytes()
        else:  # blocked GEMMs round differently from the whole product
            np.testing.assert_allclose(scores, whole, rtol=1e-12, atol=1e-12)
            assert np.argmax(scores, axis=1).tobytes() == np.argmax(whole, axis=1).tobytes()

    def test_forward_allocates_only_its_result(self, rng):
        config = ModelConfig("rvfl", 203, 1.0)
        layer = init_random_layer(20, 203, seed=1)
        Xn = rng.uniform(size=(20000, 20))
        tracemalloc.start()
        try:
            D = forward(Xn, layer, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert D.nbytes <= peak <= D.nbytes + 2**20

    @staticmethod
    def predict_peak(model, X):
        """The scores and the traced peak of one ``predict_scores`` call."""
        tracemalloc.start()
        try:
            scores = predict_scores(model, X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return scores, peak

    def test_predict_scores_allocates_design_normalization_and_scores(self, rng):
        model = self.model(rng, 20, 203, ModelConfig("rvfl", 203, 1.0))
        X = rng.normal(size=(20000, 20))
        scores, peak = self.predict_peak(model, X)
        block = PREDICT_ROWS * (20 + 203) * 8
        # one block buffer, the normalized copy of X (the quotient overwrites the
        # difference) and the scores
        assert peak <= block + X.nbytes + scores.nbytes + 2**20

    def test_predict_scores_peak_does_not_grow_with_rows(self, rng):
        model = self.model(rng, 20, 203, ModelConfig("rvfl", 203, 1.0))
        beyond = []  # the traced peak beyond X's normalized copy and the scores
        for rows in (20000, 80000):
            X = rng.normal(size=(rows, 20))
            scores, peak = self.predict_peak(model, X)
            beyond.append(peak - X.nbytes - scores.nbytes)
        assert beyond[1] <= beyond[0] + 2**16


class TestTrain:
    def test_unit_scores_reduce_to_plain_rvfl(self):
        ds = separable_toy()
        base = ModelConfig("rvfl", 23, 1e3, seed=5)
        robust = ModelConfig("r2vfl-a", 23, 1e3, seed=5, weighting=WCFG)
        m_base = train(ds, base)
        m_rob = fit_with_unit_scores(ds, robust)
        assert np.linalg.norm(m_rob.output_weights - m_base.output_weights) <= 1e-10
        np.testing.assert_array_equal(predict(m_rob, ds.features)[1],
                                      predict(m_base, ds.features)[1])

    def test_separable_toy_perfect_fit(self):
        ds = separable_toy()
        model = train(ds, ModelConfig("rvfl", 23, 1e3, seed=1))
        _, labels = predict(model, ds.features)
        np.testing.assert_array_equal(labels, ds.labels)

    def test_elm_output_weight_rows(self):
        ds = separable_toy()
        m = train(ds, ModelConfig("elm", 7, 1.0, seed=0))
        assert m.output_weights.shape == (7, 2)
        m2 = train(ds, ModelConfig("rvfl", 7, 1.0, seed=0))
        assert m2.output_weights.shape == (2 + 7, 2)

    def test_determinism(self, rng):
        ds = random_dataset(rng, n_samples=15)
        cfg = ModelConfig("r2vfl-m", 11, 10.0, seed=4, weighting=WCFG)
        a = train(ds, cfg)
        b = train(ds, cfg)
        np.testing.assert_array_equal(a.output_weights, b.output_weights)

    def test_objective_stationarity(self, rng):
        ds = random_dataset(rng, n_samples=20, n_classes=2)
        cfg = ModelConfig("r2vfl-a", 9, 10.0, seed=2, weighting=WCFG)
        model = train(ds, cfg)
        Xn = apply_normalization(ds.features, model.normalization)
        A2 = design_matrix(Xn, model.random_layer, cfg.activation, True)
        r = model.scores.r
        B2 = r[:, None] * A2
        RY = r[:, None] * one_hot(ds.labels, ds.n_classes)
        G = B2.T @ B2 + np.eye(B2.shape[1]) / cfg.gamma
        rhs = B2.T @ RY
        res = np.linalg.norm(G @ model.output_weights - rhs)
        assert res <= 1e-8 * (1 + np.linalg.norm(rhs))

    def test_zero_score_equals_row_deletion(self, rng):
        # score 0 zeroes a row of the weighted design and targets, which is
        # exactly the row-deleted weighted least-squares problem
        D = rng.normal(size=(8, 4))
        Y = rng.normal(size=(8, 2))
        r = np.ones(8)
        r[3] = 0.0
        W_zeroed = solve_primal(r[:, None] * D, r[:, None] * Y, [10.0])[0]
        keep = np.arange(8) != 3
        W_deleted = solve_primal(D[keep], Y[keep], [10.0])[0]
        np.testing.assert_allclose(W_zeroed, W_deleted, atol=1e-12)

    @pytest.mark.parametrize("variant", ["rvfl", "elm", "r2vfl-a", "r2vfl-m"])
    @pytest.mark.parametrize("tau", [1.0, 0.625])
    def test_train_predictions_are_predict_labels(self, rng, tmp_path, variant, tau):
        ds = random_dataset(rng, n_samples=40, n_features=3, n_classes=3)
        w = WeightingConfig(kernel_gamma=1.0, tau_multiplier=tau) \
            if variant.startswith("r2vfl") else None
        model = train(ds, ModelConfig(variant, 13, 10.0, seed=2, weighting=w))
        assert model.train_predictions.tobytes() == predict(model, ds.features)[1].tobytes()
        save_model(model, tmp_path / "m.rvfl")
        assert load_model(tmp_path / "m.rvfl").train_predictions is None

    @pytest.mark.parametrize("variant", ["rvfl", "elm"])
    def test_train_predictions_above_one_block_are_predict_labels(self, variant):
        # train scores its whole design matrix and predict one block at a time; on
        # continuous data no two class scores tie within the rounding between the two
        ds = gaussian_blobs(PREDICT_ROWS + 2, seed=3, n_features=4, flip_fraction=0.1)
        model = train(ds, ModelConfig(variant, 53, 10.0, seed=2))
        assert model.train_predictions.tobytes() == predict(model, ds.features)[1].tobytes()

    def test_robust_variant_requires_weighting(self):
        with pytest.raises(ModelError):
            ModelConfig("r2vfl-a", 5, 1.0)

    def test_plain_variant_takes_no_weighting(self):
        # the weighting of a plain variant would be a setting nothing reads
        with pytest.raises(ModelError, match="takes no weighting"):
            ModelConfig("rvfl", 5, 1.0, weighting=WCFG)


# Trains a robust model and scores more than one block of rows through the library,
# without cli.main, which would set one BLAS thread for the whole process.
THREADS_SCRIPT = """
import hashlib, sys
import numpy as np
from rvflkit.data import Dataset
from rvflkit.model import PREDICT_ROWS, ModelConfig, predict_scores, save_model, train
from rvflkit.weighting import WeightingConfig
rng = np.random.default_rng(5)
ds = Dataset(rng.normal(size=(300, 20)), np.arange(300) % 3, ("a", "b", "c"))
model = train(ds, ModelConfig("r2vfl-m", 203, 100.0, weighting=WeightingConfig(tau_multiplier=0.75)))
save_model(model, sys.argv[1])
scores = predict_scores(model, rng.normal(size=(3 * PREDICT_ROWS + 5, 20)))
print(hashlib.sha256(scores.tobytes()).hexdigest())
"""


def test_train_and_predict_scores_do_not_depend_on_blas_threads(tmp_path):
    src = str(Path(__file__).resolve().parents[1] / "src")
    outputs = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        path = tmp_path / f"threads{threads}.rvfl"
        done = subprocess.run([sys.executable, "-c", THREADS_SCRIPT, str(path)], env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        outputs.append((path.read_bytes(), done.stdout))
    assert outputs[0] == outputs[1]


class TestPredict:
    def test_argmax_and_tie_break(self):
        scores = np.array([[0.2, 0.9], [0.5, 0.5]])
        assert list(np.argmax(scores, axis=1)) == [1, 0]

    def test_feature_count_check(self):
        ds = separable_toy()
        model = train(ds, ModelConfig("rvfl", 5, 1.0, seed=0))
        with pytest.raises(ModelError):
            predict_scores(model, np.zeros((2, 3)))


GOLDEN = Path(__file__).parent / "golden"
# The models under tests/golden/: save_model(train(golden_dataset(), config)) at commit
# 5920cf1, which wrote the header field by field. The tau = 1 model, the one sigmoid
# model, was written again when the sigmoid became numpy's 1 / (1 + exp(-x)) in place of
# scipy.special.expit: its output weights moved by 1.3e-15 relative. The tanh and relu
# models pin the bytes of the LAPACK calls. Their labels on golden_probe().
GOLDEN_MODELS = {
    "r2vfl-m.rvfl": (ModelConfig("r2vfl-m", 7, 10.0, activation="tanh", seed=11,
                                 weighting=WeightingConfig(kernel_gamma=0.5, tau_multiplier=0.75,
                                                           delta_quantile=0.3)),
                     [2, 2, 1, 1, 2, 2, 2, 2]),
    "r2vfl-a-tau1.rvfl": (ModelConfig("r2vfl-a", 8, 3.0, seed=4,
                                      weighting=WeightingConfig(kernel_gamma=2.0)),
                          [2, 2, 1, 1, 2, 2, 2, 2]),
    "elm.rvfl": (ModelConfig("elm", 6, 2.0, activation="relu", seed=5), [1, 1, 1, 1, 0, 0, 1, 0]),
}
# Every key of a robust model's header; "weighting.x" is key x of the weighting entry.
HEADER_KEYS = ("activation", "class_names", "gamma", "has_scores", "hidden_nodes", "n_features",
               "seed", "variant", "weighting", "weighting.center_scheme", "weighting.delta",
               "weighting.delta_quantile", "weighting.kernel_gamma", "weighting.tau_multiplier")


def golden_dataset():
    rng = np.random.default_rng(2024)
    return Dataset(rng.normal(size=(30, 3)), np.arange(30) % 3, ("a", "b", "c"))


def golden_probe():
    return np.random.default_rng(7).normal(size=(8, 3))


class TestSerialization:
    def make(self, rng, variant="r2vfl-m"):
        ds = random_dataset(rng, n_samples=14, n_classes=2)
        w = WCFG if variant.startswith("r2vfl") else None
        return ds, train(ds, ModelConfig(variant, 9, 10.0, seed=3, weighting=w))

    def test_round_trip_bitwise_predictions(self, rng, tmp_path):
        ds, model = self.make(rng)
        path = tmp_path / "m.rvfl"
        save_model(model, path)
        loaded = load_model(path)
        probe = rng.normal(size=(7, ds.n_features))
        np.testing.assert_array_equal(predict_scores(loaded, probe),
                                      predict_scores(model, probe))
        assert loaded.class_names == model.class_names
        assert loaded.config == model.config

    def test_round_trip_plain_variant(self, rng, tmp_path):
        ds, model = self.make(rng, "elm")
        path = tmp_path / "m.rvfl"
        save_model(model, path)
        loaded = load_model(path)
        np.testing.assert_array_equal(loaded.output_weights, model.output_weights)

    @pytest.mark.parametrize("name", sorted(GOLDEN_MODELS))
    def test_golden_file_loads_and_saves_byte_for_byte(self, name, tmp_path):
        config, labels = GOLDEN_MODELS[name]
        model = load_model(GOLDEN / name)
        assert model.config == config
        assert model.class_names == ("a", "b", "c")
        assert predict(model, golden_probe())[1].tolist() == labels
        np.testing.assert_allclose(predict_scores(model, golden_probe()),
                                   predict_scores(train(golden_dataset(), config), golden_probe()),
                                   rtol=1e-12, atol=1e-12)
        save_model(model, tmp_path / name)
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes()

    @pytest.mark.parametrize("name", sorted(GOLDEN_MODELS))
    def test_fresh_train_saves_the_golden_bytes(self, name, tmp_path):
        save_model(train(golden_dataset(), GOLDEN_MODELS[name][0]), tmp_path / name)
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes()

    def test_header_keys(self, rng, tmp_path):
        _, model = self.make(rng)
        save_model(model, tmp_path / "m.rvfl")
        payload = (tmp_path / "m.rvfl").read_bytes()[len(MODEL_MAGIC) + 4:-32]
        (hlen,) = struct.unpack_from("<I", payload)
        header = json.loads(payload[4:4 + hlen])
        assert set(HEADER_KEYS) == set(header) | {f"weighting.{k}" for k in header["weighting"]}

    def test_corrupted_payload(self, rng, tmp_path):
        _, model = self.make(rng)
        path = tmp_path / "m.rvfl"
        save_model(model, path)
        blob = bytearray(path.read_bytes())
        blob[60] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(ModelFormatError, match="checksum"):
            load_model(path)

    def test_unknown_version(self, rng, tmp_path):
        _, model = self.make(rng)
        path = tmp_path / "m.rvfl"
        save_model(model, path)
        blob = bytearray(path.read_bytes())
        blob[8:12] = (99).to_bytes(4, "little")
        path.write_bytes(bytes(blob))
        with pytest.raises(ModelFormatError, match="version"):
            load_model(path)

    def test_not_a_model_file(self, tmp_path):
        p = tmp_path / "junk"
        p.write_bytes(b"hello")
        with pytest.raises(ModelFormatError):
            load_model(p)

    # One array of a checksum-valid file cut or grown by one entry, so that it no longer
    # fits the header's features, hidden nodes, direct link and classes
    WRONG_SHAPES = {
        "input weights": lambda m: replace(m, random_layer=RandomLayer(
            m.random_layer.input_weights[:, :-1], m.random_layer.bias)),
        "bias": lambda m: replace(m, random_layer=RandomLayer(
            m.random_layer.input_weights, m.random_layer.bias[:-1])),
        "output weights": lambda m: replace(m, output_weights=m.output_weights[:-1]),
        "normalization minimum": lambda m: replace(m, normalization=NormalizationParams(
            m.normalization.minimum[:-1], m.normalization.range)),
        "normalization range": lambda m: replace(m, normalization=NormalizationParams(
            m.normalization.minimum, np.append(m.normalization.range, 1.0))),
        "cp": lambda m: replace(m, scores=replace(m.scores, cp=m.scores.cp[:-1])),
        "m": lambda m: replace(m, scores=replace(m.scores, m=np.append(m.scores.m, 1.0))),
    }

    @pytest.mark.parametrize("variant,name", [*(("r2vfl-m", name) for name in WRONG_SHAPES),
                                              ("elm", "output weights")])
    def test_array_of_wrong_shape_is_malformed(self, rng, tmp_path, variant, name):
        _, model = self.make(rng, variant)
        save_model(self.WRONG_SHAPES[name](model), tmp_path / "m.rvfl")
        with pytest.raises(ModelFormatError, match=rf"^malformed model file \({name} of shape"):
            load_model(tmp_path / "m.rvfl")

    @pytest.mark.parametrize("case", ["missing_keys", "header_length_past_end", "no_arrays",
                                      "center_scheme_of_other_variant",
                                      "n_features_of_other_layer",
                                      *(f"without_{key}" for key in HEADER_KEYS)])
    def test_malformed_payload_with_valid_checksum(self, rng, tmp_path, case):
        _, model = self.make(rng)
        path = tmp_path / "m.rvfl"
        save_model(model, path)
        payload = path.read_bytes()[len(MODEL_MAGIC) + 4:-32]
        (hlen,) = struct.unpack_from("<I", payload)
        header = payload[4:4 + hlen]
        if case == "missing_keys":
            header = json.dumps({"variant": "r2vfl-m"}).encode()
            payload = struct.pack("<I", len(header)) + header + payload[4 + hlen:]
        elif case == "header_length_past_end":
            payload = struct.pack("<I", hlen + 100) + header
        elif case == "no_arrays":
            payload = payload[:4 + hlen]
        else:
            fields = json.loads(header)
            if case == "center_scheme_of_other_variant":
                assert fields["weighting"]["center_scheme"] == "median"
                fields["weighting"]["center_scheme"] = "average"
            elif case == "n_features_of_other_layer":
                fields["n_features"] += 1
            else:  # a header without one key; "weighting.x" is key x of the weighting entry
                entry, _, key = case.removeprefix("without_").rpartition(".")
                del (fields[entry] if entry else fields)[key]
            header = json.dumps(fields, sort_keys=True).encode()
            payload = struct.pack("<I", len(header)) + header + payload[4 + hlen:]
        path.write_bytes(MODEL_MAGIC + struct.pack("<I", MODEL_VERSION) + payload
                         + hashlib.sha256(payload).digest())
        with pytest.raises(ModelFormatError, match=(
                "malformed model file" if case.startswith("without_") else None)):
            load_model(path)
