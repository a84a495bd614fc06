import hashlib
import json
import struct

import numpy as np
import pytest

from rvflkit.data import Dataset, apply_normalization, one_hot
from rvflkit.kernel import KernelParams
from rvflkit.model import MODEL_MAGIC, MODEL_VERSION, ModelConfig, ModelError, ModelFormatError, \
    RandomLayer, design_matrix, hidden_matrix, init_random_layer, load_model, predict, \
    predict_scores, save_model, train
from rvflkit.solver import solve_primal
from rvflkit.weighting import WeightingConfig
from conftest import fit_with_unit_scores, random_dataset

WCFG = WeightingConfig(kernel=KernelParams(gamma=1.0))


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


class TestDesignMatrix:
    def test_concatenation_shape(self, rng):
        X = rng.normal(size=(2, 3))
        A1 = rng.normal(size=(2, 5))
        assert design_matrix(X, A1, True).shape == (2, 8)

    def test_no_direct_link(self, rng):
        X = rng.normal(size=(2, 3))
        A1 = rng.normal(size=(2, 5))
        np.testing.assert_array_equal(design_matrix(X, A1, False), A1)

    def test_input_columns_first(self, rng):
        X = rng.normal(size=(3, 2))
        A1 = rng.normal(size=(3, 4))
        np.testing.assert_array_equal(design_matrix(X, A1, True)[:, :2], X)


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
        A1 = hidden_matrix(Xn, model.random_layer, cfg.activation)
        A2 = design_matrix(Xn, A1, True)
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
        W_zeroed = solve_primal(r[:, None] * D, r[:, None] * Y, 10.0)
        keep = np.arange(8) != 3
        W_deleted = solve_primal(D[keep], Y[keep], 10.0)
        np.testing.assert_allclose(W_zeroed, W_deleted, atol=1e-12)

    def test_robust_variant_requires_weighting(self):
        with pytest.raises(ModelError):
            ModelConfig("r2vfl-a", 5, 1.0)


class TestPredict:
    def test_argmax_and_tie_break(self):
        scores = np.array([[0.2, 0.9], [0.5, 0.5]])
        assert list(np.argmax(scores, axis=1)) == [1, 0]

    def test_feature_count_check(self):
        ds = separable_toy()
        model = train(ds, ModelConfig("rvfl", 5, 1.0, seed=0))
        with pytest.raises(ModelError):
            predict_scores(model, np.zeros((2, 3)))


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

    @pytest.mark.parametrize("case", ["missing_keys", "header_length_past_end", "no_arrays"])
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
        else:
            payload = payload[:4 + hlen]
        path.write_bytes(MODEL_MAGIC + struct.pack("<I", MODEL_VERSION) + payload
                         + hashlib.sha256(payload).digest())
        with pytest.raises(ModelFormatError):
            load_model(path)
