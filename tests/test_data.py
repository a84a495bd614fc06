import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rvflkit.data import DataError, Dataset, _encode_labels, _read_cells, _read_text, \
    apply_normalization, fit_normalization, load_csv, one_hot, read_features, stratified_k_fold
from conftest import needs_dev_fd, random_dataset, read_through_pipe


def write(tmp_path, text, name="data.csv"):
    p = tmp_path / name
    p.write_text(text)
    return p


class TestLoadCsv:
    def test_first_appearance_encoding(self, tmp_path):
        ds = load_csv(write(tmp_path, "1.0,2.0,pos\n3.0,4.0,neg\n5.0,6.0,pos\n"))
        assert list(ds.labels) == [0, 1, 0]
        assert ds.class_names == ("pos", "neg")
        np.testing.assert_array_equal(ds.features, [[1, 2], [3, 4], [5, 6]])

    def test_nan_cell_reports_location(self, tmp_path):
        with pytest.raises(DataError, match="row 1.*column 0"):
            load_csv(write(tmp_path, "1.0,2.0,a\nnan,4.0,b\n"))

    def test_non_numeric_cell(self, tmp_path):
        with pytest.raises(DataError, match="row 0.*column 1"):
            load_csv(write(tmp_path, "1.0,oops,a\n2.0,4.0,b\n"))

    def test_single_class_rejected(self, tmp_path):
        with pytest.raises(DataError, match="single class"):
            load_csv(write(tmp_path, "1.0,a\n2.0,a\n3.0,a\n"))

    def test_empty_file(self, tmp_path):
        with pytest.raises(DataError, match="no data rows"):
            load_csv(write(tmp_path, ""))

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            load_csv(tmp_path / "nope.csv")

    def test_header_and_label_column(self, tmp_path):
        ds = load_csv(write(tmp_path, "lab,f1\nx,1.0\ny,2.0\n"), has_header=True,
                      label_column=0)
        assert ds.class_names == ("x", "y")
        np.testing.assert_array_equal(ds.features, [[1.0], [2.0]])

    def test_empty_label_names_row(self, tmp_path):
        with pytest.raises(DataError, match="empty label at row 1"):
            load_csv(write(tmp_path, "1.0,a\n2.0, \n3.0,b\n"))

    def test_utf8_bom_is_skipped(self, tmp_path):
        ds = load_csv(write(tmp_path, "\ufeff1.5,a\n2.0,b\n"))
        np.testing.assert_array_equal(ds.features, [[1.5], [2.0]])

    def test_cells_only_float_accepts(self, tmp_path):
        # quoted cells, underscores and padding are read by the per-cell fallback
        ds = load_csv(write(tmp_path, '"1.5", 1_0 ,"a"\r\n  \r\n2.0,3,b\r\n'))
        np.testing.assert_array_equal(ds.features, [[1.5, 10.0], [2.0, 3.0]])
        assert ds.class_names == ("a", "b")

    @needs_dev_fd
    @pytest.mark.parametrize("last_label", ["b", '"b"'])  # loadtxt path, per-cell reader
    def test_named_pipe_reads_like_a_file(self, tmp_path, last_label):
        # a pipe can be read only once, so both readers must parse the same text
        rows = [f"{i * 0.37!r},{-i / 7!r},{'ab'[i % 2]}" for i in range(5000)]
        text = "\n".join(rows + [f"1.5,2.5,{last_label}"]) + "\n"
        expected = outcome(lambda: load_csv(write(tmp_path, text)))
        assert expected[0] == (5001, 2)
        assert outcome(lambda: read_through_pipe(text, load_csv)) == expected


class TestReadFeatures:
    def test_width_decides_whether_rows_hold_a_label(self, tmp_path):
        X, labels = read_features(write(tmp_path, "1,2\n3,4\n"), n_features=2)
        np.testing.assert_array_equal(X, [[1, 2], [3, 4]])
        assert labels is None
        X, labels = read_features(write(tmp_path, "x,1,2\n", "one.csv"), label_column=0,
                                  n_features=2)
        np.testing.assert_array_equal(X, [[1, 2]])
        assert labels == ["x"]

    def test_other_width_names_both_accepted_widths(self, tmp_path):
        with pytest.raises(DataError, match=r"4 fields; expected 2 \(features only\) or 3"):
            read_features(write(tmp_path, "1,2,3,4\n"), n_features=2)


def exact_dataset(path, has_header, label_column):
    """load_csv through the per-cell reader alone."""
    features, raw_labels = _read_cells(_read_text(path), path, has_header, label_column)
    labels, class_names = _encode_labels(path, raw_labels)
    return Dataset(features, labels, class_names, str(path))


def outcome(fn):
    """A result reduced to comparable bytes, or the error it raised."""
    try:
        result = fn()
    except ValueError as exc:
        return type(exc), str(exc)
    if isinstance(result, Dataset):
        features, labels = result.features, (result.labels.tobytes(), result.class_names)
    else:
        features, labels = result
    return features.shape, features.dtype, features.flags.c_contiguous, features.tobytes(), labels


NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(allow_nan=False, allow_infinity=False).map(lambda v: f"{v:.6g}"),
    st.floats(allow_nan=False, allow_infinity=False, width=32).map(lambda v: f"{v:.17e}"),
    st.integers(-10 ** 6, 10 ** 6).map(str),
    st.sampled_from(["-0", "+.5", "5.", "4.9e-324", "1.7976931348623157e308", " 2 ", "\t3"]),
)
ODD_CELLS = st.one_of(
    st.sampled_from(["1_0", "nan", "-inf", "1e400", "", "  ", '"1"', '"1,2"', '"1\n2"', '"',
                     "x", "#1", "\x1c1", "1\x85", "\u0661"]),
    st.text(alphabet=' \t0123456789.eE+-_naif"', max_size=5),
)
SPLITLINES_ONLY = ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
LABELS = st.sampled_from(["a", "b", "c", " b", "c "])
ODD_LABELS = st.sampled_from(["", " ", '"a"', '"a,b"', 'a"b', "#", "1.0", "\x00"])


@st.composite
def csv_files(draw):
    """CSV text and how to read it: a well-formed file, or one with a single defect (an
    odd cell, label, line, line break or header), so that each input the loadtxt path
    must hand to the per-cell reader is tried on its own."""
    width = draw(st.integers(1, 4))
    label_at = draw(st.integers(0, width - 1))
    rows = [[draw(LABELS if j == label_at else NUMBERS) for j in range(width)]
            for _ in range(draw(st.integers(0, 8)))]
    defect = draw(st.sampled_from([None, None, "cell", "label", "line", "break", "header"]))
    if rows and defect in ("cell", "label"):
        row = draw(st.sampled_from(rows))
        j = label_at if defect == "label" else draw(st.integers(0, width - 1))
        row[j] = draw(ODD_LABELS if defect == "label" else ODD_CELLS)
    lines = [",".join(row) for row in rows]
    if defect == "line":  # blank, whitespace-only or ragged
        odd = draw(st.sampled_from(["", "  ", " , ", "1", ",".join(["1"] * (width + 1))]))
        lines.insert(draw(st.integers(0, len(lines))), odd)
    header = draw(st.booleans())
    if header:
        names = ['"h"', '"h,', '"h\n'] if defect == "header" else ["f", "1"]
        lines.insert(0, ",".join(draw(st.sampled_from(names)) for _ in range(width)))
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    ends = [end] * len(lines)
    if len(lines) > 1 and defect == "break":  # a line break that csv does not split on
        ends[draw(st.integers(0, len(lines) - 2))] = draw(st.sampled_from(SPLITLINES_ONLY))
    if lines and draw(st.booleans()):
        ends[-1] = ""
    text = "".join(line + e for line, e in zip(lines, ends))
    if draw(st.booleans()):
        text = "\ufeff" + text
    own = "last" if label_at == width - 1 else label_at
    label_column = draw(st.sampled_from([own, own, own, label_at, -1, width]))
    return text, draw(st.sampled_from([header, header, not header])), label_column, width


@settings(max_examples=400, deadline=None)
@given(csv_files(), st.sampled_from([None, -1, 0, 1]))
@example(('1,a\n2,"b"\n3,b\n', False, "last", 2), None)      # quoted label after row 0
@example(("1,a\n2,b\nnan,a\n", False, "last", 2), None)       # non-finite after row 0
@example(('"h,h\n1,a\n2,b\n', True, "last", 2), None)         # header quote never closed
@example(('"f",g\n1,a\n2,b\n', True, "last", 2), None)        # quoted header
@example(('f,g\n1,a\n2,b\n3,"a"\n', True, "last", 2), None)  # quoted label on a later row
@example(("\n1,1\n1,a\n2,b\n", True, "last", 2), None)       # blank line before the header
@example((" , \na,0.0\nb,0.0\n", True, 0, 2), None)           # row of blank cells, then header
@example(("\ufeff1_0,a\r2,b\r", False, 0, 2), 0)              # BOM, lone CR, label first
@example(("1,a\x1c2,b\n", False, "last", 2), None)           # one csv row, two lines
def test_loadtxt_path_matches_per_cell_reader(tmp_path_factory, case, n_features_offset):
    text, has_header, label_column, width = case
    path = tmp_path_factory.getbasetemp() / "differential.csv"
    path.write_bytes(text.encode("utf-8"))
    assert outcome(lambda: load_csv(path, has_header, label_column)) == \
        outcome(lambda: exact_dataset(path, has_header, label_column))
    n_features = None if n_features_offset is None else max(width + n_features_offset, 1)
    assert outcome(lambda: read_features(path, has_header, label_column, n_features)) == \
        outcome(lambda: _read_cells(_read_text(path), path, has_header, label_column,
                                    n_features))


class TestNormalization:
    def test_min_and_range(self):
        p = fit_normalization(np.array([[2.0], [4.0], [6.0]]))
        assert p.minimum[0] == 2 and p.range[0] == 4

    def test_overflowing_range_names_column(self):
        with pytest.raises(DataError, match="feature column 1 spans"):
            fit_normalization(np.array([[0.0, 1e308], [1.0, -1e308]]))

    def test_constant_column_range_one(self):
        p = fit_normalization(np.array([[5.0], [5.0]]))
        assert p.range[0] == 1.0

    def test_single_row_maps_to_zero(self):
        X = np.array([[3.0, -1.0]])
        p = fit_normalization(X)
        np.testing.assert_array_equal(apply_normalization(X, p), [[0.0, 0.0]])

    def test_apply_endpoints_and_no_clipping(self):
        p = fit_normalization(np.array([[2.0], [6.0]]))
        out = apply_normalization(np.array([[6.0], [2.0], [10.0]]), p)
        np.testing.assert_allclose(out.ravel(), [1.0, 0.0, 2.0])

    def test_dimension_mismatch(self):
        p = fit_normalization(np.array([[1.0, 2.0]]))
        with pytest.raises(DataError):
            apply_normalization(np.array([[1.0]]), p)

    def test_fit_apply_same_matrix_unit_interval(self, rng):
        X = rng.normal(size=(20, 4))
        out = apply_normalization(X, fit_normalization(X))
        np.testing.assert_allclose(out.min(axis=0), 0.0, atol=1e-15)
        np.testing.assert_allclose(out.max(axis=0), 1.0, atol=1e-15)


class TestOneHot:
    def test_identity(self):
        np.testing.assert_array_equal(one_hot([0, 1], 2), np.eye(2))

    def test_last_class(self):
        np.testing.assert_array_equal(one_hot([2], 3), [[0, 0, 1]])

    def test_rows_sum_to_one(self, rng):
        y = rng.integers(0, 4, size=30)
        assert np.all(one_hot(y, 4).sum(axis=1) == 1)

    def test_round_trip_argmax(self, rng):
        y = rng.integers(0, 5, size=40)
        np.testing.assert_array_equal(np.argmax(one_hot(y, 5), axis=1), y)

    def test_out_of_range(self):
        with pytest.raises(DataError):
            one_hot([3], 3)


class TestStratifiedKFold:
    def balanced(self):
        X = np.arange(20, dtype=float).reshape(10, 2)
        y = np.array([0, 1] * 5)
        return Dataset(X, y, ("a", "b"))

    def test_perfect_stratification(self):
        folds = stratified_k_fold(self.balanced(), 5, seed=7)
        for f in range(5):
            labels = self.balanced().labels[folds == f]
            assert sorted(labels) == [0, 1]

    def test_deterministic(self):
        a = stratified_k_fold(self.balanced(), 5, seed=3)
        b = stratified_k_fold(self.balanced(), 5, seed=3)
        np.testing.assert_array_equal(a, b)

    def test_round_robin_spread_for_odd_class(self):
        # 7 samples of class a over 5 folds: counts must be {2,2,1,1,1}
        X = np.zeros((12, 1))
        y = np.array([0] * 7 + [1] * 5)
        ds = Dataset(X, y, ("a", "b"))
        folds = stratified_k_fold(ds, 5, seed=1)
        counts = sorted(np.bincount(folds[y == 0], minlength=5))
        assert counts == [1, 1, 1, 2, 2]

    def test_partition_property(self, rng):
        for _ in range(10):
            ds = random_dataset(rng, n_samples=25)
            folds = stratified_k_fold(ds, 4, seed=int(rng.integers(1000)))
            assert folds.shape == (25,) and folds.dtype == np.int64
            assert np.all((folds >= 0) & (folds < 4))
            assert len(np.unique(folds)) == 4  # no empty folds

    def test_k_larger_than_l(self):
        with pytest.raises(DataError):
            stratified_k_fold(self.balanced(), 11, seed=0)


def test_dataset_rejects_nonfinite():
    with pytest.raises(DataError, match="non-finite"):
        Dataset(np.array([[1.0], [np.inf]]), np.array([0, 1]), ("a", "b"))
