import numpy as np
import pytest

from ssnmf import matrix
from ssnmf.exceptions import ParseError, ShapeError


def test_as_matrix_coerces_nested_lists():
    m = matrix.as_matrix([[1, 2], [3, 4]])
    assert m.dtype == np.float64
    assert m.flags["C_CONTIGUOUS"]
    assert m.shape == (2, 2)


def test_as_matrix_rejects_wrong_ndim():
    with pytest.raises(ShapeError):
        matrix.as_matrix([1.0, 2.0])
    with pytest.raises(ShapeError):
        matrix.as_matrix(np.zeros((2, 2, 2)))


def test_check_nonnegative_names_the_entry():
    m = np.array([[1.0, 2.0], [3.0, -0.5]])
    with pytest.raises(ShapeError) as err:
        matrix.check_nonnegative(m, "w")
    assert "w" in str(err.value)
    assert "(1, 1)" in str(err.value)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_check_nonnegative_rejects_non_finite(bad):
    m = np.ones((2, 3))
    m[1, 2] = bad
    with pytest.raises(ShapeError, match=r"finite.*\(1, 2\)"):
        matrix.check_nonnegative(m, "x")


def test_as_mask_accepts_zero_one_only():
    like = np.ones((2, 2))
    assert matrix.as_mask(None, like, "w", "x") is None
    assert np.array_equal(matrix.as_mask([[0, 1], [1, 0]], like, "w", "x"), [[0, 1], [1, 0]])
    for bad in (0.5, 2.0, -1.0, np.nan):
        with pytest.raises(ShapeError, match="0/1 mask"):
            matrix.as_mask([[0, 1], [1, bad]], like, "w", "x")
    with pytest.raises(ShapeError, match="does not match"):
        matrix.as_mask(np.ones((2, 3)), like, "w", "x")


def test_check_nonnegative_passes_zero():
    m = np.zeros((2, 3))
    assert matrix.check_nonnegative(m) is m


def test_csv_roundtrip_is_exact(tmp_path):
    rng = np.random.default_rng(3)
    m = rng.random((4, 5)) * np.array([1e-17, 1e-3, 1.0, 1e3, 1e17])
    path = tmp_path / "m.csv"
    matrix.write_csv(path, m)
    back = matrix.read_csv(path)
    # repr round-trips float64 exactly
    assert np.array_equal(back, m)


def test_write_json_is_sorted_indented_and_newline_terminated(tmp_path):
    path = tmp_path / "r.json"
    matrix.write_json(path, {"b": [1.5], "a": None})
    assert path.read_text() == '{\n  "a": null,\n  "b": [\n    1.5\n  ]\n}\n'


def test_read_csv_skips_blank_lines(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1,2\n\n3,4\n")
    assert np.array_equal(matrix.read_csv(path), [[1, 2], [3, 4]])


def test_read_csv_ragged_rows(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1,2\n3\n")
    with pytest.raises(ParseError) as err:
        matrix.read_csv(path)
    assert "line 2" in str(err.value)


def test_read_csv_non_numeric(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1,spam\n")
    with pytest.raises(ParseError) as err:
        matrix.read_csv(path)
    assert "line 1" in str(err.value)


def test_read_csv_empty_file(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("")
    with pytest.raises(ParseError):
        matrix.read_csv(path)
