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


def test_write_csv_bytes_match_per_scalar_repr(tmp_path):
    m = np.array([[-0.0, 5e-324, 1e300, 3.0],
                  [0.0, 0.0, 0.0, 0.0],
                  [-2.0, 1e16, 0.1, 123456789.0]])
    path = tmp_path / "m.csv"
    matrix.write_csv(path, m)
    # the per-entry formatting the writer has always produced
    expected = "".join(",".join(repr(float(v)) for v in row) + "\n" for row in m)
    assert path.read_bytes() == expected.encode("utf-8")


def per_line_read_csv(path):
    """The per-line reader read_csv had before its numpy fast path, kept as
    the reference for the accepted form, the values and every error."""
    rows = []
    width = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            fields = line.split(",")
            if width is None:
                width = len(fields)
            elif len(fields) != width:
                raise ParseError(
                    f"{path}: line {lineno} has {len(fields)} fields, "
                    f"expected {width}"
                )
            try:
                rows.append([float(f) for f in fields])
            except ValueError as exc:
                raise ParseError(f"{path}: line {lineno}: {exc}") from None
    if not rows:
        raise ParseError(f"{path}: no data rows")
    return np.array(rows, dtype=np.float64)


CSV_CATALOGUE = {
    "plain": b"1,2\n3,4\n",
    "crlf": b"1,2\r\n3,4\r\n",
    "cr-only": b"1,2\r3,4\r",
    "no-final-newline": b"1,2\n3,4",
    "blank-line": b"1,2\n\n3,4\n",
    "blank-crlf-line": b"1,2\r\n\r\n3,4\r\n",
    "whitespace-line": b"1,2\n   \n3,4\n",
    "trailing-whitespace-lines": b"1,2\n3,4\n\n\n   \n",
    "whitespace-around-fields": b" 1 , 2\t\n3,4 \n",
    "leading-whitespace-line": b"   1,2\n3,4\n",
    "underscore": b"1_0,2\n",
    "nan-inf-spellings": b"nan,NaN,-nan,+nan,inf,-inf,Infinity,-INFINITY,+inf\n",
    "negative-zero": b"-0,0,-0.0\n",
    "subnormals": b"5e-324,2.2250738585072014e-308,4.9406564584124654e-324\n",
    "55-digit-decimal": b"0.1234567890123456789012345678901234567890123456789012345,1\n",
    "exponents": b"1e5,1E-5,.5,5.,+3\n",
    "overflow-underflow": b"1e400,-1e400,1e-400\n",
    "single-entry": b"5\n",
    "single-row": b"1,2,3\n",
    "single-column": b"1\n2\n3\n",
    "bom": b"\xef\xbb\xbf1,2\n3,4\n",
    "non-utf8": b"1,2\n3,\xff\n",
    "ragged": b"1,2\n3\n",
    "trailing-comma": b"1,2,\n3,4,\n",
    "empty-field": b"1,,2\n",
    "lone-comma": b",\n",
    "hash-comment": b"1,2 # x\n3,4\n",
    "hash-line": b"# c\n1,2\n",
    "quoted": b'"1",2\n3,4\n',
    "empty": b"",
    "blank-only": b"\n\n",
    "whitespace-only": b"  \n \t\n",
    "nul": b"1\x00,2\n",
    "hex": b"0x10,2\n",
    "fortran-exponent": b"1d5,2\n",
    "complex": b"1j,2\n",
    "double-sign": b"+-1,2\n",
    "nan-payload": b"nan(123),2\n",
    "tab-delimited": b"1\t2\n",
    "space-inside-field": b"1 2,3\n",
    "arabic-indic-digit": "\u0661,2\n".encode(),
    "unicode-spaces": "1\u00a0,\u30002\u2028\n3,4\u0085\n".encode(),
    "form-feed-vertical-tab": b"1,2\x0c\n3,4\x0b\n",
    "separator-at-line-ends": b"\x1c1,2\x1f\n3,4\n",
    "separator-inside-line": b"1\x1e,2\n",
    "separator-before-field": b"1,\x1d2\n",
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("content", list(CSV_CATALOGUE.values()), ids=list(CSV_CATALOGUE))
def test_read_csv_matches_the_per_line_reader(tmp_path, content):
    path = tmp_path / "m.csv"
    path.write_bytes(content)
    try:
        want = per_line_read_csv(path)
    except ValueError as exc:
        with pytest.raises(type(exc)) as err:
            matrix.read_csv(path)
        assert str(err.value) == str(exc)
        return
    got = matrix.read_csv(path)
    assert got.dtype == np.float64 and got.flags["C_CONTIGUOUS"]
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()
