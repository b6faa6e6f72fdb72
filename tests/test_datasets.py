"""load_values reads a file in one conversion where it can, and gives the
line loop's values and error messages bit for bit."""

import numpy as np
import pytest

from egwgd import datasets
from egwgd.datasets import AARSET, load_values
from egwgd.exceptions import DomainError


def line_loop(source):
    """The line-by-line reading that load_values must reproduce."""
    values = []
    with open(source, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            for tok in text.replace(",", " ").split():
                try:
                    v = float(tok)
                except ValueError as exc:
                    raise DomainError(f"{source}:{lineno}: not a number: {tok!r}") from exc
                if not v > 0.0:
                    raise DomainError(f"{source}:{lineno}: non-positive value {tok}")
                values.append(v)
    if not values:
        raise DomainError(f"{source}: no data values found")
    return np.asarray(values, dtype=float)


def write(tmp_path, text, newline=None):
    path = tmp_path / "values.txt"
    with open(path, "w", encoding="utf-8", newline=newline) as fh:
        fh.write(text)
    return str(path)


GOOD = {
    "lines": "1.5\n2.5\n3.0\n",
    "commas": "1.5,2.5, 3.0\n4,5 ,6\n",
    "blank-lines": "\n\n1.5\n\n   \n2.5\n",
    "no-final-newline": "1.5\n2.5",
    "inf": "1.5\ninf\n1e400\n",
    "subnormal": "1e-320\n5e-324\n2.5e-324\n",
    "underscores": "1_000\n2_5.5\n",
    "padded": "  0001.50  \n\t+2.5\t\n 3.  ,  .5 \n",
    "exponents": "1E5 1e+5 1.0e-5\n",
    "digits": "0.1000000000000000055511151231257827 9007199254740993\n",
    "unicode-digits": "٣ １２\n",
    "one-value": "42",
}


@pytest.mark.parametrize("text", list(GOOD.values()), ids=list(GOOD))
def test_values_are_the_line_loop_s_bit_for_bit(tmp_path, text):
    path = write(tmp_path, text)
    got, want = load_values(path), line_loop(path)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
def test_other_line_ends_read_as_newlines(tmp_path, newline):
    path = write(tmp_path, "1.5\n2.5\n-3\n", newline=newline)
    with pytest.raises(DomainError) as got:
        load_values(path)
    with pytest.raises(DomainError) as want:
        line_loop(path)
    assert str(got.value) == str(want.value) == f"{path}:3: non-positive value -3"
    path = write(tmp_path, "1.5\n2.5\n", newline=newline)
    assert load_values(path).tobytes() == line_loop(path).tobytes()


BAD = {
    "negative": "1.5\n2.5\n-3.0\n",
    "zero": "1.5, 0\n",
    "nan": "1.5\n\nnan\n",
    "not-a-number": "1.5\n2.5 abc\n",
    "comma-decimal": "1.5\n\n2,5x\n",
    "empty": "",
    "blank": "\n  \n",
    "comment-only": "# no values\n",
    "comment-then-bad": "# header\n1.5\n-2 # the bad one\n",
}


@pytest.mark.parametrize("text", list(BAD.values()), ids=list(BAD))
def test_errors_name_the_line_as_the_line_loop_does(tmp_path, text):
    path = write(tmp_path, text)
    with pytest.raises(DomainError) as got:
        load_values(path)
    with pytest.raises(DomainError) as want:
        line_loop(path)
    assert str(got.value) == str(want.value)


def test_a_file_without_comments_takes_one_conversion(tmp_path, monkeypatch):
    def no_loop(source, text):
        raise AssertionError("the line loop ran")

    path = write(tmp_path, GOOD["padded"])
    want = line_loop(path)
    monkeypatch.setattr(datasets, "_load_lines", no_loop)
    assert load_values(path).tobytes() == want.tobytes()


def test_comments_take_the_line_loop(tmp_path):
    path = write(tmp_path, "# lifetimes\n1.5  # first\n2.5\n")
    assert load_values(path).tolist() == [1.5, 2.5]


def test_fixture_names_are_not_files():
    got = load_values(" Aarset ")
    assert got.tobytes() == AARSET.tobytes() and got.flags.writeable
