"""The one text reader and writer, ``errors.read_text`` and ``errors.write_rows``."""
import numpy as np
import pytest

from corrmatch.errors import read_text, write_rows


def test_read_text_drops_a_leading_bom_only(tmp_path):
    path = tmp_path / "t.txt"
    path.write_bytes(b"\xef\xbb\xbfa\r\n\xef\xbb\xbfb\n")
    assert read_text(path, "text") == "a\r\n\ufeffb\n"


def test_write_rows_writes_ints_and_the_repr_of_floats_in_ascii_lines(tmp_path):
    path = tmp_path / "rows.csv"
    write_rows(path, [("a", 1, np.int64(-2), np.uint8(3)),
                      (0.1, np.float64(1e-300), np.float32(0.5), 2.0, np.float64(-0.0)),
                      (), np.array([0.25, 1.0]), ("x,y",)])
    assert path.read_bytes() == b"a,1,-2,3\n0.1,1e-300,0.5,2.0,-0.0\n\n0.25,1.0\nx,y\n"


def test_write_rows_with_no_path_writes_to_stdout(capsys):
    write_rows(None, [("i", "j"), (np.int64(1), np.float64(-0.5))])
    write_rows("", [("k",)])
    assert capsys.readouterr().out == "i,j\n1,-0.5\nk\n"


def test_write_rows_refuses_text_that_is_not_ascii(tmp_path):
    with pytest.raises(UnicodeEncodeError):
        write_rows(tmp_path / "x.csv", [("café",)])
