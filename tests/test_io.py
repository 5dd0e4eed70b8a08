import csv
import io

import numpy as np

from qgld.io import format_number, load_matrix, matrix_from_dict, render_csv
from conftest import matrix_dict, write_matrix


class TestMatrixFormat:
    def test_round_trip(self, rng, tmp_path):
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        path = tmp_path / "m.json"
        write_matrix(path, a)
        np.testing.assert_allclose(load_matrix(str(path)), a, atol=1e-15)

    def test_imaginary_part_optional(self):
        a = matrix_from_dict({"dim": 2, "re": [[1.0, 0.0], [0.0, 2.0]]})
        np.testing.assert_allclose(a, np.diag([1.0, 2.0]), atol=1e-15)
        assert a.dtype == complex

    def test_integral_float_dim(self):
        a = matrix_from_dict({"dim": 2.0, "re": [[1.0, 0.0], [0.0, 2.0]]})
        np.testing.assert_allclose(a, np.diag([1.0, 2.0]), atol=1e-15)

    def test_shape_validation(self):
        try:
            matrix_from_dict({"dim": 3, "re": [[1.0, 0.0], [0.0, 2.0]]})
        except ValueError:
            return
        raise AssertionError("expected ValueError")

    def test_dict_round_trip(self, rng):
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        np.testing.assert_allclose(matrix_from_dict(matrix_dict(a)), a, atol=1e-15)


class TestCsv:
    def test_nine_significant_digits(self):
        assert format_number(0.123456789123) == "0.123456789"
        assert format_number(1.0) == "1"
        assert format_number(3) == "3"

    def test_render(self):
        text = render_csv(["a", "b"], [[1, 0.5], ["x", 2.25]])
        assert text == "a,b\n1,0.5\nx,2.25\n"

    def test_quotes_fields_that_hold_separators(self):
        # RFC 4180: a field with a comma, a quote or a line break is quoted, its quotes doubled
        rows = [["element:0,1", 1], ['say "hi"', 2], ["two\nlines", 3], ["plain", 4]]
        text = render_csv(["text", "n"], rows)
        assert text.splitlines()[1:3] == ['"element:0,1",1', '"say ""hi""",2']
        assert list(csv.reader(io.StringIO(text))) == [["text", "n"]] + [[t, str(n)] for t, n in rows]
