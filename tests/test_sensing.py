import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsgbomp.sensing import (
    SensingMatrix,
    gaussian_matrix,
    matrix_from_binary,
    matrix_from_csv,
    matrix_to_binary,
    matrix_to_csv,
    measure,
)


class TestGaussianMatrix:
    def test_normalized_columns(self):
        mat = gaussian_matrix(30, 20, "unit", True, np.random.default_rng(0))
        norms = np.linalg.norm(mat.entries, axis=0)
        assert np.all(np.abs(norms - 1.0) < 1e-12)
        assert mat.normalized

    def test_one_over_m_column_norms_near_one(self):
        total = 0.0
        count = 0
        for seed in range(1000):
            mat = gaussian_matrix(
                100, 50, "one_over_m", False, np.random.default_rng(seed)
            )
            total += np.linalg.norm(mat.entries, axis=0).sum()
            count += 50
        assert abs(total / count - 1.0) < 0.05

    def test_deterministic(self):
        a = gaussian_matrix(10, 6, "unit", True, np.random.default_rng(42))
        b = gaussian_matrix(10, 6, "unit", True, np.random.default_rng(42))
        assert np.array_equal(a.entries, b.entries)

    def test_complex_columns_unit_norm(self):
        mat = gaussian_matrix(
            20, 10, "unit", True, np.random.default_rng(1), complex_entries=True
        )
        assert mat.is_complex
        norms = np.linalg.norm(mat.entries, axis=0)
        assert np.all(np.abs(norms - 1.0) < 1e-12)

    @pytest.mark.parametrize("mode", ["unit", "one_over_m"])
    @pytest.mark.parametrize("normalize", [False, True])
    def test_bytes_match_scaled_draw(self, mode, normalize):
        # the entries are sqrt(sigma^2) times one standard-normal draw, bit
        # for bit, with sigma^2 = 1 or 1/m
        m, n = 17, 9
        sigma2 = 1.0 if mode == "unit" else 1.0 / m
        expected = SensingMatrix(np.sqrt(sigma2) * np.random.default_rng(5).standard_normal((m, n)))
        if normalize:
            expected = expected.normalize()
        got = gaussian_matrix(m, n, mode, normalize, np.random.default_rng(5))
        assert got.entries.tobytes() == expected.entries.tobytes()

    def test_complex_bytes_match_normalized_draw(self):
        # the fresh draw is divided in place, with the quotients normalize()
        # computes into a new array
        rng = np.random.default_rng(5)
        z = np.sqrt(0.5) * (rng.standard_normal((17, 9)) + 1j * rng.standard_normal((17, 9)))
        expected = SensingMatrix(z).normalize()
        got = gaussian_matrix(17, 9, "unit", True, np.random.default_rng(5), complex_entries=True)
        assert got.entries.tobytes() == expected.entries.tobytes()

    def test_normalize_leaves_the_callers_entries(self):
        entries = np.random.default_rng(4).standard_normal((6, 5))
        before = entries.copy()
        unit = SensingMatrix(entries).normalize()
        assert unit.entries is not entries
        assert entries.tobytes() == before.tobytes()

    def test_normalize_idempotent_bitwise(self):
        raw = gaussian_matrix(12, 8, "unit", False, np.random.default_rng(3))
        once = raw.normalize()
        twice = once.normalize()
        assert twice is once


class TestMeasure:
    def test_noiseless(self):
        Phi = SensingMatrix(np.eye(5), normalized=True)
        x = np.arange(5.0)
        y = measure(Phi, x)
        assert isinstance(y, np.ndarray)
        assert np.array_equal(y, x)

    def test_fixed_noise_on_zero_signal(self):
        Phi = SensingMatrix(np.eye(4), normalized=True)
        e = np.array([1.0, 0.0, -2.0, 0.0])
        assert np.array_equal(measure(Phi, np.zeros(4), noise=e), e)

    def test_fixed_noise_is_added_exactly(self):
        rng = np.random.default_rng(4)
        Phi = gaussian_matrix(12, 6, "unit", True, rng)
        x = rng.standard_normal(6)
        e = rng.standard_normal(12)
        y = measure(Phi, x, noise=e)
        assert y.tobytes() == (Phi.entries @ x + e).tobytes()

    def test_dimension_mismatch(self):
        Phi = SensingMatrix(np.eye(4), normalized=True)
        with pytest.raises(ValueError):
            measure(Phi, np.zeros(5))
        with pytest.raises(ValueError):
            measure(Phi, np.zeros(4), noise=np.zeros(3))

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_linearity(self, seed):
        rng = np.random.default_rng(seed)
        Phi = gaussian_matrix(15, 10, "unit", True, rng)
        x1 = rng.standard_normal(10)
        x2 = rng.standard_normal(10)
        lhs = measure(Phi, x1 + x2) - measure(Phi, x2)
        assert np.linalg.norm(lhs - Phi.entries @ x1) <= 1e-12 * max(
            1.0, np.linalg.norm(x1)
        )

    def test_gaussian_noise_is_sigma_times_the_rng_draws(self):
        rng = np.random.default_rng(0)
        Phi = gaussian_matrix(12, 6, "unit", True, rng)
        x = rng.standard_normal(6)
        state = rng.bit_generator.state
        y = measure(Phi, x, noise=("gaussian", 0.1), rng=rng)
        rng.bit_generator.state = state
        assert y.tobytes() == (Phi.entries @ x + 0.1 * rng.standard_normal(12)).tobytes()


class TestSerialization:
    def test_csv_round_trip(self):
        mat = gaussian_matrix(5, 7, "unit", True, np.random.default_rng(2))
        again = matrix_from_csv(matrix_to_csv(mat))
        assert np.array_equal(mat.entries, again.entries)
        assert again.normalized

    def test_binary_round_trip(self):
        mat = gaussian_matrix(6, 4, "one_over_m", False, np.random.default_rng(5))
        again = matrix_from_binary(matrix_to_binary(mat))
        assert np.array_equal(mat.entries, again.entries)
        assert not again.normalized

    def test_binary_round_trip_complex(self):
        mat = gaussian_matrix(
            4, 3, "unit", True, np.random.default_rng(8), complex_entries=True
        )
        again = matrix_from_binary(matrix_to_binary(mat))
        assert np.array_equal(mat.entries, again.entries)
        assert again.is_complex

    @pytest.mark.parametrize(
        "text",
        ["2,2,0\n1,2\n3,4\n5,6\n", "2,2,0\n1,2\n", "2,2,0\n1,2\n3\n",
         "2,2,0\n1,2\n3,4,5\n", "1,2,2\n1,0,2\n", "\n"],
        ids=["extra-row", "missing-row", "short-row", "long-row", "complex-odd-row", "empty"],
    )
    def test_csv_rejects_malformed_body(self, text):
        with pytest.raises(ValueError, match="rows but its header|fields, expected|empty"):
            matrix_from_csv(text)

    @pytest.mark.parametrize("row", ["1.0,x", "1.0,"], ids=["letter", "empty-field"])
    def test_csv_names_the_row_of_a_field_that_is_not_a_number(self, row):
        with pytest.raises(ValueError, match=f"row 2 holds a field that is not a number: '{row}'"):
            matrix_from_csv(f"2,2,0\n1.0,0.0\n{row}\n")

    @pytest.mark.parametrize("complex_entries", [False, True])
    @pytest.mark.parametrize("trim", [8, -8])
    def test_binary_rejects_payload_size_mismatch(self, complex_entries, trim):
        mat = gaussian_matrix(
            3, 4, "unit", True, np.random.default_rng(1), complex_entries=complex_entries
        )
        blob = matrix_to_binary(mat)
        blob = blob[:-trim] if trim > 0 else blob + bytes(-trim)
        with pytest.raises(ValueError, match="matrix payload has .* bytes, expected"):
            matrix_from_binary(blob)

    @pytest.mark.parametrize("fmt", ["csv", "binary"])
    @pytest.mark.parametrize(
        "header,match",
        [
            (None, "no header line"),
            ("2 2", "not three integers"),
            ("2 2 4", "flags in 0..3"),
            ("2 2 8", "flags in 0..3"),
            ("0 3 0", "m, n >= 1"),
            ("-1 -2 0", "m, n >= 1"),
        ],
        ids=["no-header-line", "two-fields", "flag-4", "flag-8", "zero-rows", "negative"],
    )
    def test_rejects_malformed_header(self, fmt, header, match):
        # no body: the header is checked before it, so "0 3 0" cannot load
        # as an empty matrix
        with pytest.raises(ValueError, match=match):
            if fmt == "csv":
                matrix_from_csv("" if header is None else header.replace(" ", ",") + "\n")
            else:
                matrix_from_binary(b"2 2 0" if header is None else header.encode() + b"\n")

    @pytest.mark.parametrize("fmt", ["csv", "binary"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_rejects_non_finite_entry(self, fmt, value):
        entries = gaussian_matrix(3, 4, "unit", False, np.random.default_rng(3)).entries
        entries[2, 1] = value
        mat = SensingMatrix(entries=entries)
        if fmt == "csv":
            with pytest.raises(ValueError, match="row 3 holds a non-finite value"):
                matrix_from_csv(matrix_to_csv(mat))
        else:
            with pytest.raises(ValueError, match="non-finite value"):
                matrix_from_binary(matrix_to_binary(mat))

    @pytest.mark.parametrize("fmt", ["csv", "binary"])
    @pytest.mark.parametrize("complex_entries", [False, True])
    def test_rejects_normalized_flag_on_other_norms(self, fmt, complex_entries):
        # flags=1 says every column has unit norm; a file whose columns have
        # norm 3 must not load as normalized (normalize() would keep it)
        mat = gaussian_matrix(
            5, 4, "unit", True, np.random.default_rng(4), complex_entries=complex_entries
        )
        scaled = SensingMatrix(entries=3.0 * mat.entries, normalized=True)
        with pytest.raises(ValueError, match=r"column 1 has norm 3\.0"):
            if fmt == "csv":
                matrix_from_csv(matrix_to_csv(scaled))
            else:
                matrix_from_binary(matrix_to_binary(scaled))

    @pytest.mark.parametrize("fmt", ["csv", "binary"])
    def test_normalized_flag_allows_1e_12(self, fmt):
        # column 3 is off by 5e-13 and loads; column 2 off by 2e-12 does not
        entries = np.eye(4)
        entries[2, 2] = 1.0 + 5e-13
        ok = SensingMatrix(entries=entries.copy(), normalized=True)
        entries[1, 1] = 1.0 + 2e-12
        bad = SensingMatrix(entries=entries, normalized=True)
        load = {
            "csv": lambda m: matrix_from_csv(matrix_to_csv(m)),
            "binary": lambda m: matrix_from_binary(matrix_to_binary(m)),
        }[fmt]
        assert load(ok).normalized
        with pytest.raises(ValueError, match="column 2 has norm 1.000000000002"):
            load(bad)
