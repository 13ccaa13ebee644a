import numpy as np
import pytest

from bgl.chaining import abs_sup, exact_sup
from bgl.errors import DomainError
from bgl.fixtures import make_rng
from bgl.measure import DiscreteMeasureSpace, FunctionFamily, pointwise_max


class TestFunctionFamily:
    SPACE = DiscreteMeasureSpace(np.full(4, 0.25))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_from_values_rejects_non_finite(self, bad):
        matrix = np.ones((3, 4))
        matrix[1, 2] = bad
        with pytest.raises(DomainError):
            FunctionFamily.from_values(self.SPACE, matrix)

    @pytest.mark.parametrize("matrix", [np.ones(4), np.ones((2, 2, 4)), np.ones((0, 4)),
                                        np.ones((3, 5))],
                             ids=["1-d", "3-d", "no_rows", "wrong_atom_count"])
    def test_from_values_rejects_bad_shapes(self, matrix):
        with pytest.raises(DomainError):
            FunctionFamily.from_values(self.SPACE, matrix)

    def test_from_values_rejects_label_mismatch(self):
        with pytest.raises(DomainError):
            FunctionFamily.from_values(self.SPACE, np.ones((3, 4)), labels=("a", "b"))

    def test_members_are_the_rows(self):
        fam = FunctionFamily.from_values(self.SPACE, make_rng(61).uniform(0.0, 1.0, size=(7, 4)))
        assert fam.labels == tuple(f"t{i}" for i in range(7))
        for i, f in enumerate(fam.members):
            assert f.space is self.SPACE
            assert np.array_equal(f.values, fam.values[i])

    def test_stored_matrix_is_a_read_only_copy(self):
        matrix = np.arange(12.0).reshape(3, 4)
        fam = FunctionFamily.from_values(self.SPACE, matrix)
        assert not fam.values.flags.writeable
        with pytest.raises(ValueError):
            fam.values[0, 0] = 5.0
        matrix[0, 0] = 5.0
        assert fam.values[0, 0] == 0.0
        assert matrix.flags.writeable

    def test_scale_multiplies_the_matrix(self):
        fam = FunctionFamily.from_values(self.SPACE, make_rng(62).uniform(0.0, 1.0, size=(5, 4)))
        scaled = fam.scale(-3.0)
        assert scaled.labels == fam.labels and scaled.space is fam.space
        assert np.array_equal(scaled.values, fam.values * -3.0)
        with np.errstate(over="ignore"), pytest.raises(DomainError):
            fam.scale(1e308).scale(1e308)

    def test_sups_equal_the_pointwise_max_of_members(self):
        rng = make_rng(63)
        for m in [1, 2, 9]:
            fam = FunctionFamily.from_values(self.SPACE, rng.normal(size=(m, 4)))
            assert np.array_equal(exact_sup(fam).values,
                                  pointwise_max(fam.members).values)
            assert np.array_equal(abs_sup(fam).values,
                                  pointwise_max([abs(f) for f in fam.members]).values)
