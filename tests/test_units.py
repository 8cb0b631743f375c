import pytest
from hypothesis import given, strategies as st

from trapkit.units import (
    AXIAL_FREQ_WINDOW,
    TWO_PI,
    UnknownSpeciesError,
    db_chain,
    get_species,
    make_trap_context,
)


class TestSpecies:
    def test_yb_context(self):
        ctx = make_trap_context("Yb-171", TWO_PI * 5.329e6, TWO_PI * 12.7e6, 20e-6)
        assert ctx.species.mass == pytest.approx(170.936 * 1.66053906660e-27)

    def test_ca_context(self):
        ctx = make_trap_context("Ca-40", TWO_PI * 1e6, TWO_PI * 1e6, 50e-6)
        assert ctx.species.mass == pytest.approx(39.963 * 1.66053906660e-27)

    def test_unknown_species(self):
        with pytest.raises(UnknownSpeciesError):
            make_trap_context("Xx-999", TWO_PI * 1e6, TWO_PI * 1e6, 50e-6)

    def test_nonpositive_input(self):
        with pytest.raises(ValueError):
            make_trap_context("Yb-171", -1.0, TWO_PI * 1e6, 20e-6)
        with pytest.raises(ValueError):
            make_trap_context("Yb-171", TWO_PI * 1e6, TWO_PI * 1e6, 0.0)

    def test_axial_plausibility_window(self):
        with pytest.raises(ValueError):
            make_trap_context("Yb-171", TWO_PI * 50e6, TWO_PI * 1e6, 20e-6)
        lo, hi = AXIAL_FREQ_WINDOW
        assert lo < TWO_PI * 5.329e6 < hi

    def test_species_table_override(self):
        from trapkit.units import ATOMIC_MASS_KG, ELEMENTARY_CHARGE, IonSpecies

        table = {"Sr-88": IonSpecies("Sr-88", 87.9 * ATOMIC_MASS_KG, ELEMENTARY_CHARGE)}
        assert get_species("Sr-88", table).name == "Sr-88"
        with pytest.raises(UnknownSpeciesError):
            get_species("Yb-171", table)


class TestDbChain:
    def test_paper_loss_budget(self):
        # -6.5 input coupler, -1.6 output coupler, -1.6 propagation
        assert db_chain([-6.5, -1.6, -1.6]) == pytest.approx(-9.7)

    def test_single_terms(self):
        assert db_chain([0]) == 0
        assert db_chain([-22]) == -22

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            db_chain([])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            db_chain([-3.0, float("nan")])

    @given(st.lists(st.floats(-30, 0), min_size=1, max_size=8), st.randoms())
    def test_order_independent(self, losses, rnd):
        shuffled = list(losses)
        rnd.shuffle(shuffled)
        assert db_chain(shuffled) == pytest.approx(db_chain(losses), abs=1e-12)
