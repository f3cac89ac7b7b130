import ast
import math
from pathlib import Path

import numpy as np
import pytest

import spinmap
from spinmap.errors import InputError, InversionError, SingularityError
from spinmap.spinphys import (
    C13,
    SI29,
    FieldConfig,
    HyperfineTensor,
    Physics,
    dipolar_alpha,
    dipolar_coupling,
    dipolar_tensor,
    invert_hyperfine,
    nuclear_frequency_perturbative,
    nuclear_transition_frequency,
    species_for_label,
    transverse_field_from_misalignment,
)

# Independent evaluation of mu0/(4 pi) * h * gamma_Si^2 * 2 / r^3 at
# r = 3.08 A with CODATA mu0 and exact h, computed with 40-digit mpmath
# (tests/test_spinphys.py keeps only the frozen result).
AXIAL_SI_SI_3_08 = 325.00332245468351


class TestSpecies:
    def test_gyromagnetic_signs(self):
        assert SI29.gyromagnetic_ratio < 0
        assert C13.gyromagnetic_ratio > 0
        ge = FieldConfig(b_z=1960.9).electron_gamma  # the electron of the Hamiltonian
        assert ge < 0
        assert abs(ge) > 1000 * abs(C13.gyromagnetic_ratio)

    def test_species_for_label(self):
        assert species_for_label("Si12") is SI29
        assert species_for_label("C3") is C13
        with pytest.raises(InputError):
            species_for_label("N1")
        physics = Physics.from_gammas(gamma_si29=-8.4e6)
        assert species_for_label("Si12", physics).gyromagnetic_ratio == -8.4e6
        assert species_for_label("C3", physics) is C13
        assert Physics() == Physics.from_gammas()

    @pytest.mark.parametrize("gamma", [math.nan, math.inf, -math.inf, 0.0])
    def test_from_gammas_rejects_non_finite_or_zero(self, gamma):
        with pytest.raises(InputError):
            Physics.from_gammas(gamma_si29=gamma)
        with pytest.raises(InputError):
            Physics.from_gammas(gamma_c13=gamma)

    def test_no_global_statement_in_package(self):
        # physics travels as a value: no module rebinds its own globals
        for path in sorted(Path(spinmap.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text())
            found = [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Global)]
            assert not found, f"{path.name}: global statement at lines {found}"


class TestDipolarCoupling:
    def test_axial_geometry_factor(self):
        r = 3.08
        c = dipolar_coupling([0, 0, 0], [0, 0, r], SI29, SI29)
        alpha = dipolar_alpha(SI29, SI29)
        assert c == pytest.approx(2 * alpha / r**3, rel=1e-12)

    def test_equatorial_geometry_factor(self):
        r = 3.08
        c = dipolar_coupling([0, 0, 0], [r, 0, 0], SI29, SI29)
        alpha = dipolar_alpha(SI29, SI29)
        assert c == pytest.approx(-alpha / r**3, rel=1e-12)

    def test_magic_angle_zero(self):
        r = 5.0
        dz = r / math.sqrt(3.0)
        rho = math.sqrt(r * r - dz * dz)
        c = dipolar_coupling([0, 0, 0], [rho, 0, dz], SI29, SI29)
        alpha = dipolar_alpha(SI29, SI29)
        assert abs(c) < 1e-12 * abs(alpha) / r**3

    def test_frozen_codata_value(self):
        c = dipolar_coupling([0, 0, 0], [0, 0, 3.08], SI29, SI29)
        assert c == pytest.approx(AXIAL_SI_SI_3_08, rel=1e-9)

    def test_inverse_cube_scaling(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            p1, p2 = rng.normal(0, 4, (2, 3))
            c1 = dipolar_coupling(p1, p2, SI29, C13)
            c2 = dipolar_coupling(2 * p1, 2 * p2, SI29, C13)
            assert c2 == pytest.approx(c1 / 8.0, rel=1e-12)

    def test_exchange_translation_rotation_invariance(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            p1, p2 = rng.normal(0, 4, (2, 3))
            c = dipolar_coupling(p1, p2, SI29, C13)
            assert dipolar_coupling(p2, p1, C13, SI29) == pytest.approx(c, rel=1e-12)
            shift = rng.normal(0, 10, 3)
            assert dipolar_coupling(p1 + shift, p2 + shift, SI29, C13) == pytest.approx(
                c, rel=1e-12
            )
            th = rng.uniform(0, 2 * math.pi)
            rot = np.array(
                [[math.cos(th), -math.sin(th), 0], [math.sin(th), math.cos(th), 0], [0, 0, 1]]
            )
            assert dipolar_coupling(rot @ p1, rot @ p2, SI29, C13) == pytest.approx(
                c, rel=1e-12
            )

    def test_angular_average_is_zero(self):
        # Monte-Carlo average of (3 cos^2 - 1) over the sphere
        rng = np.random.default_rng(7)
        n = 40000
        v = rng.normal(size=(n, 3))
        v /= np.linalg.norm(v, axis=1)[:, None]
        factor = 3 * v[:, 2] ** 2 - 1
        assert abs(factor.mean()) < 3 * factor.std() / math.sqrt(n)

    def test_coincident_positions_rejected(self):
        with pytest.raises(InputError):
            dipolar_coupling([1, 2, 3], [1, 2, 3], SI29, SI29)

    def test_full_tensor_consistent_with_zz(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            p1, p2 = rng.normal(0, 4, (2, 3))
            t = dipolar_tensor(p1, p2, SI29, C13)
            assert t[2, 2] == pytest.approx(dipolar_coupling(p1, p2, SI29, C13), rel=1e-12)
            assert np.allclose(t, t.T)
            assert abs(np.trace(t)) < 1e-9 * abs(t).max()


class TestNuclearTransitionFrequency:
    def test_bare_larmor(self, field_1960):
        f = nuclear_transition_frequency(field_1960, SI29, HyperfineTensor(0.0), 1.5)
        assert f == pytest.approx(abs(SI29.gyromagnetic_ratio) * 0.19609, rel=1e-12)

    def test_collinear_limit(self, field_1960):
        hf = HyperfineTensor(-4.8e6)
        f = nuclear_transition_frequency(field_1960, SI29, hf, 1.5)
        g = SI29.gyromagnetic_ratio * field_1960.b_z_tesla
        assert f == pytest.approx(abs(g + 1.5 * -4.8e6), rel=1e-12)

    def test_si1_manifold_frequencies(self, field_1960):
        # A_zz = -4.8 MHz at 1960.9 G: the signed linear forms of the two
        # +-3/2 manifolds differ by exactly 3 A_zz
        hf = HyperfineTensor(-4.8e6)
        g = SI29.gyromagnetic_ratio * field_1960.b_z_tesla
        x_plus = g + 1.5 * hf.a_zz
        x_minus = g - 1.5 * hf.a_zz
        assert x_plus - x_minus == pytest.approx(3 * hf.a_zz, rel=1e-12)
        f_plus = nuclear_transition_frequency(field_1960, SI29, hf, 1.5)
        f_minus = nuclear_transition_frequency(field_1960, SI29, hf, -1.5)
        assert f_plus == pytest.approx(8.8599e6, rel=1e-3)
        assert f_minus == pytest.approx(5.5401e6, rel=1e-3)

    def test_even_in_a_perp_sign(self, field_1960):
        a = nuclear_transition_frequency(
            field_1960, C13, HyperfineTensor(50e3, 20e3, 0.0), 1.5
        )
        b = nuclear_transition_frequency(
            field_1960, C13, HyperfineTensor(50e3, -20e3, 0.0), 1.5
        )
        assert a == b


class TestInvertHyperfine:
    def test_exact_roundtrip_zero_perp(self, field_1960):
        hf = HyperfineTensor(-4.8e6)
        fp = nuclear_transition_frequency(field_1960, SI29, hf, 1.5)
        fm = nuclear_transition_frequency(field_1960, SI29, hf, -1.5)
        got = invert_hyperfine(fp, fm, field_1960, SI29)
        assert got.a_zz == pytest.approx(-4.8e6, rel=1e-9)
        assert got.a_perp < 1.0

    def test_roundtrip_with_perp(self, field_1960):
        hf = HyperfineTensor.from_perp(50e3, 20e3)
        fp = nuclear_transition_frequency(field_1960, SI29, hf, 1.5)
        fm = nuclear_transition_frequency(field_1960, SI29, hf, -1.5)
        got = invert_hyperfine(fp, fm, field_1960, SI29)
        assert got.a_zz == pytest.approx(50e3, rel=1e-6)
        assert got.a_perp == pytest.approx(20e3, rel=1e-6)

    def test_roundtrip_property_random(self, field_1960):
        rng = np.random.default_rng(11)
        for _ in range(300):
            a_zz = rng.choice([-1, 1]) * 10 ** rng.uniform(3, 6.7)
            a_perp = 10 ** rng.uniform(2, 5.3)
            hf = HyperfineTensor.from_perp(a_zz, a_perp)
            fp = nuclear_transition_frequency(field_1960, SI29, hf, 1.5)
            fm = nuclear_transition_frequency(field_1960, SI29, hf, -1.5)
            got = invert_hyperfine(fp, fm, field_1960, SI29)
            assert got.a_zz == pytest.approx(a_zz, rel=1e-6, abs=1e-3)
            assert got.a_perp == pytest.approx(a_perp, rel=1e-6, abs=1e-3)

    def test_symmetric_input_gives_azz_zero_branch(self, field_1960):
        hf = HyperfineTensor.from_perp(0.0, 30e3)
        f = nuclear_transition_frequency(field_1960, SI29, hf, 1.5)
        got = invert_hyperfine(f, f, field_1960, SI29)
        assert got.a_zz == pytest.approx(0.0, abs=1e-6)
        assert got.a_perp == pytest.approx(30e3, rel=1e-9)

    def test_inconsistent_pair_raises_with_residual(self, field_1960):
        g = abs(SI29.gyromagnetic_ratio * field_1960.b_z_tesla)
        with pytest.raises(InversionError) as err:
            invert_hyperfine(0.5 * g, 0.5 * g, field_1960, SI29)
        assert err.value.residual > 0

    def test_rejects_equal_subspaces(self, field_1960):
        with pytest.raises(InputError):
            invert_hyperfine(1e6, 2e6, field_1960, SI29, subspaces=(1.5, 1.5))


class TestPerturbativeFrequency:
    def test_zero_perp_orders_agree(self, field_1960):
        hf = HyperfineTensor(-120e3)
        f0 = nuclear_frequency_perturbative(field_1960, SI29, hf, 1.5, 0)
        f2 = nuclear_frequency_perturbative(field_1960, SI29, hf, 1.5, 2)
        assert f0 == f2

    def test_order2_matches_exact_to_fourth_order(self, field_1960):
        # Taylor oracle: |exact - (f0 + f2)| should scale as a_perp^4
        a_zz = 1.14e6  # linear form ~ 50 kHz in the +3/2 manifold
        errs = []
        perps = np.logspace(math.log10(500), math.log10(5000), 7)
        for ap in perps:
            hf = HyperfineTensor.from_perp(a_zz, float(ap))
            exact = nuclear_transition_frequency(field_1960, SI29, hf, 1.5)
            approx = nuclear_frequency_perturbative(field_1960, SI29, hf, 1.5, 2)
            errs.append(abs(exact - approx))
        slope = np.polyfit(np.log(perps), np.log(errs), 1)[0]
        assert abs(slope - 4.0) < 0.3

    def test_ms_sign_flip_without_azz(self, field_1960):
        hf = HyperfineTensor(0.0)
        f_plus = nuclear_frequency_perturbative(field_1960, C13, hf, 1.5, 0)
        f_minus = nuclear_frequency_perturbative(field_1960, C13, hf, -1.5, 0)
        assert f_plus == f_minus

    def test_singular_denominator(self, field_1960):
        # a_zz chosen so gamma_n B + m_s a_zz = 0 exactly
        g = SI29.gyromagnetic_ratio * field_1960.b_z_tesla
        hf = HyperfineTensor.from_perp(-g / 1.5, 1e3)
        with pytest.raises(SingularityError):
            nuclear_frequency_perturbative(field_1960, SI29, hf, 1.5, 2)

    def test_bad_order_rejected(self, field_1960):
        with pytest.raises(InputError):
            nuclear_frequency_perturbative(field_1960, SI29, HyperfineTensor(0.0), 1.5, 1)


class TestTransverseField:
    def test_rotation_only(self):
        assert transverse_field_from_misalignment(1960.9, 0.037, 0.0) == pytest.approx(
            1.3, abs=0.05
        )

    def test_both_angles(self):
        assert transverse_field_from_misalignment(1960.9, 0.037, 0.056) == pytest.approx(
            2.3, abs=0.05
        )

    def test_aligned_is_zero(self):
        assert transverse_field_from_misalignment(5000.0, 0.0, 0.0) == 0.0

    def test_rejects_nonpositive_field(self):
        with pytest.raises(InputError):
            transverse_field_from_misalignment(0.0, 0.1, 0.1)


class TestFieldConfig:
    def test_vector_conversion(self):
        f = FieldConfig(b_z=1960.9, b_x=2.3)
        assert f.b_vec_tesla == pytest.approx([2.3e-4, 0.0, 0.19609])

    def test_rejects_nonpositive_bz(self):
        with pytest.raises(InputError):
            FieldConfig(b_z=0.0)
