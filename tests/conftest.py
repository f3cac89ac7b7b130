import math

import numpy as np
import pytest
from hypothesis import strategies as st

from spinmap.hamiltonian import SpinSystemSpec
from spinmap.lattice import LatticeParams, SiteTable, build_lattice, reference_site_si1
from spinmap.spinphys import SI29, FieldConfig, HyperfineTensor, dipolar_alpha


@pytest.fixture(scope="session")
def params():
    return LatticeParams()


@pytest.fixture(scope="session")
def table26(params):
    return SiteTable(build_lattice(params, 26.0))


@pytest.fixture(scope="session")
def field_1960():
    return FieldConfig(b_z=1960.9)


@st.composite
def drawn_lattices(draw):
    """Cell constants within 5 % of ideal for a valid stacking, any k variant."""
    stacking = draw(st.sampled_from(["ABCB", "ABCACB", "ABC"]))
    a = draw(st.floats(0.95 * 3.073, 1.05 * 3.073))
    c = a * len(stacking) * math.sqrt(2.0 / 3.0) * draw(st.floats(0.951, 1.049))
    n_k = len(LatticeParams(a=a, c=c, stacking=stacking).k_layers())
    k_variant = draw(st.integers(0, n_k - 1))
    return LatticeParams(a=a, c=c, stacking=stacking, k_variant=k_variant)


def reference_sedor_between(table, i, j, physics):
    """|C_zz|/2 (Hz) between sites i and j, one pair at a time, in scalar
    arithmetic: the values placement.sedor_between must match bit for bit."""
    sp, pos = table.species, table.positions
    nucleus = {"Si": physics.si29, "C": physics.c13}
    alpha = dipolar_alpha(nucleus[sp.item(i)], nucleus[sp.item(j)])
    d = pos[j] - pos[i]
    r2 = float(d @ d)
    return 0.5 * abs(alpha / r2**1.5 * (3.0 * d[2] ** 2 / r2 - 1.0))


def strong_pair_spec(params, d=35e6, b_x=0.0, b_y=0.0):
    """Strongly coupled fixture: on-axis -4.8 MHz nucleus plus an
    adjacent-bilayer neighbor with substantial transverse hyperfine."""
    si1 = reference_site_si1(params).position
    neighbor = si1 + np.array([0.0, params.a / np.sqrt(3.0), params.c / 4.0])
    field = FieldConfig(b_z=1960.9, b_x=b_x, b_y=b_y)
    return SpinSystemSpec.from_geometry(
        d,
        field,
        (SI29, HyperfineTensor.from_perp(-4.8e6, 0.0), si1),
        (SI29, HyperfineTensor.from_perp(300e3, 80e3), neighbor),
    )


def weak_pair_spec(params, d=35e6, b_x=0.0, b_y=0.0):
    """Weakly coupled fixture: small hyperfine couplings on both nuclei."""
    si1 = reference_site_si1(params).position
    other = si1 + np.array([2.5, 1.0, 3.0])
    field = FieldConfig(b_z=1960.9, b_x=b_x, b_y=b_y)
    return SpinSystemSpec.from_geometry(
        d,
        field,
        (SI29, HyperfineTensor.from_perp(30e3, 3e3), si1),
        (SI29, HyperfineTensor.from_perp(60e3, 3e3), other),
    )
