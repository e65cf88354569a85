"""Gamma's functor laws, checked exactly and with no reference route: the
inverse isometry gives the transpose, the identity gives the diagonal,
composition of isometries gives composition of correspondences, and a valid
Gamma's action is multiplicative on realized classes.  Each law runs over
``random_fourfold_pair`` seeds at rank 6 (hypothesis) and on one shared
rank-22 pair."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubicmotives.linalg import dot
from cubicmotives.motiveiso import (Datum, _conjugation_iso, build_gamma, random_fourfold_pair,
                                    random_unimodular)
from cubicmotives.quadform import Isometry
from cubicmotives.rationals import QQ
from cubicmotives.realization import (RealizedClass, Space, compose_realized,
                                      diagonal_realized, scaled_action)

SEEDS = st.integers(0, 2**16)
LAWS = settings(max_examples=25, deadline=None, database=None)


@pytest.fixture(scope="module")
def rank22():
    return random_fourfold_pair(17, rank=22)


def _gamma(dx, dy, iso):
    cert = build_gamma(dx, dy, iso)
    assert cert.passed(), [c["id"] for c in cert.checks if not c["passed"]]
    return cert.gamma


def _conjugate(d, seed):
    """d in the basis of the columns of a random unimodular s, with the group
    carried along, and the transcendental isometry that s^-1 induces to it."""
    s, s_inv = random_unimodular(random.Random(seed), d.space.prim.dim)
    group = d.group.conjugated(s, s_inv)
    dz = Datum(Space(d.space.vd, group.space), tuple(dot(s_inv, a) for a in d.alg_basis), group)
    return dz, _conjugation_iso(d, dz, s_inv)


def _random_class(rng, spaces):
    """A two-slot class with a random rational on every component."""
    comps = {}
    for k0 in spaces[0].kinds():
        for k1 in spaces[1].kinds():
            shape = [sp.r for k, sp in zip((k0, k1), spaces) if k == "V"]
            if shape:
                val = np.empty(shape, dtype=object)
                for idx in np.ndindex(*shape):
                    val[idx] = QQ(rng.randint(-3, 3), rng.randint(1, 3))
            else:
                val = QQ(rng.randint(-3, 3), rng.randint(1, 3))
            comps[(k0, k1)] = val
    return RealizedClass(spaces, comps)


def _inverse_law(dx, dy, iso):
    assert _gamma(dy, dx, iso.inverse()) == _gamma(dx, dy, iso).transpose()


def _identity_law(dx):
    assert _gamma(dx, dx, Isometry.identity(dx.transcendental()[1])) == \
        diagonal_realized(dx.space)


def _composition_law(dx, dy, iso, seed):
    dz, yz = _conjugate(dy, seed)
    assert _gamma(dx, dz, yz.compose(iso)) == \
        compose_realized(_gamma(dx, dy, iso), _gamma(dy, dz, yz))


def _multiplicative_law(dx, dy, iso, seed):
    a = scaled_action(_gamma(dx, dy, iso))
    rng = random.Random(seed)
    spx, spy = (dx.space,) * 2, (dy.space,) * 2
    x, y = _random_class(rng, spx), _random_class(rng, spx)
    assert (x * y).transport((a, a), spy) == x.transport((a, a), spy) * y.transport((a, a), spy)


@LAWS
@given(seed=SEEDS)
def test_inverse_isometry_gives_the_transpose(seed):
    _inverse_law(*random_fourfold_pair(seed))


@LAWS
@given(seed=SEEDS)
def test_identity_gives_the_diagonal(seed):
    dx, dy, _ = random_fourfold_pair(seed)
    _identity_law(dx)
    _identity_law(dy)


@LAWS
@given(seed=SEEDS, basis_seed=SEEDS)
def test_composition_of_isometries_gives_composition(seed, basis_seed):
    _composition_law(*random_fourfold_pair(seed), basis_seed)


@LAWS
@given(seed=SEEDS, class_seed=SEEDS)
def test_action_is_multiplicative(seed, class_seed):
    _multiplicative_law(*random_fourfold_pair(seed), class_seed)


def test_laws_on_a_rank22_pair(rank22):
    dx, dy, iso = rank22
    _inverse_law(dx, dy, iso)
    _identity_law(dx)
    _composition_law(dx, dy, iso, 5)
    _multiplicative_law(dx, dy, iso, 5)
