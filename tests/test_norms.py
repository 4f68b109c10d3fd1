from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from normrig.norms import DEFAULT_PLANE, LpPlane, NormError, parse_norm

finite = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)
nonzero_vec = st.tuples(finite, finite).filter(
    lambda t: max(abs(t[0]), abs(t[1])) > 1e-6
)
exponents = st.sampled_from([1.5, 3.0, 4.0, 7.0])


def test_frozen_values(plane4):
    assert plane4.norm_batch(np.array([[1.0, 1.0]]))[0] == pytest.approx(2 ** 0.25)
    phi = plane4.support_batch(np.array([[1.0, 1.0]]))[0]
    # phi_(1,1) = ||(1,1)||^(2-4) * (1,1) = (2^(-1/2), 2^(-1/2))
    assert phi == pytest.approx([2 ** -0.5, 2 ** -0.5])


def test_axis_vectors(plane4):
    phi = plane4.support_batch(np.array([[3.0, 0.0]]))[0]
    assert phi == pytest.approx([3.0, 0.0])


def test_zero_vector_conventions(plane4):
    assert plane4.norm_batch(np.zeros((1, 2)))[0] == 0.0
    assert np.all(plane4.support_batch(np.zeros((1, 2)))[0] == 0.0)


def test_euclidean_rejected():
    with pytest.raises(NormError):
        LpPlane(2.0)
    with pytest.raises(NormError):
        LpPlane(1.0)
    with pytest.raises(NormError):
        LpPlane(float("inf"))


def test_parse_norm():
    assert parse_norm("lp:4") == LpPlane(4.0)
    assert parse_norm("lp:1.5").exponent == 1.5
    with pytest.raises(NormError):
        parse_norm("l2")
    with pytest.raises(NormError):
        parse_norm("lp:abc")
    assert DEFAULT_PLANE.spec_string() == "lp:4"


@given(nonzero_vec, exponents)
def test_support_evaluates_to_norm_squared(z, p):
    plane = LpPlane(p)
    arr = np.array([z], dtype=float)
    nrm = plane.norm_batch(arr)[0]
    phi = plane.support_batch(arr)[0]
    assert float(phi @ arr[0]) == pytest.approx(nrm ** 2, rel=1e-10)


@given(nonzero_vec, exponents)
def test_dual_norm_equals_norm(z, p):
    # ||phi_z||_q = ||z|| for the conjugate exponent q
    plane = LpPlane(p)
    arr = np.array([z], dtype=float)
    nrm = plane.norm_batch(arr)[0]
    phi = plane.support_batch(arr)[0]
    q = p / (p - 1)
    dual = (abs(phi[0]) ** q + abs(phi[1]) ** q) ** (1 / q)
    assert dual == pytest.approx(nrm, rel=1e-9)


@given(nonzero_vec, exponents, st.floats(min_value=1e-3, max_value=1e3))
def test_support_positively_homogeneous(z, p, t):
    plane = LpPlane(p)
    arr = np.array([z], dtype=float)
    phi = plane.support_batch(arr)[0]
    phi_t = plane.support_batch(t * arr)[0]
    assert phi_t == pytest.approx(t * phi, rel=1e-9)


@given(nonzero_vec, exponents)
def test_support_odd(z, p):
    plane = LpPlane(p)
    arr = np.array([z], dtype=float)
    assert plane.support_batch(-arr)[0] == pytest.approx(
        -plane.support_batch(arr)[0], rel=1e-9
    )
