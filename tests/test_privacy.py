"""Relative entropy to privacy-statement translations."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from anisopriv.privacy import (
    ConcentrationParams,
    PrivacyBudget,
    concentration_tail,
    delta_from_eps,
    eps_from_delta,
    membership_advantage,
)


def test_membership_advantage_values():
    assert membership_advantage(0.02) == 0.1
    assert membership_advantage(0.0) == 0.0
    assert membership_advantage(0.08) == pytest.approx(0.2, rel=1e-15)
    assert membership_advantage(2.0) == 1.0
    assert membership_advantage(1e9) == 1.0


def test_membership_advantage_rejects_negative():
    with pytest.raises(ValueError):
        membership_advantage(-0.1)


def test_concentration_tail_hand_value():
    assert concentration_tail(1.0, 1.0, 1.0) == pytest.approx(math.exp(-1.0), rel=1e-15)
    assert concentration_tail(2.0, 1.0, 1.0) == pytest.approx(math.exp(-4.0), rel=1e-15)


def test_delta_from_eps_regimes():
    cp = ConcentrationParams(lsi_const=1.0, lip=1.0, kl=0.5)
    assert delta_from_eps(0.3, cp) == 1.0
    assert delta_from_eps(0.5, cp) == 1.0
    got = delta_from_eps(1.5, cp)
    assert got == pytest.approx(math.exp(-1.0), rel=1e-14)


def test_eps_from_delta_hand_value():
    cp = ConcentrationParams(lsi_const=4.0, lip=0.5, kl=0.2)
    want = 0.2 + 0.5 * math.sqrt(4.0 * math.log(100.0))
    assert eps_from_delta(0.01, cp) == pytest.approx(want, rel=1e-14)


@given(
    st.floats(0.0, 10.0),
    # order-one constants: far smaller scales make eps - kl cancel badly
    st.floats(0.1, 10.0),
    st.floats(0.1, 10.0),
    st.floats(1e-9, 0.999),
)
@settings(max_examples=300, deadline=None)
def test_round_trip(kl, lsi_const, lip, delta):
    cp = ConcentrationParams(lsi_const=lsi_const, lip=lip, kl=kl)
    eps = eps_from_delta(delta, cp)
    back = delta_from_eps(eps, cp)
    assert back == pytest.approx(delta, rel=1e-12)


def test_delta_monotone_in_eps():
    cp = ConcentrationParams(lsi_const=2.0, lip=1.0, kl=0.1)
    vals = [delta_from_eps(e, cp) for e in (0.05, 0.1, 0.5, 1.0, 3.0)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_privacy_budget_validation():
    PrivacyBudget(1.0, 0.01)
    with pytest.raises(ValueError):
        PrivacyBudget(0.0, 0.01)
    with pytest.raises(ValueError):
        PrivacyBudget(1.0, 0.0)
    with pytest.raises(ValueError):
        PrivacyBudget(1.0, 1.0)


def test_concentration_params_validation():
    with pytest.raises(ValueError):
        ConcentrationParams(lsi_const=0.0, lip=1.0)
    with pytest.raises(ValueError):
        ConcentrationParams(lsi_const=1.0, lip=-1.0)
    with pytest.raises(ValueError):
        concentration_tail(0.0, 1.0, 1.0)


def test_concentration_tail_takes_its_limits_where_squares_overflow():
    # r**2 and lip**2 overflow above ~1.34e154 and lip**2 underflows to 0 below ~1e-162
    assert concentration_tail(1e154, 1.0, 1.0) == 0.0
    assert concentration_tail(1.4e154, 1.0, 1.0) == 0.0
    assert concentration_tail(1e308, 1.0, 1.0) == 0.0
    assert concentration_tail(1.0, 1.0, 1e200) == 1.0
    assert concentration_tail(1e200, 1.0, 1e200) == pytest.approx(math.exp(-1.0), rel=1e-15)
    assert concentration_tail(1.0, 1.0, 1e-200) == 0.0
    cp = ConcentrationParams(lsi_const=2.0, lip=1.0, kl=0.08)
    assert delta_from_eps(1e308, cp) == 0.0
