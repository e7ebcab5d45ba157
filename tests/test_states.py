"""The solver states' surface: slotted, built by keyword or by position.

``IadmmState`` and ``IdrState`` keep their fields in ``__slots__``, so a
solver step builds one positionally at little cost; every keyword
constructor still works, and an attribute that is not a field is refused.
"""

import numpy as np
import pytest

from inadmm import default_params
from inadmm.admm import IadmmState, XUpdateStrategy, _Row, step
from inadmm.dr import IdrState

from test_hot_loop import problem, same_bits

FIELDS = ("k", "x", "z", "z_prev", "zbar", "y", "y_prev", "v", "w", "drift",
          "gamma", "alpha", "L")


def _arrays(rng, n=4):
    return [rng.standard_normal(n) for _ in range(6)]


def test_iadmm_state_keyword_and_positional_construction_agree(rng):
    x, z, z_prev, zbar, y, y_prev = _arrays(rng)
    w, drift, gamma, alpha = y + z, z - z_prev, np.array(1.3), np.array(0.2)
    values = (3, x, z, z_prev, zbar, y, y_prev, None, w, drift, gamma, alpha, "L")
    by_position = IadmmState(*values)
    by_keyword = IadmmState(**dict(zip(FIELDS, values)))
    for state in (by_position, by_keyword):
        for name, value in zip(FIELDS, values):
            if name != "v":  # formed on read, see below
                assert getattr(state, name) is value, name
    # the optional fields default to None
    bare = IadmmState(k=1, x=x, z=z, z_prev=z_prev, zbar=zbar, y=y, y_prev=y_prev)
    assert all(getattr(bare, name) is None for name in FIELDS[7:])
    assert not hasattr(bare, "__dict__")


def test_iadmm_state_forms_v_on_first_read_and_takes_an_assignment(rng):
    p = problem("prox_identity", rng)
    params, strat = default_params(0.2, gamma=1.3), XUpdateStrategy("prox_identity")
    m = p.g.dim
    state = IadmmState(1, np.zeros(p.f.dim), *_arrays(rng, m)[:5])
    assert state.v is None  # no step made this state, and none was given
    new, _ = step(state, p, params, 1, strat)
    assert new._v is None  # not formed until read
    co = params.coefficients.at(1)
    want = (state.y - co.gamma * state.z + co.gamma * p.L._apply(new.x)
            - co.alpha * new.drift)
    first = new.v
    assert same_bits(first, want) and new.v is first
    given = np.arange(m, dtype=float)
    new.v = given
    assert new.v is given
    assert IadmmState(1, *_arrays(rng, m), v=given).v is given


def test_batch_row_reads_one_point_of_a_slotted_state(rng):
    P, n = 3, 4
    arrays = [rng.standard_normal((P, n)) for _ in range(6)]
    state = IadmmState(5, *arrays, None, arrays[4] + arrays[1])
    for j in range(P):
        row = _Row(state, j)
        for name, array in zip(("x", "z", "z_prev", "zbar", "y", "y_prev"), arrays):
            assert same_bits(getattr(row, name), array[j]), (j, name)
        assert same_bits(row.w, arrays[4][j] + arrays[1][j])


def test_idr_state_construction_equality_and_repr(rng):
    w_prev, w, y, v = _arrays(rng)[:4]
    by_position = IdrState(2, w_prev, w, y, v)
    by_keyword = IdrState(k=2, w_prev=w_prev, w=w, y=y, v=v)
    for state in (by_position, by_keyword):
        assert (state.k, state.w_prev, state.w, state.y, state.v) == (
            2, w_prev, w, y, v)
    assert by_position == by_keyword  # the same arrays
    assert IdrState(0, w_prev, w) != IdrState(1, w_prev, w)
    bare = IdrState(k=0, w_prev=w_prev, w=w)
    assert bare.y is None and bare.v is None
    assert repr(IdrState(1, 2.0, 3.0)) == "IdrState(k=1, w_prev=2.0, w=3.0, y=None, v=None)"
    assert not hasattr(bare, "__dict__")


@pytest.mark.parametrize("make", [
    lambda a: IadmmState(1, *a),
    lambda a: IdrState(0, a[0], a[1]),
], ids=["IadmmState", "IdrState"])
def test_states_refuse_an_unknown_attribute(rng, make):
    state = make(_arrays(rng))
    with pytest.raises(AttributeError):
        state.extra = 1.0
    with pytest.raises(AttributeError):
        state.extra
