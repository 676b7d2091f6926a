"""The array-backed Allocation against the per-entry reference loops.

Every Metrics field and every violation list must equal the loops of
tests/helpers.py bit for bit: the array code adds its terms one at a
time in entry order, exactly as the loops do.
"""

import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (reference_allocation, reference_check_feasibility,
                     reference_metrics)
from relayopt import solver
from relayopt.channel import ChannelRealization, generate_instance
from relayopt.config import SystemConfig
from relayopt.model import (Af, Allocation, Direct, Metrics, PowerModel,
                            RadioConfig, check_feasibility, compute_metrics)


def _same(a, b):
    """Equal, NaN included: a negative power can take log1p below -1."""
    return a == b or (math.isnan(a) and math.isnan(b))


def _assert_metrics_equal(got: Metrics, want: Metrics):
    for f in dataclasses.fields(Metrics):
        a, b = getattr(got, f.name), getattr(want, f.name)
        assert _same(a, b), f"{f.name}: {a!r} != {b!r}"


_gain = st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=10.0))
_power = st.one_of(st.just(0.0), st.floats(min_value=-0.5, max_value=2.0))


@st.composite
def _instances(draw):
    """(chan, radio, pm, entries): random gains, zero hops included, and
    an entry dict that may book a subcarrier twice or hold negative powers."""
    k = draw(st.integers(1, 4))
    n = draw(st.integers(1, 6))
    m = draw(st.integers(0, 2))

    def gains(rows):
        return np.array(draw(st.lists(_gain, min_size=rows * n,
                                      max_size=rows * n))).reshape(rows, n)

    chan = ChannelRealization(
        g_bs_ue=gains(k), g_bs_rn=gains(m) if m else np.zeros((0, n)),
        g_rn_ue=gains(k) if m else None,
        sector_of_ue=np.array(draw(st.lists(st.integers(0, m - 1), min_size=k,
                                            max_size=k))) if m else None,
        noise_gap=draw(st.sampled_from([1.0, 0.37, 2.5])))
    kinds = st.sampled_from(["direct", "af"] if m else ["direct"])
    entries = {}
    for kk, nn, kind, p1, p2 in draw(st.lists(st.tuples(
            st.integers(0, k - 1), st.integers(0, n - 1), kinds, _power,
            _power), max_size=2 * n)):
        entries[(kk, nn)] = Direct(p1) if kind == "direct" else Af(p1, p2)
    radio = RadioConfig(n_subcarriers=n, n_relays=m)
    pm = PowerModel(p_max=draw(st.sampled_from([1.0, 2.5, 1e-3])))
    return chan, radio, pm, entries


@given(_instances(), st.booleans())
@settings(max_examples=400, deadline=None)
def test_metrics_and_violations_match_the_entry_loops(inst, exact_snr):
    chan, radio, pm, entries = inst
    alloc = Allocation(len(chan.g_bs_ue), radio.n_subcarriers, entries)
    assert alloc.entries == entries
    # the loops read the hand-built dict, not the view derived from arrays
    raw = SimpleNamespace(entries=entries, n_users=len(chan.g_bs_ue),
                          n_subcarriers=radio.n_subcarriers)
    with np.errstate(invalid="ignore", divide="ignore"):
        got = compute_metrics(alloc, chan, radio, pm, exact_snr=exact_snr)
        want = reference_metrics(raw, chan, radio, pm, exact_snr=exact_snr)
    _assert_metrics_equal(got, want)
    assert (check_feasibility(alloc, radio, pm)
            == reference_check_feasibility(raw, radio, pm))


def test_empty_allocation():
    radio = RadioConfig(n_subcarriers=3, n_relays=1)
    pm = PowerModel()
    chan = generate_instance(SystemConfig(n_users=2, n_subcarriers=3,
                                          n_relays=1), 1)[1]
    alloc = Allocation(2, 3, {})
    assert alloc.user.shape == alloc.p_rn.shape == (0,)
    assert alloc.entries == {}
    for exact_snr in (False, True):
        _assert_metrics_equal(
            compute_metrics(alloc, chan, radio, pm, exact_snr=exact_snr),
            reference_metrics(alloc, chan, radio, pm, exact_snr=exact_snr))
    assert check_feasibility(alloc, radio, pm) == []


@pytest.mark.parametrize("key", [(0, -1), (5, 0), (-1, 0), (0, 2)])
def test_out_of_range_indices_are_violations(key):
    # the constructor takes any index; the check names the entry outside
    # 2 users x 2 subcarriers, and compute_metrics refuses it instead of
    # wrapping a negative index or raising a bare IndexError
    cfg = SystemConfig(n_users=2, n_subcarriers=2, n_relays=1)
    _, chan = generate_instance(cfg, 1)
    radio, pm = cfg.radio(), cfg.power_model()
    alloc = Allocation(2, 2, {(1, 1): Af(1e-4, 1e-4), key: Direct(1e-4)})
    want = [f"index-range: user {key[0]} subcarrier {key[1]} outside "
            "2 users x 2 subcarriers"]
    assert check_feasibility(alloc, radio, pm) == want
    assert reference_check_feasibility(alloc, radio, pm) == want
    with pytest.raises(ValueError, match=f"user {key[0]} subcarrier {key[1]}"):
        compute_metrics(alloc, chan, radio, pm)


def test_arrays_follow_the_dict_order_and_stay_read_only():
    alloc = Allocation(3, 4, {(2, 3): Af(0.5, 0.25), (0, 1): Direct(0.75),
                              (1, 1): Direct(-0.5)})
    assert alloc.user.tolist() == [2, 0, 1]
    assert alloc.subcarrier.tolist() == [3, 1, 1]
    assert alloc.af.tolist() == [True, False, False]
    assert alloc.p_bs.tolist() == [0.5, 0.75, -0.5]
    assert alloc.p_rn.tolist() == [0.25, 0.0, 0.0]
    with pytest.raises(ValueError):
        alloc.p_bs[0] = 1.0
    with pytest.raises(TypeError):
        alloc.entries[(0, 0)] = Direct(1.0)
    with pytest.raises(ValueError):
        Allocation.from_arrays(3, 4, [0, 1], [0], [False], [1.0], [0.0])


def test_from_arrays_copies_the_callers_arrays():
    # the constructor never aliases or freezes what it is handed, dtype
    # already right or not
    columns = [np.array([0, 2]), np.array([1, 3], dtype=np.intp),
               np.array([False, True]), np.array([0.5, 0.25]),
               np.array([0.0, 0.125])]
    alloc = Allocation.from_arrays(3, 4, *columns)
    for name, given in zip(("user", "subcarrier", "af", "p_bs", "p_rn"),
                           columns):
        held = getattr(alloc, name)
        assert given.flags.writeable, name
        assert not np.shares_memory(held, given), name
        assert not held.flags.writeable, name
    columns[3][0] = 9.0
    assert alloc.p_bs.tolist() == [0.5, 0.25]


def test_equality_compares_the_arrays():
    a = Allocation(2, 2, {(0, 0): Direct(0.5), (1, 1): Af(0.25, 0.125)})
    assert a == Allocation(2, 2, {(0, 0): Direct(0.5), (1, 1): Af(0.25, 0.125)})
    assert a != Allocation(2, 2, {(1, 1): Af(0.25, 0.125), (0, 0): Direct(0.5)})
    assert a != Allocation(2, 2, {(0, 0): Direct(0.5), (1, 1): Af(0.25, 0.25)})
    assert a != Allocation(2, 3, {(0, 0): Direct(0.5), (1, 1): Af(0.25, 0.125)})
    assert a != {(0, 0): Direct(0.5), (1, 1): Af(0.25, 0.125)}


def test_repr_reads_back_as_the_allocation():
    a = Allocation(2, 2, {(1, 1): Af(0.25, 0.125), (0, 0): Direct(0.5)})
    assert repr(a) == ("Allocation(2, 2, {(1, 1): Af(p_bs=0.25, p_rn=0.125), "
                       "(0, 0): Direct(p_d=0.5)})")
    assert eval(repr(a), {"Allocation": Allocation, "Af": Af,
                          "Direct": Direct}) == a


_DESK = SystemConfig(n_users=8, n_subcarriers=32, n_relays=3)
_LARGE = SystemConfig(n_users=128, n_subcarriers=1024, n_relays=3)


@pytest.mark.parametrize("cfg, seeds", [(_DESK, range(1, 201)),
                                        (_LARGE, range(1, 6))],
                         ids=["desk", "large"])
def test_solver_answers_match_the_entry_loops(cfg, seeds):
    radio, pm = cfg.radio(), cfg.power_model()
    problems = []
    for seed in seeds:
        _, chan = generate_instance(cfg, seed)
        eem = solver.solve_eem(chan, cfg)
        sem = solver.solve_sem(chan, cfg, eem=eem)
        for s in eem.trace.searches:
            alloc = solver._to_allocation(eem._prob, s.sweep)
            if alloc != reference_allocation(eem._prob, s.sweep):
                problems.append(f"seed {seed}: incumbent at q={s.q!r} differs")
        for name, sol in (("EEM", eem), ("SEM", sem)):
            alloc = sol.allocation
            rebuilt = Allocation(cfg.n_users, cfg.n_subcarriers, alloc.entries)
            if rebuilt != alloc:
                problems.append(f"seed {seed} {name}: round trip differs")
            for exact_snr in (False, True):
                got = compute_metrics(alloc, chan, radio, pm, exact_snr=exact_snr)
                if got != reference_metrics(alloc, chan, radio, pm,
                                            exact_snr=exact_snr):
                    problems.append(f"seed {seed} {name} exact={exact_snr}: "
                                    "metrics differ from the loops")
                if got != compute_metrics(rebuilt, chan, radio, pm,
                                          exact_snr=exact_snr):
                    problems.append(f"seed {seed} {name}: rebuilt metrics differ")
            if sol.metrics != compute_metrics(alloc, chan, radio, pm):
                problems.append(f"seed {seed} {name}: solution metrics differ")
            if (check_feasibility(alloc, radio, pm)
                    != reference_check_feasibility(alloc, radio, pm)):
                problems.append(f"seed {seed} {name}: violations differ")
    assert not problems, problems


def test_solutions_compare_equal():
    chan3, chan4 = (generate_instance(_DESK, seed)[1] for seed in (3, 4))
    a = solver.solve_eem(chan3, _DESK)
    assert a == solver.solve_eem(chan3, _DESK)
    assert a != solver.solve_eem(chan4, _DESK)
