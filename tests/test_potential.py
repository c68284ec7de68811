"""Tests for the potential-matrix classifier and entrywise transforms.

Hand-inverted 2x2 matrices give exact expectations; the killed-walk
matrices from the lattice module supply a family of true potentials for
the preservation properties.
"""

import json
import math
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greenpot import (
    Ball,
    GridSpec,
    KilledGreenMatrix,
    LatticeSet,
    classify,
    cmp_inequality,
    grid_points,
    hadamard_exp,
    hadamard_power,
    is_inverse_m_matrix,
    killed_green_check,
    killed_green_matrix,
    random_potential,
    sample_cmp,
)
from greenpot import lattice as lattice_module
from greenpot import potential as potential_module
from greenpot.cli import _jsonable, canonical_json
from greenpot.mc import generator

NOT_POTENTIAL = [[1.0, 2.0], [2.0, 1.0]]  # inverse has positive off-diagonal


def test_two_point_killed_matrix_is_potential():
    # inverse of [[16,4],[4,16]]/15 is [[1,-1/4],[-1/4,1]]
    lat = LatticeSet.from_points(2, [(0, 0), (1, 0)])
    u = killed_green_matrix(lat).entries
    report = is_inverse_m_matrix(u)
    assert report.is_potential is True
    assert report.nonsingular and not report.unreliable
    assert report.max_offdiag_of_inverse == pytest.approx(-0.25, rel=1e-12)
    assert report.min_row_sum_of_inverse == pytest.approx(0.75, rel=1e-12)


def test_swapped_dominance_is_not_potential():
    report = is_inverse_m_matrix(NOT_POTENTIAL)
    assert report.is_potential is False
    assert report.max_offdiag_of_inverse == pytest.approx(2 / 3, rel=1e-12)


def test_identity_and_diagonal_are_potentials():
    assert is_inverse_m_matrix(np.eye(4)).is_potential is True
    assert is_inverse_m_matrix(np.diag([2.0, 0.5, 1.5])).is_potential is True


def test_singular_matrix_reported_nonsingular_false():
    report = is_inverse_m_matrix(np.ones((3, 3)))
    assert report.nonsingular is False
    assert report.is_potential is False
    assert math.isnan(report.max_offdiag_of_inverse)


def test_nearly_singular_matrix_marked_unreliable():
    u = [[1.0, 1.0], [1.0, 1.0 + 1e-14]]
    report = is_inverse_m_matrix(u)
    assert report.unreliable is True
    assert report.is_potential is None
    assert report.condition > 1e12


@pytest.mark.parametrize("seed", range(6))
def test_condition_is_one_norm_condition(seed):
    u = random_potential(3, (2, 40), seed).entries
    for a in (u, hadamard_power(u, 2.0), hadamard_exp(u, 0.5)):
        report = is_inverse_m_matrix(a)
        assert report.condition == pytest.approx(np.linalg.cond(a, 1), rel=1e-10)


def _disk18():
    return killed_green_matrix(grid_points(Ball((0.0, 0.0), 1.0), GridSpec(d=2, n=18))).entries


LAPACK_CASES = {
    "disk": _disk18,
    "power3.7": lambda: hadamard_power(_disk18(), 3.7),
    "exp0.5": lambda: hadamard_exp(_disk18(), 0.5),
    "not_potential": lambda: np.array(NOT_POTENTIAL),
    "indefinite": lambda: np.ones((40, 40)) + np.diag(np.r_[np.ones(39), -0.5]),  # symmetric
    "singular": lambda: np.ones((3, 3)),
    "unreliable": lambda: np.array([[1.0, 1.0], [1.0, 1.0 + 1e-14]]),
    "scalar": lambda: np.array([[2.5]]),
    "nonsymmetric": lambda: _disk18() * np.linspace(1.0, 2.0, len(_disk18()))[:, None],
}


@pytest.mark.parametrize("case", LAPACK_CASES)
def test_lapack_inverse_route_matches_numpy_inverse(case, monkeypatch):
    # one numpy LU of u itself per report, in either memory order and any column
    # blocking; u is left as it was
    u = LAPACK_CASES[case]()
    dense = asdict(is_inverse_m_matrix(u))
    inv, calls = np.linalg.inv, []

    def numpy_inverse(a):
        calls.append(a)
        return inv(a)

    monkeypatch.setattr(lattice_module, "COLUMN_BLOCK", 7)  # several blocks in each blockwise pass
    monkeypatch.setattr(np.linalg, "inv", numpy_inverse)
    kept, f_order = u.copy(), u.copy(order="F")
    reports = [is_inverse_m_matrix(u), is_inverse_m_matrix(f_order)]
    monkeypatch.undo()
    assert np.array_equal(u, kept) and np.array_equal(f_order, kept)
    assert len(calls) == 2 and calls[0] is u and calls[1] is f_order
    for report in map(asdict, reports):
        if case == "singular":
            assert report["nonsingular"] is False
        if case == "unreliable":
            assert report["unreliable"] is True
        # verdicts exactly; values to 1e-12 (roundoff-level extremes read 0.0)
        assert {k: v for k, v in report.items() if not isinstance(v, float)} == \
            {k: v for k, v in dense.items() if not isinstance(v, float)}
        assert report == pytest.approx(dense, rel=1e-12, abs=0.0, nan_ok=True)


def test_every_case_classifies_without_lapack_lu(monkeypatch):
    # scipy's LAPACK is never called, not even past lattice.DENSE_LIMIT
    from scipy.linalg import lapack

    def refuse(*args, **kwargs):
        raise AssertionError("scipy LAPACK called")

    for case, make in LAPACK_CASES.items():
        u = make()
        dense = asdict(is_inverse_m_matrix(u))
        monkeypatch.setattr(lattice_module, "DENSE_LIMIT", 0)
        for name in ("dgetrf", "dgetri", "dpotrf", "dpotri"):
            monkeypatch.setattr(lapack, name, refuse)
        reports = [classify(u), is_inverse_m_matrix(u.copy(order="F"))]
        monkeypatch.undo()
        for report in map(asdict, reports):
            assert report == pytest.approx(dense, rel=1e-12, abs=0.0, nan_ok=True), case


@pytest.mark.parametrize("order", "CF")
def test_nonsymmetric_input_is_not_overwritten(order):
    # one entry off symmetric in the last row: numpy's LU on u itself, which it leaves as it was
    u = _disk18()
    u[-1, 0] *= 1.5
    u = u.copy(order=order)
    kept = u.copy()
    report = is_inverse_m_matrix(u)
    assert report.nonsingular is True
    assert np.array_equal(u, kept)


def _agree(residual, inverse):
    """Verdicts and flags exactly; values to 1e-12, condition to its 12 shown digits."""
    got, want = asdict(residual), asdict(inverse)
    assert {k: v for k, v in got.items() if not isinstance(v, float)} == \
        {k: v for k, v in want.items() if not isinstance(v, float)}
    assert got.pop("condition") == pytest.approx(want.pop("condition"), rel=2e-11)
    assert got == pytest.approx(want, rel=1e-12, abs=0.0, nan_ok=True)


@pytest.mark.parametrize("d, n", [(2, 2), (2, 18), (2, 162), (2, 930), (3, 27), (3, 162)])
def test_killed_green_check_agrees_with_inverse(d, n):
    green = killed_green_matrix(grid_points(Ball((0.0,) * d, 1.0), GridSpec(d=d, n=n)))
    report = killed_green_check(green)
    assert report.is_potential is True
    _agree(report, is_inverse_m_matrix(green.entries))


def test_killed_green_check_agrees_on_random_sets():
    for seed in range(20):
        green = random_potential(2 + seed % 2, (2, 60), seed)
        _agree(killed_green_check(green), is_inverse_m_matrix(green.entries))


def test_killed_green_check_reads_the_extremes_of_i_minus_p():
    # two neighbours: I - P = [[1, -1/4], [-1/4, 1]], every pair a neighbour pair
    two = killed_green_check(killed_green_matrix(LatticeSet.from_points(2, [(0, 0), (1, 0)])))
    assert (two.max_offdiag_of_inverse, two.min_row_sum_of_inverse) == (-0.25, 0.75)
    one = killed_green_check(killed_green_matrix(LatticeSet.from_points(3, [(0, 0, 0)])))
    assert (one.max_offdiag_of_inverse, one.min_row_sum_of_inverse, one.condition) == (0.0, 1.0, 1.0)


def test_killed_green_check_refuses_a_raised_pair():
    # one mirrored off-diagonal pair raised by 1e-6 max G: the residual no longer certifies
    green = killed_green_matrix(grid_points(Ball((0.0, 0.0), 1.0), GridSpec(d=2, n=162)))
    g = green.entries.copy()
    bump = 1e-6 * g.max()
    g[3, 40] += bump
    g[40, 3] += bump
    report = killed_green_check(KilledGreenMatrix(lattice=green.lattice, entries=g))
    assert report.is_potential is False
    assert report.nonsingular is True and not report.unreliable


def test_killed_green_check_raises_when_the_residual_certifies_nothing():
    green = killed_green_matrix(grid_points(Ball((0.0, 0.0), 1.0), GridSpec(d=2, n=18)))
    for g in (2.0 * green.entries, np.full_like(green.entries, np.nan)):
        with pytest.raises(np.linalg.LinAlgError, match="not certified"):
            killed_green_check(KilledGreenMatrix(lattice=green.lattice, entries=g))


def test_killed_green_check_inverts_nothing(monkeypatch):
    green = killed_green_matrix(grid_points(Ball((0.0, 0.0), 1.0), GridSpec(d=2, n=930)))

    def refuse(*args, **kwargs):
        raise AssertionError("inverted")

    monkeypatch.setattr(np.linalg, "inv", refuse)
    assert killed_green_check(green).is_potential is True


def test_killed_green_check_scratch_stays_within_one_column_block():
    # two buffers of COLUMN_BLOCK / 2 rows; the neighbour table (m x 2d x d) adds under 10%
    green = killed_green_matrix(grid_points(Ball((0.0, 0.0), 1.0), GridSpec(d=2, n=1458)))
    m = len(green.entries)
    killed_green_check(green)
    tracemalloc.start()
    try:
        killed_green_check(green)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * 8 * m * lattice_module.COLUMN_BLOCK


def test_input_validation():
    with pytest.raises(ValueError):
        is_inverse_m_matrix([[1.0, -0.1], [0.2, 1.0]])  # negative entry
    with pytest.raises(ValueError):
        is_inverse_m_matrix(np.ones((2, 3)))
    with pytest.raises(ValueError):
        is_inverse_m_matrix(np.zeros((0, 0)))


def test_report_json_maps_nan_to_null():
    # as the CLI writes a report: its fields, made JSON-ready, serialized once
    report = is_inverse_m_matrix(np.ones((3, 3)))
    obj = json.loads(canonical_json(_jsonable(asdict(report))))
    assert obj["max_offdiag_of_inverse"] is None
    assert obj["is_potential"] is False


def test_cmp_functional_hand_value():
    # Uv = (1.2, 0.3), only the first coordinate exceeds 1
    assert cmp_inequality(NOT_POTENTIAL, (-0.2, 0.7)) == pytest.approx(-0.04, rel=1e-12)
    # nonnegative v against the identity can never violate
    assert cmp_inequality(np.eye(2), (0.5, 2.0)) == pytest.approx(1.0 * 2.0, rel=1e-12)


def test_sample_cmp_finds_violation_for_non_potential():
    value, witness = sample_cmp(NOT_POTENTIAL, trials=10_000, seed=7)
    assert value < -1e-3
    # the returned vector really is a certificate
    assert cmp_inequality(NOT_POTENTIAL, witness) == pytest.approx(value, rel=1e-12)
    # random directions alone suffice, without the adversarial candidates
    value2, _ = sample_cmp(NOT_POTENTIAL, trials=10_000, seed=7, include_adversarial=False)
    assert value2 < -1e-3


def test_sample_cmp_nonnegative_on_potentials():
    lat = LatticeSet.from_points(2, [(0, 0), (1, 0), (0, 1), (1, 1)])
    u = killed_green_matrix(lat).entries
    value, _ = sample_cmp(u, trials=5_000, seed=11)
    scale = float(np.max(np.abs(u)))
    assert value >= -1e-10 * scale


def _stacked_probe_min(u, trials, seed, include_adversarial):
    """Oracle: the probes stacked afresh, sign vectors and scaled inverse rows after the normals."""
    a = np.asarray(u, dtype=float)
    m = len(a)
    vs = [generator(seed).standard_normal((trials, m))]
    if include_adversarial:
        vs += [np.eye(m), -np.eye(m)]
        try:
            inv = np.linalg.inv(a)
            vs += [k * inv for c in (0.5, 1.0, 1.5, 2.0) for k in (c, -c)]
        except np.linalg.LinAlgError:
            pass
    vs = np.vstack(vs)
    values = np.einsum("ij,ij->i", np.clip(vs @ a.T - 1.0, 0.0, None), vs)
    return float(values.min()), vs[np.argmin(values)]


def _disk162():
    u = killed_green_matrix(grid_points(Ball((0.0, 0.0), 1.0), GridSpec(d=2, n=162))).entries
    assert len(u) == 249
    return u


def _probe_rows(m):
    return max(lattice_module.COLUMN_BLOCK, potential_module.PROBE_BYTES // (8 * m))


@pytest.mark.parametrize("adversarial", [True, False])
@pytest.mark.parametrize("trials", [2, 300, "3 blocks + 7"])
def test_sample_cmp_matches_stacked_probe_oracle(adversarial, trials):
    two = killed_green_matrix(LatticeSet.from_points(2, [(0, 0), (1, 0)])).entries
    cases = [NOT_POTENTIAL, two, np.ones((3, 3)), [[0.1, 0.0], [0.0, 0.1]]]
    if trials == "3 blocks + 7":  # three full blocks of normals and a partial one
        cases += [random_potential(3, (40, 40), 2).entries, _disk162()]
    for u in cases:
        n = 3 * _probe_rows(len(u)) + 7 if trials == "3 blocks + 7" else trials
        value, witness = sample_cmp(u, trials=n, seed=5, include_adversarial=adversarial)
        expected, probe = _stacked_probe_min(u, n, 5, adversarial)
        assert value == expected
        assert np.array_equal(witness, probe)


def test_sample_cmp_ties_go_to_the_first_probe():
    # potentials score 0 on many probes; the witness is the first of them in stacking order
    u = _disk162()
    m, trials = len(u), 100
    normals = generator(5).standard_normal((trials, m))
    e = np.eye(m)
    scaled = u / u[5, 5]
    cases = [
        (1e-3 * u, None),  # many normals have every (Uv)_j <= 1: the first of them
        (scaled, e[int(np.argmax(np.diagonal(scaled) <= 1.0))]),  # the first e_i with U_ii <= 1
        (u, -e[0]),  # every U_ii > 1: -e_0, the first of the -e_i
    ]
    for a, first in cases:
        value, witness = sample_cmp(a, trials=trials, seed=5)
        expected, probe = _stacked_probe_min(a, trials, 5, True)
        assert value == expected == 0.0
        assert np.array_equal(witness, probe)
        zeros = np.flatnonzero([cmp_inequality(a, v) == 0.0 for v in normals])
        if first is None:
            assert len(zeros) > 1 and np.array_equal(witness, normals[zeros[0]])
        else:
            assert len(zeros) == 0 and np.array_equal(witness, first)


def test_sample_cmp_probes_stay_within_traced_memory():
    # beyond the inverse, one block of probes and one of their products, whatever the trials
    u = _disk162()
    m, rows = len(u), _probe_rows(len(u))
    sample_cmp(u, 1, 0)  # first-call allocations of numpy and the generator
    peaks = {}
    for trials in (1000, 10_000):
        tracemalloc.start()
        try:
            sample_cmp(u, trials, 0)
            peaks[trials] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    # two blocks, plus a few vectors (the values of a block, the witness)
    assert peaks[10_000] <= 8 * (m * m + 2 * rows * m) + 8 * 4 * max(rows, m)
    assert abs(peaks[10_000] - peaks[1000]) <= 8 * rows * m


@pytest.mark.parametrize("dense_limit", [None, 0])
def test_classify_inverts_once(dense_limit, monkeypatch):
    # the probes take the inverse-M test's inverse: one numpy inverse per classify,
    # whichever side of lattice.DENSE_LIMIT the matrix lies on
    u, calls = _disk18(), []
    inverse = np.linalg.inv

    def counted(a):
        calls.append(len(a))
        return inverse(a)

    if dense_limit is not None:
        monkeypatch.setattr(lattice_module, "DENSE_LIMIT", dense_limit)
    monkeypatch.setattr(np.linalg, "inv", counted)
    report = classify(u, trials=100, seed=3)
    assert report.is_potential is True and report.cmp_inequality_min == 0.0
    assert calls == [len(u)]


def test_classify_shares_the_inverse_when_unreliable():
    # the 12 x 12 Hilbert matrix (condition 4e16): no verdict, and its scaled
    # inverse rows, not the normals, give the probes' minimum
    hilbert = 1.0 / (np.arange(12)[:, None] + np.arange(12) + 1.0)
    report = classify(hilbert, trials=50, seed=4)
    assert report.unreliable is True and report.condition > 1e12
    expected, _ = _stacked_probe_min(hilbert, 50, 4, True)
    assert report.cmp_inequality_min == expected
    assert expected < sample_cmp(hilbert, trials=50, seed=4, include_adversarial=False)[0]


def test_sample_cmp_reproducible():
    v1, w1 = sample_cmp(NOT_POTENTIAL, trials=500, seed=3)
    v2, w2 = sample_cmp(NOT_POTENTIAL, trials=500, seed=3)
    assert v1 == v2
    assert np.array_equal(w1, w2)
    with pytest.raises(ValueError):
        sample_cmp(NOT_POTENTIAL, trials=0, seed=3)


def test_classify_attaches_sampling_fields():
    report = classify(NOT_POTENTIAL, trials=2_000, seed=5)
    assert report.is_potential is False
    assert report.cmp_inequality_min is not None and report.cmp_inequality_min < 0
    assert report.trials == 2_000 and report.seed == 5
    # two normals score 0; the scaled rows of the check's own inverse (its diagonal restored) do not
    scaled = classify(NOT_POTENTIAL, trials=2, seed=5).cmp_inequality_min
    assert scaled == _stacked_probe_min(NOT_POTENTIAL, 2, 5, True)[0] == -2 / 3
    bare = classify(NOT_POTENTIAL)
    assert bare.cmp_inequality_min is None and bare.trials == 0


def test_hadamard_power_identity_and_values():
    u = np.array([[4.0, 1.0], [1.0, 4.0]])
    assert np.array_equal(hadamard_power(u, 1.0), u)
    assert np.array_equal(hadamard_power(u, 2.0), u * u)
    assert np.allclose(hadamard_power(u, 1.5), [[8.0, 1.0], [1.0, 8.0]])
    with pytest.raises(ValueError):
        hadamard_power(u, 0.5)


def test_hadamard_exp_values():
    u = np.array([[1.0, 0.0], [0.0, 1.0]])
    out = hadamard_exp(u, 2.0)
    assert np.allclose(out, [[math.e**2, 1.0], [1.0, math.e**2]])
    with pytest.raises(ValueError):
        hadamard_exp(u, 0.0)
    with pytest.raises(ValueError):
        hadamard_exp(u, -1.0)


def test_hadamard_exp_of_diagonal_is_potential():
    # exp maps zero off-diagonals to ones; the result stays a potential
    # for positive diagonal entries
    for a, b in [(0.5, 0.5), (1.0, 2.0), (3.0, 0.1)]:
        out = hadamard_exp(np.diag([a, b]), 1.0)
        assert is_inverse_m_matrix(out).is_potential is True


@given(seed=st.integers(min_value=0, max_value=500))
@settings(max_examples=20, deadline=None)
def test_power_preserves_potentials_2d(seed):
    u = random_potential(2, (2, 8), seed).entries
    for beta in (1.0, 1.5, 2.0, 3.0):
        report = is_inverse_m_matrix(hadamard_power(u, beta))
        assert report.is_potential is True, f"beta={beta}"


@given(seed=st.integers(min_value=501, max_value=900))
@settings(max_examples=15, deadline=None)
def test_exp_preserves_potentials_2d(seed):
    u = random_potential(2, (2, 8), seed).entries
    for alpha in (0.1, 0.5, 1.0):
        report = is_inverse_m_matrix(hadamard_exp(u, alpha))
        assert report.is_potential is True, f"alpha={alpha}"


@given(c=st.floats(min_value=0.01, max_value=100.0), seed=st.integers(0, 200))
@settings(max_examples=20, deadline=None)
def test_potential_class_closed_under_positive_scaling(c, seed):
    u = random_potential(2, (2, 6), seed).entries
    assert is_inverse_m_matrix(c * u).is_potential is True


def test_random_potential_reproducible_and_in_range():
    a = random_potential(2, (3, 10), seed=42)
    b = random_potential(2, (3, 10), seed=42)
    assert isinstance(a, KilledGreenMatrix)
    assert np.array_equal(a.lattice.points, b.lattice.points)
    assert np.allclose(a.entries, b.entries, rtol=0, atol=0)
    assert 3 <= len(a.lattice) <= 10
    assert (0, 0) in a.lattice
    with pytest.raises(ValueError):
        random_potential(2, (5, 3), seed=1)


def test_random_potential_sets_are_connected():
    for seed in (1, 2, 3):
        lat = random_potential(3, (6, 12), seed).lattice
        pts = {tuple(p) for p in lat.points}
        seen = {next(iter(sorted(pts)))}
        frontier = list(seen)
        eye = np.eye(3, dtype=int)
        while frontier:
            p = frontier.pop()
            for e in np.vstack([eye, -eye]):
                q = tuple(np.add(p, e))
                if q in pts and q not in seen:
                    seen.add(q)
                    frontier.append(q)
        assert seen == pts
