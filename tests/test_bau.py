"""Tail-projection certificates checked against scalar oracles."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncergo import bau
from ncergo.algebra import Algebra, Box, lp_norm, trace
from ncergo.averages import AverageFamily
from ncergo.bau import (
    BauCertificate,
    certify_bau,
    certify_bau_complex,
    onset_ladder,
    tail_box,
)
from ncergo.errors import IntegrityError, StructuralError


def diag_family(alg, box, rows):
    # rows: list of diagonal vectors, one per box index in lex order
    data = np.stack([alg.vec(alg.element([np.diag(np.asarray(v, dtype=complex))]))
                     for v in rows])
    return AverageFamily(alg, box, data.reshape(box.shape + (alg.basis_size,)),
                         "synthetic")


def scalar_certificate(vectors, weight, p, eps):
    # independent scalar route for diagonal residual families
    top = np.max(np.abs(np.stack(vectors)), axis=0)
    norm = (weight * np.sum(top**p)) ** (1.0 / p)
    lam = norm / eps ** (1.0 / p)
    dropped = top > lam
    return lam, weight * dropped.sum(), top[~dropped].max() if (~dropped).any() else 0.0


# ---------------------------------------------------------------------------
# index shells

def test_tail_box():
    alg = Algebra((2,))
    rows = [[0.0, 0.0]] * 8
    fam = diag_family(alg, Box((1,), (8,)), rows)
    tb = tail_box(fam, 4)
    assert tb.lower == (4,) and tb.upper == (8,)


# ---------------------------------------------------------------------------
# trivial and oracle-checked certificates

def test_zero_residuals_certify_trivially():
    alg = Algebra((3,))
    fam = diag_family(alg, Box((1,), (5,)), [[0.0] * 3] * 5)
    cert = certify_bau(fam, p=2.0, epsilon=0.01)
    assert cert.sound
    assert cert.trace_complement == 0.0
    assert cert.tail_sup == 0.0
    assert trace(cert.e.element) == pytest.approx(3.0)


def test_diagonal_residuals_match_scalar_oracle():
    # one spiked coordinate, three decaying ones; small block weight makes
    # dropping the spike affordable within the trace budget
    w = 0.004
    alg = Algebra((4,), (w,))
    ns = list(range(1, 9))
    decay = np.array([0.2, 0.1, 0.05])
    rows = [list(decay / n) + [5.0] for n in ns]
    fam = diag_family(alg, Box((1,), (8,)), rows)
    eps, p = 0.01, 2.0
    cert = certify_bau(fam, p=p, epsilon=eps)
    lam, comp, tail = scalar_certificate([np.asarray(r) for r in rows], w, p, eps)
    assert cert.lam == pytest.approx(lam, rel=1e-12)
    assert cert.trace_complement == pytest.approx(comp, abs=1e-14)
    assert cert.tail_sup == pytest.approx(tail, abs=1e-10)
    assert cert.sound
    # the projection keeps exactly the three decaying coordinates
    assert trace(cert.e.element) == pytest.approx(3.0 * w, abs=1e-14)
    assert cert.dominant_norm == pytest.approx((w * ((decay**2).sum() + 25.0)) ** 0.5,
                                               rel=1e-10)


def test_rank_one_decay_exact():
    # r_n = P / n on the tail [m, 16]: the +- dominant is P / m
    alg = Algebra((3,), (0.05,))
    pvec = np.array([1.0, 0.0, 0.0])
    rows = [list(pvec / n) for n in range(1, 17)]
    fam = diag_family(alg, Box((1,), (16,)), rows)
    certs = onset_ladder(fam, p=2.0, epsilon=0.04, onsets=(1, 2, 4, 8))
    for cert, m in zip(certs, (1, 2, 4, 8)):
        want_norm = (0.05 * (1.0 / m) ** 2) ** 0.5
        assert cert.dominant_norm == pytest.approx(want_norm, rel=1e-10)
        assert cert.onset == m
    lams = [c.lam for c in certs]
    assert all(a >= b for a, b in zip(lams, lams[1:]))


def test_epsilon_validation():
    alg = Algebra((2,))
    fam = diag_family(alg, Box((1,), (4,)), [[0.1, 0.1]] * 4)
    with pytest.raises(ValueError):
        certify_bau(fam, p=2.0, epsilon=5.0)  # exceeds tau(1)
    with pytest.raises(ValueError):
        certify_bau(fam, p=2.0, epsilon=-0.1)
    with pytest.raises(ValueError):
        certify_bau(fam, p=1.0, epsilon=0.01)


def test_non_hermitian_redirects():
    alg = Algebra((2,))
    data = np.zeros((4, alg.basis_size), dtype=complex)
    data[:, 1] = 0.5  # strictly upper entry: not hermitian
    fam = AverageFamily(alg, Box((1,), (4,)), data, "synthetic")
    with pytest.raises(StructuralError, match="certify_bau_complex"):
        certify_bau(fam, p=2.0, epsilon=0.01)


# ---------------------------------------------------------------------------
# complex residuals

def test_complex_split_certificate():
    w = 0.01
    alg = Algebra((3,), (w,))
    ns = range(1, 9)
    rows = []
    for n in ns:
        m = np.diag([0.2 / n, 0.1 / n, 4.0]).astype(complex)
        m[0, 1] = 0.05j / n
        m[1, 0] = 0.05j / n  # makes the element non-hermitian
        rows.append(alg.vec(alg.element([m])))
    fam = AverageFamily(alg, Box((1,), (8,)), np.stack(rows), "synthetic")
    cert = certify_bau_complex(fam, p=2.0, epsilon=0.02)
    assert cert.sound
    assert cert.trace_complement <= 0.02 + 1e-14
    # measured sup on the untouched complex residuals stays below lam
    assert cert.tail_sup <= cert.lam + 1e-10


def test_complex_real_fast_path():
    alg = Algebra((2,), (0.5,))
    rows = [[0.2 / n, 0.1 / n] for n in range(1, 9)]
    fam = diag_family(alg, Box((1,), (8,)), rows)
    cert = certify_bau_complex(fam, p=2.0, epsilon=0.1)
    assert any("negligible" in f for f in cert.flags)
    assert cert.sound


# ---------------------------------------------------------------------------
# onset ladders

def test_onset_ladder_orders_and_skips():
    alg = Algebra((2,), (0.5,))
    rows = [[0.3 / n, 0.2 / n] for n in range(1, 9)]
    fam = diag_family(alg, Box((1,), (8,)), rows)
    certs = onset_ladder(fam, p=2.0, epsilon=0.05, onsets=(4, 1, 4, 99))
    assert [c.onset for c in certs] == [1, 4]  # sorted, deduped, 99 skipped
    assert certs[0].lam >= certs[1].lam
    assert all(c.sound for c in certs)


@pytest.mark.parametrize("route", ["certify_bau", "split", "real part", "onset_ladder"])
def test_unsound_certificate_raises(monkeypatch, route):
    # a tail sup that no bound covers must never come back as a certificate
    alg = Algebra((2,), (0.5,))
    fam = diag_family(alg, Box((1,), (8,)), [[0.3 / n, 0.2 / n] for n in range(1, 9)])
    data = fam.raw().copy()
    data[:, 1] = 0.05j  # non-Hermitian: certify_bau_complex splits it
    split = AverageFamily(alg, fam.box, data, "synthetic")
    run = {
        "certify_bau": lambda: certify_bau(fam, p=2.0, epsilon=0.05),
        "split": lambda: certify_bau_complex(split, p=2.0, epsilon=0.05),
        "real part": lambda: certify_bau_complex(fam, p=2.0, epsilon=0.05),
        "onset_ladder": lambda: onset_ladder(fam, p=2.0, epsilon=0.05, onsets=(1, 4)),
    }[route]
    flag = {"split": "complex residuals split", "real part": "imaginary part negligible"}
    assert route not in flag or any(flag[route] in f for f in run().flags)
    monkeypatch.setattr(bau, "_compressed_sup", lambda *args: np.inf)
    with pytest.raises(IntegrityError, match="failed re-verification"):
        run()


def test_soundness_property_is_consistent():
    alg = Algebra((2,), (0.5,))
    rows = [[0.3 / n, 0.2 / n] for n in range(1, 9)]
    fam = diag_family(alg, Box((1,), (8,)), rows)
    cert = certify_bau(fam, p=2.0, epsilon=0.05)
    clone = BauCertificate(
        e=cert.e, epsilon=cert.epsilon, lam=cert.lam / 1000.0, p=cert.p,
        onset=cert.onset, tail_sup=cert.tail_sup, dominant_norm=cert.dominant_norm,
        trace_complement=cert.trace_complement, tail_size=cert.tail_size,
    )
    assert cert.sound and not clone.sound


# ---------------------------------------------------------------------------
# exact trace complements, the hermiticity gate, and soundness at random

def test_full_projection_reports_exact_zero_complement():
    # non-diagonal residuals h / n: e = 1, whose blocks V V* are the identity
    # only up to rounding; tau(1 - e) comes from ranks, so it is exactly 0
    rng = np.random.default_rng(1)
    alg = Algebra((4,))
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h = (g + g.conj().T) / 4
    data = np.stack([alg.vec(alg.element([h / n])) for n in range(1, 9)])
    fam = AverageFamily(alg, Box((1,), (8,)), data, "synthetic")
    cert = certify_bau(fam, p=2.0, epsilon=0.5)
    assert np.linalg.matrix_rank(cert.e.element.blocks[0]) == 4
    assert cert.trace_complement == 0.0
    assert cert.sound
    comp = certify_bau_complex(fam, p=2.0, epsilon=0.5)
    assert comp.trace_complement == 0.0


def deviation_family(delta):
    # member 3 of 4 gets an upper-triangle-only entry delta: its deviation
    # |x - x*| is exactly delta, its largest entry stays 2.0
    alg = Algebra((2,))
    data = np.zeros((4, alg.basis_size), dtype=complex)
    data[:, 0] = [2.0, 1.0, 0.5, 0.25]
    data[:, 3] = [0.5, 0.1, 2.0, 0.5]
    data[2, 1] = delta
    return AverageFamily(alg, Box((1,), (4,)), data, "synthetic")


def test_hermiticity_gate_is_per_member():
    # the rule: dev_k <= 1e-8 * scale * (1 + max_abs_k), scale = 1 + max_k max_abs_k
    limit = 1e-8 * 3.0 * (1.0 + 2.0)
    assert certify_bau(deviation_family(limit * (1 - 1e-6)), p=2.0, epsilon=0.5).sound
    with pytest.raises(StructuralError, match="certify_bau_complex"):
        certify_bau(deviation_family(limit * (1 + 1e-6)), p=2.0, epsilon=0.5)


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(
    shape=st.sampled_from((((2,), (1.0,)), ((3,), (0.2,)), ((2, 1), (0.5, 0.1)))),
    n=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
    eps_frac=st.floats(0.01, 0.9),
)
def test_returned_certificates_are_sound(shape, n, seed, eps_frac):
    dims, weights = shape
    alg = Algebra(dims, weights)
    rng = np.random.default_rng(seed)
    rows = []
    for k in range(1, n + 1):
        x = alg.random_element(rng, kind="hermitian")
        rows.append(alg.vec(x) / k)
    fam = AverageFamily(alg, Box((1,), (n,)), np.stack(rows), "synthetic")
    eps = eps_frac * alg.total_trace()
    cert = certify_bau(fam, p=2.0, epsilon=eps)
    assert cert.sound
    ranks = [np.linalg.matrix_rank(b, tol=1e-6) for b in cert.e.element.blocks]
    assert cert.trace_complement == sum(
        w * (d - r) for w, d, r in zip(weights, dims, ranks))
    assert cert.tail_sup <= cert.lam + 1e-10


# ---------------------------------------------------------------------------
# the dominant's lift: only a shortfall beyond rounding is lifted and flagged

def shifted_dominant(monkeypatch, shift_of):
    """Make certify's solves return their dominant moved by shift_of(rep) * 1."""
    solve = bau.dominant_element
    shifted = []

    def solve_shifted(*args, **kwargs):
        rep = solve(*args, **kwargs)
        shift = shift_of(rep)
        rep = dataclasses.replace(
            rep, dominant=rep.dominant + kwargs["algebra"].scalar(shift),
            feasibility_margin=rep.feasibility_margin + shift)
        shifted.append(rep)
        return rep

    monkeypatch.setattr(bau, "dominant_element", solve_shifted)
    return shifted


def random_residuals(dims, n, seed):
    alg = Algebra(dims)
    rng = np.random.default_rng(seed)
    rows = [alg.vec(alg.random_element(rng, kind="hermitian")) / k for k in range(1, n + 1)]
    return AverageFamily(alg, Box((1,), (n,)), np.stack(rows), "synthetic")


def test_margin_within_rounding_is_not_lifted(monkeypatch):
    fam = random_residuals((3, 2), 12, 4)
    shifted = shifted_dominant(
        monkeypatch, lambda rep: -0.5 * rep.margin_pad - rep.feasibility_margin)
    cert = certify_bau(fam, p=2.0, epsilon=0.1)
    (rep,) = shifted
    assert -rep.margin_pad < rep.feasibility_margin < 0.0
    assert not any("lifted" in f for f in cert.flags)
    assert cert.dominant_norm == lp_norm(rep.dominant, 2.0)


def test_shortfall_beyond_rounding_is_lifted_and_flagged(monkeypatch):
    fam = random_residuals((3, 2), 12, 4)
    shifted = shifted_dominant(monkeypatch, lambda rep: -1e-6)
    cert = certify_bau(fam, p=2.0, epsilon=0.1)
    (rep,) = shifted
    assert rep.feasibility_margin < -rep.margin_pad
    lift = -rep.feasibility_margin
    assert f"dominant lifted by {lift:.3g} to restore exact feasibility" in cert.flags
    assert cert.dominant_norm == lp_norm(rep.dominant + fam.algebra.scalar(lift), 2.0)
    assert cert.sound


def test_capped_solve_marks_the_certificate_unconverged():
    fam = random_residuals((3, 2), 12, 4)
    assert certify_bau(fam, p=2.0, epsilon=0.1).converged
    cert = certify_bau(fam, p=2.0, epsilon=0.1, max_iter=1)
    assert not cert.converged and cert.sound
    assert "bound not tight: dominant solve hit the iteration cap" in cert.flags
