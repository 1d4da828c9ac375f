"""Weight sequences: evaluation, bounds, and mean-approximation audits."""

import math

import numpy as np
import pytest

from ncergo.algebra import Box
from ncergo.weights import (
    BesicovitchWeight,
    InverseMinDecay,
    PeriodicZeroMean,
    SeededNoise,
    TrigPolynomial,
    TrigTerm,
    declared_bound,
    default_ladder,
    eval_weight_box,
    kahan_cumsum,
    normalized,
    require_trig,
    sup_bound,
    verify_besicovitch,
    weight_dimension,
)
from ncergo.errors import ConfigError, IntegrityError, UnsupportedError


def harmonic(n):
    return float(np.sum(1.0 / np.arange(1, n + 1)))


def trig2():
    return TrigPolynomial(
        2,
        (
            TrigTerm(0.4 + 0.0j, (0.0, 0.0)),
            TrigTerm(0.3 + 0.1j, (2 * np.pi / 3, 0.8)),
            TrigTerm(0.2 + 0.0j, (0.5, 1.2)),
        ),
    )


# ---------------------------------------------------------------------------
# trig polynomials

def test_trig_eval_matches_naive():
    a = trig2()
    for k in [(1, 1), (2, 5), (7, 3), (40, 11)]:
        want = sum(
            t.coefficient * np.exp(1j * (t.phases[0] * k[0] + t.phases[1] * k[1]))
            for t in a.terms
        )
        assert a.eval(k) == pytest.approx(want, abs=1e-12)


def test_trig_eval_box_matches_pointwise():
    a = trig2()
    grid = eval_weight_box(a, (4, 5))
    assert grid.shape == (4, 5)
    for k1 in range(1, 5):
        for k2 in range(1, 6):
            assert grid[k1 - 1, k2 - 1] == pytest.approx(a.eval((k1, k2)), abs=1e-12)


def test_trig_metadata():
    a = trig2()
    assert weight_dimension(a) == 2
    assert a.coefficient_bound() == pytest.approx(abs(0.4) + abs(0.3 + 0.1j) + 0.2)
    assert declared_bound(a) == pytest.approx(a.coefficient_bound())
    b = a.scaled(0.5)
    assert b.eval((3, 4)) == pytest.approx(0.5 * a.eval((3, 4)), abs=1e-14)


def test_trig_validation():
    with pytest.raises(ValueError):
        TrigPolynomial(0, ())
    with pytest.raises(ValueError):
        TrigPolynomial(2, (TrigTerm(1.0 + 0j, (0.1,)),))  # phase arity mismatch
    c = TrigPolynomial.constant(2, 0.4)
    assert c.eval((9, 17)) == pytest.approx(0.4)


def test_normalized_bound_is_one():
    a = trig2()
    b = normalized(a)
    assert declared_bound(b) == pytest.approx(1.0)
    assert b.eval((2, 2)) == pytest.approx(a.eval((2, 2)) / a.coefficient_bound())


def test_require_trig():
    a = trig2()
    assert require_trig(a) is a
    w = BesicovitchWeight(a, InverseMinDecay(0.1), bound=declared_bound(a) + 0.1)
    with pytest.raises(UnsupportedError):
        require_trig(w)


# ---------------------------------------------------------------------------
# perturbation rules

def test_periodic_zero_mean():
    table = np.array([0.5, -0.25, -0.25])
    pz = PeriodicZeroMean(table)
    # 1-based lattice index wraps through the table period
    assert [pz.eval((k,)) for k in range(1, 7)] == pytest.approx(
        [0.5, -0.25, -0.25, 0.5, -0.25, -0.25]
    )
    assert pz.sup_bound() == pytest.approx(0.5)
    # tables are centered so the period mean is exactly zero
    centered = PeriodicZeroMean(np.array([1.0, 0.0]))
    assert centered.eval((1,)) == pytest.approx(0.5)
    assert centered.eval((2,)) == pytest.approx(-0.5)


def test_inverse_min_decay():
    rule = InverseMinDecay(0.6, exponent=1.0)
    assert rule.eval((4,)) == pytest.approx(0.15)
    assert rule.eval((2, 8)) == pytest.approx(0.3)
    assert rule.sup_bound() == pytest.approx(0.6)
    with pytest.raises(ValueError):
        InverseMinDecay(0.5, exponent=0.0)


def test_seeded_noise_is_stateless():
    sn = SeededNoise(42, 0.25, exponent=0.5)
    v1 = sn.eval((3, 9))
    v2 = sn.eval((3, 9))
    assert v1 == v2
    assert abs(v1) <= 0.25 / np.sqrt(3) + 1e-15
    # grid evaluation agrees with scalar evaluation in any order
    grid = sn.eval_box((4, 4))
    for k1 in range(4, 0, -1):
        for k2 in range(4, 0, -1):
            assert grid[k1 - 1, k2 - 1] == pytest.approx(sn.eval((k1, k2)), abs=0.0)
    assert SeededNoise(43, 0.25).eval((3, 9)) != v1


# ---------------------------------------------------------------------------
# bound audits

def test_sup_bound_honest():
    a = trig2()
    assert sup_bound(a, Box.full((8, 8))) <= a.coefficient_bound() + 1e-12


def test_sup_bound_catches_lying_declaration():
    base = TrigPolynomial(1, (TrigTerm(1.0 + 0j, (0.0,)),))
    lying = BesicovitchWeight(base, InverseMinDecay(0.5), bound=1.01)
    # actual sup near k=1 is 1.5 > declared 1.01
    with pytest.raises(IntegrityError):
        sup_bound(lying, Box.full((16,)))


# ---------------------------------------------------------------------------
# mean-approximation audit with closed-form oracles

def test_discrepancy_matches_harmonic_oracle_d1():
    # weight = base + c/k with declared approximant = base, so the audit
    # deviation over [1, n] is exactly c * H_n / n
    c = 0.6
    base = TrigPolynomial(1, (TrigTerm(0.7 + 0j, (0.9,)),))
    w = BesicovitchWeight(base, InverseMinDecay(c), bound=0.7 + c,
                          approximants=((0.05, base),))
    rep = verify_besicovitch(w, 0.05, (64,), ladder=[(8,), (16,), (64,)])
    for row in rep.rows:
        n = row.upper[0]
        assert row.discrepancy == pytest.approx(c * harmonic(n) / n, rel=1e-12)


def test_discrepancy_matches_harmonic_oracle_d2():
    # square boxes: sum over [1,n]^2 of 1/min(k) equals (2n+1)H_n - 2n
    c = 0.2
    base = TrigPolynomial(2, (TrigTerm(0.5 + 0j, (0.3, 0.4)),))
    w = BesicovitchWeight(base, InverseMinDecay(c), bound=0.5 + c,
                          approximants=((0.05, base),))
    rep = verify_besicovitch(w, 0.05, (32, 32), ladder=[(8, 8), (32, 32)])
    for row in rep.rows:
        n = row.upper[0]
        want = c * ((2 * n + 1) * harmonic(n) - 2 * n) / n**2
        assert row.discrepancy == pytest.approx(want, rel=1e-12)


def test_besicovitch_onset_detection():
    # D(N) = 0.6 H_N / N crosses eps = 0.05 between N = 32 and N = 64
    c = 0.6
    base = TrigPolynomial(1, (TrigTerm(0.4 + 0j, (0.0,)),))
    w = BesicovitchWeight(base, InverseMinDecay(c), bound=1.0 + c,
                          approximants=((0.05, base),))
    rep = verify_besicovitch(w, 0.05, (256,))
    # early rungs exceed eps, so the default onset of 1 does not pass, but
    # the report names the rung from which every later one does
    assert not rep.passed
    assert rep.onset_observed is not None
    assert 32 < rep.onset_observed <= 128
    assert rep.finite_box_evidence
    again = verify_besicovitch(w, 0.05, (256,), onset=rep.onset_observed)
    assert again.passed
    # an impossible accuracy level is reported as not passed, not raised
    w2 = BesicovitchWeight(base, InverseMinDecay(c), bound=1.0 + c,
                           approximants=((1e-9, base),))
    rep2 = verify_besicovitch(w2, 1e-9, (64,))
    assert not rep2.passed


def test_besicovitch_exact_approximant_gives_zero():
    a = trig2()
    w = BesicovitchWeight(a, None, bound=declared_bound(a), approximants=((0.01, a),))
    rep = verify_besicovitch(w, 0.01, (8, 8))
    assert rep.passed
    assert all(r.discrepancy <= 1e-14 for r in rep.rows)
    assert rep.onset_observed == 1


# ---------------------------------------------------------------------------
# helpers

def test_default_ladder_shape():
    assert default_ladder((8,)) == [(1,), (2,), (4,), (8,)]
    assert default_ladder((6, 10)) == [(1, 1), (2, 2), (4, 4), (6, 8), (6, 10)]


def test_kahan_cumsum_matches_numpy():
    rng = np.random.default_rng(3)
    arr = rng.standard_normal((5, 7))
    out = kahan_cumsum(arr, axis=1)
    assert np.abs(out - np.cumsum(arr, axis=1)).max() < 1e-12


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_kahan_cumsum_matches_fsum_over_a_million_terms(kind):
    # positive terms over six decades: plain np.cumsum drifts to ~1e-14
    # relative by the last prefix, the compensated sum must stay at 1 ulp
    rng = np.random.default_rng(20260815)
    n = 10**6
    terms = 10.0 ** rng.uniform(-3, 3, size=n)
    if kind == "complex":
        terms = terms * np.exp(1j * rng.uniform(0.0, 0.5, size=n))
    out = kahan_cumsum(terms, axis=0)
    assert out.shape == terms.shape and out.dtype == terms.dtype
    for k in (1, 10, 10**3, 10**5, 10**6):
        head = terms[:k]
        ref = complex(math.fsum(head.real.tolist()), math.fsum(head.imag.tolist()))
        assert abs(complex(out[k - 1]) - ref) <= 2.0**-52 * abs(ref)
    if kind == "complex":  # its two parts cover the real case as well
        # the same sum in 7 uneven chunks, each written in place and carrying
        # (total, compensation) from the chunk before, equals one call bit
        # for bit
        cuts = [0, 1, 2, 17, 4_096, 250_001, 999_999, n]
        chunked = terms.copy()
        carry = []
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            part = chunked[lo:hi]
            kahan_cumsum(part, axis=0, out=part, carry=carry)
        assert chunked.tobytes() == out.tobytes()
