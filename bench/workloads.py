"""Scenario configs for the three benchmark workloads, made from a seed.

Each builder returns a plain config dict in the scenario schema; the program
only ever sees that dict (written to a file and parsed like `ncergo run`
would). `size="small"` gives the reduced variants the self-test runs.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

DEFAULT_SEED = 20260815
WORKLOADS = ("pinch_run", "rate_d2_certify", "large_grid")


def _load(root: Path, name: str) -> dict:
    return json.loads((root / "configs" / name).read_text())


def pinch_run(root: Path, seed: int, size: str = "full") -> dict:
    """configs/pinch_trig_d2.json as it stands, with the given seed."""
    data = _load(root, "pinch_trig_d2.json")
    data["seed"] = int(seed)
    if size == "small":
        data["box"] = {"upper": [16, 16]}
        data["cutoffs"] = [4, 8]
        data["certify"] = {"epsilon": 0.01, "onsets": [4, 8, 16]}
        data["besicovitch"] = {"epsilon": 0.05, "cutoff": [16, 16]}
    return data


def rate_d2_certify(root: Path, seed: int, size: str = "full") -> dict:
    """configs/rate_d2.json with every task but `maximal`.

    The maximal task is left out because its ratio ladder decreases on some
    seeds (the task then fails), so its failure count would depend on the
    seed; see CHANGES.md. Without it an interpolation block would be inert.
    """
    data = _load(root, "rate_d2.json")
    data["seed"] = int(seed)
    data["tasks"] = ["verify", "besicovitch", "average", "certify"]
    if size == "small":
        data["box"] = {"upper": [16, 16]}
        data["besicovitch"] = {"cutoff": [16, 16]}
    return data


def _complex_rows(mat: np.ndarray) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in mat]


def _random_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))[None, :]


def _block_unitary(rng: np.random.Generator, dims) -> dict:
    return {"blocks": [_complex_rows(_random_unitary(rng, d)) for d in dims]}


def large_grid(root: Path, seed: int, size: str = "full") -> dict:
    """Generated scenario: two blocks, two composite unital trace-preserving
    maps, a Besicovitch weight, and a box of about 128^2.

    T1 = w Ad(U) + (1 - w) pinching onto a random partition of the diagonal;
    T2 = sum_j p_j Ad(V_j), a Kraus map built from weighted unitaries.
    """
    del root
    dims, upper, onset = ((16, 8), 128, 32) if size == "full" else ((4, 3), 24, 24)
    rng = np.random.default_rng([int(seed), 0x6C67])
    n = sum(dims)
    coords = [int(c) for c in rng.permutation(n)]
    partition = [coords[i:i + 3] for i in range(0, n, 3)]
    w = float(rng.uniform(0.3, 0.7))
    probs = rng.uniform(0.5, 1.5, size=3)
    probs = probs / probs.sum()
    kraus_ops = [
        {"blocks": [_complex_rows(np.sqrt(p) * _random_unitary(rng, d))
                    for d in dims]}
        for p in probs
    ]
    phases = rng.uniform(0.05, 0.95, size=(2, 2))
    return {
        "name": "large-grid",
        "description": "generated: two blocks, composite maps, Besicovitch weight",
        "seed": int(seed),
        "algebra": {"block_dims": list(dims)},
        "contractions": [
            {
                "kind": "convex_combination",
                "terms": [
                    [w, {"kind": "scaled_unitary", "scale": 1.0,
                         "unitary": _block_unitary(rng, dims)}],
                    [1.0 - w, {"kind": "pinching",
                               "diagonal_partition": partition}],
                ],
            },
            {"kind": "kraus", "operators": kraus_ops},
        ],
        "weight": {
            "terms": [
                {"coefficient": 0.4, "phases_over_2pi": [0.0, 0.0]},
                {"coefficient": 0.25,
                 "phases_over_2pi": [float(v) for v in phases[0]]},
                {"coefficient": 0.15,
                 "phases_over_2pi": [float(v) for v in phases[1]]},
            ],
            "perturbation": {"kind": "inverse_min", "amplitude": 0.2,
                             "exponent": 1.0},
        },
        "element": {"mode": "random_positive", "scale": 1.0},
        "p": 2.0,
        "box": {"upper": [upper, upper]},
        "besicovitch": {"epsilon": 0.05, "cutoff": [upper, upper],
                        "onset": onset},
        "tasks": ["verify", "besicovitch", "average"],
    }


BUILDERS = {
    "pinch_run": pinch_run,
    "rate_d2_certify": rate_d2_certify,
    "large_grid": large_grid,
}


def build(name: str, root: Path, seed: int, size: str = "full") -> dict:
    return BUILDERS[name](root, seed, size)
