"""What ``verify`` catches: each row breaks one piece of the construction, and
``run_verify`` must then exit 1 with the named family failed.

The pair rows patch ``pair_fields``, which both the sequence and the Cartesian
check read; the chain row patches ``_Chains.step``; the quadrature row patches
the operator that ``radial_mesh`` builds. The rows that ``verify`` passes today
are kept as strict xfails, so that the family which first catches one turns it
into a failure here and the mark must go.
"""
import json

import numpy as np
import pytest

from fpeit import pseudoanalytic
from fpeit.cli import run_verify
from fpeit.presets import config_from_dict

# verify reads only the basis, never a solve's interior; the mark expects the exit-code
# assertion to fail, so a row whose patch breaks the run shows as an error
UNCAUGHT = pytest.mark.xfail(strict=True, raises=AssertionError,
                             reason="verify has no family that reads the interior of a solve; "
                                    "ROADMAP item 2 adds one, on the solution basis of item 12")


def scaled_pairs(*factors):
    """Multiply pair j by factors[j](x, y)."""
    def patch(monkeypatch):
        original = pseudoanalytic.pair_fields

        def mutated(field, x, y):
            return tuple(p * f(x, y) for p, f in zip(original(field, x, y), factors))

        monkeypatch.setattr(pseudoanalytic, "pair_fields", mutated)
    return patch


def mapped_pairs(transform):
    """Replace the tuple of pairs by transform(pairs)."""
    def patch(monkeypatch):
        original = pseudoanalytic.pair_fields
        monkeypatch.setattr(pseudoanalytic, "pair_fields",
                            lambda field, x, y: transform(original(field, x, y)))
    return patch


def wrong_pair_step(monkeypatch):
    step = pseudoanalytic._Chains.step
    monkeypatch.setattr(pseudoanalytic._Chains, "step",
                        lambda self, k, d: step(self, (k + 1) % len(self.ps), d))


def noisy_quadrature(monkeypatch):
    chunk_operator = pseudoanalytic._chunk_operator

    def noisy(idx, w):
        lo, op = chunk_operator(idx, w)
        noise = np.random.default_rng(0).standard_normal(op.shape)
        return lo, op * (1.0 + 1e-3 * noise)

    monkeypatch.setattr(pseudoanalytic, "_chunk_operator", noisy)


def one(x, y):
    return 1.0


MUTATIONS = [
    pytest.param(scaled_pairs(lambda x, y: 1 + 1e-3 * x, lambda x, y: 1 + 1e-3 * x),
                 "successor_cartesian", id="both-pairs-times-1+1e-3x"),
    pytest.param(scaled_pairs(lambda x, y: 1 + 1e-3 * x, one),
                 "successor_cartesian", id="pair0-times-1+1e-3x"),
    pytest.param(scaled_pairs(one, lambda x, y: 1 + 1e-3 * y),
                 "successor_cartesian", id="pair1-times-1+1e-3y"),
    pytest.param(wrong_pair_step, "vekua_per_degree", id="chain-step-wrong-pair"),
    pytest.param(mapped_pairs(lambda ps: ps[::-1]), None, id="pairs-swapped",
                 marks=UNCAUGHT),
    pytest.param(mapped_pairs(lambda ps: tuple(p ** 2 for p in ps)), None, id="p-squared",
                 marks=UNCAUGHT),
    pytest.param(noisy_quadrature, None, id="quadrature-noise",
                 marks=UNCAUGHT),
]


@pytest.mark.parametrize("preset", ["sinusoidal", "lorentzian-0.5"])
@pytest.mark.parametrize("mutate, family", MUTATIONS)
def test_verify_fails_on_the_mutation(mutate, family, preset, monkeypatch, tmp_path):
    mutate(monkeypatch)
    code = run_verify(config_from_dict({"preset": preset}), tmp_path)
    failed = json.loads((tmp_path / "verify.json").read_text())["failed"]
    assert code == 1, failed
    if family is not None:
        assert family in failed
