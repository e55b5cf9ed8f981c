"""Radial meshes that ``radial_mesh`` does not build, kept as test oracles.

``radial_mesh`` builds one kind of mesh: uniform radial steps integrated by
the local-cubic cumulative rule. The kernel tests also run on the plain
cumulative trapezoid rule and on a radial grid graded toward the rim,
t = 1 - (1 - u)^g, so that nothing in the kernels can assume uniform steps
or the cubic stencil. ``oracle_mesh`` makes such a mesh from a
``radial_mesh`` by replacing its path parameters and its quadrature operator.
"""
import dataclasses

import numpy as np

from fpeit.pseudoanalytic import _chunk_operator, _cumulative_cubic_weights, radial_mesh


def graded_t(S, rim_grading):
    """(S+1,) path parameters 1 - (1 - u)^g on uniform u, clustered toward the rim for g > 1."""
    t = 1.0 - (1.0 - np.linspace(0.0, 1.0, S + 1)) ** rim_grading
    t[0], t[-1] = 0.0, 1.0
    return t


def trapezoid_stencil(t):
    """(idx, w) of the cumulative trapezoid rule: interval j averages its two end nodes."""
    j = np.arange(len(t) - 1)
    half = 0.5 * np.diff(t)
    return np.stack([j, j + 1], axis=1), np.stack([half, half], axis=1)


def oracle_mesh(P, S, *, rule="cubic", rim_grading=1.0, corner_angles=()):
    """``radial_mesh(P, S, corner_angles=...)`` on the grid of ``rim_grading``, integrating
    by ``rule`` ("cubic" or "trapezoid"); the production mesh itself for ("cubic", 1.0)."""
    mesh = radial_mesh(P, S, corner_angles=corner_angles)
    if (rule, rim_grading) == ("cubic", 1.0):
        return mesh
    t = mesh.t if rim_grading == 1.0 else graded_t(S, rim_grading)
    stencil = {"cubic": _cumulative_cubic_weights, "trapezoid": trapezoid_stencil}[rule](t)
    return dataclasses.replace(mesh, t=t, quadrature=_chunk_operator(*stencil))
