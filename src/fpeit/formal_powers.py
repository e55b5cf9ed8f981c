"""Recursive construction of formal powers on the radial mesh.

A formal power of degree n is produced by seeding a degree-0 combination
lambda*F + mu*G at the expansion center with the pair of index n (mod the
sequence period) and applying the pair integral n times, descending to pair
index 0 and multiplying by the degree at each step:

    Z^(0) at pair index n  --int,(n-1 pair)-->  ...  --int,(0 pair)-->  Z^(n).

Because the sequence period is at most 2, a single chain started at parity s
delivers all pair-0 powers of degrees d == s (mod 2): the degree-d
intermediate of that chain carries pair index (s - d) mod 2, which is 0
exactly when d and s share parity. Two chains (one per parity) therefore
produce the whole table in O(N) integrations per seed.
"""

from __future__ import annotations

import logging
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .errors import NumericalError, ValidationError
from .pseudoanalytic import (
    GeneratingPair,
    GeneratingSequence,
    RadialMesh,
    fg_integral,
    vekua_residual,
)

log = logging.getLogger(__name__)

RAY_BLOCK = 64  # rays per block of rim_traces; a block's chains stay cache-sized


@dataclass(frozen=True)
class FormalPowerTable:
    """Formal powers for seeds 1 and i at every mesh node, degrees 0..N."""

    N: int
    z0: complex
    mesh: RadialMesh
    Z1: np.ndarray  # (N+1, P, S+1) complex, seed 1
    Zi: np.ndarray  # (N+1, P, S+1) complex, seed i

    def re_trace(self, seed: str, n: int) -> np.ndarray:
        """Boundary trace Re Z^(n)(seed)|_Gamma at the ray endpoints."""
        Z = self.Z1 if seed == "1" else self.Zi
        return Z[n, :, -1].real.copy()


@dataclass(frozen=True)
class BoundarySystem:
    """Raw boundary traces with arc weights, in the canonical order."""

    theta: np.ndarray    # (P,)
    weights: np.ndarray  # (P,) closed-curve trapezoid arc weights
    raw: np.ndarray      # (M, P) rows are the raw trace functions
    labels: np.ndarray   # (M,) coefficient labels (slot N+1 reserved, absent)


def boundary_system(table: FormalPowerTable) -> BoundarySystem:
    """Real parts of the table's boundary traces in the canonical order.

    The N+1 seed-1 traces come first, then the N seed-i traces of degrees
    1..N (the degree-0 seed-i trace is identically zero on the boundary and
    is excluded). Labels reserve the slot of the excluded function: the
    seed-1 trace of degree n carries label n, the seed-i trace of degree n
    carries label N+1+n, so labels run over {0..N} u {N+2..2N+1}, which is
    the indexing the coefficient tables use.
    """
    N = table.N
    rows = [table.re_trace("1", n) for n in range(N + 1)]
    rows += [table.re_trace("i", n) for n in range(1, N + 1)]
    labels = list(range(N + 1)) + [N + 1 + n for n in range(1, N + 1)]
    return BoundarySystem(theta=table.mesh.theta.copy(),
                          weights=table.mesh.boundary_weights.copy(),
                          raw=np.asarray(rows, dtype=float),
                          labels=np.asarray(labels, dtype=int))


def degree_zero(pair: GeneratingPair, a0: complex, mesh: RadialMesh) -> np.ndarray:
    """Degree-0 power lambda*F + mu*G with real lambda, mu matching a0 at the center.

    The 2x2 real system is [Re F, Re G; Im F, Im G] (lambda, mu)^T =
    (Re a0, Im a0)^T at the center node; its determinant is Im(conj(F) G) > 0,
    so the pair condition guarantees solvability.
    """
    F0 = complex(pair.F[0, 0])
    G0 = complex(pair.G[0, 0])
    M = np.array([[F0.real, G0.real], [F0.imag, G0.imag]], dtype=float)
    det = np.linalg.det(M)
    if abs(det) < 1e-14:
        raise NumericalError(f"singular degree-0 system at the center (det={det:.3e})")
    lam, mu = np.linalg.solve(M, [complex(a0).real, complex(a0).imag])
    return lam * pair.F + mu * pair.G


def _check_finite(W: np.ndarray, degree: int, first_ray: int = 0):
    bad = ~np.isfinite(W)
    if bad.any():
        r, s = np.argwhere(bad)[0]
        raise NumericalError(f"non-finite formal power value at degree {degree}, "
                             f"ray {first_ray + r}, step {s}")


def formal_power_fields(seq: GeneratingSequence, mesh: RadialMesh, N: int,
                        seed: complex, rule: str = "cubic", first_ray: int = 0) -> np.ndarray:
    """Pair-0 formal powers Z^(0..N)(seed, z; z0) as an (N+1, P, S+1) array.

    ``first_ray`` is the index of the mesh's first ray in a larger mesh it
    was sliced from; error messages report rays by that global index.
    """
    if N < 0:
        raise ValidationError(f"N must be non-negative, got {N}")
    k = seq.period
    out = np.empty((N + 1,) + mesh.nodes.shape, dtype=complex)
    for start in range(min(k, N + 1)):
        # the chain seeded at pair index `start` delivers the pair-0 powers of
        # degrees d with (start - d) % k == 0, the last of them N - (N - start) % k
        W = degree_zero(seq.pair_for(start), seed, mesh)
        if start % k == 0:
            out[0] = W
        for d in range(1, N - (N - start) % k + 1):
            W = d * fg_integral(W, seq.pair_for(start - d), mesh, rule=rule)
            _check_finite(W, d, first_ray)
            if (start - d) % k == 0:
                out[d] = W
    return out


def build_table(seq: GeneratingSequence, mesh: RadialMesh, N: int,
                rule: str = "cubic") -> FormalPowerTable:
    """Build the full table for seeds 1 and i."""
    Z1 = formal_power_fields(seq, mesh, N, 1.0, rule=rule)
    Zi = formal_power_fields(seq, mesh, N, 1j, rule=rule)
    return FormalPowerTable(N=N, z0=mesh.z0, mesh=mesh, Z1=Z1, Zi=Zi)


def ray_workers(environ=os.environ) -> int:
    """Worker count for ``rim_traces``: the ``--threads`` cap, clamped to the usable cores.

    The cap is read from OMP_NUM_THREADS, which the console script sets for
    ``--threads K``; unset, invalid or 0 means every usable core.
    """
    cores = len(os.sched_getaffinity(0))
    try:
        cap = int(environ.get("OMP_NUM_THREADS", ""))
    except ValueError:
        cap = 0
    return min(cap, cores) if cap > 0 else cores


def rim_traces(seq: GeneratingSequence, mesh: RadialMesh, N: int,
               rule: str = "cubic") -> np.ndarray:
    """Raw boundary traces (2N+1, P) of the table on ``mesh``, without the table.

    Equals ``boundary_system(build_table(seq, mesh, N, rule)).raw`` bit for
    bit. Each block of RAY_BLOCK rays runs both seed chains on its slice of
    the mesh and sequence, writes its rim traces into its own columns and is
    dropped; blocks run on ``ray_workers()`` threads (numpy releases the GIL
    in the pair-integral kernels).
    """
    raw = np.empty((2 * N + 1, mesh.ray_count))

    def build_block(first: int):
        rays = slice(first, first + RAY_BLOCK)
        block_mesh = replace(mesh, theta=mesh.theta[rays], nodes=mesh.nodes[rays],
                             span=mesh.span[rays],
                             boundary_weights=mesh.boundary_weights[rays])
        block_seq = GeneratingSequence(period=seq.period, pairs=tuple(
            GeneratingPair(F=pair.F[rays], G=pair.G[rays], p_fn=pair.p_fn)
            for pair in seq.pairs))
        Z1 = formal_power_fields(block_seq, block_mesh, N, 1.0, rule=rule, first_ray=first)
        Zi = formal_power_fields(block_seq, block_mesh, N, 1j, rule=rule, first_ray=first)
        table = FormalPowerTable(N=N, z0=mesh.z0, mesh=block_mesh, Z1=Z1, Zi=Zi)
        raw[:, rays] = boundary_system(table).raw

    with ThreadPoolExecutor(max_workers=ray_workers()) as pool:
        # reading every result re-raises the error of a failed block here
        list(pool.map(build_block, range(0, mesh.ray_count, RAY_BLOCK)))
    return raw


def pseudoanalyticity_check(table: FormalPowerTable, p: np.ndarray,
                            keep: np.ndarray | None = None) -> np.ndarray:
    """Max interior Vekua residual of each degree (both seeds).

    ``p`` is the pair-0 field sqrt-of-conductivity sampled on the mesh.
    ``keep``, when given, is a boolean node mask restricting the check (used
    to stay clear of conductivity discontinuities, where the mesh
    finite differences see the jump rather than the equation).
    """
    mesh = table.mesh
    out = np.empty(table.N + 1)
    for n in range(table.N + 1):
        res = np.fmax(vekua_residual(table.Z1[n], p, mesh),
                      vekua_residual(table.Zi[n], p, mesh))
        res = res[:, 1:-1]
        if keep is not None:
            res = np.where(keep[:, 1:-1], res, np.nan)
        out[n] = float(np.nanmax(res))
    return out


def cells(values: np.ndarray) -> list[str]:
    """CSV cells of an array in C order: str for ints, %.17g (exact for float64) for floats."""
    if values.dtype.kind in "iu":
        return [str(v) for v in values.ravel().tolist()]
    return [f"{v:.17g}" for v in values.ravel().tolist()]


def rows(*columns) -> str:
    """CSV lines of equal-length columns of cells, unquoted and CRLF-ended like csv.writer's."""
    return "".join([",".join(row) + "\r\n" for row in zip(*columns)])


def write_csv(path, header, blocks):
    """Write a CSV artifact: the header line, then each block of ``rows`` text as it comes."""
    with open(path, "w", newline="") as fh:
        fh.write(rows(*zip(header)))  # one row of one-cell columns
        fh.writelines(blocks)


def write_powers_csv(table: FormalPowerTable, path):
    """Dump the table as degree,seed,ray,step,x,y,ReZ,ImZ rows, one block per (seed, degree)."""
    ray, step = np.indices(table.mesh.nodes.shape)
    node = [",".join(c) for c in zip(*map(cells, (ray, step, *table.mesh.xy())))]
    write_csv(path, ["degree", "seed", "ray", "step", "x", "y", "ReZ", "ImZ"],
              (rows([f"{n},{seed}"] * len(node), node, cells(Z[n].real), cells(Z[n].imag))
               for seed, Z in (("1", table.Z1), ("i", table.Zi)) for n in range(table.N + 1)))
    log.info("wrote %d rows (%.1f MB) of formal powers to %s", 2 * (table.N + 1) * len(node),
             os.path.getsize(path) / 1e6, path)
