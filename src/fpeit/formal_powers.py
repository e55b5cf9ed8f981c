"""Recursive construction of formal powers on the radial mesh.

Every generating pair is (p, i/p), held as its field p. A formal power of
degree n with seed a is produced by seeding the degree-0 power
lambda p + i mu / p, with the real constants lambda = Re a / p0 and
mu = p0 Im a (p0 the value of p at the origin), at the pair of index n
(mod the sequence period) and applying the pair integral n times,
descending to pair index 0 and multiplying by the degree at each step:

    Z^(0) at pair index n  --int,(n-1 pair)-->  ...  --int,(0 pair)-->  Z^(n).

Because the sequence period is at most 2, a single chain started at parity s
delivers all pair-0 powers of degrees d == s (mod 2): the degree-d
intermediate of that chain carries pair index (s - d) mod 2, which is 0
exactly when d and s share parity. Two chains (one per parity) therefore
produce the whole table in O(N) integrations per seed.

The chains run in real arithmetic, on the pair-integral kernel
``pseudoanalytic._Chains``. Every power is W = p A + i B / p with two real
fields A, B: the running integrals of the pair integral that produced it
(for degree 0, the constants lambda, mu).
The integrands of the next integral are linear in (A, B), with per-node
coefficients that depend only on the two pairs involved and the ray span,
so they are built once per mesh and shared by every seed. The chains of
all requested seeds are stacked in one state and advance together, one
blocked quadrature product per degree, with the degree folded into the
mesh's ray quadrature operator (``RadialMesh.quadrature``).

Z^(n)(a) is real-linear in the seed a, and so is each pair integral, so a
combination sum_n Z^(n)(a_n) is one chain of N steps, run by Horner's rule
from degree N down (``fitted_field``).

The solver reads only the boundary traces (``rim_traces``) and the fitted
combination (``fitted_field``). Both take the conductivity field: a worker
builds each ray block's nodes, sequence and chains (``_over_ray_blocks``).
The full table (``build_table``) is built only for the ``powers.csv`` dump,
which writes every entry. The ``verify`` Vekua residuals
(``pseudoanalyticity_check``) run the chains themselves and check each
degree as it is produced, so they build no table either.
"""

from __future__ import annotations

import logging
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .conductivity import ConductivityField
from .errors import ValidationError
from .pseudoanalytic import GeneratingSequence, RadialMesh, _Chains, _vekua_operator, build_sequence

log = logging.getLogger(__name__)

# Rays per block of rim_traces; a block's chains stay cache-sized. It must be
# even for rim_traces to match build_table bit for bit: OpenBLAS rounds the
# last 1-4 columns of a product whose width is not a multiple of 8 differently,
# and with 4 columns per ray only the last block, which ends like the whole
# mesh, can have such a width.
RAY_BLOCK = 64


@dataclass(frozen=True)
class FormalPowerTable:
    """Formal powers for seeds 1 and i at every mesh node, degrees 0..N."""

    N: int
    mesh: RadialMesh
    Z1: np.ndarray  # (N+1, P, S+1) complex, seed 1
    Zi: np.ndarray  # (N+1, P, S+1) complex, seed i


@dataclass(frozen=True)
class BoundarySystem:
    """Raw boundary traces with arc weights, in the canonical order."""

    theta: np.ndarray    # (P,)
    weights: np.ndarray  # (P,) closed-curve trapezoid arc weights
    raw: np.ndarray      # (M, P) rows are the raw trace functions
    labels: np.ndarray   # (M,) coefficient labels (slot N+1 reserved, absent)


def _power_tables(seq: GeneratingSequence, mesh: RadialMesh, N: int, seeds) -> np.ndarray:
    """Pair-0 formal powers of every seed, as a (seeds, N+1, P, S+1) array."""
    if N < 0:
        raise ValidationError(f"N must be non-negative, got {N}")
    out = np.empty((len(seeds), N + 1, mesh.ray_count, mesh.step_count + 1), dtype=complex)
    p = seq.pair_for(0).p
    for d, A, B in _Chains([pair.p for pair in seq.pairs], mesh, seeds).powers(N):
        _pair_zero_powers(A, B, p, out[:, d])
    return out


def _pair_zero_powers(A, B, p: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write Z = p A + i B / p of every seed into ``out`` (seeds, P, S+1) and return it,
    from the steps-first (S+1, seeds, P) A and B of ``_Chains.powers`` at a pair-0 degree."""
    # write along the contiguous steps axis; read the steps-first state transposed
    np.multiply(A.transpose(1, 2, 0), p, out=out.real)
    np.divide(B.transpose(1, 2, 0), p, out=out.imag)
    return out


def formal_power_fields(seq: GeneratingSequence, mesh: RadialMesh, N: int,
                        seed: complex) -> np.ndarray:
    """Pair-0 formal powers Z^(0..N)(seed, z; 0) about the origin, as an (N+1, P, S+1) array."""
    return _power_tables(seq, mesh, N, (seed,))[0]


def build_table(seq: GeneratingSequence, mesh: RadialMesh, N: int,
                rule: str | None = None) -> FormalPowerTable:
    """Build the full table for seeds 1 and i, both seeds' chains in one pass.

    ``rule`` stays only because ``perfbench/gate.py`` passes it; it must be None or "cubic"."""
    if rule is not None and rule != "cubic":
        raise ValidationError(f"rule {rule!r} is not the mesh's quadrature rule 'cubic'")
    Z1, Zi = _power_tables(seq, mesh, N, (1.0, 1j))
    return FormalPowerTable(N=N, mesh=mesh, Z1=Z1, Zi=Zi)


def ray_workers(environ=os.environ) -> int:
    """Worker count for ``rim_traces``: the ``--threads`` cap, clamped to the usable cores.

    The cap is read from OMP_NUM_THREADS, which the console script and
    ``python -m fpeit`` set for ``--threads K``; unset, invalid or 0 means
    every usable core.
    """
    cores = len(os.sched_getaffinity(0))
    try:
        cap = int(environ.get("OMP_NUM_THREADS", ""))
    except ValueError:
        cap = 0
    return min(cap, cores) if cap > 0 else cores


def _over_ray_blocks(field: ConductivityField, mesh: RadialMesh, seeds, run):
    """Call ``run(rays, chains)`` on ``ray_workers()`` threads for every block of RAY_BLOCK
    rays, ``chains`` holding the chains of ``seeds`` on the block's slice of the mesh.

    The worker builds the block's nodes, its sequence on them and its chains, so no
    array spans every ray. ``run`` reads the period and p fields from ``chains``: a
    block may find period 1 where the whole mesh has period 2.
    """
    def block(first: int):
        rays = slice(first, first + RAY_BLOCK)
        block_mesh = replace(mesh, theta=mesh.theta[rays],
                             boundary_weights=mesh.boundary_weights[rays])
        seq = build_sequence(field, block_mesh)
        run(rays, _Chains([pair.p for pair in seq.pairs], block_mesh, seeds, first))

    with ThreadPoolExecutor(max_workers=ray_workers()) as pool:
        # reading every result re-raises the error of a failed block here
        list(pool.map(block, range(0, mesh.ray_count, RAY_BLOCK)))


def rim_traces(field: ConductivityField, mesh: RadialMesh, N: int) -> BoundarySystem:
    """Real parts of the boundary traces of the formal powers on ``mesh``, without the table.

    The N+1 seed-1 traces come first, then the N seed-i traces of degrees
    1..N (the degree-0 seed-i trace is identically zero on the boundary and
    is excluded). Labels reserve the slot of the excluded function: the
    seed-1 trace of degree n carries label n, the seed-i trace of degree n
    carries label N+1+n, so labels run over {0..N} u {N+2..2N+1}, which is
    the indexing the coefficient tables use. Each ray block runs the chains
    of both seeds, keeps only Re Z = p A at the rim and is dropped.
    """
    raw = np.empty((2 * N + 1, mesh.ray_count))

    def traces(rays: slice, chains: _Chains):
        p_rim = chains.ps[0][:, -1]
        for d, A, _ in chains.powers(N):
            raw[d, rays] = A[-1, 0] * p_rim
            if d:
                raw[N + d, rays] = A[-1, 1] * p_rim

    _over_ray_blocks(field, mesh, (1.0, 1j), traces)
    return BoundarySystem(theta=mesh.theta.copy(), weights=mesh.boundary_weights.copy(),
                          raw=raw, labels=np.r_[0:N + 1, N + 2:2 * N + 2])


def fitted_field(field: ConductivityField, mesh: RadialMesh, N: int, a,
                 rim: bool = False) -> np.ndarray:
    """Re sum_n Z^(n)(a_n) at every node of ``mesh``, a (P, S+1) array, without the table;
    with ``rim``, only its rim column, a (P,) array.

    The sum is one chain, run by Horner's rule on a single-seed state per
    ray block: Z0(a_0) + 1 I_0(Z0(a_1) + 2 I_1(Z0(a_2) + ...)), with Z0(a)
    at pair index j the degree-0 power of seed a and I_j the pair-j integral.
    """
    S = mesh.step_count
    steps = S if rim else slice(0, S + 1)
    out = np.empty(mesh.ray_count if rim else (mesh.ray_count, S + 1))

    def horner(rays: slice, chains: _Chains):
        k = len(chains.ps)
        chains.state[:] = 0.0
        chains.add_degree_zero(N % k, (a[N],))
        for d in range(N, 0, -1):
            chains.step(d % k, d)
            chains.add_degree_zero((d - 1) % k, (a[d - 1],))
        out[rays] = chains.state[steps, 0, 0].T * chains.ps[0][:, steps]

    _over_ray_blocks(field, mesh, (a[N],), horner)
    return out


def pseudoanalyticity_check(seq: GeneratingSequence, mesh: RadialMesh, N: int) -> np.ndarray:
    """Max interior Vekua residual of each degree 0..N (both seeds), with the pair-0 b.

    The chains of seeds 1 and i run here, and each degree is checked as it is
    produced, in one (2, P, S+1) buffer reused across degrees: no table is built.
    """
    p = seq.pair_for(0).p
    residual = _vekua_operator(p, mesh)
    Z = np.empty((2, mesh.ray_count, mesh.step_count + 1), dtype=complex)
    out = np.empty(N + 1)
    for d, A, B in _Chains([pair.p for pair in seq.pairs], mesh, (1.0, 1j)).powers(N):
        Z1, Zi = _pair_zero_powers(A, B, p, Z)
        out[d] = float(np.nanmax(np.fmax(residual(Z1), residual(Zi))[:, 1:-1]))
    return out


def rows(*columns) -> str:
    """CSV lines of equal-length columns, unquoted and CRLF-ended like csv.writer's, in one
    %-format call: arrays in C order (ints %d, floats %.17g), lists of cells, str constants."""
    fields = [c.replace("%", "%%") if isinstance(c, str) else "%s" if isinstance(c, list)
              else "%d" if c.dtype.kind in "iu" else "%.17g" for c in columns]
    lists = [c if isinstance(c, list) else c.ravel().tolist()
             for c in columns if not isinstance(c, str)]
    args = [None] * (len(lists) * len(lists[0]))
    for k, cells in enumerate(lists):
        args[k::len(lists)] = cells  # a column of another length raises here
    return ((",".join(fields) + "\r\n") * len(lists[0])) % tuple(args)


def write_csv(path, header, blocks):
    """Write a CSV artifact: the header line, then each block of ``rows`` text as it comes."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(blocks)


def write_powers_csv(table: FormalPowerTable, path):
    """Dump the table as degree,seed,ray,step,x,y,ReZ,ImZ rows, one block per (seed, degree)."""
    t0 = time.perf_counter()
    ray, step = np.indices(table.Z1.shape[1:])
    node = rows(ray, step, *table.mesh.xy()).splitlines()
    write_csv(path, ["degree", "seed", "ray", "step", "x", "y", "ReZ", "ImZ"],
              (rows(f"{n},{seed}", node, Z[n].real, Z[n].imag)
               for seed, Z in (("1", table.Z1), ("i", table.Zi)) for n in range(table.N + 1)))
    seconds, mb = time.perf_counter() - t0, os.path.getsize(path) / 1e6
    log.info("wrote %d rows (%.1f MB) of formal powers to %s in %.3g s (%.1f MB/s)",
             2 * (table.N + 1) * len(node), mb, path, seconds, mb / seconds)
