"""Recursive construction of formal powers on the radial mesh.

Every generating pair is (p, i/p), held as its field p. A formal power of
degree n with seed a is produced by seeding the degree-0 power
lambda p + i mu / p, with the real constants lambda = Re a / p(z0) and
mu = p(z0) Im a, at the pair of index n (mod the sequence period) and
applying the pair integral n times, descending to pair index 0 and
multiplying by the degree at each step:

    Z^(0) at pair index n  --int,(n-1 pair)-->  ...  --int,(0 pair)-->  Z^(n).

Because the sequence period is at most 2, a single chain started at parity s
delivers all pair-0 powers of degrees d == s (mod 2): the degree-d
intermediate of that chain carries pair index (s - d) mod 2, which is 0
exactly when d and s share parity. Two chains (one per parity) therefore
produce the whole table in O(N) integrations per seed.

The chains run in real arithmetic. Every power is W = p A + i B / p with
two real fields A, B: the running integrals of the pair integral that
produced it (for degree 0, the constants lambda, mu).
The integrands of the next integral are linear in (A, B), with per-node
coefficients that depend only on the two pairs involved and the ray span,
so they are built once per mesh and shared by every seed. The chains of
all requested seeds are stacked in one state and advance together, one
blocked quadrature product per degree, with the degree folded into the
quadrature operator.

Z^(n)(a) is real-linear in the seed a, and so is each pair integral, so a
combination sum_n Z^(n)(a_n) is one chain of N steps, run by Horner's rule
from degree N down (``rim_fit``).
"""

from __future__ import annotations

import logging
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import NumericalError, ValidationError
from .pseudoanalytic import GeneratingSequence, RadialMesh, _vekua_operator

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


def _check_finite(state: np.ndarray, degree: int, first_ray: int):
    """Raise on the first non-finite entry of a (steps, 2, seeds, rays) state, by ray then step."""
    bad = ~np.isfinite(state)
    if bad.any():
        r, s = np.argwhere(bad.any(axis=(1, 2)).T)[0]
        raise NumericalError(f"non-finite formal power value at degree {degree}, "
                             f"ray {first_ray + r}, step {s}")


def _step_coefficients(pk: np.ndarray, pj: np.ndarray, span: np.ndarray) -> np.ndarray:
    """Integrand coefficients (S+1, 2, 2, P) of a chain step from pair p_k to pair p_j.

    With W = pk A + i B / pk and span = sr + i si, the two real integrands of
    the pair-j integral are A pk sr/pj - B si/(pk pj) and A pk pj si + B pj sr/pk;
    ``pk`` and ``pj`` are (P, S+1).
    """
    pk, pj = pk.T, pj.T
    sr, si = span.real, span.imag
    return np.moveaxis([[pk * sr / pj, -si / (pk * pj)], [pk * pj * si, pj * sr / pk]], 2, 0)


class _Chains:
    """The formal-power chains of several seeds, run together on one mesh.

    The state holds the real running integrals (A, B) of every chain, steps
    first, as a (L, 2, seeds, P) array: W = p A + i B / p for the pair p
    of the current degree (L - 1 >= S steps pad the last quadrature chunk).
    Each degree forms both integrands of every chain from the state and
    integrates them in one product, which writes straight into the state.
    ``ps`` holds the p field (P, S+1) of each pair of the sequence's period;
    ``first_ray`` is the index of the mesh's first ray in a larger mesh it
    was sliced from, by which error messages report rays.
    """

    def __init__(self, ps: list, mesh: RadialMesh, seeds, rule: str = "cubic",
                 first_ray: int = 0):
        try:
            op = mesh.chunk_ops[rule]
        except KeyError:
            raise ValidationError(f"unknown quadrature rule {rule!r}") from None
        C, _, b = op.shape
        self.ps, self.mesh, self.seeds, self.first_ray = ps, mesh, seeds, first_ray
        S = mesh.step_count
        self.state = np.empty((1 + C * b, 2, len(seeds), mesh.ray_count))
        # Each chunk's operator is re-indexed from the mesh's window, clipped
        # at both ends of the ray, to a window at the fixed stride b over an
        # integrand buffer with zero rows around steps 0..S, so that the
        # windows are views of the buffer rather than a gathered copy.
        offset = mesh.chunk_nodes - b * np.arange(C)[:, None]   # node - c b
        used = op.any(axis=2)
        lo = offset[used].min()
        width = offset[used].max() - lo + 1
        chunk, row = np.nonzero(used)
        self.op = np.zeros((C, b, width))          # chunk c: window rows -> b prefix sums
        self.op[chunk, :, offset[chunk, row] - lo] = op[chunk, row]
        buffer = np.zeros(((C - 1) * b + width, self.state[0].size))
        self.integrands = buffer[-lo:S + 1 - lo].reshape((S + 1,) + self.state.shape[1:])
        self.windows = sliding_window_view(buffer, width, axis=0)[::b].transpose(0, 2, 1)
        self.coefficients = {}

    def powers(self, N: int):
        """Yield (d, A, B) at each pair-0 degree d <= N, A and B (S+1, seeds, P).

        Z^(d)(seed) = p A + i B / p with the pair-0 p, steps first; A and B
        are views of the state, which the next step overwrites.
        """
        k, S = len(self.ps), self.mesh.step_count
        for start in range(min(k, N + 1)):
            # the chain seeded at pair index `start` delivers the pair-0 powers of
            # degrees d with (start - d) % k == 0, the last of them N - (N - start) % k
            self.state[:] = 0.0
            self.add_degree_zero(start % k, self.seeds)
            if start % k == 0:
                yield 0, self.state[:S + 1, 0], self.state[:S + 1, 1]
            for d in range(1, N - (N - start) % k + 1):
                pair = ((start - d + 1) % k, (start - d) % k)
                self.step(pair, d)
                _check_finite(self.state[:S + 1], d, self.first_ray)
                if pair[1] == 0:
                    yield d, self.state[:S + 1, 0], self.state[:S + 1, 1]

    def add_degree_zero(self, j: int, seeds):
        """Add to each chain the degree-0 power lambda p + i mu / p of its seed a with
        the pair p of index j: lambda = Re a / p(z0), mu = p(z0) Im a."""
        p0 = self.ps[j][0, 0]
        self.state += np.array([[complex(a).real / p0 for a in seeds],
                                [complex(a).imag * p0 for a in seeds]])[:, :, None]

    def step(self, pair: tuple, d: int):
        """Advance every chain to degree d: d times the integral, with the pair of
        index ``pair[1]``, of the state, whose power carries pair index ``pair[0]``."""
        if pair not in self.coefficients:
            self.coefficients[pair] = _step_coefficients(self.ps[pair[0]], self.ps[pair[1]],
                                                         self.mesh.span)
        np.einsum("scir,sinr->scnr", self.coefficients[pair],
                  self.state[:len(self.integrands)], out=self.integrands)
        Y = self.state[1:].reshape(self.op.shape[:2] + (-1,))    # (C, b, columns)
        np.matmul(d * self.op, self.windows, out=Y)
        Y[1:] += np.cumsum(Y[:-1, -1:], axis=0)                   # carry the chunk totals
        self.state[0] = 0.0


def _power_tables(seq: GeneratingSequence, mesh: RadialMesh, N: int, seeds,
                  rule: str = "cubic") -> np.ndarray:
    """Pair-0 formal powers of every seed, as a (seeds, N+1, P, S+1) array."""
    if N < 0:
        raise ValidationError(f"N must be non-negative, got {N}")
    out = np.empty((len(seeds), N + 1) + mesh.nodes.shape, dtype=complex)
    p = seq.pair_for(0).p.T[:, None, :]
    for d, A, B in _Chains([pair.p for pair in seq.pairs], mesh, seeds, rule).powers(N):
        Z = out[:, d].transpose(2, 0, 1)                         # (S+1, seeds, P) view
        np.multiply(A, p, out=Z.real)
        np.divide(B, p, out=Z.imag)
    return out


def formal_power_fields(seq: GeneratingSequence, mesh: RadialMesh, N: int,
                        seed: complex, rule: str = "cubic") -> np.ndarray:
    """Pair-0 formal powers Z^(0..N)(seed, z; z0) as an (N+1, P, S+1) array."""
    return _power_tables(seq, mesh, N, (seed,), rule)[0]


def build_table(seq: GeneratingSequence, mesh: RadialMesh, N: int,
                rule: str = "cubic") -> FormalPowerTable:
    """Build the full table for seeds 1 and i, both seeds' chains in one pass."""
    Z1, Zi = _power_tables(seq, mesh, N, (1.0, 1j), rule)
    return FormalPowerTable(N=N, z0=mesh.z0, mesh=mesh, Z1=Z1, Zi=Zi)


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


def _over_ray_blocks(seq: GeneratingSequence, mesh: RadialMesh, seeds, rule: str, run):
    """Call ``run(rays, chains)`` on ``ray_workers()`` threads for every block of RAY_BLOCK
    rays, ``chains`` holding the chains of ``seeds`` on the block's slice of the mesh."""
    ps = [pair.p for pair in seq.pairs]

    def block(first: int):
        rays = slice(first, first + RAY_BLOCK)
        block_mesh = replace(mesh, theta=mesh.theta[rays], nodes=mesh.nodes[rays],
                             span=mesh.span[rays],
                             boundary_weights=mesh.boundary_weights[rays])
        run(rays, _Chains([p[rays] for p in ps], block_mesh, seeds, rule, first))

    with ThreadPoolExecutor(max_workers=ray_workers()) as pool:
        # reading every result re-raises the error of a failed block here
        list(pool.map(block, range(0, mesh.ray_count, RAY_BLOCK)))


def rim_traces(seq: GeneratingSequence, mesh: RadialMesh, N: int,
               rule: str = "cubic") -> np.ndarray:
    """Raw boundary traces (2N+1, P) of the table on ``mesh``, without the table.

    Equals ``boundary_system(build_table(seq, mesh, N, rule)).raw`` bit for
    bit. Each ray block runs the chains of both seeds, keeps only
    Re Z = p A at the rim and is dropped.
    """
    raw = np.empty((2 * N + 1, mesh.ray_count))
    p_rim = seq.pair_for(0).p[:, -1]

    def traces(rays: slice, chains: _Chains):
        for d, A, _ in chains.powers(N):
            raw[d, rays] = A[-1, 0] * p_rim[rays]
            if d:
                raw[N + d, rays] = A[-1, 1] * p_rim[rays]

    _over_ray_blocks(seq, mesh, (1.0, 1j), rule, traces)
    return raw


def rim_fit(seq: GeneratingSequence, mesh: RadialMesh, N: int, a,
            rule: str = "cubic") -> np.ndarray:
    """Re sum_n Z^(n)(a_n) at the rim of ``mesh``, a (P,) array, without the traces.

    The sum is one chain, run by Horner's rule on a single-seed state per
    ray block: Z0(a_0) + 1 I_0(Z0(a_1) + 2 I_1(Z0(a_2) + ...)), with Z0(a)
    at pair index j the degree-0 power of seed a and I_j the pair-j integral.
    """
    fit = np.empty(mesh.ray_count)
    k, S = seq.period, mesh.step_count
    p_rim = seq.pair_for(0).p[:, -1]

    def horner(rays: slice, chains: _Chains):
        chains.state[:] = 0.0
        chains.add_degree_zero(N % k, (a[N],))
        for d in range(N, 0, -1):
            chains.step((d % k, (d - 1) % k), d)
            _check_finite(chains.state[:S + 1], d, chains.first_ray)
            chains.add_degree_zero((d - 1) % k, (a[d - 1],))
        fit[rays] = chains.state[S, 0, 0] * p_rim[rays]

    _over_ray_blocks(seq, mesh, (a[N],), rule, horner)
    return fit


def pseudoanalyticity_check(table: FormalPowerTable, p: np.ndarray,
                            keep: np.ndarray | None = None) -> np.ndarray:
    """Max interior Vekua residual of each degree (both seeds).

    ``p`` is the pair-0 field sqrt-of-conductivity sampled on the mesh.
    ``keep``, when given, is a boolean node mask restricting the check (used
    to stay clear of conductivity discontinuities, where the mesh
    finite differences see the jump rather than the equation).
    """
    residual = _vekua_operator(p, table.mesh)
    out = np.empty(table.N + 1)
    for n in range(table.N + 1):
        res = np.fmax(residual(table.Z1[n]), residual(table.Zi[n]))
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
