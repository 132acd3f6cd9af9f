"""Spatial lattice graphs, CAR precision blocks and the adjacency spectrum.

A graph keeps its adjacency twice: sparse CSR for neighbour sums and degrees,
and a read-only dense copy from which the dense block precision is formed.
The adjacency spectrum N = V diag(lambda) V' (eigenvalues and eigenvectors)
is computed once at construction by one dense symmetric eigensolve (target
graphs have at most a few hundred nodes). It gives the log-determinant
identity, the admissible range of the spatial dependence parameter, and the
entries of the CAR covariance tau2 (I - zeta N)^-1 that the diagnostics read.
A reverse Cuthill-McKee order, computed once too, narrows the band in which
the latent mode factors its Newton matrices (Rue & Held 2005, section 2.4).
"""

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

_EIG_TOL = 1e-12


class GraphFormatError(ValueError):
    """Raised for malformed graph files."""


class ZetaBoundsError(ValueError):
    """Raised when the spatial dependence parameter breaks positive definiteness."""


class SpatialGraph:
    """Undirected spatial lattice with precomputed adjacency eigenvalues.

    Attributes:
        n_d: number of locations.
        adjacency: symmetric 0/1 CSR matrix with zero diagonal.
        dense_adjacency: the same matrix as a read-only dense array.
        eigenvalues: the n_d adjacency eigenvalues, ascending (read-only).
        eigenvectors: the matching orthonormal eigenvectors as columns (read-only).
        band_order: the reverse Cuthill-McKee permutation p of the nodes (read-only).
        band_adjacency: the lower band of N[p][:, p], (n_d, kd+1) for bandwidth kd,
            ``[j, r] = N[p[j+r], p[j]]`` and 0 past the end (read-only).
    """

    def __init__(self, adjacency):
        a = sp.csr_matrix(adjacency, dtype=np.float64)
        if a.shape[0] != a.shape[1]:
            raise ValueError(f"adjacency must be square, got {a.shape}")
        dense = a.toarray()
        if not np.array_equal(dense, dense.T):
            raise ValueError("adjacency must be symmetric")
        if np.any(np.diag(dense) != 0.0):
            raise ValueError("adjacency must have zero diagonal")
        if not np.all(np.isin(dense, (0.0, 1.0))):
            raise ValueError("adjacency entries must be 0 or 1")
        self.n_d = a.shape[0]
        self.adjacency = a
        dense.setflags(write=False)
        self.dense_adjacency = dense
        self.eigenvalues, self.eigenvectors = np.linalg.eigh(dense)
        self.eigenvalues.setflags(write=False)
        self.eigenvectors.setflags(write=False)
        p = self.band_order = _reverse_cuthill_mckee(a)
        rows, cols = np.nonzero(np.tril(dense[np.ix_(p, p)]))
        self.band_adjacency = np.zeros((self.n_d, 1 + int(np.max(rows - cols, initial=0))))
        self.band_adjacency[cols, rows - cols] = 1.0
        self.band_order.setflags(write=False)
        self.band_adjacency.setflags(write=False)

    def degrees(self):
        return np.asarray(self.adjacency.sum(axis=1)).ravel().astype(int)

    def __repr__(self):
        return f"SpatialGraph(n_d={self.n_d}, edges={int(self.adjacency.nnz // 2)})"


def _reverse_cuthill_mckee(a):
    """Breadth-first from a least-degree node of each component, neighbours by
    ascending degree then index, reversed: deterministic for a given graph."""
    deg = np.diff(a.indptr)
    order, head, seen = [], 0, np.zeros(a.shape[0], dtype=bool)
    for root in np.argsort(deg, kind="stable"):
        if seen[root]:
            continue
        seen[root] = True
        order.append(root)
        while head < len(order):  # the queue is order[head:]
            v = order[head]
            head += 1
            nb = a.indices[a.indptr[v]:a.indptr[v + 1]]
            nb = nb[~seen[nb]]
            seen[nb] = True
            order.extend(nb[np.lexsort((nb, deg[nb]))])
    return np.array(order[::-1], dtype=np.intp)


@dataclass(frozen=True)
class CarStructure:
    """A spatial graph together with the admissible interval for zeta.

    The block precision (1/tau2)(I - zeta*N) is symmetric positive definite
    exactly for zeta strictly inside ``zeta_bounds``; a zero eigenvalue of N
    contributes no bound. ``degenerate`` marks graphs whose spectrum gives no
    finite bound at all (e.g. a single isolated node).
    """

    graph: SpatialGraph
    zeta_bounds: tuple = field(default=None)
    degenerate: bool = field(default=False)

    @classmethod
    def from_graph(cls, graph):
        ev = graph.eigenvalues
        lo = 1.0 / ev[0] if ev[0] < -_EIG_TOL else -np.inf
        hi = 1.0 / ev[-1] if ev[-1] > _EIG_TOL else np.inf
        return cls(graph=graph, zeta_bounds=(lo, hi),
                   degenerate=not (np.isfinite(lo) or np.isfinite(hi)))

    @property
    def n_d(self):
        return self.graph.n_d

    def contains(self, zeta):
        lo, hi = self.zeta_bounds
        return lo < zeta < hi


def load_graph(path, strict=False):
    """Read a neighborhood file into a :class:`SpatialGraph`.

    Format: first content line is the node count ``n_d``; each following line
    is ``<node-id> <num-neighbors> <neighbor-id>...`` with 1-based ids.
    ``#`` comments and blank lines are ignored. Asymmetric listings are an
    error under ``strict=True``; otherwise they are reported via a warning and
    the adjacency is symmetrized (union of directions).
    """
    lines = []
    with open(path, "r", encoding="ascii") as fh:
        for lineno, raw in enumerate(fh, start=1):
            text = raw.split("#", 1)[0].strip()
            if text:
                lines.append((lineno, text))
    if not lines:
        raise GraphFormatError(f"{path}: empty graph file")

    lineno, head = lines[0]
    try:
        n_d = int(head.split()[0])
    except ValueError:
        raise GraphFormatError(f"{path}:{lineno}: node count expected, got {head!r}") from None
    if n_d < 1:
        raise GraphFormatError(f"{path}:{lineno}: node count must be >= 1")

    listed = {}
    for lineno, text in lines[1:]:
        parts = text.split()
        try:
            values = [int(p) for p in parts]
        except ValueError:
            raise GraphFormatError(f"{path}:{lineno}: non-integer token in {text!r}") from None
        if len(values) < 2:
            raise GraphFormatError(f"{path}:{lineno}: expected '<node> <num-neighbors> ...'")
        node, count, neigh = values[0], values[1], values[2:]
        if not 1 <= node <= n_d:
            raise GraphFormatError(f"{path}:{lineno}: node id {node} outside 1..{n_d}")
        if count != len(neigh):
            raise GraphFormatError(
                f"{path}:{lineno}: node {node} announces {count} neighbors, lists {len(neigh)}")
        for m in neigh:
            if not 1 <= m <= n_d:
                raise GraphFormatError(f"{path}:{lineno}: neighbor id {m} outside 1..{n_d}")
            if m == node:
                raise GraphFormatError(f"{path}:{lineno}: node {node} lists itself")
        if node in listed:
            raise GraphFormatError(f"{path}:{lineno}: duplicate entry for node {node}")
        listed[node] = set(neigh)

    missing = [(i, j) for i, nb in listed.items() for j in nb
               if i not in listed.get(j, set())]
    if missing:
        if strict:
            raise GraphFormatError(
                f"{path}: asymmetric neighbor listing for pairs {sorted(missing)[:5]}"
                + ("..." if len(missing) > 5 else ""))
        warnings.warn(f"{path}: symmetrized {len(missing)} one-sided neighbor pairs",
                      stacklevel=2)

    a = sp.lil_matrix((n_d, n_d))
    for i, nb in listed.items():
        for j in nb:
            a[i - 1, j - 1] = 1.0
            a[j - 1, i - 1] = 1.0
    return SpatialGraph(a)


def build_torus_lattice(rows, cols):
    """Rook-neighborhood lattice wrapped on a torus; requires rows, cols >= 3."""
    if rows < 3 or cols < 3:
        raise ValueError(f"torus lattice needs rows, cols >= 3, got ({rows}, {cols})")
    n = rows * cols
    a = sp.lil_matrix((n, n))
    for r in range(rows):
        for c in range(cols):
            i = r * cols + c
            for dr, dc in ((-1, 0), (1, 0), (0, -1), (0, 1)):
                j = ((r + dr) % rows) * cols + (c + dc) % cols
                a[i, j] = 1.0
    return SpatialGraph(a)


def car_precision_block(car, zeta, tau2):
    """Single-time-block precision Q = (1/tau2)(I - zeta*N), a dense
    (n_d, n_d) ndarray.

    Scaling by the reciprocal of tau2 (not dividing by it) gives the same bits
    as the sparse expression ``(I - zeta*N) / tau2``, which scipy computes
    that way.
    """
    _check_admissible(car, zeta, tau2)
    return (np.eye(car.n_d) - zeta * car.graph.dense_adjacency) * (1.0 / tau2)


def logdet_precision(car, zeta, tau2, T):
    """Log-determinant of the full T-block precision via the cached spectrum.

    Equals T * (-n_d*log(tau2) + sum_j log(1 - zeta*lambda_j)), which is 0 for
    the empty stack T = 0.
    """
    _check_admissible(car, zeta, tau2)
    if T < 0:
        raise ValueError(f"T must be >= 0, got {T}")
    factors = 1.0 - zeta * car.graph.eigenvalues
    if np.any(factors <= 0.0):
        raise ZetaBoundsError(f"1 - zeta*lambda <= 0 for zeta={zeta}")
    return float(T) * (-car.n_d * np.log(tau2) + float(np.sum(np.log(factors))))


def _check_admissible(car, zeta, tau2):
    if tau2 <= 0.0:
        raise ValueError(f"tau2 must be > 0, got {tau2}")
    if not car.contains(zeta):
        lo, hi = car.zeta_bounds
        raise ZetaBoundsError(
            f"zeta={zeta} outside admissible interval ({lo:.6g}, {hi:.6g}); "
            "block precision would not be positive definite")
