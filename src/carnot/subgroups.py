"""Homogeneous subspaces, subgroup tests and the polynomial group splitting.

A homogeneous subspace is stored as one orthonormal basis per layer, which
makes dilation invariance automatic.  The splitting x = v * w along a
complementary pair (V, W) with W normal uses a plain linear projection for
the V part followed by a single group multiplication.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import ConfigurationError, GradedGroup, checked_reals

ATOL = 1e-12


@dataclass
class HomSubspace:
    group: GradedGroup
    layer_bases: list  # per layer j: (dim H_j, n_j) orthonormal columns
    signature: tuple = field(init=False)
    n: int = field(init=False)

    def __post_init__(self):
        g = self.group
        if len(self.layer_bases) != g.step:
            raise ConfigurationError("one basis block per layer is required")
        sig = []
        for j, B in enumerate(self.layer_bases, start=1):
            B = np.asarray(B, dtype=float).reshape(g.layer_dims[j - 1], -1)
            if B.shape[1] and np.abs(B.T @ B - np.eye(B.shape[1])).max() > 1e-10:
                raise ConfigurationError(f"layer-{j} basis is not orthonormal")
            self.layer_bases[j - 1] = B
            sig.append(B.shape[1])
        self.signature = tuple(sig)
        self.n = sum(sig)

    @property
    def ambient_basis(self):
        """Orthonormal (q, n) matrix whose columns span the subspace."""
        g = self.group
        M = np.zeros((g.q, self.n))
        col = 0
        for j, B in enumerate(self.layer_bases):
            M[g.layer_starts[j]:g.layer_ends[j], col:col + B.shape[1]] = B
            col += B.shape[1]
        return M

    def embed(self, coords):
        """Map intrinsic coordinates (..., n) to ambient points (..., q)."""
        return np.asarray(coords, dtype=float) @ self.ambient_basis.T

    def coords(self, x):
        """Orthogonal intrinsic coordinates of ambient points."""
        return np.asarray(x, dtype=float) @ self.ambient_basis

    def contains(self, x, atol=1e-10):
        x = np.asarray(x, dtype=float)
        return bool(np.abs(x - self.embed(self.coords(x))).max() <= atol)

    def hausdorff_dimension(self):
        return sum(j * nj for j, nj in enumerate(self.signature, start=1))


def _orthonormalize(cols, atol=1e-10):
    """Orthonormal basis of the column span (possibly empty)."""
    A = np.asarray(cols, dtype=float)
    if A.size == 0 or A.shape[1] == 0:
        return A.reshape(A.shape[0], 0)
    u, s, _ = np.linalg.svd(A, full_matrices=False)
    rank = int(np.sum(s > atol * max(1.0, s[0])))
    return u[:, :rank]


def subspace_from_vectors(g: GradedGroup, vectors) -> HomSubspace:
    """Subspace spanned by vectors, rejected if the span mixes layers.

    The span is dilation invariant iff it equals the direct sum of its
    layer projections; otherwise the first vector with several nonzero
    layer blocks is reported.
    """
    V = np.asarray(vectors, dtype=float).reshape(-1, g.q)
    if V.shape[0] == 0:
        raise ConfigurationError("at least one spanning vector is required")
    rank = np.linalg.matrix_rank(V, tol=1e-10)
    bases = []
    for j in range(1, g.step + 1):
        blocks = g.project_layer(j, V).T  # (dim H_j, m)
        bases.append(_orthonormalize(blocks))
    if sum(B.shape[1] for B in bases) != rank:
        for i, v in enumerate(V):
            norms = g.layer_norms(v)
            if np.count_nonzero(norms > 1e-10) > 1:
                raise ConfigurationError(
                    f"spanning vector #{i} = {v.tolist()} mixes layers "
                    f"{[int(j) for j in 1 + np.nonzero(norms > 1e-10)[0]]}; "
                    "the span is not dilation invariant")
        raise ConfigurationError("span is not a direct sum of layer pieces")
    return HomSubspace(group=g, layer_bases=bases)


def subspace_from_signature_reference(g: GradedGroup, signature) -> HomSubspace:
    """The reference subspace of a signature: first n_j basis vectors per layer."""
    signature = tuple(int(n) for n in signature)
    if len(signature) != g.step:
        raise ConfigurationError("signature length must equal the group step")
    if sum(signature) < 1:
        raise ConfigurationError("signature must have total dimension >= 1")
    bases = []
    for j, nj in enumerate(signature, start=1):
        dj = g.layer_dims[j - 1]
        if not 0 <= nj <= dj:
            raise ConfigurationError(f"signature entry n_{j}={nj} exceeds dim H_{j}={dj}")
        bases.append(np.eye(dj)[:, :nj])
    return HomSubspace(group=g, layer_bases=bases)


def _brackets_stay_in(V: HomSubspace, left, atol):
    """Whether [a, b] lies in V for every column a of `left` and b of V's basis."""
    g = V.group
    B = V.ambient_basis
    for a in np.asarray(left).T:
        for b in B.T:
            br = g.bracket(a, b)
            resid = br - B @ (B.T @ br)
            if np.abs(resid).max() > max(atol, 1e-12):
                return False
    return True


def is_subgroup(V: HomSubspace, atol=ATOL) -> bool:
    """Bracket closure [V, V] in V; equivalent to BCH closure for homogeneous V."""
    return _brackets_stay_in(V, V.ambient_basis, atol)


def is_normal(V: HomSubspace, atol=ATOL) -> bool:
    """Bracket closure [G, V] in V on all basis pairs."""
    return _brackets_stay_in(V, np.eye(V.group.q), atol)


@dataclass
class ComplementaryPair:
    """(W, V) with W a normal subgroup, V a subgroup, and G = V (+) W."""

    W: HomSubspace
    V: HomSubspace

    def __post_init__(self):
        g = self.W.group
        if self.V.group is not g:
            raise ConfigurationError("V and W must live in the same group")
        if self.W.n + self.V.n != g.q:
            raise ConfigurationError(
                f"dim W + dim V = {self.W.n + self.V.n} must equal q = {g.q}")
        M = np.hstack([self.V.ambient_basis, self.W.ambient_basis])
        if np.linalg.matrix_rank(M, tol=1e-10) != g.q:
            raise ConfigurationError("V and W intersect nontrivially")
        if not is_subgroup(self.V):
            raise ConfigurationError("V is not closed under the bracket")
        if not (is_subgroup(self.W) and is_normal(self.W)):
            raise ConfigurationError("W is not a normal subgroup")


def split(pair: ComplementaryPair, x):
    """Factor x = v * w with v in V, w in W.

    v is the linear projection of x onto V along W; w is v^{-1} * x.
    """
    g = pair.W.group
    x = np.asarray(x, dtype=float)
    M = np.hstack([pair.V.ambient_basis, pair.W.ambient_basis])
    c = np.linalg.solve(M, x.T).T if x.ndim > 1 else np.linalg.solve(M, x)
    v = np.asarray(c)[..., :pair.V.n] @ pair.V.ambient_basis.T
    w = g.multiply(g.inverse(v), x)
    return v, w


def coset_volume_check(pair: ComplementaryPair, x, box, n_grid=64):
    """Area of the left translate of a coordinate box in W against its flat volume.

    The translate l_x(box) is parametrized by w -> x * w and its n-dimensional
    area is computed by a midpoint rule on the Gram determinant of the
    pushforward; left translations of a normal complement preserve volume,
    so the two returned numbers should agree up to quadrature error.
    """
    g = pair.W.group
    x = np.asarray(x, dtype=float)
    box = [(float(lo), float(hi)) for lo, hi in box]
    if len(box) != pair.W.n:
        raise ConfigurationError(f"box must have {pair.W.n} axes")
    if any(hi <= lo for lo, hi in box):
        raise ConfigurationError("degenerate box")
    vol_before = float(np.prod([hi - lo for lo, hi in box]))

    axes = [lo + (hi - lo) * (np.arange(n_grid) + 0.5) / n_grid for lo, hi in box]
    mesh = np.meshgrid(*axes, indexing="ij")
    C = np.stack([m.ravel() for m in mesh], axis=-1)  # (m, nW)
    BW = pair.W.ambient_basis

    h = 1e-6
    cols = []
    for a in range(pair.W.n):
        dp = C.copy()
        dm = C.copy()
        dp[:, a] += h
        dm[:, a] -= h
        fp = g.multiply(x[None, :], dp @ BW.T)
        fm = g.multiply(x[None, :], dm @ BW.T)
        cols.append((fp - fm) / (2 * h))
    J = np.stack(cols, axis=-1)  # (m, q, nW)
    gram = np.einsum("mqa,mqb->mab", J, J)
    dets = np.linalg.det(gram)
    cell = vol_before / C.shape[0]
    vol_after = float(np.sum(np.sqrt(np.maximum(dets, 0.0))) * cell)
    return vol_before, vol_after


# -- named presets for heisenberg1 ----------------------------------------

SUBSPACE_PRESETS = {
    "vertical_plane_x0": [[0, 1, 0], [0, 0, 1]],
    "center": [[0, 0, 1]],
    "horizontal_x_axis": [[1, 0, 0]],
}


def subspace_from_dict(g: GradedGroup, spec) -> HomSubspace:
    """Subspace from a preset name or a list of spanning vectors of length q."""
    if isinstance(spec, str):
        if spec not in SUBSPACE_PRESETS:
            raise ConfigurationError(f"unknown subspace preset {spec!r}")
        return subspace_from_vectors(g, SUBSPACE_PRESETS[spec])
    if not isinstance(spec, list):
        raise ConfigurationError(
            f"subspace must be a preset name or a list of vectors, got {spec!r}")
    return subspace_from_vectors(g, [checked_reals(v, "subspace vector", g.q) for v in spec])
