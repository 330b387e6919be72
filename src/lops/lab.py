"""Finite-difference checks of definition-level tensor identities.

Analytic metric and dynamic-velocity closures are sampled on a small 4-D
patch; all derived fields (index of the fluid, normalized velocity,
vorticity, shears, projectors) are built pointwise so the only error source
is the second-order central differencing.  Identities that hold in the
continuum must then show O(h^2) residuals, and deliberately mutated
variants must not converge.  `IDENTITIES` is the one table of them: each
identity is a generator that yields its check's residual and then, from
the same intermediate arrays, its mutated control's, if it has one.

Each derived field is computed once per patch, as a cached property that
every check and mutated control reads, and the index contractions run as
batched matmuls.  Each field is differenced once.  The closures read the
open grid, one broadcastable array per axis, and the inverse metric is in
closed form.  The conformal connection is transient: it is built, applied
to the dynamic velocity and to the test one-form, and dropped, so it is
never cached beside the plain connection.

Pointwise fields (metric, velocities, F, projectors) span every node of a
patch, whose boundary the differences read.  Derivatives, connections and
identity residuals hold its interior nodes only, which a pointwise factor
meets as the view `x[_INTERIOR]`.  `refinement_table` runs the checks slab
by slab: a slab is a patch cut to a range of axis-0 nodes with a one-node
halo, all of its fields computed there, and one slab's fields are dropped
before the next slab's are built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

ETA = np.diag([1.0, -1.0, -1.0, -1.0])
EPS = 0.05  # amplitude of the analytic perturbations in the standard family
_INTERIOR = (slice(1, -1),) * 4  # every node off the patch boundary
#: the most interior axis-0 planes in a slab; 7 keeps the 9^4 base patch whole
SLAB_PLANES = 7


class PatchTooSmallError(Exception):
    pass


# -- the standard analytic test family ------------------------------------------
# Curved metric plus a dynamic velocity with nonzero vorticity; coefficients
# are fixed so residual tables are reproducible.


def standard_metric(*x: np.ndarray) -> np.ndarray:
    """g_{ab} on the four broadcastable coordinate arrays x; (*nodes, 4, 4)."""
    x0, x1, x2, x3 = x
    g = np.zeros(np.broadcast_shapes(*map(np.shape, x)) + (4, 4))
    g[..., 0, 0] = 1.0 + EPS * np.sin(x1) * np.cos(x2)
    g[..., 1, 1] = -1.0 + EPS * np.cos(x0 + x3)
    g[..., 2, 2] = -1.0 + EPS * np.sin(x0 - x1)
    g[..., 3, 3] = -1.0 + EPS * np.cos(2.0 * x2)
    g[..., 0, 1] = g[..., 1, 0] = 0.5 * EPS * np.sin(x2 + x3)
    g[..., 0, 2] = g[..., 2, 0] = 0.5 * EPS * np.cos(x1) * np.sin(x3)
    g[..., 1, 2] = g[..., 2, 1] = 0.5 * EPS * np.sin(x0) * np.sin(x3)
    g[..., 1, 3] = g[..., 3, 1] = 0.5 * EPS * np.cos(x0 + x2)
    g[..., 2, 3] = g[..., 3, 2] = 0.5 * EPS * np.sin(x0 + x1)
    return g


def standard_dynamic_velocity(*x: np.ndarray) -> np.ndarray:
    """Covector C_a with nonzero curl, |C| close to 1 on the patch."""
    x0, x1, x2, x3 = x
    c = np.zeros(np.broadcast_shapes(*map(np.shape, x)) + (4,))
    c[..., 0] = 1.0 + EPS * np.cos(x1 + 2.0 * x3)
    c[..., 1] = EPS * np.sin(x0 + x2)
    c[..., 2] = EPS * np.cos(x0 - x3)
    c[..., 3] = EPS * np.sin(x1 - x2) * np.cos(x0)
    return c


def standard_one_form(*x: np.ndarray) -> np.ndarray:
    """An unrelated analytic one-form for the conformal-derivative check."""
    x0, x1, x2, x3 = x
    v = np.zeros(np.broadcast_shapes(*map(np.shape, x)) + (4,))
    v[..., 0] = np.sin(x1) + 0.3 * np.cos(x2 + x3)
    v[..., 1] = np.cos(x0) * np.sin(x3)
    v[..., 2] = 0.5 * np.sin(x0 + x1 + x3)
    v[..., 3] = np.cos(2.0 * x2) - 0.2 * np.sin(x0)
    return v


def constant_minkowski(*x: np.ndarray) -> np.ndarray:
    return np.broadcast_to(ETA, np.broadcast_shapes(*map(np.shape, x)) + (4, 4)).copy()


def constant_velocity(*x: np.ndarray) -> np.ndarray:
    c = np.zeros(np.broadcast_shapes(*map(np.shape, x)) + (4,))
    c[..., 0] = 1.0
    return c


# -- patch ------------------------------------------------------------------------


@dataclass(frozen=True)
class FieldPatch:
    """Sampled fields on a uniform 4-D lattice of n^4 nodes, spacing h, cut
    to the axis-0 nodes [lo, hi), hi None meaning n.  metric_fn and
    velocity_fn map the four arrays of `axes` to fields on every node."""

    h: float
    n: int
    metric_fn: Callable[..., np.ndarray]
    velocity_fn: Callable[..., np.ndarray]
    lo: int = 0
    hi: Optional[int] = None

    def __post_init__(self):
        if self.n < 5:
            raise PatchTooSmallError("need at least 5 nodes per axis for interior stencils")

    @staticmethod
    def standard(h: float = 0.1, n: int = 9) -> "FieldPatch":
        return FieldPatch(h, n, standard_metric, standard_dynamic_velocity)

    def refined(self, k: int = 1) -> "FieldPatch":
        """Same extent, spacing halved k times (node count adjusted)."""
        return FieldPatch(self.h / 2 ** k, (self.n - 1) * 2 ** k + 1,
                          self.metric_fn, self.velocity_fn)

    def slabs(self) -> Iterator["FieldPatch"]:
        """The patch cut into axis-0 slabs of near-equal thickness, at most
        SLAB_PLANES interior planes each plus a one-node halo; their
        interiors tile the patch's interior once.  A patch that fits one
        slab is its own slab, so a caller keeps the fields computed on it."""
        planes = self.n - 2
        count = -(-planes // SLAB_PLANES)
        cuts = [1 + planes * i // count for i in range(count + 1)]
        for start, stop in zip(cuts, cuts[1:]):
            yield self if count == 1 else replace(self, lo=start - 1, hi=stop + 1)

    @cached_property
    def axes(self) -> Tuple[np.ndarray, ...]:
        """The node coordinates as an open grid, one broadcastable array per axis."""
        half = (self.n - 1) / 2.0
        axis = (np.arange(self.n) - half) * self.h
        return np.ix_(axis[self.lo:self.hi], axis, axis, axis)

    @cached_property
    def gl(self) -> np.ndarray:
        g = self.metric_fn(*self.axes)
        # only finiteness is checked here: symmetric_inverse refuses a singular
        # metric, and F a dynamic velocity that is not timelike
        if not np.isfinite(g).all():
            raise ValueError("metric closure produced non-finite values")
        return g

    @cached_property
    def gi(self) -> np.ndarray:
        return symmetric_inverse(self.gl)

    @cached_property
    def C_lo(self) -> np.ndarray:
        return self.velocity_fn(*self.axes)

    @cached_property
    def C_up(self) -> np.ndarray:
        return np.einsum("...ab,...b->...a", self.gi, self.C_lo)

    @cached_property
    def F(self) -> np.ndarray:
        norm2 = np.einsum("...a,...a->...", self.C_up, self.C_lo)
        if not (norm2 > 0).all():
            raise ValueError("dynamic velocity is not everywhere timelike on the patch")
        return np.sqrt(norm2)

    @cached_property
    def u_lo(self) -> np.ndarray:
        return self.C_lo / self.F[..., None]

    @cached_property
    def u_up(self) -> np.ndarray:
        return self.C_up / self.F[..., None]

    @cached_property
    def pi_lo(self) -> np.ndarray:
        return self.gl - np.einsum("...a,...b->...ab", self.u_lo, self.u_lo)

    @cached_property
    def pi_mixed(self) -> np.ndarray:
        """pi^a_b = delta^a_b - u^a u_b."""
        delta = np.broadcast_to(np.eye(4), self.gl.shape)
        return delta - np.einsum("...a,...b->...ab", self.u_up, self.u_lo)

    # -- derivatives -----------------------------------------------------------

    def grad(self, f: np.ndarray) -> np.ndarray:
        """Central-difference gradient at the interior nodes, shape
        (n-2, n-2, n-2, n-2, 4, *tensor axes of f)."""
        return _gradient(f, self.h)

    @cached_property
    def christoffel(self) -> np.ndarray:
        """Gamma^l_{mn} at the interior nodes, from second-order central
        differences of the metric."""
        return christoffel_from(self.gl, self.gi, self.h)

    @staticmethod
    def cov_deriv_covector(dv: np.ndarray, v: np.ndarray, gamma: np.ndarray) -> np.ndarray:
        """(nabla_a v_b) = d_a v_b - Gamma^l_{ab} v_l with shape (..., 4a, 4b), at
        the interior nodes: dv = d_a v_b and gamma hold the interior, v every node."""
        vg = v[_INTERIOR][..., None, :] @ gamma.reshape(gamma.shape[:-3] + (4, 16))
        return dv - vg.reshape(dv.shape)

    @cached_property
    def one_form(self) -> np.ndarray:
        """The unrelated analytic one-form of the conformal-derivative check."""
        return standard_one_form(*self.axes)

    @cached_property
    def dC(self) -> np.ndarray:
        """d_a C_b, read by the vorticity, the shear and the conformal derivative."""
        return self.grad(self.C_lo)

    @cached_property
    def d_one_form(self) -> np.ndarray:
        """d_a v_b of the test one-form, read by both of its derivatives."""
        return self.grad(self.one_form)

    @cached_property
    def _conformal_derivatives(self) -> Tuple[np.ndarray, np.ndarray]:
        """(nablabar_a C_b, nablabar_a v_b) for the conformal metric F^2 g_{ab}.

        The conformal connection is as large as the plain one (64 numbers per
        node), so it lives only inside this call.
        """
        f2 = self.F[..., None, None] ** 2
        gamma = christoffel_from(f2 * self.gl, self.gi / f2, self.h)
        return (self.cov_deriv_covector(self.dC, self.C_lo, gamma),
                self.cov_deriv_covector(self.d_one_form, self.one_form, gamma))

    @property
    def dbarC(self) -> np.ndarray:
        """nablabar_a C_b, the conformal derivative of the dynamic velocity."""
        return self._conformal_derivatives[0]

    @property
    def dbar_one_form(self) -> np.ndarray:
        """nablabar_a v_b of the test one-form."""
        return self._conformal_derivatives[1]

    @cached_property
    def dv(self) -> np.ndarray:
        """nabla_a v_b of the test one-form."""
        return self.cov_deriv_covector(self.d_one_form, self.one_form, self.christoffel)

    @cached_property
    def du(self) -> np.ndarray:
        """nabla_a u_b."""
        return self.cov_deriv_covector(self.grad(self.u_lo), self.u_lo, self.christoffel)

    @cached_property
    def du_sq(self) -> np.ndarray:
        """nabla^a u^b nabla_a u_b + nabla^a u^b nabla_b u_a."""
        du_up = project(self.gi[_INTERIOR], self.du)
        return (np.einsum("...ab,...ab->...", du_up, self.du)
                + np.einsum("...ab,...ba->...", du_up, self.du))

    @cached_property
    def acc(self) -> np.ndarray:
        """Flow acceleration u^a nabla_a u_b."""
        return np.einsum("...a,...ab->...b", self.u_up[_INTERIOR], self.du)

    @cached_property
    def dF(self) -> np.ndarray:
        """d_a F."""
        return self.grad(self.F)

    @cached_property
    def omega(self) -> np.ndarray:
        """Vorticity Omega_{ab} = d_a C_b - d_b C_a (connection-free)."""
        return self.dC - np.swapaxes(self.dC, -1, -2)

    @cached_property
    def K(self) -> np.ndarray:
        """K_a = d_a F / F."""
        return self.dF / self.F[_INTERIOR][..., None]

    @cached_property
    def sigma(self) -> np.ndarray:
        """Shear Sigma_{ab}: doubly projected symmetrized gradient of C."""
        dC = self.cov_deriv_covector(self.dC, self.C_lo, self.christoffel)
        return project(self.pi_mixed_T[_INTERIOR], dC + np.swapaxes(dC, -1, -2))

    @cached_property
    def pi_mixed_T(self) -> np.ndarray:
        """pi_a^m = pi^m_a, arranged as (..., a, m) for projections."""
        return np.swapaxes(self.pi_mixed, -1, -2)

    @cached_property
    def sigma_sq(self) -> np.ndarray:
        """Sigma^{ab} Sigma_{ab} at every interior node."""
        return np.einsum("...ab,...ab->...", project(self.gi[_INTERIOR], self.sigma),
                         self.sigma)

    @cached_property
    def sigma_bar(self) -> np.ndarray:
        """Conformal shear built from its definition (conformal derivatives)."""
        dbarC = self.dbarC  # (...,a,b)
        sym = dbarC + np.swapaxes(dbarC, -1, -2)
        c_lo = self.C_lo[_INTERIOR]
        cbar_up = self.u_up[_INTERIOR] / self.F[_INTERIOR][..., None]
        drift = np.einsum("...l,...la->...a", cbar_up, dbarC)  # Cbar^l nablabar_l C_a
        correction = np.einsum("...a,...b->...ab", drift, c_lo)
        return sym - (correction + np.swapaxes(correction, -1, -2))

    @property
    def theta_tensor(self) -> np.ndarray:
        """Theta_{ab} = Omega_{ab} - u^l (Omega_{la} u_b + Omega_{lb} u_a); one
        check reads it, so it is not kept."""
        u_lo = self.u_lo[_INTERIOR]
        contr = np.einsum("...l,...la->...a", self.u_up[_INTERIOR], self.omega)
        cu = np.einsum("...a,...b->...ab", contr, u_lo)
        return self.omega - cu - np.swapaxes(cu, -1, -2)

    def interior_max(self, arr: np.ndarray) -> float:
        """Max |arr| over a field held at the interior nodes."""
        return float(np.max(np.abs(arr)))


def _gradient(f: np.ndarray, h: float) -> np.ndarray:
    """Central differences (f[i+1] - f[i-1]) / 2h along the four lattice axes
    at the interior nodes, written into one array whose derivative axis sits
    right after them: (n-2, n-2, n-2, n-2, 4, *rest).  This is np.gradient's
    own interior formula, so the values are bit-identical to its."""
    out = np.empty(tuple(s - 2 for s in f.shape[:4]) + (4,) + f.shape[4:])
    for a in range(4):
        ahead, behind = list(_INTERIOR), list(_INTERIOR)
        ahead[a], behind[a] = slice(2, None), slice(None, -2)
        out[:, :, :, :, a] = f[tuple(ahead)] - f[tuple(behind)]
    # one division over the contiguous whole: per strided slice it took 22 ms
    # against 14 ms for a (4, 4) field on 17^4 nodes
    out /= 2. * h
    return out


def symmetric_inverse(g: np.ndarray) -> np.ndarray:
    """The inverse of each symmetric 4x4 matrix of g (..., 4, 4): its adjugate
    from the 2x2 minors of rows 0-1 and 2-3 (Laplace expansion by complementary
    minors) over its determinant, ten upper cofactors mirrored so that it is
    exactly symmetric.  Raises ValueError where a determinant is 0 or not finite."""
    a = np.moveaxis(g, (-2, -1), (0, 1)).copy()  # each entry one contiguous array
    upper = [(i, j) for i in range(4) for j in range(i, 4)]
    low, high = ({(j, k): a[r, j] * a[r + 1, k] - a[r, k] * a[r + 1, j]
                  for j, k in upper if j < k} for r in (0, 2))
    adj = np.empty_like(a)
    for i, j in upper:  # the minor of (i, j) along the other row of i's pair
        row, minor = (1 - i, high) if i < 2 else (5 - i, low)
        k0, k1, k2 = (k for k in range(4) if k != j)
        adj[i, j] = (a[row, k0] * minor[k1, k2] - a[row, k1] * minor[k0, k2]
                     + a[row, k2] * minor[k0, k1])
    det = (low[0, 1] * high[2, 3] - low[0, 2] * high[1, 3] + low[0, 3] * high[1, 2]
           + low[1, 2] * high[0, 3] - low[1, 3] * high[0, 2] + low[2, 3] * high[0, 1])
    if not (np.isfinite(det) & (det != 0)).all():
        raise ValueError("metric closure produced a singular metric")
    for i, j in upper:  # the cofactor's sign joins the division
        adj[i, j] /= -det if (i + j) % 2 else det
        adj[j, i] = adj[i, j]
    return np.moveaxis(adj, (0, 1), (-2, -1)).copy()


def project(p: np.ndarray, s: np.ndarray) -> np.ndarray:
    """p_am p_bn s_mn at every node, as the batched matmul p @ s @ p^T."""
    return p @ s @ np.swapaxes(p, -1, -2)


def christoffel_from(gl: np.ndarray, gi: np.ndarray, h: float) -> np.ndarray:
    """Gamma^l_{mn} = g^{lr} (d_m g_{rn} + d_n g_{rm} - d_r g_{mn}) / 2 at the
    interior nodes, from gl and gi on the whole lattice."""
    dg = _gradient(gl, h)  # dg[..., m, r, n] = d_m g_{rn}
    # first-kind symbols arranged (..., r, m, n), so raising r is one matmul
    first = np.swapaxes(dg, -3, -2) + np.moveaxis(dg, -3, -1)
    first -= dg
    del dg
    gamma = gi[_INTERIOR] @ first.reshape(first.shape[:-3] + (4, 16))
    gamma *= 0.5
    return gamma.reshape(first.shape)


# -- identity checks -------------------------------------------------------------


@dataclass
class IdentityResidual:
    name: str
    residual: float
    h: float
    ratio: Optional[float] = None

    def to_json(self) -> dict:
        out = {"identity": self.name, "residual": self.residual, "h": self.h}
        if self.ratio is not None:
            out["ratio"] = self.ratio
        return out


def _field_metric_compatibility(patch: FieldPatch) -> np.ndarray:
    """Pointwise exact (the discrete connection is built from the same
    central differences), so the residual is machine precision, not O(h^2)."""
    dg = patch.grad(patch.gl)  # (..., a, r, n) = d_a g_{rn}
    gamma = patch.christoffel
    # nabla_a g_{bc} = d_a g_{bc} - Gamma^l_{ab} g_{lc} - Gamma^l_{ac} g_{bl}
    gl = patch.gl[_INTERIOR]
    return (dg
            - np.einsum("...lab,...lc->...abc", gamma, gl)
            - np.einsum("...lac,...bl->...abc", gamma, gl))


def _field_conformal_derivative(patch: FieldPatch) -> Iterator[np.ndarray]:
    """The test one-form's conformal derivative against its K-term expansion;
    the control drops the trace term."""
    # the conformal side first: its transient connection then peaks before
    # the plain one is built and cached
    lhs = patch.dbar_one_form
    v, K = patch.one_form[_INTERIOR], patch.K
    kv = np.einsum("...a,...b->...ab", K, v)
    rhs = patch.dv - kv - np.swapaxes(kv, -1, -2)
    k_up = np.einsum("...ab,...b->...a", patch.gi[_INTERIOR], K)
    yield lhs - (rhs + np.einsum("...r,...r->...", k_up, v)[..., None, None]
                 * patch.gl[_INTERIOR])
    yield lhs - rhs


def _field_first_shear_identity(patch: FieldPatch) -> Iterator[np.ndarray]:
    """Conformal shear = plain shear + 2 pi_{ab} u^r d_r F; the control drops
    the projection term."""
    u_dF = np.einsum("...r,...r->...", patch.u_up[_INTERIOR], patch.dF)
    rhs = patch.sigma
    yield patch.sigma_bar - (rhs + 2.0 * patch.pi_lo[_INTERIOR] * u_dF[..., None, None])
    yield patch.sigma_bar - rhs


def _field_second_shear_identity(patch: FieldPatch) -> Iterator[np.ndarray]:
    """Conformal shear = 2 (nablabar_b C_a) + Theta_{ab}."""
    rhs = 2.0 * np.swapaxes(patch.dbarC, -1, -2) + patch.theta_tensor
    yield patch.sigma_bar - rhs


def _field_acceleration_identity(patch: FieldPatch) -> Iterator[np.ndarray]:
    """u^a nabla_a u_b = pi^a_b d_a F / F + u^a Omega_{ab} / F; the control
    drops the vorticity term."""
    lhs = patch.acc
    F = patch.F[_INTERIOR][..., None]
    rhs = np.einsum("...ab,...a->...b", patch.pi_mixed[_INTERIOR], patch.dF) / F
    yield lhs - (rhs + np.einsum("...a,...ab->...b", patch.u_up[_INTERIOR], patch.omega) / F)
    yield lhs - rhs


def _field_shear_contraction(patch: FieldPatch) -> Iterator[np.ndarray]:
    """Sigma^{ab} Sigma_{ab} = 2 F^2 (du_sq - acceleration square); the
    control drops the acceleration square."""
    lhs, rhs = patch.sigma_sq, patch.du_sq
    acc_up = (patch.acc[..., None, :] @ patch.gi[_INTERIOR])[..., 0, :]
    scale = 2.0 * patch.F[_INTERIOR] ** 2
    yield lhs - scale * (rhs - np.einsum("...b,...b->...", acc_up, patch.acc))
    yield lhs - scale * rhs


@dataclass
class EntropySignReport:
    min_value: float
    max_value: float
    bound: float
    ok: bool
    vtheta: float
    nonneg_convention: str

    def to_json(self) -> dict:
        return {"min_value": self.min_value, "max_value": self.max_value,
                "bound": self.bound, "ok": self.ok, "vtheta": self.vtheta,
                "pointwise_nonnegative_for": self.nonneg_convention}


#: the entropy probe's finite-difference tolerance is this factor times h^2
ENTROPY_BOUND_FACTOR = 10.0


def entropy_bound(h: float) -> float:
    """The tolerance ENTROPY_BOUND_FACTOR * h^2; inf when it overflows."""
    try:
        return ENTROPY_BOUND_FACTOR * h ** 2
    except OverflowError:
        return math.inf


def check_entropy_sign(patch: FieldPatch, vtheta: float = -1.0) -> EntropySignReport:
    """Entropy production density (vtheta/2F) Sigma^{ab}Sigma_{ab}: min over
    interior nodes against the FD tolerance `entropy_bound(h)`.

    The contraction Sigma^{ab}Sigma_{ab} is pointwise non-negative (see
    shear_square_range), so the production is pointwise non-negative exactly
    when vtheta >= 0; the report records that alongside the verdict for the
    requested vtheta.
    """
    produced = vtheta / (2.0 * patch.F[_INTERIOR]) * patch.sigma_sq
    mn = float(np.min(produced))
    mx = float(np.max(produced))
    bound = entropy_bound(patch.h)
    return EntropySignReport(mn, mx, bound, mn >= -bound, vtheta,
                             "vtheta >= 0")


def check_projector_algebra(patch: FieldPatch) -> Dict[str, float]:
    """Pointwise (FD-free) identities: projector idempotence and
    annihilation of the flow, exact unit normalizations."""
    pi2 = np.einsum("...am,...mb->...ab", patch.pi_mixed, patch.pi_mixed)
    idem = np.max(np.abs(pi2 - patch.pi_mixed))
    annih = np.max(np.abs(np.einsum("...ab,...b->...a", patch.pi_lo, patch.u_up)))
    cbar_up = patch.u_up / patch.F[..., None]
    unit_cbar = np.max(np.abs(np.einsum("...a,...a->...", cbar_up, patch.C_lo) - 1.0))
    unit_u = np.max(np.abs(np.einsum("...a,...a->...", patch.u_up, patch.u_lo) - 1.0))
    return {"projector-idempotent": float(idem),
            "projector-annihilates-flow": float(annih),
            "inverse-velocity-unit": float(unit_cbar),
            "velocity-unit": float(unit_u)}


def _field_velocity_gradient_orthogonality(patch: FieldPatch) -> Iterator[np.ndarray]:
    """u^a nabla_b u_a = 0 (derivative of the exact unit normalization)."""
    yield np.einsum("...a,...ba->...b", patch.u_up[_INTERIOR], patch.du)  # du is (..., b, a)


#: The lab's identities, name -> residual fields: each yields its check's
#: residual, then, if it has one, its mutated control's (row `<name>-mutated`),
#: a variant with one term dropped that must NOT converge.
IDENTITIES: Tuple[Tuple[str, Callable[[FieldPatch], Iterator[np.ndarray]]], ...] = (
    ("conformal-derivative", _field_conformal_derivative),
    ("shear-conformal-split", _field_first_shear_identity),
    ("shear-vorticity-split", _field_second_shear_identity),
    ("flow-acceleration", _field_acceleration_identity),
    ("shear-contraction", _field_shear_contraction),
    ("unit-norm-derivative", _field_velocity_gradient_orthogonality),
)


def _nested_max(field: np.ndarray, level: int, base_n: int, lo: int = 0) -> float:
    """Max |residual| over the base grid's interior nodes, which are shared
    by every refinement (spacing halves, extent fixed); comparing the same
    physical points gives clean pointwise convergence ratios.  `field` holds
    the interior nodes of a slab from axis-0 node lo (0.0 if none is shared),
    so lattice node i sits at index i - 1, on axis 0 at i - lo - 1."""
    stride = 2 ** level
    sl = (slice(stride - 1, (base_n - 1) * stride - 1, stride),) * 3
    first = -(lo + 1) % stride  # the first axis-0 index of a shared node
    return float(np.max(np.abs(field[(slice(first, None, stride),) + sl]), initial=0.0))


def refinement_table(h: float = 0.1, refine: int = 1, n: int = 9,
                     base: Optional[FieldPatch] = None) -> List[IdentityResidual]:
    """Residuals of every field the IDENTITIES yield, the checks and then the
    mutated controls, across k halvings of the spacing, with ratios over the
    shared base-grid nodes.

    The coarsest patch is `base` when given (its h and n then stand in for
    the arguments), else the standard patch.  Each row's maxima are taken
    over the slabs of each level, finest first, so that the fields of a
    `base` that fits one slab are computed last and kept for the caller.
    """
    if base is None:
        base = FieldPatch.standard(h, n)
    patches = [base] + [base.refined(k) for k in range(1, refine + 1)]
    top: Dict[str, np.ndarray] = {}  # row -> per level (interior, shared-node) max
    for level in reversed(range(len(patches))):
        for slab in patches[level].slabs():
            for name, identity in IDENTITIES:
                row = name
                for field in identity(slab):
                    maxima = top.setdefault(row, np.zeros((len(patches), 2)))
                    maxima[level] = np.maximum(maxima[level], (
                        slab.interior_max(field), _nested_max(field, level, base.n, slab.lo)))
                    del field  # reduced, so dropped before the next field is built
                    row = name + "-mutated"
    rows: List[IdentityResidual] = []
    for name in sorted(top, key=lambda row: row.endswith("-mutated")):
        for level, patch in enumerate(patches):
            res = IdentityResidual(name, float(top[name][level, 0]), patch.h)
            shared = float(top[name][level, 1])
            if level and shared > 0:
                res.ratio = float(top[name][level - 1, 1]) / shared
            rows.append(res)
    return rows


def shear_square_range(patch: FieldPatch) -> Tuple[float, float]:
    """(min, max) over interior nodes of Sigma^{ab}Sigma_{ab}.

    Raising both indices of a spatial symmetric tensor squares the metric
    signs, so the contraction is pointwise non-negative in any signature;
    the range makes the measured sign structure part of the report.
    """
    sq = patch.sigma_sq
    return float(np.min(sq)), float(np.max(sq))
