import tracemalloc

import numpy as np
import pytest

from lops import lab
from lops.cli import main


@pytest.fixture(scope="module")
def patch():
    return lab.FieldPatch.standard(h=0.1, n=9)


@pytest.fixture(scope="module")
def table():
    return lab.refinement_table(h=0.1, refine=1, n=9)


@pytest.fixture(scope="module")
def flat():
    return lab.FieldPatch(0.1, 5, lab.constant_minkowski, lab.constant_velocity)


def yielded_fields(patch):
    """Every residual field the identity table yields on a patch, by row
    name: the checks in table order, then the mutated controls."""
    checks, controls = {}, {}
    for name, identity in lab.IDENTITIES:
        check, *control = identity(patch)
        assert len(control) <= 1, name  # a check and at most one control
        checks[name] = check
        controls.update((name + "-mutated", field) for field in control)
    return {**checks, **controls}


class TestFlatCases:
    def test_christoffels_vanish(self, flat):
        assert np.max(np.abs(flat.christoffel)) == 0.0

    def test_identities_trivially_zero(self, flat):
        fields = yielded_fields(flat)
        assert len(fields) == 10
        for name, field in fields.items():
            assert flat.interior_max(field) == 0.0, name

    def test_entropy_production_exactly_zero(self, flat):
        rep = lab.check_entropy_sign(flat, vtheta=-1.0)
        assert rep.min_value == 0.0 and rep.max_value == 0.0


def einsum_christoffel(gl, gi, h):
    """Reference: Gamma^l_{mn} = g^{lr} (d_m g_{rn} + d_n g_{rm} - d_r g_{mn}) / 2."""
    dg = np.stack([np.gradient(gl, h, axis=a, edge_order=2) for a in range(4)], axis=4)
    return 0.5 * np.einsum("...lr,...mrn->...lmn",
                           gi, dg + np.swapaxes(dg, 4, 6) - np.moveaxis(dg, 4, 5))


class TestContractionKernels:
    def test_project_matches_einsum(self, patch, flat):
        for p in (patch, flat):
            ref = np.einsum("...am,...bn,...mn->...ab", p.pi_mixed_T, p.pi_mixed_T, p.gl)
            assert np.max(np.abs(lab.project(p.pi_mixed_T, p.gl) - ref)) <= 1e-15
        assert not flat.sigma.any()

    def test_christoffel_matches_einsum(self, patch, flat):
        # the connection is held at the interior nodes only
        got = lab.christoffel_from(patch.gl, patch.gi, patch.h)
        ref = einsum_christoffel(patch.gl, patch.gi, patch.h)
        assert np.max(np.abs(ref)) > 1e-2  # the family is genuinely curved
        assert np.max(np.abs(got - ref[lab._INTERIOR])) <= 1e-15
        assert not lab.christoffel_from(flat.gl, flat.gi, flat.h).any()

    def test_two_connections_per_patch(self, monkeypatch, capsys):
        """The plain connection once and the transient conformal one once per
        slab, and the slabs' axis-0 interiors tile each patch's interior once."""
        calls, slabs = [], []
        original, original_slabs = lab.christoffel_from, lab.FieldPatch.slabs

        def counted(gl, gi, h):
            calls.append(gl.shape[0])
            return original(gl, gi, h)

        def recorded(patch):
            for slab in original_slabs(patch):
                slabs.append(slab)
                yield slab

        monkeypatch.setattr(lab, "christoffel_from", counted)
        monkeypatch.setattr(lab.FieldPatch, "slabs", recorded)
        assert main(["lab", "run", "--json"]) == 0
        capsys.readouterr()
        assert sorted(calls) == sorted(2 * [len(axis0(s)) for s in slabs])
        for n in (9, 17):
            interiors = [p for s in slabs if s.n == n for p in axis0(s)[1:-1]]
            assert sorted(interiors) == list(range(1, n - 1)), n
        assert {s.n for s in slabs} == {9, 17}

    def test_one_difference_per_differentiated_field(self, monkeypatch):
        """Six differences per slab: the metric, the conformal metric, C, the
        test one-form, u and F, each taken once."""
        calls = []
        original = lab._gradient

        def counted(f, h):
            calls.append(f.shape[4:])
            return original(f, h)

        monkeypatch.setattr(lab, "_gradient", counted)
        patch = lab.FieldPatch.standard(h=0.1, n=5)  # one slab
        yielded_fields(patch)
        assert sorted(calls) == sorted([(4, 4), (4, 4), (4,), (4,), (4,), ()])


def axis0(patch):
    """The lattice's axis-0 nodes that a patch or slab holds."""
    return range(patch.n)[patch.lo:patch.hi]


def coords(patch):
    """The coordinates of every node of a patch, shape (*nodes, 4)."""
    return np.stack(np.broadcast_arrays(*patch.axes), axis=-1)


def whole_patch_table(h, refine, n):
    """The residual rows as one pass over each whole patch computes them,
    row by row."""
    patches = [lab.FieldPatch.standard(h, n)]
    patches += [patches[0].refined(k) for k in range(1, refine + 1)]
    maxima = []  # per level: row -> (interior max, shared-node max)
    for level, patch in enumerate(patches):
        stride = 2 ** level
        nodes = (slice(stride - 1, (n - 1) * stride - 1, stride),) * 4
        maxima.append({name: (patch.interior_max(field), float(np.max(np.abs(field[nodes]))))
                       for name, field in yielded_fields(patch).items()})
    rows = []
    for name in maxima[0]:
        prev = None
        for level, patch in enumerate(patches):
            top, shared = maxima[level][name]
            res = lab.IdentityResidual(name, top, patch.h)
            if prev is not None and shared > 0:
                res.ratio = prev / shared
            rows.append(res.to_json())
            prev = shared
    return rows


ROW_NAMES = ["conformal-derivative", "shear-conformal-split", "shear-vorticity-split",
             "flow-acceleration", "shear-contraction", "unit-norm-derivative",
             "conformal-derivative-mutated", "shear-conformal-split-mutated",
             "flow-acceleration-mutated", "shear-contraction-mutated"]


def test_refinement_table_row_names(table):
    """The six checks, then the four mutated controls, each across its levels."""
    assert [r.name for r in table] == [name for name in ROW_NAMES for _ in range(2)]
    assert [r.h for r in table] == [0.1, 0.05] * len(ROW_NAMES)


class TestSlabs:
    """refinement_table runs the checks over axis-0 slabs of each patch."""

    @pytest.mark.parametrize("refine", [1, 2])
    def test_rows_equal_the_whole_patch_pass(self, refine):
        rows = [r.to_json() for r in lab.refinement_table(h=0.1, refine=refine, n=5)]
        assert rows == whole_patch_table(0.1, refine, 5)

    @pytest.mark.parametrize("n", [5, 9, 17, 33])
    def test_slab_interiors_tile_the_patch_interior(self, n):
        patch = lab.FieldPatch.standard(h=0.1, n=n)
        slabs = list(patch.slabs())
        interiors = [p for slab in slabs for p in axis0(slab)[1:-1]]
        assert interiors == list(range(1, n - 1))  # each interior plane once
        for slab in slabs:
            assert (slab.h, slab.n) == (patch.h, patch.n)
            assert len(axis0(slab)) - 2 <= lab.SLAB_PLANES
        # a patch that fits one slab is its own slab
        assert (len(slabs) == 1) == (n - 2 <= lab.SLAB_PLANES)
        assert len(slabs) > 1 or slabs[0] is patch

    @pytest.mark.parametrize("n", [5, 9, 17])
    def test_slab_fields_are_slices_of_the_patch_fields(self, n):
        patch = lab.FieldPatch.standard(h=0.1, n=n)
        for slab in patch.slabs():
            nodes = axis0(slab)
            rows = slice(nodes.start, nodes.stop)
            assert np.array_equal(coords(slab), coords(patch)[rows])
            assert np.array_equal(slab.gi, patch.gi[rows])
            inner = slice(nodes.start, nodes.stop - 2)  # interior fields start at node 1
            assert np.array_equal(slab.christoffel, patch.christoffel[inner])
            assert np.array_equal(slab.sigma_bar, patch.sigma_bar[inner])

    def test_refinement_peak_allocation(self):
        """tracemalloc peak of the default table: 57.6 MB measured with
        slabs (150.8 MB with whole patches); the bound is 1.25x 58.6 MB."""
        tracemalloc.start()
        try:
            lab.refinement_table(h=0.1, refine=1, n=9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * 58.6 * 2 ** 20, peak / 2 ** 20


CLOSURES = (lab.standard_metric, lab.standard_dynamic_velocity, lab.standard_one_form,
            lab.constant_minkowski, lab.constant_velocity)


class TestOpenGrid:
    """The closures read the open-grid axes and return the same fields, to
    the bit, as on the fully broadcast lattice."""

    @pytest.mark.parametrize("fn", CLOSURES, ids=lambda fn: fn.__name__)
    def test_closure_on_axes_equals_the_lattice(self, fn):
        patch = lab.FieldPatch.standard(h=0.1, n=17)
        for p in (patch, *patch.slabs()):
            got = fn(*p.axes)
            assert got.shape[:4] == (len(axis0(p)), 17, 17, 17)
            assert np.array_equal(got, fn(*np.broadcast_arrays(*p.axes)))


def lorentzian_frames(count, seed):
    """Seeded random metrics g = E^T eta E with frames E near the identity."""
    frames = np.eye(4) + 0.2 * np.random.default_rng(seed).standard_normal((count, 4, 4))
    return np.swapaxes(frames, -1, -2) @ lab.ETA @ frames


class TestSymmetricInverse:
    """The closed-form inverse against LAPACK's, kept here as the reference."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_lapack(self, seed):
        g = lorentzian_frames(2000, seed)
        gi = lab.symmetric_inverse(g)
        ref = np.linalg.inv(g)
        assert np.max(np.abs(gi @ g - np.eye(4))) <= 1e-13
        scale = np.max(np.abs(ref), axis=(-2, -1), keepdims=True)
        assert np.max(np.abs(gi - ref) / scale) <= 1e-13

    def test_exactly_symmetric(self, patch):
        for gi in (patch.gi, lab.symmetric_inverse(lorentzian_frames(2000, 3))):
            assert np.array_equal(gi, gi.swapaxes(-1, -2))

    def test_minkowski_is_its_own_inverse(self, flat):
        assert np.array_equal(flat.gi, np.broadcast_to(lab.ETA, flat.gl.shape))


class TestInteriorDifferences:
    """Derivatives are taken at the interior nodes only, with np.gradient's
    own interior formula, so every report is unchanged to the bit."""

    @pytest.mark.parametrize("n", [5, 9, 17])
    @pytest.mark.parametrize("h", [0.1, 0.05])
    @pytest.mark.parametrize("rest", [(), (4,), (4, 4)],
                             ids=["scalar", "covector", "two-tensor"])
    def test_gradient_is_bit_identical_to_numpy(self, n, h, rest):
        f = np.random.default_rng(n).standard_normal((n,) * 4 + rest)
        got = lab._gradient(f, h)
        assert got.shape == (n - 2,) * 4 + (4,) + rest
        for a in range(4):
            ref = np.gradient(f, h, axis=a, edge_order=2)[lab._INTERIOR]
            assert np.array_equal(got[:, :, :, :, a], ref), a

    @pytest.mark.parametrize("level", [1, 2])
    def test_nested_max_reads_the_base_interior_nodes(self, level):
        """_nested_max reads exactly the refined interior nodes whose
        coordinates equal a base interior node's, of the whole patch and of
        each slab, told the slab's first axis-0 node."""
        base = lab.FieldPatch.standard(h=0.1, n=9)
        fine = base.refined(level)
        shared = np.isin(coords(fine)[lab._INTERIOR],
                         np.unique(coords(base)[lab._INTERIOR])).all(axis=-1)
        assert shared.sum() == (base.n - 2) ** 4
        pieces = [(shared, 0)] + [(shared[s.lo:s.hi - 2], s.lo) for s in fine.slabs()]
        assert len(pieces) > 2
        for part, lo in pieces:
            # no other node is read ...
            assert lab._nested_max(np.where(part, 0.0, 1.0), level, base.n, lo) == 0.0
            # ... and every shared one is
            field = np.zeros(part.shape)
            for node in map(tuple, np.argwhere(part)):
                field[node] = -1.0
                assert lab._nested_max(field, level, base.n, lo) == 1.0, node
                field[node] = 0.0


class TestPointwiseAlgebra:
    def test_projector_and_normalizations(self, patch):
        vals = lab.check_projector_algebra(patch)
        for name, v in vals.items():
            assert v < 1e-12, name

    def test_metric_compatibility_is_discretely_exact(self, patch):
        assert patch.interior_max(lab._field_metric_compatibility(patch)) < 1e-13

    def test_shear_square_nonnegative_pointwise(self, patch):
        lo, hi = lab.shear_square_range(patch)
        assert lo >= -1e-12
        assert hi > 0  # the standard family genuinely shears


class TestConvergence:
    def test_identities_converge_at_second_order(self, table):
        for row in table:
            if row.ratio is None or row.name.endswith("-mutated"):
                continue
            assert 3.5 <= row.ratio <= 4.5, (row.name, row.ratio)

    def test_negative_controls_stall(self, table):
        stalled = [r for r in table if r.name.endswith("-mutated") and r.ratio is not None]
        assert stalled
        for row in stalled:
            assert not 3.5 <= row.ratio <= 4.5, (row.name, row.ratio)
            assert row.ratio < 2.0

    def test_residuals_have_h_squared_scale(self, table):
        for row in table:
            if row.name.endswith("-mutated"):
                continue
            assert row.residual < 1e-3


class TestEntropySign:
    def test_default_convention_within_bound(self, patch):
        rep = lab.check_entropy_sign(patch, vtheta=-1.0)
        assert rep.ok and rep.min_value >= -10 * patch.h ** 2

    def test_linearity_in_viscosity(self, patch):
        a = lab.check_entropy_sign(patch, vtheta=-1.0)
        b = lab.check_entropy_sign(patch, vtheta=1.0)
        assert a.min_value == -b.max_value and a.max_value == -b.min_value

    def test_reported_nonneg_convention(self, patch):
        rep = lab.check_entropy_sign(patch, vtheta=-1.0)
        assert rep.nonneg_convention == "vtheta >= 0"


class TestPatchMechanics:
    def test_too_small_rejected(self):
        with pytest.raises(lab.PatchTooSmallError):
            lab.FieldPatch(0.1, 4, lab.constant_minkowski, lab.constant_velocity)

    def test_refinement_keeps_extent(self, patch):
        fine = patch.refined(1)
        assert fine.n == 17 and fine.h == pytest.approx(0.05)
        assert np.allclose(coords(fine)[0, 0, 0, 0], coords(patch)[0, 0, 0, 0])
        assert np.allclose(coords(fine)[-1, -1, -1, -1], coords(patch)[-1, -1, -1, -1])

    def test_velocity_requires_timelike_dynamic_velocity(self):
        def null_velocity(*x):
            c = np.zeros(np.broadcast_shapes(*(a.shape for a in x)) + (4,))
            c[..., 1] = 1.0  # spacelike covector
            return c
        bad = lab.FieldPatch(0.1, 5, lab.constant_minkowski, null_velocity)
        with pytest.raises(ValueError):
            _ = bad.F

    def test_singular_metric_rejected(self):
        def metric(*x):
            g = lab.constant_minkowski(*x)
            g[..., 0, 0] = sum(a * a for a in x)  # 0 at the central node only
            return g
        bad = lab.FieldPatch(0.1, 5, metric, lab.constant_velocity)
        assert np.count_nonzero(bad.gl[..., 0, 0] == 0) == 1
        with pytest.raises(ValueError, match="singular metric"):
            _ = bad.gi

    def test_vorticity_antisymmetric(self, patch):
        om = patch.omega
        assert np.max(np.abs(om + np.swapaxes(om, -1, -2))) < 1e-15
        assert np.max(np.abs(om)) > 1e-4  # the family genuinely rotates
