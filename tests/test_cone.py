"""Cone projection, Jacobian elements, and their invariants."""

import numpy as np
import pytest

from socalm import (
    Block,
    ConeSpec,
    SocCase,
    apply_jacobian,
    dist_to_cone,
    jacobian_element,
    make_jacobian,
    project,
)
from socalm.cone import TIE_TOL, tail_norms

MIXED = ConeSpec.make(nonneg=4, soc=[2, 3, 5])
SOC3 = ConeSpec.make(soc=[3])


def brute_force_projection(x, samples=400000, seed=0):
    """Nearest cone point by KKT verification on the analytic candidate plus
    a random feasible sweep (single Lorentz block)."""
    rng = np.random.default_rng(seed)
    d = len(x)
    # random feasible points: z0 >= ||zt||
    zt = rng.standard_normal((samples, d - 1)) * np.linalg.norm(x)
    z0 = np.linalg.norm(zt, axis=1) + rng.uniform(0, np.linalg.norm(x), samples)
    Z = np.concatenate([z0[:, None], zt], axis=1)
    dist = np.linalg.norm(Z - x, axis=1)
    return Z[np.argmin(dist)], float(dist.min())


class TestProject:
    def test_already_in_cone(self):
        x = np.array([6.0, 3.0, 4.0])
        assert np.array_equal(project(SOC3, x), x)

    def test_polar_case(self):
        x = np.array([-6.0, 3.0, 4.0])
        assert np.array_equal(project(SOC3, x), np.zeros(3))

    def test_middle_case_value(self):
        p = project(SOC3, np.array([0.0, 3.0, 4.0]))
        np.testing.assert_allclose(p, [2.5, 1.5, 2.0], rtol=0, atol=1e-15)

    def test_middle_case_against_brute_force(self):
        x = np.array([0.0, 3.0, 4.0])
        p = project(SOC3, x)
        _, best = brute_force_projection(x)
        # analytic projection is at least as close as any sampled feasible point
        assert np.linalg.norm(p - x) <= best + 1e-3
        # and satisfies the projection optimality condition <x - p, z - p> <= 0
        rng = np.random.default_rng(1)
        zt = rng.standard_normal((1000, 2)) * 10
        z0 = np.linalg.norm(zt, axis=1) + rng.uniform(0, 10, 1000)
        Z = np.concatenate([z0[:, None], zt], axis=1)
        assert np.max((Z - p) @ (x - p)) <= 1e-9

    def test_nonneg_block(self):
        cone = ConeSpec.make(nonneg=3)
        np.testing.assert_array_equal(
            project(cone, np.array([-1.0, 0.0, 2.0])), [0.0, 0.0, 2.0])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            project(SOC3, np.ones(4))


class TestDistance:
    def test_member(self):
        assert dist_to_cone(SOC3, np.array([6.0, 3.0, 4.0])) == 0.0

    def test_polar(self):
        d = dist_to_cone(SOC3, np.array([-6.0, 3.0, 4.0]))
        assert abs(d - np.sqrt(61.0)) < 1e-14

    def test_middle(self):
        d = dist_to_cone(SOC3, np.array([0.0, 3.0, 4.0]))
        assert abs(d - 3.5355339059327378) < 1e-14


class TestJacobianElement:
    def test_interior_gives_identity(self):
        J = jacobian_element(SOC3, np.array([6.0, 3.0, 4.0]))
        case, _, _ = J.soc_case(0)
        assert case == SocCase.IDENTITY
        np.testing.assert_array_equal(J.dense_block(0), np.eye(3))

    def test_polar_gives_zero(self):
        J = jacobian_element(SOC3, np.array([-6.0, 3.0, 4.0]))
        case, _, _ = J.soc_case(0)
        assert case == SocCase.ZERO
        np.testing.assert_array_equal(J.dense_block(0), np.zeros((3, 3)))

    def test_middle_matrix(self):
        J = jacobian_element(SOC3, np.array([0.0, 3.0, 4.0]))
        expected = 0.5 * np.array([[1.0, 0.6, 0.8],
                                   [0.6, 1.0, 0.0],
                                   [0.8, 0.0, 1.0]])
        np.testing.assert_allclose(J.dense_block(0), expected, atol=1e-15)

    def test_middle_matches_finite_differences(self):
        x = np.array([0.0, 3.0, 4.0])
        J = jacobian_element(SOC3, x)
        h = 1e-6
        fd = np.empty((3, 3))
        for j in range(3):
            e = np.zeros(3)
            e[j] = h
            fd[:, j] = (project(SOC3, x + e) - project(SOC3, x - e)) / (2 * h)
        got = J.dense_block(0)
        assert np.abs(got - fd).max() <= 1e-6 * max(1.0, np.abs(fd).max())

    def test_tie_breaking(self):
        # upper boundary -> identity, lower boundary -> zero, origin -> identity
        J = jacobian_element(SOC3, np.array([5.0, 3.0, 4.0]))
        assert J.soc_case(0)[0] == SocCase.IDENTITY
        J = jacobian_element(SOC3, np.array([-5.0, 3.0, 4.0]))
        assert J.soc_case(0)[0] == SocCase.ZERO
        J = jacobian_element(SOC3, np.zeros(3))
        assert J.soc_case(0)[0] == SocCase.IDENTITY

    def test_nonneg_kink_derivative_one(self):
        cone = ConeSpec.make(nonneg=3)
        J = jacobian_element(cone, np.array([-1.0, 0.0, 2.0]))
        np.testing.assert_array_equal(J.nonneg_mask, [0.0, 1.0, 1.0])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            jacobian_element(SOC3, np.ones(2))


class TestApplyJacobian:
    def test_identity_and_zero(self):
        rng = np.random.default_rng(0)
        v = rng.standard_normal(3)
        J = jacobian_element(SOC3, np.array([6.0, 3.0, 4.0]))
        np.testing.assert_array_equal(apply_jacobian(J, v), v)
        J = jacobian_element(SOC3, np.array([-6.0, 3.0, 4.0]))
        np.testing.assert_array_equal(apply_jacobian(J, v), np.zeros(3))

    def test_middle_example(self):
        J = jacobian_element(SOC3, np.array([0.0, 3.0, 4.0]))
        out = apply_jacobian(J, np.array([2.0, 0.0, 0.0]))
        np.testing.assert_allclose(out, [1.0, 0.6, 0.8], atol=1e-15)

    def test_matches_dense_blocks_on_mixed_cone(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(MIXED.total_dim) * 3
        J = jacobian_element(MIXED, x)
        v = rng.standard_normal(MIXED.total_dim)
        out = apply_jacobian(J, v)
        for i, blk in enumerate(MIXED.blocks):
            sl = MIXED.block_slice(i)
            ref = J.dense_block(i) @ v[sl]
            np.testing.assert_allclose(out[sl], ref, atol=1e-13)

    def test_boundary_elements_from_explicit_construction(self):
        omega = np.array([0.6, 0.8])
        for case in (SocCase.BOUNDARY_UPPER, SocCase.BOUNDARY_LOWER):
            J = make_jacobian(SOC3, soc_cases={0: (case, None, omega)})
            np.testing.assert_array_equal(J.soc[0].rows, [0])
            V = J.dense_block(0)
            np.testing.assert_allclose(V, V.T, atol=1e-15)
            w = np.linalg.eigvalsh(V)
            assert w.min() >= -1e-14 and w.max() <= 1.0 + 1e-14
            v = np.array([1.0, -2.0, 0.5])
            np.testing.assert_allclose(apply_jacobian(J, v), V @ v, atol=1e-14)

    def test_dimension_mismatch(self):
        J = jacobian_element(SOC3, np.array([0.0, 3.0, 4.0]))
        with pytest.raises(ValueError):
            apply_jacobian(J, np.ones(5))


def assert_same_bits(got, ref):
    got, ref = np.asarray(got, dtype=float), np.asarray(ref, dtype=float)
    np.testing.assert_array_equal(got, ref)
    assert got.tobytes() == ref.tobytes()  # also tells -0.0 from 0.0


def _tail_norm(t):
    # summed as the vectorized kernels sum each tail: one pairwise reduction
    return np.sqrt(np.add.reduce(t * t))


def reference_project(cone, x):
    """The projection, one block at a time."""
    out = np.empty_like(x)
    for i, blk in enumerate(cone.blocks):
        sl = cone.block_slice(i)
        v = x[sl]
        if blk.kind == "nonneg":
            out[sl] = np.maximum(v, 0.0)
            continue
        head, nt = v[0], _tail_norm(v[1:])
        if head <= -nt:
            out[sl] = 0.0
        elif head < nt:
            coef = 0.5 * (head + nt)
            out[sl.start] = coef
            out[sl.start + 1:sl.stop] = coef / nt * v[1:]
        else:
            out[sl] = v
    return out


def reference_case(v):
    """``(SocCase, rho, omega)`` of one Lorentz block, by the documented ties."""
    head, tail = v[0], v[1:]
    nt = _tail_norm(tail)
    if head - nt >= -TIE_TOL:
        return SocCase.IDENTITY, 1.0, np.zeros(tail.size)
    if head + nt <= TIE_TOL:
        return SocCase.ZERO, -1.0, np.zeros(tail.size)
    return SocCase.MIDDLE, head / nt, tail / nt


def points_in_every_case(cone, seed):
    """A point whose Lorentz blocks cycle through interior, polar, middle,
    upper boundary, lower boundary and origin, with a mixed-sign orthant."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(cone.total_dim) * 3.0
    soc = [i for i, blk in enumerate(cone.blocks) if blk.kind == "soc"]
    for j, i in enumerate(soc):
        sl = cone.block_slice(i)
        tail = x[sl.start + 1:sl.stop]
        nt = _tail_norm(tail)
        x[sl.start] = (2.0 * nt, -2.0 * nt, 0.3 * nt, nt, -nt, 0.0)[j % 6]
        if j % 6 == 5:
            x[sl] = 0.0
    return x


EQUAL_BLOCKS = ConeSpec.make(soc=[7] * 50)
# the two soc(3) groups and the soc(4) group are interleaved, so neither
# is contiguous, and the orthant sits between them
INTERLEAVED = ConeSpec(
    [Block("soc", 3), Block("soc", 4)] * 4 + [Block("nonneg", 3)]
    + [Block("soc", 4), Block("soc", 3)] * 4)


class TestKernelsBitExact:
    @pytest.mark.parametrize("cone, contiguous",
                             [(EQUAL_BLOCKS, True), (INTERLEAVED, False)],
                             ids=["equal", "interleaved"])
    def test_against_per_block_reference(self, cone, contiguous):
        assert all(g.contiguous == contiguous for g in cone.soc_groups)
        seen = set()
        for seed in range(4):
            x = points_in_every_case(cone, seed)
            x_before = x.copy()
            norms = tail_norms(cone, x)
            assert_same_bits(project(cone, x), reference_project(cone, x))
            assert_same_bits(project(cone, x, norms=norms),
                             reference_project(cone, x))
            for J in (jacobian_element(cone, x),
                      jacobian_element(cone, x, norms=norms)):
                for i, blk in enumerate(cone.blocks):
                    if blk.kind != "soc":
                        continue
                    code, rho, omega = J.soc_case(i)
                    ref = reference_case(x[cone.block_slice(i)])
                    assert code == ref[0]
                    assert_same_bits(rho, ref[1])
                    assert_same_bits(omega, ref[2])
                    seen.add(code)
                # unit vectors are stored for the middle rows only
                for gj in J.soc:
                    np.testing.assert_array_equal(
                        gj.rows, np.flatnonzero(gj.codes == SocCase.MIDDLE))
                    assert gj.omega.shape == (gj.rows.size, gj.group.dim - 1)
                if cone.nonneg_dim:
                    s = cone.nonneg_start
                    assert_same_bits(
                        J.nonneg_mask, x[s:s + cone.nonneg_dim] >= 0.0)
            assert_same_bits(x, x_before)
        assert seen == {SocCase.IDENTITY, SocCase.ZERO, SocCase.MIDDLE}

    @pytest.mark.parametrize("cone", [EQUAL_BLOCKS, INTERLEAVED, MIXED],
                             ids=["equal", "interleaved", "mixed"])
    def test_jacobian_with_given_norms_is_the_computed_one(self, cone):
        for seed in range(3):
            x = points_in_every_case(cone, seed)
            J = jacobian_element(cone, x)
            Jn = jacobian_element(cone, x, norms=tail_norms(cone, x))
            for gj, gn in zip(J.soc, Jn.soc):
                for name in ("codes", "rho", "omega"):
                    assert_same_bits(getattr(gn, name), getattr(gj, name))

    def test_tail_norms_agree_with_linalg_norm(self):
        # many small blocks, and a few of the enclosing ball's dimension
        for count, dim in ((50, 7), (200, 401)):
            cone = ConeSpec.make(soc=[dim] * count)
            x = np.random.default_rng(dim).standard_normal(count * dim)
            (nt,) = tail_norms(cone, x)
            assert_same_bits(
                nt, np.linalg.norm(x.reshape(count, dim)[:, 1:], axis=1))

    def test_every_block_in_the_middle_case(self):
        # a group with no identity or zero rows
        x = np.random.default_rng(6).standard_normal(EQUAL_BLOCKS.total_dim)
        for i in range(50):
            sl = EQUAL_BLOCKS.block_slice(i)
            x[sl.start] = 0.5 * _tail_norm(x[sl.start + 1:sl.stop])
        assert_same_bits(project(EQUAL_BLOCKS, x),
                         reference_project(EQUAL_BLOCKS, x))
        J = jacobian_element(EQUAL_BLOCKS, x)
        for i in range(50):
            code, rho, omega = J.soc_case(i)
            ref = reference_case(x[EQUAL_BLOCKS.block_slice(i)])
            assert code == ref[0] == SocCase.MIDDLE
            assert_same_bits(rho, ref[1])
            assert_same_bits(omega, ref[2])


class TestConeSpecRepr:
    def test_runs_of_equal_blocks_collapse(self):
        assert repr(ConeSpec.make(soc=[401] * 1000)) == "ConeSpec(soc(401) x 1000)"
        assert repr(INTERLEAVED).startswith("ConeSpec(soc(3) x soc(4) x soc(3)")
        assert (repr(ConeSpec.make(nonneg=3, soc=[3, 3, 4, 3]))
                == "ConeSpec(nonneg(3) x soc(3) x 2 x soc(4) x soc(3))")
        assert repr(MIXED) == "ConeSpec(nonneg(4) x soc(2) x soc(3) x soc(5))"
        assert repr(ConeSpec([])) == "ConeSpec(trivial)"


class TestConeSpecValidation:
    def test_soc_dim_one_rejected(self):
        with pytest.raises(ValueError):
            ConeSpec([Block("soc", 1)])

    def test_two_nonneg_blocks_rejected(self):
        with pytest.raises(ValueError):
            ConeSpec([Block("nonneg", 2), Block("nonneg", 3)])

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            ConeSpec([Block("psd", 3)])

    def test_soc_dim_two_supported(self):
        cone = ConeSpec.make(soc=[2])
        p = project(cone, np.array([0.0, 2.0]))
        np.testing.assert_allclose(p, [1.0, 1.0], atol=1e-15)


def _random_points(cone, count, seed, scale=5.0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((count, cone.total_dim)) * scale


class TestProjectionProperties:
    @pytest.mark.parametrize("cone", [MIXED, SOC3, ConeSpec.make(soc=[2, 2, 7])])
    def test_nonexpansiveness(self, cone):
        pts = _random_points(cone, 400, 11)
        for i in range(0, 400, 2):
            x, y = pts[i], pts[i + 1]
            assert (np.linalg.norm(project(cone, x) - project(cone, y))
                    <= np.linalg.norm(x - y) + 1e-12)

    @pytest.mark.parametrize("cone", [MIXED, SOC3])
    def test_moreau_decomposition(self, cone):
        for x in _random_points(cone, 300, 12):
            p = project(cone, x)
            q = project(cone, -x)
            assert np.abs(x - (p - q)).max() <= 1e-12
            assert abs(p @ q) <= 1e-12 * max(1.0, p @ p, q @ q)

    @pytest.mark.parametrize("cone", [MIXED, SOC3])
    def test_idempotence(self, cone):
        for x in _random_points(cone, 200, 13):
            p = project(cone, x)
            assert np.abs(project(cone, p) - p).max() <= 1e-14 * max(
                1.0, np.abs(p).max())

    def test_positive_homogeneity(self):
        for x in _random_points(MIXED, 100, 14):
            for alpha in (0.25, 2.0, 17.5):
                np.testing.assert_allclose(
                    project(MIXED, alpha * x), alpha * project(MIXED, x),
                    rtol=1e-13, atol=1e-12)


class TestJacobianProperties:
    def test_spectrum_in_unit_interval(self):
        for x in _random_points(MIXED, 100, 21):
            J = jacobian_element(MIXED, x)
            for i, blk in enumerate(MIXED.blocks):
                if blk.kind != "soc":
                    continue
                V = J.dense_block(i)
                assert np.abs(V - V.T).max() <= 1e-14
                w = np.linalg.eigvalsh(V)
                assert w.min() >= -1e-14
                assert w.max() <= 1.0 + 1e-14

    def test_finite_difference_agreement(self):
        rng = np.random.default_rng(33)
        h = 1e-6
        checked = 0
        while checked < 60:
            x = rng.standard_normal(MIXED.total_dim) * 4
            if _near_kink(MIXED, x):
                continue
            J = jacobian_element(MIXED, x)
            v = rng.standard_normal(MIXED.total_dim)
            fd = (project(MIXED, x + h * v) - project(MIXED, x - h * v)) / (2 * h)
            got = apply_jacobian(J, v)
            denom = max(1.0, np.linalg.norm(fd))
            assert np.linalg.norm(got - fd) <= 1e-6 * denom
            checked += 1


def _near_kink(cone, x, margin=1e-3):
    if cone.nonneg_dim:
        s = cone.nonneg_start
        if np.abs(x[s:s + cone.nonneg_dim]).min() < margin:
            return True
    for i, blk in enumerate(cone.blocks):
        if blk.kind != "soc":
            continue
        v = x[cone.block_slice(i)]
        nt = np.linalg.norm(v[1:])
        if abs(v[0] - nt) < margin or abs(v[0] + nt) < margin:
            return True
    return False
