from __future__ import annotations

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_reference import inv_logdet_lapack
from mplnbicluster.errors import NotPositiveDefinite, ZeroVariance
from mplnbicluster.linalg import (
    JITTER_REL,
    cholesky,
    cholesky_with_jitter,
    corr_from_cov,
    inv_logdet_batch_last,
    inverse,
    logdet_from_cholesky,
)
from mplnbicluster.model import logdet_blocks


def random_pd(rng, d, scale=1.0):
    a = rng.standard_normal((d, d))
    return scale * (a @ a.T) + 0.5 * np.eye(d)


def logdet(a):
    return logdet_from_cholesky(cholesky(a))


def test_cholesky_known_factor():
    a = np.array([[4.0, 2.0], [2.0, 3.0]])
    lower = cholesky(a)
    expected = np.array([[2.0, 0.0], [1.0, np.sqrt(2.0)]])
    np.testing.assert_allclose(lower, expected, rtol=0, atol=1e-15)


def test_cholesky_rejects_indefinite():
    with pytest.raises(NotPositiveDefinite):
        cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_cholesky_reconstructs():
    rng = np.random.default_rng(7)
    for d in (1, 2, 5, 11):
        a = random_pd(rng, d)
        lower = cholesky(a)
        np.testing.assert_allclose(lower @ lower.T, a, atol=1e-12)
        assert np.allclose(np.triu(lower, 1), 0.0)


def test_logdet_matches_eigenvalue_oracle():
    rng = np.random.default_rng(11)
    for d in (1, 3, 6, 12):
        a = random_pd(rng, d)
        oracle = float(np.sum(np.log(np.linalg.eigvalsh(a))))
        assert logdet(a) == pytest.approx(oracle, rel=1e-10)


def test_logdet_block_diagonal_additivity():
    rng = np.random.default_rng(13)
    a = random_pd(rng, 3)
    b = random_pd(rng, 4)
    full = np.zeros((7, 7))
    full[:3, :3] = a
    full[3:, 3:] = b
    assert logdet(full) == pytest.approx(logdet(a) + logdet(b), rel=1e-12)


def test_cholesky_inverse_solve_residual_small():
    rng = np.random.default_rng(17)
    for d in (2, 5, 20):
        a = random_pd(rng, d)
        x_true = rng.standard_normal(d)
        b = a @ x_true
        x = inverse(a) @ b
        assert np.max(np.abs(a @ x - b)) < 1e-7
        np.testing.assert_allclose(x, x_true, atol=1e-7)


def test_cholesky_inverse_solve_matrix_rhs():
    rng = np.random.default_rng(19)
    a = random_pd(rng, 4)
    b = rng.standard_normal((4, 3))
    x = inverse(a) @ b
    np.testing.assert_allclose(a @ x, b, atol=1e-10)


def test_cholesky_inverse_is_inverse_and_symmetric():
    rng = np.random.default_rng(23)
    a = random_pd(rng, 6)
    inv = inverse(a)
    np.testing.assert_allclose(inv @ a, np.eye(6), atol=1e-9)
    np.testing.assert_allclose(inv, inv.T, atol=0)


@pytest.mark.parametrize("batch", [(), (7,), (4, 3)], ids=["single", "stack", "grid"])
@pytest.mark.parametrize("b", [*range(1, 13), 50])
def test_batched_inverse_and_logdet_match_oracles(batch, b):
    rng = np.random.default_rng(100 * b + len(batch))
    x = rng.standard_normal(batch + (b, b))
    a = x @ np.swapaxes(x, -1, -2) / b + 0.5 * np.eye(b)
    inv, logdet = inverse(a), logdet_from_cholesky(cholesky(a))
    # inverse and log-det from the eigendecomposition: independent of LU
    # and Cholesky, so the tolerances are a few hundred ulps of these
    # well-conditioned matrices
    eigenvalues, vectors = np.linalg.eigh(a)
    oracle = (vectors / eigenvalues[..., None, :]) @ np.swapaxes(vectors, -1, -2)
    np.testing.assert_allclose(inv, oracle, rtol=1e-12, atol=1e-13)
    oracle = np.log(eigenvalues).sum(axis=-1)
    np.testing.assert_allclose(logdet, oracle, rtol=1e-12, atol=1e-12)
    assert np.array_equal(inv, np.swapaxes(inv, -1, -2))  # exactly symmetric
    if batch:
        assert logdet.shape == batch
    else:
        assert isinstance(logdet, float)


def batch_last(a):
    """A (N, b, b) stack as the (b, b, N) array the batch-last kernel takes."""
    return np.moveaxis(a, 0, -1).copy()


def pd_stack(rng, b, count):
    x = rng.standard_normal((count, b, b))
    return x @ np.swapaxes(x, -1, -2) / b + 0.5 * np.eye(b)


# The left-looking factorization and LAPACK's sum the same products in
# another order.  Over 3000 random stacks of these matrices (b = 1..12, one
# matrix or up to five), each inverse moved by at most 1.1e-15 of its
# largest |entry| and each log det by at most 2.2e-15; at b = 50, by 6.8e-16
# of it and 5.3e-15 (log det about 10).
INVERSE_TOL = 2e-15
LOGDET_ATOL = 1e-14


def check_batch_last_against_lapack(a):
    inv_ref, logdet_ref = inv_logdet_lapack(a)
    buffer = batch_last(a)
    inv, logdet = inv_logdet_batch_last(buffer)
    assert inv is buffer  # built in the input's buffer
    assert inv.shape == buffer.shape and logdet.shape == a.shape[:1]
    inv = np.moveaxis(inv, -1, 0)
    assert np.array_equal(inv, np.swapaxes(inv, -1, -2))  # exactly symmetric
    scale = np.abs(inv_ref).max(axis=(-1, -2), keepdims=True)
    assert np.all(np.abs(inv - inv_ref) <= INVERSE_TOL * scale)
    assert np.all(np.abs(logdet - logdet_ref) <= LOGDET_ATOL)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(b=st.integers(1, 12), count=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
def test_batch_last_inverse_matches_lapack_reference(b, count, seed):
    # count = 1 is a single matrix, which the kernel sees as N = 1
    check_batch_last_against_lapack(pd_stack(np.random.default_rng(seed), b, count))


def test_batch_last_inverse_matches_lapack_reference_at_b50():
    check_batch_last_against_lapack(pd_stack(np.random.default_rng(50), 50, 3))


def test_batch_last_inverse_rejects_one_indefinite_member():
    # one member of the stack is enough: an indefinite 2 x 2 block in the
    # middle of the third matrix, which LAPACK rejects too
    a = pd_stack(np.random.default_rng(3), 4, 6)
    a[2, 1:3, 1:3] = [[1.0, 2.0], [2.0, 1.0]]
    with pytest.raises(NotPositiveDefinite):
        cholesky(a)
    with pytest.raises(NotPositiveDefinite):
        inv_logdet_batch_last(batch_last(a))


@pytest.mark.parametrize("where", [(2, 0), (3, 3)], ids=["below", "diagonal"])
def test_batch_last_inverse_rejects_one_nan_member(where):
    # a NaN below the diagonal reaches a later pivot, and a NaN pivot fails
    # the check; LAPACK's factorization lets both through as NaN factors,
    # which ``cholesky`` checks for on the factor's diagonal
    a = pd_stack(np.random.default_rng(3), 4, 6)
    a[(4,) + where] = a[(4,) + where[::-1]] = np.nan
    assert np.isnan(np.linalg.cholesky(a)[4]).any()
    with pytest.raises(NotPositiveDefinite):
        cholesky(a)
    with pytest.raises(NotPositiveDefinite):
        inv_logdet_batch_last(batch_last(a))


def test_log_determinants_reject_a_nan_member():
    # a NaN off-diagonal pair in one identity of the stack gave log dets
    # [0, 0, nan, 0] before ``cholesky`` checked its factor's diagonal
    a = np.broadcast_to(np.eye(3), (4, 3, 3)).copy()
    a[2, 1, 0] = a[2, 0, 1] = np.nan
    with pytest.raises(NotPositiveDefinite):
        logdet_blocks([a])


def test_jitter_does_not_adopt_a_nan_scatter():
    # a NaN on the diagonal fails the factor, the bump keeps the NaN, and the
    # retry fails too; before, the NaN factor came back unbumped
    w = random_pd(np.random.default_rng(49), 4)
    w[2, 2] = np.nan
    with pytest.raises(NotPositiveDefinite):
        cholesky_with_jitter(w)
    with pytest.raises(NotPositiveDefinite):
        cholesky_with_jitter(np.stack([random_pd(np.random.default_rng(50), 4), w]))


# A stack of one matrix (N = 1) is inverted padded to two, so that the
# batch axis stays in the kernel's ``einsum`` contractions and a block gets
# the same bits alone as in a stack, which the hypothesis test below checks
# up to b = 12.  Without the padding a block moved, from b = 4 up, by up to
# 8.2e-16 of its largest |entry| and its log det by 3.6e-15 (300 random
# stacks of six blocks of each size below); these bounds still hold at
# b = 25.
ALONE_TOL = 1e-15
ALONE_LOGDET_ATOL = 1e-14


@settings(max_examples=60, deadline=None, derandomize=True)
@given(b=st.integers(1, 12), count=st.integers(2, 8), seed=st.integers(0, 2**32 - 1))
def test_a_matrix_inverted_alone_equals_its_column_of_a_stack(b, count, seed):
    # a row gate that leaves one row of a class of one block hands the
    # kernel a stack of one; that must not change its result in any bit.
    # Nor may a block of Sigma alone in its size class: LAPACK inverts
    # each matrix of a stack on its own
    a = pd_stack(np.random.default_rng(seed), b, count)
    stacked, logdet = inv_logdet_batch_last(batch_last(a))
    lapack = inverse(a)
    for i in range(count):
        buffer = batch_last(a[i:i + 1])
        alone, logdet_alone = inv_logdet_batch_last(buffer)
        assert alone is buffer  # built in the input's buffer
        assert np.array_equal(alone[..., 0], stacked[..., i])
        assert logdet_alone.shape == (1,) and logdet_alone[0] == logdet[i]
        assert np.array_equal(inverse(a[i]), lapack[i])


@pytest.mark.parametrize("b", [5, 8, 10, 25])
def test_a_block_inverted_alone_and_in_a_stack_agree_to_rounding(b):
    a = pd_stack(np.random.default_rng(b), b, 6)
    stacked, logdet = inv_logdet_batch_last(batch_last(a))
    for i in range(a.shape[0]):
        alone, logdet_alone = inv_logdet_batch_last(batch_last(a[i:i + 1]))
        scale = np.abs(stacked[..., i]).max()
        assert np.all(np.abs(alone[..., 0] - stacked[..., i]) <= ALONE_TOL * scale)
        assert abs(logdet_alone[0] - logdet[i]) <= ALONE_LOGDET_ATOL


def test_batch_last_inverse_of_an_empty_stack_and_of_1x1_blocks():
    # a sweep with no resolvable rows hands the kernel a (b, b, 0) stack
    inv, logdet = inv_logdet_batch_last(np.empty((5, 5, 0)))
    assert inv.shape == (5, 5, 0) and logdet.shape == (0,)
    inv, logdet = inv_logdet_batch_last(np.array([[[4.0, 0.25]]]))
    assert inv.shape == (1, 1, 2)
    assert np.array_equal(inv[0, 0], [0.25, 4.0])
    np.testing.assert_allclose(logdet, np.log([4.0, 0.25]), rtol=1e-15)


def _numpy_linalg_calls(tree):
    """(attribute, line) of every np.linalg.<name> / numpy.linalg.<name>
    reference and every name imported from numpy.linalg."""
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute)
                and node.value.attr == "linalg"
                and isinstance(node.value.value, ast.Name)
                and node.value.value.id in ("np", "numpy")):
            found.append((node.attr, node.lineno))
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg":
            found.extend((alias.name, node.lineno) for alias in node.names)
    return found


def _scipy_linalg_uses(tree):
    """Line of every import of scipy.linalg or of a name from it, and of
    every scipy.linalg.<name> reference."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.extend(node.lineno for alias in node.names
                         if alias.name.startswith("scipy.linalg"))
        elif isinstance(node, ast.ImportFrom):
            if (node.module or "").startswith("scipy.linalg") or (
                    node.module == "scipy" and any(a.name == "linalg" for a in node.names)):
                found.append(node.lineno)
        elif (isinstance(node, ast.Attribute) and node.attr == "linalg"
              and isinstance(node.value, ast.Name) and node.value.id == "scipy"):
            found.append(node.lineno)
    return found


def test_scipy_linalg_walker_finds_every_form():
    source = """
import scipy.linalg
import scipy.linalg as sla
from scipy.linalg import cho_solve
from scipy import linalg
x = scipy.linalg.solve(a, b)
from scipy.special import gammaln
import numpy.linalg
"""
    assert _scipy_linalg_uses(ast.parse(source)) == [2, 3, 4, 5, 6]


def test_only_linalg_factors_or_inverts_matrices():
    # every factorization, inverse and solve goes through linalg, the one
    # place that turns a failed factorization into NotPositiveDefinite; no
    # other module uses scipy.linalg at all
    forbidden = {"inv", "slogdet", "cholesky", "solve"}
    src = Path(__file__).resolve().parents[1] / "src" / "mplnbicluster"
    seen = {}
    for path in sorted(src.glob("*.py")):
        if path.name == "linalg.py":
            continue
        calls = _numpy_linalg_calls(ast.parse(path.read_text(), filename=str(path)))
        seen[path.name] = {name for name, _ in calls}
        bad = [(name, line) for name, line in calls if name in forbidden]
        assert not bad, f"{path.name} calls numpy.linalg directly: {bad}"
        scipy_uses = _scipy_linalg_uses(ast.parse(path.read_text(), filename=str(path)))
        assert not scipy_uses, f"{path.name} uses scipy.linalg: {scipy_uses}"
    # simulate's redraw test needs eigenvalues, not a factorization; it is
    # allowed, and finding it shows the walker sees numpy.linalg calls
    assert "eigvalsh" in seen["simulate.py"]


def _callers(tree, name):
    """Dotted name of the function (within its classes) around every call
    of ``name`` or of ``<module>.name``; "" for a call at module level."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Call):
                func = child.func
                if (isinstance(func, ast.Name) and func.id == name) or (
                        isinstance(func, ast.Attribute) and func.attr == name):
                    found.append(".".join(scope))
            visit(child, scope)

    visit(tree, ())
    return found


def test_callers_walker_finds_every_form():
    source = """
f(1)
class A:
    @classmethod
    def make(cls):
        return [f(x) for x in g(f(2))]
def h():
    def inner():
        return linalg.f(3)
    return inner, f
"""
    assert _callers(ast.parse(source), "f") == ["", "A.make", "A.make", "h.inner"]


def test_only_block_sigma_and_the_s_step_invert_from_a_factor():
    # Sigma's block inverses and log det have one constructor,
    # BlockSigma.from_factors, which inverts each size class's stack with
    # one LAPACK call and takes log det Sigma from the factors it is
    # handed; the S-step factors and inverts S'^-1 with the batch-last kernel
    src = Path(__file__).resolve().parents[1] / "src" / "mplnbicluster"
    callers = {"inverse": set(), "inv_logdet_batch_last": set()}
    for path in sorted(src.glob("*.py")):
        if path.name == "linalg.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for name, found in callers.items():
            found.update(f"{path.stem}.{scope}" for scope in _callers(tree, name))
    assert callers == {"inverse": {"model.BlockSigma.from_factors"},
                       "inv_logdet_batch_last": {"vem.s_fixed_point_step"}}


def test_corr_from_cov_diagonal_scaling():
    cov = np.array([[4.0, 0.0], [0.0, 9.0]])
    np.testing.assert_array_equal(corr_from_cov(cov), np.eye(2))


def test_corr_from_cov_known_value():
    cov = np.array([[4.0, 3.0], [3.0, 9.0]])
    corr = corr_from_cov(cov)
    assert corr[0, 1] == pytest.approx(3.0 / 6.0, rel=1e-15)
    assert corr[0, 0] == 1.0 and corr[1, 1] == 1.0


def test_corr_from_cov_bounds_and_exact_diagonal():
    rng = np.random.default_rng(29)
    for _ in range(25):
        cov = random_pd(rng, 7, scale=rng.uniform(0.01, 100.0))
        corr = corr_from_cov(cov)
        assert np.all(np.abs(corr) <= 1.0 + 1e-12)
        assert np.all(np.diag(corr) == 1.0)


def test_corr_from_cov_scale_invariant():
    rng = np.random.default_rng(31)
    cov = random_pd(rng, 5)
    scale = np.diag(rng.uniform(0.1, 10.0, size=5))
    np.testing.assert_allclose(
        corr_from_cov(scale @ cov @ scale), corr_from_cov(cov), atol=1e-12
    )


def test_corr_from_cov_zero_variance():
    cov = np.array([[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(ZeroVariance):
        corr_from_cov(cov)


def test_jitter_rescues_semidefinite():
    # Rank-deficient PSD matrix: plain cholesky fails, one jitter fixes it.
    v = np.array([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(NotPositiveDefinite):
        cholesky(v)
    used, lower = cholesky_with_jitter(v)
    np.testing.assert_allclose(lower @ lower.T, used, atol=1e-12)
    assert used[0, 0] > 1.0  # diagonal actually bumped


def test_jitter_gives_up_on_indefinite():
    with pytest.raises(NotPositiveDefinite):
        cholesky_with_jitter(np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_jitter_returns_its_input_when_nothing_is_bumped():
    stack = np.stack([np.eye(2), 2.0 * np.eye(2)])
    used, lower = cholesky_with_jitter(stack)
    assert used is stack
    assert np.array_equal(lower, np.linalg.cholesky(stack))


def test_jitter_on_a_stack_bumps_only_the_singular_block():
    rng = np.random.default_rng(17)
    stack = np.stack([random_pd(rng, 3) for _ in range(4)])
    singular = np.array([[4.0, 4.0, 2.0], [4.0, 4.0, 2.0], [2.0, 2.0, 1.0]])
    stack[2] = singular
    before = stack.copy()
    used, lower = cholesky_with_jitter(stack)
    assert np.array_equal(stack, before)  # the input is left as it is
    for t in (0, 1, 3):
        assert np.array_equal(used[t], stack[t])
        assert np.array_equal(lower[t], np.linalg.cholesky(stack[t]))
    assert np.array_equal(used[2], singular + JITTER_REL * 3.0 * np.eye(3))
    assert np.array_equal(lower[2], np.linalg.cholesky(used[2]))
    # a stack of one is the single-matrix call
    one_used, one_lower = cholesky_with_jitter(singular)
    assert np.array_equal(one_used, used[2]) and np.array_equal(one_lower, lower[2])


def test_jitter_on_a_stack_gives_up_on_an_indefinite_block():
    stack = np.stack([np.eye(2), np.array([[1.0, 2.0], [2.0, 1.0]])])
    with pytest.raises(NotPositiveDefinite):
        cholesky_with_jitter(stack)
