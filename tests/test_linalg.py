"""Small dense OLS kernel: exact examples, sandwich algebra, rank handling."""

import ast
import re
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import randtest
from randtest import (
    CompleteDesign,
    RankDeficient,
    RerandomizedDesign,
    StatisticSpec,
    draw,
    fit_ols,
    invert_ci,
)
from randtest.cli import main
from conftest import gen, random_dataset


def test_two_by_two_normal_equations():
    # X = [(1,0),(1,0),(1,1),(1,1)], y = (0,2,1,3): beta = (1, 1)
    x = np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 1.0], [1.0, 1.0]])
    y = np.array([0.0, 2.0, 1.0, 3.0])
    fit = fit_ols(x, y)
    np.testing.assert_allclose(fit.coefficients, [1.0, 1.0], atol=1e-12)
    assert fit.dof == 2


def test_hc0_two_group_entry_is_one():
    # Y ~ (1, Z) with Z=(1,1,0,0), Y=(0,2,1,3):
    # (2,2) entry = (N1-1)/N1^2 * S1^2 + (N0-1)/N0^2 * S0^2 = 1/4*2 + 1/4*2 = 1
    z = np.array([1.0, 1.0, 0.0, 0.0])
    x = np.column_stack([np.ones(4), z])
    y = np.array([0.0, 2.0, 1.0, 3.0])
    fit = fit_ols(x, y)
    np.testing.assert_allclose(fit.robust_cov[1, 1], 1.0, atol=1e-12)


def test_univariate_hand_example():
    # u = (1,-1) on v = (1,1) alone: tau0 = 0, classic se^2 = 1, robust se^2 = 0.5
    fit = fit_ols(np.array([[1.0], [1.0]]), np.array([1.0, -1.0]))
    np.testing.assert_allclose(fit.coefficients[0], 0.0, atol=1e-14)
    np.testing.assert_allclose(fit.classic_cov[0, 0], 1.0, atol=1e-14)
    np.testing.assert_allclose(fit.robust_cov[0, 0], 0.5, atol=1e-14)


def test_residuals_orthogonal_to_design():
    rng = gen(11)
    x = np.column_stack([np.ones(30), rng.normal(size=(30, 3))])
    y = rng.normal(size=30)
    fit = fit_ols(x, y)
    scale = max(1.0, float(np.abs(x.T @ y).max()))
    assert np.abs(x.T @ fit.residuals).max() / scale < 1e-8


def test_hc0_with_constant_squared_residuals_matches_classic():
    # Replacing each eps_i^2 by their mean turns the sandwich into
    # mean(eps^2) * (X'X)^-1, which is classic_cov scaled by (N-p)/N.
    rng = gen(13)
    n, p = 25, 3
    x = np.column_stack([np.ones(n), rng.normal(size=(n, p - 1))])
    y = rng.normal(size=n)
    fit = fit_ols(x, y)
    flat = fit.residuals.copy()
    flat[:] = np.sqrt(np.mean(fit.residuals**2))
    sandwich = fit.gram_inverse @ (x.T * flat**2) @ x @ fit.gram_inverse
    np.testing.assert_allclose(sandwich, fit.classic_cov * (n - p) / n, rtol=1e-10)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_fitted_values_invariant_to_reparameterization(seed):
    rng = gen((9001, seed))
    n = 20
    x = np.column_stack([np.ones(n), rng.normal(size=(n, 2))])
    y = rng.normal(size=n)
    a = rng.normal(size=(3, 3)) + 3.0 * np.eye(3)
    fit1 = fit_ols(x, y)
    fit2 = fit_ols(x @ a, y)
    np.testing.assert_allclose(x @ fit1.coefficients, (x @ a) @ fit2.coefficients, atol=1e-8)


def test_rank_deficient_raises():
    x = np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]])
    with pytest.raises(RankDeficient):
        fit_ols(x, np.array([1.0, 2.0, 3.0]))
    with pytest.raises(RankDeficient):
        fit_ols(np.zeros((2, 1)), np.array([1.0, 2.0]))


def test_no_matrix_right_hand_side_reaches_scipy(monkeypatch, tmp_path, capsysbinary):
    # numpy and scipy bundle separate OpenBLAS thread pools; a matrix
    # triangular solve wakes scipy's, which then competes with numpy's
    real = scipy.linalg.solve_triangular
    calls, matrix_calls = [], []

    def vector_only(a, b, *args, **kwargs):
        calls.append(np.shape(b))
        if np.ndim(b) != 1:
            matrix_calls.append(np.shape(b))
            raise AssertionError(f"solve_triangular with a {np.shape(b)} right-hand side")
        return real(a, b, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "solve_triangular", vector_only)
    data = random_dataset(61, n=40, j=2, tau=0.5)
    fit_ols(np.column_stack([np.ones(40), data.z, data.x]), data.y)
    design = RerandomizedDesign(CompleteDesign(40, 20), 4.0, data.x)
    draw(design, gen(3))
    invert_ci(data, StatisticSpec("l", "robust"), 0.05, design, r=99, seed=1)
    path = tmp_path / "rem.csv"
    rows = np.column_stack([data.y, data.z, data.x]).tolist()
    path.write_text("y,z,x1,x2\n" + "".join(f"{y!r},{z:.0f},{a!r},{b!r}\n" for y, z, a, b in rows))
    argv = ["analyze", str(path), "--design", "rem", "--rem-a", "4", "--stat", "l", "--ci",
            "--reps", "99"]
    assert main(argv) == 0
    assert calls and not matrix_calls


def test_only_simulate_sets_blas_threads():
    # the OpenBLAS thread cap is process-wide state: one module owns it
    package = Path(randtest.__file__).parent
    owners = {
        path.name
        for path in package.rglob("*.py")
        if re.search(r"^\s*(import|from)\s+ctypes\b|set_num_threads", path.read_text(), re.M)
    }
    assert owners == {"simulate.py"}


def _scipy_importers(path: Path) -> set[str]:
    """The dotted name (module.function, module.Class.method) of each scope
    in `path` that imports scipy, by an import statement or by
    `importlib.import_module`/`__import__` of a literal name; module level
    counts as the bare module name."""
    module, found = path.stem, set()

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            names = []
            if isinstance(child, ast.Import):
                names = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom) and not child.level:
                names = [child.module]
            elif isinstance(child, ast.Call) and child.args:
                func = child.func
                called = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
                if called in ("import_module", "__import__") and isinstance(
                    child.args[0], ast.Constant
                ):
                    names = [str(child.args[0].value)]
            if any(name == "scipy" or name.startswith("scipy.") for name in names):
                found.add(owner)
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            visit(child, f"{owner}.{child.name}" if inner else owner)

    visit(ast.parse(path.read_text()), module)
    return found


def test_scipy_is_imported_only_by_the_reference_fit_and_the_chi2_helpers():
    # every runtime path takes its estimates from the batch evaluators; a new
    # scipy import anywhere else would load scipy on a path that needs none
    package = Path(randtest.__file__).parent
    importers = set().union(*(_scipy_importers(path) for path in package.rglob("*.py")))
    assert importers == {"linalg.fit_ols", "designs.chi2_cdf", "simulate.chi2_quantile"}
