"""Bad inputs raise the `RandtestError` subclass that names them, and the
CLI turns them into structured errors."""

import inspect
import json
import math
import pickle

import numpy as np
import pytest

import randtest.errors as errors
from randtest import (
    CompleteDesign,
    Dataset,
    DegenerateArm,
    DimensionMismatch,
    EmptyStratum,
    EstimateTriple,
    InvalidConfig,
    InvalidSizes,
    InvariantViolation,
    PermLmSpec,
    RankDeficient,
    RerandomizedDesign,
    StatisticSpec,
    StratifiedDesign,
    center_covariates,
    closed_form_replicates,
    cluster_collapse,
    config_from_dict,
    estimate,
    fit_ols,
    frt_p_value,
    frt_p_values,
    invert_ci,
    mahalanobis,
    mahalanobis_many,
    perm_lm_p_value,
    sample_truncated_L,
    stratified_combine,
    wald_ci,
)
from randtest.cli import _error_payload, _replicate_histogram, main
from conftest import gen, random_dataset

L_ROBUST = StatisticSpec("l", "robust")
FL = PermLmSpec("fl")


@pytest.fixture
def data():
    return random_dataset(1801, n=20, j=2)


def _library_calls(data):
    """Each library entry point that draws replicates, as call(r=..., seed=..., **kw)."""
    design = CompleteDesign(data.n, data.n1)
    return {
        "frt_p_value": lambda **kw: frt_p_value(data, L_ROBUST, design, **kw),
        "frt_p_values": lambda **kw: frt_p_values(data, [L_ROBUST], design, **kw),
        "invert_ci": lambda **kw: invert_ci(data, L_ROBUST, 0.05, design, **kw),
        "perm_lm_p_value": lambda **kw: perm_lm_p_value(data, FL, **kw),
    }


# -- seeds, replicate counts and CI grids ---------------------------------------


@pytest.mark.parametrize("call", ["frt_p_value", "frt_p_values", "invert_ci", "perm_lm_p_value"])
@pytest.mark.parametrize(
    "kwargs",
    [
        {"seed": -1},
        {"seed": 1.5},
        {"seed": "7"},
        {"r": "abc"},
        {"r": float("nan")},
        {"r": 10.5},
        {"r": True},
        {"r": -3},
    ],
    ids=repr,
)
def test_bad_seed_or_replicate_count_is_an_invariant_violation(data, call, kwargs):
    kwargs = {"r": 50, "seed": 3} | kwargs
    with pytest.raises(InvariantViolation):
        _library_calls(data)[call](**kwargs)


@pytest.mark.parametrize("call", ["frt_p_value", "frt_p_values", "invert_ci", "perm_lm_p_value"])
def test_numpy_integer_seed_and_count_are_accepted(data, call):
    run = _library_calls(data)[call]
    plain, wide = run(r=50, seed=3), run(r=np.int64(50), seed=np.uint64(3))
    if call == "frt_p_values":
        np.testing.assert_array_equal(plain[1], wide[1])
    elif call == "invert_ci":
        np.testing.assert_array_equal(plain.p_values, wide.p_values)
    else:
        assert plain.p_value == wide.p_value


@pytest.mark.parametrize(
    "grid",
    [
        (0.0, math.inf, 5),
        (-math.inf, 1.0, 5),
        (math.nan, 1.0, 5),
        (-1e308, 1e308, 5),
        (1.0, 0.0, 5),
        (1.0, 1.0, 5),
        (0, 1),
        (0, 1, 5, 7),
        (0, 1, "x"),
        (0, 1, 2.5),
        (0, 1, 1),
        (0, 1, True),
        ("a", 1, 5),
        5,
    ],
    ids=repr,
)
def test_malformed_grid_is_an_invariant_violation(data, grid):
    with pytest.raises(InvariantViolation, match="grid"):
        invert_ci(data, L_ROBUST, 0.05, CompleteDesign(data.n, data.n1), r=50, seed=3, grid=grid)


def test_default_grid_at_a_vanishing_alpha_names_alpha(data):
    # 1 - alpha/2 rounds to 1, so the Wald interval, and a default grid, is unbounded
    design = CompleteDesign(data.n, data.n1)
    with pytest.raises(InvariantViolation, match="alpha=1e-17"):
        invert_ci(data, L_ROBUST, 1e-17, design, r=50, seed=3)
    res = invert_ci(data, L_ROBUST, 1e-17, design, r=50, seed=3, grid=(-5.0, 5.0, 21))
    assert res.wald_init == (-math.inf, math.inf)
    assert res.lower_at_edge and res.upper_at_edge


@pytest.mark.parametrize("alpha", ["0.05", None, [0.05], np.array([0.05]), 1.5, math.nan])
@pytest.mark.parametrize("grid", [None, (-5.0, 5.0, 21)])
def test_alpha_that_is_not_a_number_in_the_unit_interval_is_an_invariant_violation(
    data, alpha, grid
):
    design = CompleteDesign(data.n, data.n1)
    with pytest.raises(InvariantViolation, match="alpha"):
        invert_ci(data, L_ROBUST, alpha, design, r=50, seed=3, grid=grid)
    with pytest.raises(InvariantViolation, match="alpha"):
        wald_ci(EstimateTriple(1.0, 0.5, 0.5), alpha)
    # a numpy float is a number
    plain = invert_ci(data, L_ROBUST, 0.05, design, r=50, seed=3, grid=grid)
    wide = invert_ci(data, L_ROBUST, np.float64(0.05), design, r=50, seed=3, grid=grid)
    assert (plain.lower, plain.upper) == (wide.lower, wide.upper)


def test_grid_count_may_be_a_numpy_integer(data):
    design = CompleteDesign(data.n, data.n1)
    plain = invert_ci(data, L_ROBUST, 0.05, design, r=50, seed=3, grid=(-5.0, 5.0, 21))
    wide = invert_ci(data, L_ROBUST, 0.05, design, r=50, seed=3, grid=(-5.0, 5.0, np.int64(21)))
    assert (plain.lower, plain.upper) == (wide.lower, wide.upper)
    np.testing.assert_array_equal(plain.p_values, wide.p_values)


def test_unknown_side_is_an_invariant_violation(data):
    design = CompleteDesign(data.n, data.n1)
    for run in (
        lambda: frt_p_value(data, L_ROBUST, design, r=20, sided="three"),
        lambda: invert_ci(data, L_ROBUST, 0.05, design, r=20, sided="left"),
        lambda: perm_lm_p_value(data, FL, r=20, sided="both"),
    ):
        with pytest.raises(InvariantViolation, match="sided"):
            run()


# -- linear algebra and datasets ------------------------------------------------


def test_fit_ols_checks_shapes_sizes_and_finiteness():
    x, y = np.ones((5, 2)), np.arange(5.0)
    x[:, 1] = y
    for bad_x, bad_y in [
        (np.ones(5), y),  # x not 2-D
        (x, np.ones((5, 1))),  # y not 1-D
        (x, np.ones(4)),  # rows differ
        (np.ones((5, 0)), y),  # no column
        (np.ones((2, 2)), np.ones(2)),  # N <= p
    ]:
        with pytest.raises(DimensionMismatch):
            fit_ols(bad_x, bad_y)
    for bad_x, bad_y in [(np.where(x == 2.0, np.nan, x), y), (x, np.where(y == 3.0, np.inf, y))]:
        with pytest.raises(InvariantViolation, match="finite"):
            fit_ols(bad_x, bad_y)


def test_dataset_checks_shapes_and_finiteness():
    y, z, x = np.arange(6.0), np.array([1, 1, 1, 0, 0, 0]), np.ones((6, 1))
    for kwargs, match in [
        ({"y": y[:, None]}, "y must be a 1D"),
        ({"y": np.where(y == 2.0, np.nan, y)}, "y must be finite"),
        ({"z": z[:5]}, "z must have length"),
        ({"z": np.array([1, 1, 2, 0, 0, 0])}, "0 or 1"),
        ({"z": np.array([1, 1, 0.5, 0, 0, 0])}, "0 or 1"),
        ({"x": np.ones((5, 1))}, "x must be an"),
        ({"x": np.ones((6, 1, 1))}, "x must be an"),
        ({"x": np.full((6, 1), np.inf)}, "x must be finite"),
        ({"strata": np.zeros(5)}, "strata must have length"),
        ({"clusters": np.arange(7)}, "clusters must have length"),
    ]:
        with pytest.raises(InvariantViolation, match=match):
            Dataset(**({"y": y, "z": z, "x": x} | kwargs))
    Dataset(y, z, None)  # no covariates at all is fine


# -- estimators -------------------------------------------------------------------


def test_adjusted_estimates_need_covariates():
    data = random_dataset(1802, n=12, j=0)
    assert data.j == 0
    for adjustment in "rfl":
        with pytest.raises(DimensionMismatch, match="covariate"):
            estimate(data, adjustment)
    with pytest.raises(DimensionMismatch, match="covariate"):
        frt_p_value(data, StatisticSpec("f", "robust"), CompleteDesign(12, 6), r=20)


def test_interacted_fit_needs_j_plus_two_units_per_arm():
    # J = 3: an arm of 4 units is one short of J + 2 = 5
    rng = gen(1803)
    z = np.array([1] * 4 + [0] * 8)
    data = Dataset(rng.normal(size=12), z, rng.normal(size=(12, 3)))
    with pytest.raises(DegenerateArm, match="interacted fit"):
        frt_p_value(data, L_ROBUST, CompleteDesign(12, 4), r=20)


def test_center_covariates_needs_a_column():
    with pytest.raises(DimensionMismatch):
        center_covariates(np.ones((4, 0)))
    with pytest.raises(DimensionMismatch):
        center_covariates(np.ones(4))


def test_stratified_combine_checks():
    triple = EstimateTriple(1.0, 0.5, 0.5)
    with pytest.raises(EmptyStratum, match="no strata"):
        stratified_combine([], np.array([]))
    with pytest.raises(DimensionMismatch, match="one weight"):
        stratified_combine([triple, triple], np.array([1.0]))
    with pytest.raises(EmptyStratum, match="positive"):
        stratified_combine([triple, triple], np.array([1.0, 0.0]))
    with pytest.raises(InvariantViolation, match="sum to 1"):
        stratified_combine([triple, triple], np.array([0.5, 0.6]))


def test_cluster_collapse_needs_labels():
    with pytest.raises(InvariantViolation, match="cluster labels"):
        cluster_collapse(random_dataset(1804, n=10, j=1))


# -- designs -----------------------------------------------------------------------


@pytest.mark.parametrize("n, n1", [(6, 1), (6, 5), (3, 2), (6, -1)])
def test_complete_design_needs_two_units_per_arm(n, n1):
    with pytest.raises(InvalidSizes):
        CompleteDesign(n, n1)


def test_stratified_design_codes_must_match_sizes():
    strata = np.array([0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2])
    with pytest.raises(InvalidSizes, match="do not match the size list"):
        StratifiedDesign(strata, ((4, 2), (4, 2)))
    with pytest.raises(InvalidSizes, match="stratum 1 has 4 units"):
        StratifiedDesign(strata, ((4, 2), (5, 2), (4, 2)))


def test_rerandomized_design_checks():
    base, x = CompleteDesign(8, 4), gen(1805).normal(size=(8, 2))
    for threshold in (0.0, -1.0, math.nan):
        with pytest.raises(InvariantViolation, match="threshold"):
            RerandomizedDesign(base, threshold, x)
    for bad in (x[:7], np.ones((8, 0)), np.ones((8, 2, 1))):
        with pytest.raises(DimensionMismatch, match="covariates"):
            RerandomizedDesign(base, 1.0, bad)
    with pytest.raises(InvariantViolation, match="finite"):
        RerandomizedDesign(base, 1.0, np.where(x > 1.0, np.inf, x))
    # every assignment of this space has a positive distance
    with pytest.raises(InvariantViolation, match="no assignment"):
        RerandomizedDesign(base, 1e-300, x).enumerate()


def test_mahalanobis_shape_and_arm_checks():
    x = gen(1806).normal(size=(6, 2))
    z = np.array([1, 1, 1, 0, 0, 0])
    with pytest.raises(DimensionMismatch):
        mahalanobis(z[:5], x)
    with pytest.raises(InvalidSizes, match="nonempty"):
        mahalanobis(np.zeros(6, dtype=int), x)
    with pytest.raises(DimensionMismatch):
        mahalanobis_many(z, x)  # one row, not a (B, N) matrix
    with pytest.raises(DimensionMismatch):
        mahalanobis_many(np.ones((2, 5)), x)
    with pytest.raises(InvalidSizes, match="nonempty"):
        mahalanobis_many(np.ones((2, 6)), x)
    assert mahalanobis_many(np.empty((0, 6)), x).shape == (0,)


# -- permutation schemes and simulation -----------------------------------------------


def test_perm_lm_needs_covariates_and_residual_dof():
    with pytest.raises(DimensionMismatch, match="covariate"):
        perm_lm_p_value(random_dataset(1807, n=12, j=0), FL, r=20)
    rng = gen(1808)
    small = Dataset(rng.normal(size=5), np.array([1, 1, 0, 0, 0]), rng.normal(size=(5, 3)))
    with pytest.raises(InvariantViolation, match="N > J"):
        perm_lm_p_value(small, FL, r=20)


def test_closed_form_replicates_checks_permutation_shape():
    data = random_dataset(1809, n=10, j=1)
    for perms in (np.arange(10), np.tile(np.arange(9), (3, 1))):
        with pytest.raises(DimensionMismatch, match="permutations"):
            closed_form_replicates(data, perms, "fl")


def test_sample_truncated_l_checks():
    rng = gen(1810)
    for j, a in [(0, 1.0), (2, 0.0), (2, -1.0), (1, math.nan)]:
        with pytest.raises(InvariantViolation, match="J >= 1 and a > 0"):
            sample_truncated_L(j, a, rng, 10)


@pytest.mark.parametrize("raw", [[], [{"base": "complete-null"}], "complete-null", 3, None])
def test_config_from_dict_needs_an_object(raw):
    with pytest.raises(InvalidConfig, match="JSON object"):
        config_from_dict(raw)


# -- CLI -------------------------------------------------------------------------------


def _write_csv(path, data, labels=None):
    """`data` as a CSV file, with a (name, codes) label column if given."""
    names = ["y", "z"] + [f"x{k + 1}" for k in range(data.j)]
    columns = [data.y, data.z] + [data.x[:, k] for k in range(data.j)]
    if labels is not None:
        names.append(labels[0])
        columns.append(labels[1])
    lines = [",".join(names)]
    lines += [",".join(repr(c[i].item()) for c in columns) for i in range(data.n)]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def _run(argv, capsysbinary):
    code = main(argv)
    return code, json.loads(capsysbinary.readouterr().out)


@pytest.mark.parametrize(
    "j, flags, match",
    [
        (1, ["--design", "stratified"], "stratum column"),
        (1, ["--design", "cluster"], "cluster labels"),
        (0, ["--design", "rem", "--rem-a", "2.0"], "covariate columns"),
    ],
)
def test_analyze_design_without_its_column_is_a_json_error(j, flags, match, tmp_path, capsysbinary):
    path = _write_csv(tmp_path / "d.csv", random_dataset(1811, n=10, j=j))
    code, report = _run(["analyze", path, "--reps", "20", *flags], capsysbinary)
    assert code == 1
    assert report["error"]["type"] == "InvariantViolation"
    assert match in report["error"]["message"]


def test_analyze_rem_cols_balances_only_the_named_columns(tmp_path, capsysbinary):
    data = random_dataset(1812, n=30, j=2)
    path = _write_csv(tmp_path / "d.csv", data)
    a, reps, seed = 2.0, 200, 5
    argv = ["analyze", path, "--design", "rem", "--rem-a", str(a), "--rem-cols", "x2"]
    argv += ["--stat", "l", "--student", "robust", "--reps", str(reps), "--seed", str(seed)]
    code, report = _run(argv, capsysbinary)
    assert code == 0
    assert report["design"]["columns"] == ["x2"]
    base = CompleteDesign(data.n, data.n1)
    on_x2 = frt_p_value(data, L_ROBUST, RerandomizedDesign(base, a, data.x[:, [1]]), r=reps, seed=seed)
    both = frt_p_value(data, L_ROBUST, RerandomizedDesign(base, a, data.x), r=reps, seed=seed)
    assert report["p_value"] == on_x2.p_value
    assert report["t_obs"] == on_x2.t_obs
    assert on_x2.p_value != both.p_value


def test_replicate_histogram_of_nonfinite_replicates():
    hist = _replicate_histogram(np.array([np.nan, np.inf, -np.inf, np.nan]))
    assert hist["nonfinite"] == 4
    np.testing.assert_array_equal(hist["counts"], np.zeros(20))
    np.testing.assert_array_equal(hist["bin_edges"], np.linspace(0.0, 1.0, 21))


# -- errors ------------------------------------------------------------------------------

# the fields each error class takes beyond its message
_FIELDS = {
    errors.AcceptanceTimeout: {"tries": 5000, "acceptance_rate": 0.0},
    errors.EmptyAcceptanceRegion: {"nearest": -1.5, "max_p": 0.04},
    errors.ParseError: {"row": 3, "column": "x1"},
}
_ERRORS = [
    cls for _, cls in inspect.getmembers(errors, inspect.isclass)
    if issubclass(cls, errors.RandtestError)
]


@pytest.mark.parametrize("cls", _ERRORS, ids=lambda cls: cls.__name__)
def test_every_error_pickles_with_its_type_message_and_fields(cls):
    # errors cross process boundaries by pickling, as a worker pool's would
    exc = cls("what went wrong", **_FIELDS.get(cls, {}))
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is cls
    assert str(back) == str(exc) == "what went wrong"
    assert back.args == exc.args
    assert vars(back) == vars(exc) == _FIELDS.get(cls, {})
    assert _error_payload(back) == _error_payload(exc)


# -- inputs the reference refit rejects -------------------------------------------------


def _rejected(case):
    """(data, labels) of an input that the reference refit rejects; the
    labels, if any, name strata of 12 units or clusters of 2."""
    rng = gen(1813)
    z = np.tile([1, 1, 0, 0], 6)  # 6 treated per stratum, one arm per cluster
    noise = rng.normal(size=(24, 3))
    x = np.column_stack([z, noise[:, 0]])  # x1 = z
    labels = None
    if case == "binary-constant-in-treated":
        x = np.column_stack([np.where(z == 1, 1.0, np.arange(24) % 3 == 0), noise[:, 0]])
    elif case == "collinear":
        x = np.column_stack([noise[:, 0], 2 * noise[:, 0]])
    elif case == "small-arm":  # 4 treated units, fewer than J + 2 = 5
        z = np.isin(np.arange(24), [0, 5, 10, 15]).astype(np.int64)
        x = noise
    elif case == "no-covariates":
        x = None
    elif case == "stratified":
        labels = ("stratum", np.arange(24) // 12)
    elif case == "cluster":
        labels = ("cluster", np.arange(24) // 2)
    y = noise[:, 2] + 0.5 * z
    return Dataset(y, z, x), labels


@pytest.mark.parametrize("stat", ["f", "l"])
def test_an_observed_assignment_without_a_fit_is_rank_deficient(stat):
    # x1 = z: the refit finds the treatment column in the covariates' span,
    # and so do the evaluator's f (z'(I-H)z = 0) and l (a singular arm)
    data, _ = _rejected("x1-is-z")
    design = CompleteDesign(data.n, data.n1)
    spec = StatisticSpec(stat, "robust")
    with pytest.raises(RankDeficient):
        estimate(data, stat)
    with pytest.raises(RankDeficient):
        frt_p_value(data, spec, design, r=50, seed=3)
    with pytest.raises(RankDeficient):  # alongside a statistic that has a fit
        frt_p_values(data, [StatisticSpec("n", "robust"), spec], design, r=50, seed=3)
    for grid in (None, (-5.0, 5.0, 21)):
        with pytest.raises(RankDeficient):
            invert_ci(data, spec, 0.05, design, r=50, seed=3, grid=grid)


@pytest.mark.parametrize(
    "case, stat, kind",
    [
        ("x1-is-z", "f", "RankDeficient"),
        ("x1-is-z", "l", "RankDeficient"),
        ("binary-constant-in-treated", "l", "RankDeficient"),
        ("collinear", "r", "RankDeficient"),
        ("collinear", "f", "RankDeficient"),
        ("collinear", "l", "RankDeficient"),
        ("small-arm", "l", "DegenerateArm"),
        ("no-covariates", "r", "DimensionMismatch"),
        ("no-covariates", "f", "DimensionMismatch"),
        ("no-covariates", "l", "DimensionMismatch"),
        ("stratified", "f", "RankDeficient"),
        ("stratified", "l", "RankDeficient"),
        ("cluster", "f", "RankDeficient"),
        ("cluster", "l", "RankDeficient"),
    ],
)
def test_analyze_rejects_what_the_reference_refit_rejects(case, stat, kind, tmp_path, capsysbinary):
    # the same error type as when the report refit the estimate: the
    # evaluator's observed row has no fit wherever the refit has none
    data, labels = _rejected(case)
    argv = ["analyze", _write_csv(tmp_path / "d.csv", data, labels), "--stat", stat]
    argv += ["--reps", "20"]
    if labels is not None:
        argv += ["--design", "stratified" if labels[0] == "stratum" else "cluster"]
    code, report = _run(argv, capsysbinary)
    assert code == 1
    assert report["error"]["type"] == kind
