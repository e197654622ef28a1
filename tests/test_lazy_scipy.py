"""scipy loads on first use only: importing the package and every CLI
subcommand run without it, since reports take their estimates from the
evaluation that scores the test. A reference refit still loads it."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import randtest
from randtest import builtin_scenario, chi2_quantile

# Runs in a fresh interpreter: `import randtest` alone, or the CLI on the
# given arguments, then tries the chi2 helpers on bad input or one reference
# refit when asked to. The last line of stderr counts the scipy modules loaded.
_PROBE = """
import math, sys
import randtest
argv = sys.argv[1:]
if argv == ["refit"]:
    import numpy as np
    x = np.arange(24.0).reshape(12, 2) % 5
    randtest.estimate(randtest.Dataset(x @ [1.0, 2.0], np.arange(12) % 2, x), "l")
elif argv == ["bad-chi2"]:
    for call, args in [(randtest.chi2_quantile, (1.5, 1)), (randtest.chi2_quantile, (0.5, 0)),
                       (randtest.chi2_cdf, (-1.0, 1)), (randtest.chi2_cdf, (1.0, math.nan))]:
        try:
            call(*args)
        except randtest.InvariantViolation:
            continue
        sys.exit(f"{call.__name__}{args} was accepted")
elif argv:
    from randtest.cli import main
    if main(argv) != 0:
        sys.exit("the CLI call failed")
print(sum(1 for m in sys.modules if m == "scipy" or m.startswith("scipy.")), file=sys.stderr)
"""


def _scipy_modules_after(*argv) -> int:
    paths = [str(Path(randtest.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, *argv], capture_output=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr.decode()
    return int(proc.stderr.splitlines()[-1])


@pytest.fixture(scope="module")
def csv_dir(tmp_path_factory):
    """data.csv (30 units), and strata.csv and clusters.csv, which add
    3 strata of 10 units or 10 clusters of 3 to it."""
    rng = np.random.default_rng(7)
    x = rng.normal(size=(30, 2))
    labels = np.arange(30) // 10
    z = np.zeros(30, dtype=int)
    for k in range(3):
        z[10 * k + rng.permutation(10)[:5]] = 1
    y = x @ [1.0, -0.5] + 0.3 * z + rng.normal(size=30)
    path = tmp_path_factory.mktemp("lazy")
    table = np.column_stack([y, z, x]).tolist()
    rows = [f"{a!r},{b:.0f},{c!r},{d!r}" for a, b, c, d in table]
    (path / "data.csv").write_text("y,z,x1,x2\n" + "".join(f"{r}\n" for r in rows))
    (path / "strata.csv").write_text(
        "y,z,x1,x2,stratum\n" + "".join(f"{r},s{k}\n" for r, k in zip(rows, labels))
    )
    # a cluster holds units of one arm: units 3m..3m+2 take unit 3m's arm
    zc = z[np.arange(30) // 3 * 3]
    rows = [f"{a!r},{b:.0f},{c!r},{d!r}" for a, b, c, d in np.column_stack([y, zc, x]).tolist()]
    (path / "clusters.csv").write_text(
        "y,z,x1,x2,cluster\n" + "".join(f"{r},c{i // 3}\n" for i, r in enumerate(rows))
    )
    return path


_ANALYZE = ("analyze", "{dir}/data.csv", "--reps", "50")


@pytest.mark.parametrize(
    "argv",
    [
        (),
        ("bad-chi2",),
        ("simulate", "strat-null", "--reps", "2"),
        ("simulate", "rem-invalid", "--reps", "2"),
        *((*_ANALYZE, "--stat", stat, *ci) for stat in "nrfl" for ci in ((), ("--ci",))),
        ("analyze", "{dir}/strata.csv", "--reps", "50", "--stat", "l", "--design", "stratified"),
        ("analyze", "{dir}/clusters.csv", "--reps", "50", "--stat", "l", "--design", "cluster"),
        ("permlm", "{dir}/data.csv", "--reps", "50", "--student", "robust"),
    ],
    ids=["import", "bad-chi2", "simulate-strat-null", "simulate-rem-invalid",
         "analyze", "analyze-ci", *(f"analyze-{stat}{ci}" for stat in "rfl" for ci in ("", "-ci")),
         "analyze-stratified", "analyze-cluster", "permlm"],
)
def test_no_scipy_module_is_loaded(argv, csv_dir):
    assert _scipy_modules_after(*(a.format(dir=csv_dir) for a in argv)) == 0


def test_a_reference_fit_still_loads_scipy():
    # the probe counts what it claims to: a reference estimate refits through fit_ols
    assert _scipy_modules_after("refit") > 0


def test_rem_invalid_threshold_is_the_chi2_quantile():
    assert builtin_scenario("rem-invalid").rem_threshold == chi2_quantile(0.05, 1)
