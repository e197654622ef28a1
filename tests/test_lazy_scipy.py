"""scipy loads on first use only: importing the package, `simulate` and the
default `analyze` (with or without `--ci`) run without it."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import randtest
from randtest import builtin_scenario, chi2_quantile

# Runs in a fresh interpreter: `import randtest` alone, or the CLI on the
# given arguments, then tries the chi2 helpers on bad input when asked to.
# The last line of stderr counts the scipy modules loaded.
_PROBE = """
import math, sys
import randtest
argv = sys.argv[1:]
if argv == ["bad-chi2"]:
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
def covariate_csv(tmp_path_factory):
    rng = np.random.default_rng(7)
    x = rng.normal(size=(30, 2))
    z = np.zeros(30, dtype=int)
    z[rng.permutation(30)[:15]] = 1
    y = x @ [1.0, -0.5] + 0.3 * z + rng.normal(size=30)
    path = tmp_path_factory.mktemp("lazy") / "data.csv"
    table = np.column_stack([y, z, x]).tolist()
    rows = "".join(f"{a!r},{b:.0f},{c!r},{d!r}\n" for a, b, c, d in table)
    path.write_text("y,z,x1,x2\n" + rows)
    return str(path)


@pytest.mark.parametrize(
    "argv",
    [
        (),
        ("bad-chi2",),
        ("simulate", "strat-null", "--reps", "2"),
        ("simulate", "rem-invalid", "--reps", "2"),
        ("analyze", "{csv}", "--reps", "50"),
        ("analyze", "{csv}", "--reps", "50", "--ci"),
    ],
    ids=["import", "bad-chi2", "simulate-strat-null", "simulate-rem-invalid", "analyze",
         "analyze-ci"],
)
def test_no_scipy_module_is_loaded(argv, covariate_csv):
    assert _scipy_modules_after(*(a.format(csv=covariate_csv) for a in argv)) == 0


def test_a_reference_fit_still_loads_scipy(covariate_csv):
    # the probe counts what it claims to: `--stat l` refits through fit_ols
    assert _scipy_modules_after("analyze", covariate_csv, "--reps", "50", "--stat", "l") > 0


def test_rem_invalid_threshold_is_the_chi2_quantile():
    assert builtin_scenario("rem-invalid").rem_threshold == chi2_quantile(0.05, 1)
