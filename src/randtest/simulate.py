"""Scenario harness: rejection rates of the twelve statistics by simulation.

A scenario fixes one finite population (potential outcomes and covariates
drawn once from the population seed), then repeatedly assigns treatment
from its design and runs the randomization test for every configured
statistic, sharing one set of reference draws per repetition. Outputs are
per-statistic rejection rates and the full p-value sample.

Also hosts the truncated-normal constructs describing the restricted test's
reference distribution under rerandomization: the variance constant
r_{J,a}, draws of the first coordinate of a standard J-normal conditioned
on the ball of squared radius a, and the mixture U(rho) built from it.
"""

from __future__ import annotations

import ctypes
import itertools
import math
import numbers
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, replace

import numpy as np

from .designs import (
    CompleteDesign,
    DesignSpec,
    RerandomizedDesign,
    StratifiedDesign,
    chi2_cdf,
    draw,
)
from .engine import frt_p_values
from .errors import AcceptanceTimeout, InvalidConfig, InvariantViolation, UnknownScenario
from .estimators import ALL_SPECS, Dataset, StatisticSpec, _integer_codes

_DESIGN_KINDS = ("complete", "stratified", "rem")
_INTEGER_FIELDS = ("n", "reps", "permutations", "population_seed", "assignment_seed")
# Numeric fields, type-checked before any comparison: (names, type, wording).
_NUMBER_FIELDS = (
    (_INTEGER_FIELDS, numbers.Integral, "an integer"),
    (("treated_fraction", "alpha"), numbers.Real, "a number"),
)


@dataclass(frozen=True)
class OutcomeModel:
    """Polynomial mean in x (coefficients lowest order first) plus noise sd."""

    poly: tuple[float, ...]
    sd: float

    def mean(self, x: np.ndarray) -> np.ndarray:
        return np.polynomial.polynomial.polyval(x, np.asarray(self.poly, dtype=np.float64))


@dataclass(frozen=True)
class ScenarioConfig:
    name: str
    n: int
    treated: OutcomeModel
    control: OutcomeModel
    center: bool = True
    shared_noise: bool = False
    design_kind: str = "complete"
    treated_fraction: float = 0.2
    stratum_cutoffs: tuple[float, ...] = ()
    rem_threshold: float | None = None
    reps: int = 1000
    permutations: int = 500
    alpha: float = 0.05
    statistics: tuple[StatisticSpec, ...] = ALL_SPECS
    population_seed: int = 0
    assignment_seed: int = 1

    def __post_init__(self):
        for names, kind, what in _NUMBER_FIELDS:
            for name in names:
                value = getattr(self, name)
                if isinstance(value, bool) or not isinstance(value, kind):
                    raise InvalidConfig(f"{name} must be {what}, got {value!r}")
        threshold = self.rem_threshold
        real = isinstance(threshold, numbers.Real) and not isinstance(threshold, bool)
        if threshold is not None and not (real and threshold > 0):
            raise InvalidConfig(f"rem_threshold must be a positive number, got {threshold!r}")
        for name in ("center", "shared_noise"):
            value = getattr(self, name)
            if not isinstance(value, bool):
                raise InvalidConfig(f"{name} must be true or false, got {value!r}")
        if self.design_kind not in _DESIGN_KINDS:
            raise InvariantViolation(
                f"design_kind must be one of {_DESIGN_KINDS}, got {self.design_kind!r}"
            )
        if self.reps < 1 or self.permutations < 1:
            raise InvariantViolation("reps and permutations must both be >= 1")
        if self.population_seed < 0 or self.assignment_seed < 0:
            raise InvariantViolation("seeds must be non-negative")
        if not 0 < self.alpha < 1:
            raise InvariantViolation(f"alpha must be in (0,1), got {self.alpha}")
        if not 0 < self.treated_fraction < 1:
            raise InvariantViolation("treated_fraction must be in (0,1)")
        if self.design_kind == "rem" and threshold is None:
            raise InvariantViolation("a rerandomized scenario needs a positive rem_threshold")
        steps = np.diff(self.stratum_cutoffs)
        if not (np.all(steps >= 0) or np.all(steps <= 0)):
            raise InvalidConfig(f"stratum_cutoffs must be monotonic, got {self.stratum_cutoffs}")
        if not (self.treated.poly and self.control.poly):
            raise InvalidConfig("an outcome polynomial needs at least one coefficient")


@dataclass(frozen=True)
class RejectionTable:
    """Rejection rate (p <= alpha) per statistic, with its binomial MC se."""

    labels: tuple[str, ...]
    rates: np.ndarray
    mc_se: np.ndarray
    reps: int
    alpha: float


@dataclass(frozen=True)
class ScenarioResult:
    config: ScenarioConfig
    table: RejectionTable
    p_values: np.ndarray  # (reps, n_statistics)


@dataclass(frozen=True)
class Population:
    y1: np.ndarray
    y0: np.ndarray
    x: np.ndarray  # (N, 1)
    strata: np.ndarray | None
    design: DesignSpec


def chi2_quantile(p: float, k: float) -> float:
    """Inverse of chi2_cdf in its first argument.

    InvariantViolation unless p is in [0, 1] and k is finite and positive.
    """
    if not (0 <= p <= 1 and 0 < k < math.inf):
        raise InvariantViolation(
            f"chi2_quantile needs 0 <= p <= 1 and finite k > 0, got p={p}, k={k}"
        )
    import scipy.special

    return float(2.0 * scipy.special.gammaincinv(k / 2.0, p))


def make_population(cfg: ScenarioConfig) -> Population:
    """The scenario's fixed finite population and its assignment design."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(int(cfg.population_seed))))
    x = rng.uniform(-1.0, 1.0, cfg.n)
    eps1 = rng.standard_normal(cfg.n)
    eps0 = eps1 if cfg.shared_noise else rng.standard_normal(cfg.n)
    y1 = cfg.treated.mean(x) + cfg.treated.sd * eps1
    y0 = cfg.control.mean(x) + cfg.control.sd * eps0
    if cfg.center:
        y1 = y1 - y1.mean()
        y0 = y0 - y0.mean()

    if cfg.design_kind == "stratified":
        raw = np.digitize(x, cfg.stratum_cutoffs)
        strata = _integer_codes(raw, cfg.n, "stratum")
        sizes = []
        for k in range(int(strata.max()) + 1):
            n_k = int((strata == k).sum())
            sizes.append((n_k, int(cfg.treated_fraction * n_k)))
        design: DesignSpec = StratifiedDesign(strata, tuple(sizes))
        return Population(y1, y0, x[:, None], strata, design)

    n1 = int(cfg.treated_fraction * cfg.n)
    base = CompleteDesign(cfg.n, n1)
    if cfg.design_kind == "rem":
        design = RerandomizedDesign(base, float(cfg.rem_threshold), x[:, None])
    else:
        design = base
    return Population(y1, y0, x[:, None], None, design)


def worker_count() -> int:
    """One worker per core; the RANDTEST_THREADS env var caps but never raises it."""
    count = os.cpu_count() or 1
    cap = os.environ.get("RANDTEST_THREADS")
    if cap:
        try:
            count = min(count, int(cap))
        except ValueError:
            pass  # unparseable cap is ignored, results never depend on it
    return max(1, int(count))


def _openblas_thread_controls() -> list:
    """(get, set) thread-count functions of every OpenBLAS loaded in this process.

    numpy and scipy each bundle their own OpenBLAS under a prefixed, possibly
    64-bit-suffixed, symbol name. The libraries are found in /proc/self/maps,
    so none are found off Linux, and only ones already mapped are opened
    (RTLD_NOLOAD).
    """
    try:
        with open("/proc/self/maps") as maps:
            # a line naming a file ends in its path, the sixth field
            paths = {line.split(maxsplit=5)[5].rstrip("\n") for line in maps if "openblas" in line}
    except OSError:
        return []
    controls = []
    for path in (p for p in paths if "openblas" in os.path.basename(p)):
        try:
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
        except OSError:
            continue
        for prefix, suffix in itertools.product(("scipy_openblas_", "openblas_"), ("64_", "")):
            get = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                controls.append((get, put))
                break
    return controls


class _OneBlasThread:
    """Caps every loaded OpenBLAS at one thread while a scenario's pool runs.

    Each repetition's worker calls BLAS, and OpenBLAS's own threads would
    contend for the cores the other workers use. The counts are process-wide,
    so concurrent and nested callers share one lock and depth: the first to
    enter saves the counts and the last to leave restores them.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._depth = 0
        self._saved: list = []

    def __enter__(self):
        with self._lock:
            if self._depth == 0:
                self._saved = [(put, get()) for get, put in _openblas_thread_controls()]
                for put, _ in self._saved:
                    put(1)
            self._depth += 1

    def __exit__(self, *exc):
        with self._lock:
            self._depth -= 1
            if self._depth == 0:
                for put, count in self._saved:
                    put(count)
                self._saved = []


_one_blas_thread = _OneBlasThread()


def run_scenario(cfg: ScenarioConfig) -> ScenarioResult:
    """Rejection rates over `reps` fresh assignments of one population.

    Repetition r draws its assignment from the stream seeded by
    (assignment_seed, r). The randomization test inside repetition r gets
    its own seed from a separate derived sequence and draws its reference
    set in fixed chunks, chunk c from the stream seeded by (that seed, c),
    so no stream is reused and no result depends on the worker count.
    """
    pop = make_population(cfg)
    specs = list(cfg.statistics)
    frt_seeds = np.random.SeedSequence((int(cfg.assignment_seed), 2**33)).generate_state(
        cfg.reps, np.uint64
    )
    p_values = np.empty((cfg.reps, len(specs)))

    def one_rep(rep: int):
        rng = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence((int(cfg.assignment_seed), rep)))
        )
        z = draw(pop.design, rng)
        y_obs = np.where(z == 1, pop.y1, pop.y0)
        data = Dataset(y_obs, z, pop.x, strata=pop.strata)
        _, p = frt_p_values(data, specs, pop.design, r=cfg.permutations, seed=int(frt_seeds[rep]))
        p_values[rep] = p

    # map cancels the queued repetitions once one fails
    with _one_blas_thread, ThreadPoolExecutor(max_workers=worker_count()) as pool:
        list(pool.map(one_rep, range(cfg.reps)))

    rates = (p_values <= cfg.alpha).mean(axis=0)
    mc_se = np.sqrt(rates * (1 - rates) / cfg.reps)
    table = RejectionTable(
        tuple(s.label for s in specs), rates, mc_se, cfg.reps, cfg.alpha
    )
    return ScenarioResult(cfg, table, p_values)


def p_histogram(p: np.ndarray) -> np.ndarray:
    """Counts of p-values in 20 equal bins [0, 0.05), ..., [0.95, 1]: a
    p-value of 0.05, rejected at alpha = 0.05, counts in the second."""
    return np.histogram(np.asarray(p), bins=20, range=(0.0, 1.0))[0]


# -- restricted reference distribution constructs ---------------------------


def r_constant(j: int, a: float) -> float:
    """Variance of the first coordinate of a J-normal conditioned on the ball."""
    if j < 1 or not a > 0:
        raise InvariantViolation(f"need J >= 1 and a > 0, got J={j}, a={a}")
    return float(chi2_cdf(a, j + 2) / chi2_cdf(a, j))


def sample_truncated_L(j: int, a: float, rng: np.random.Generator, size: int) -> np.ndarray:
    """Draws of D_1 given ||D||^2 <= a, D standard J-normal, by rejection."""
    if j < 1 or not a > 0:
        raise InvariantViolation(f"need J >= 1 and a > 0, got J={j}, a={a}")
    acceptance = float(chi2_cdf(a, j))
    if acceptance < 1e-6:
        raise AcceptanceTimeout(
            f"estimated acceptance {acceptance:.2e} below 1e-6 for J={j}, a={a}",
            tries=0,
            acceptance_rate=acceptance,
        )
    want = int(size)
    out = np.empty(want)
    have = 0
    while have < want:
        batch = int((want - have) / acceptance * 1.2) + 16
        d = rng.standard_normal((batch, j))
        keep = d[np.einsum("ij,ij->i", d, d) <= a, 0]
        take = min(keep.shape[0], want - have)
        out[have : have + take] = keep[:take]
        have += take
    return out


def u_variance(rho: float, j: int, a: float) -> float:
    """Variance 1 - (1 - r_{J,a}) rho^2 of the mixture U(rho)."""
    return 1.0 - (1.0 - r_constant(j, a)) * rho**2


def sample_U(rho: float, j: int, a: float, rng: np.random.Generator, size: int) -> np.ndarray:
    """(1-rho^2)^{1/2} eps + rho L, eps standard normal independent of L."""
    if not 0 <= rho <= 1:
        raise InvariantViolation(f"rho must be in [0,1], got {rho}")
    ell = sample_truncated_L(j, a, rng, size)
    eps = rng.standard_normal(int(size))
    return math.sqrt(1 - rho**2) * eps + rho * ell


# -- built-in scenarios ------------------------------------------------------


def _builtins() -> dict[str, ScenarioConfig]:
    stratified = dict(
        design_kind="stratified",
        stratum_cutoffs=(-0.3, 0.3),
        treated_fraction=0.2,
        reps=1000,
        permutations=500,
    )
    return {
        # Null with strongly covariate-dependent, heteroskedastic outcomes:
        # only robust-t statistics should hold the level.
        "strat-null": ScenarioConfig(
            name="strat-null",
            n=500,
            treated=OutcomeModel((0.0, 0.0, 0.0, 1.0), 1.0),
            control=OutcomeModel((0.0, 0.0, 0.0, -1.0), 0.5),
            center=True,
            population_seed=101,
            assignment_seed=102,
            **stratified,
        ),
        # Alternative with average effect near 0.1 where the interacted
        # adjustment wins.  The population seed is chosen so the realized
        # covariate mean is near zero: the unit effect is 0.1 + 2x, so a
        # stray covariate mean would shift the average effect off target.
        "strat-power": ScenarioConfig(
            name="strat-power",
            n=500,
            treated=OutcomeModel((0.1, 1.0), 0.4),
            control=OutcomeModel((0.0, -1.0), 0.1),
            center=False,
            population_seed=229,
            assignment_seed=202,
            **stratified,
        ),
        # Tight rerandomization with shared noise: the unadjusted robust-t
        # over-rejects under the restricted test, the adjusted ones do not.
        "rem-invalid": ScenarioConfig(
            name="rem-invalid",
            n=150,
            treated=OutcomeModel((0.0,), 1.0 / 3.0),
            control=OutcomeModel((0.0, 1.0), 1.0 / 3.0),
            center=True,
            shared_noise=True,
            design_kind="rem",
            # 20 treated vs 130 control: the imbalance inflates the reference
            # variance the unadjusted robust-t imputes, so it over-rejects.
            treated_fraction=0.135,
            # chi2_quantile(0.05, 1), the 5% quantile of chi-square(1), written
            # out so that building the built-ins never loads scipy.
            rem_threshold=0.003932140000019522,
            reps=1000,
            permutations=300,
            population_seed=301,
            assignment_seed=302,
        ),
        # Fast smoke scenario.
        "complete-null": ScenarioConfig(
            name="complete-null",
            n=60,
            treated=OutcomeModel((0.0,), 1.0),
            control=OutcomeModel((0.0,), 1.0),
            center=True,
            design_kind="complete",
            treated_fraction=0.5,
            reps=200,
            permutations=199,
            population_seed=401,
            assignment_seed=402,
        ),
    }


BUILTIN_SCENARIOS = tuple(sorted(_builtins()))


def builtin_scenario(name: str) -> ScenarioConfig:
    table = _builtins()
    if name not in table:
        raise UnknownScenario(
            f"unknown scenario {name!r}; built-ins are {', '.join(sorted(table))}"
        )
    return table[name]


def config_from_dict(raw: dict) -> ScenarioConfig:
    """ScenarioConfig from a parsed declarative config (JSON-shaped dict).

    A `base` key starts from a built-in scenario and overrides fields. A
    malformed config raises InvalidConfig.
    """
    if not isinstance(raw, dict):
        raise InvalidConfig(f"a scenario config must be a JSON object, got {type(raw).__name__}")
    raw = dict(raw)
    base = raw.pop("base", None)
    if base is not None:
        cfg = builtin_scenario(str(base))
        updates = _parse_fields(raw)
        return replace(cfg, **updates)
    fields = _parse_fields(raw)
    missing = [name for name in ("n", "treated", "control") if name not in fields]
    if missing:
        raise InvalidConfig(f"a scenario config without a base needs {missing}")
    fields.setdefault("name", "custom")
    return ScenarioConfig(**fields)


def _parse_fields(raw: dict) -> dict:
    out = {}
    for key, value in raw.items():
        try:
            if key in ("treated", "control"):
                out[key] = OutcomeModel(tuple(float(c) for c in value["poly"]), float(value["sd"]))
            elif key == "statistics":
                out[key] = tuple(StatisticSpec(*str(label).split(":")) for label in value)
            elif key == "stratum_cutoffs":
                out[key] = tuple(float(c) for c in value)
            else:
                out[key] = value
        except (KeyError, TypeError, ValueError) as err:
            raise InvalidConfig(f"scenario field {key!r}: {type(err).__name__}: {err}") from err
    unknown = set(out) - set(ScenarioConfig.__dataclass_fields__)
    if unknown:
        raise InvariantViolation(f"unknown scenario config fields: {sorted(unknown)}")
    return out


def config_to_dict(cfg: ScenarioConfig) -> dict:
    return {**asdict(cfg), "statistics": [s.label for s in cfg.statistics]}
