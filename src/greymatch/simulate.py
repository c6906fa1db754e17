"""Monte Carlo harness: generate noisy trajectories from a known linear
system, fit both pipelines on every replication, and summarize parameter
recovery and forecast accuracy.

Scenario:  SimulationScenario is the one check of a study's settings; it
refuses a wrongly typed or out-of-range field by name and keeps reals as
Python floats.  scenario_from_config reads a scenario file's JSON object
into one (`greymatch simulate`), and judges nothing itself.

Noise model:  each in-sample observation gets independent Gaussian noise
with per-component standard deviation

    sigma_l = noise_scale * std(clean in-sample component) / snr**noise_exponent.

The defaults (noise_scale=1.10, noise_exponent=2.0) are calibrated so that
the harness reproduces the published simulation statistics this package
ships as references; noise_exponent=0.5 gives the textbook
"sigma = sqrt(Var/snr)" convention instead.  Out-of-sample points are always
noise-free.  Fitting errors are scored against the clean trajectory;
k-step-ahead errors are absolute percentage errors at the k-th held-out
point.

Engine:  replications are fitted in blocks of REPLICATION_BLOCK (200).  A
block's noisy series are stacked along a leading axis (values (R, n, d))
and go through fit_grey, fit_matching and predict_on_grid once, in the same
code a single series takes; each replication gets the numbers it gets
alone.  The noise of replication r comes from its own Philox stream, the
one of Generator(Philox(SeedSequence(entropy=seed, spawn_key=(r,)))).  The
Philox keys of a whole block are computed in one vectorised pass of
numpy's SeedSequence hash, bit for bit, and one reused Philox takes each
key in turn (counter 0, empty buffer), so no SeedSequence, Philox or
Generator is built per replication.  A replication that fails (a singular
design, a singular I - A, a response that overflows) is a masked row of
the block, recorded with its error class by errors.record_failures, and
left out of the metrics.
"""

import math
from collections import Counter
from dataclasses import dataclass, field, fields

import numpy as np

from . import basis as _basis
from . import grey as _grey
from . import matching as _matching
from . import series as _series
from .errors import OverflowGuardError, record_failures

QUARTILE_LEVELS = (0, 25, 50, 75, 100)


# The most samples, n + horizon, a replication may take.  A block holds
# several (REPLICATION_BLOCK, n + horizon, d) float arrays, 16 MB per
# component at the cap; the paper's studies take at most 111.
MAX_SAMPLES = 10_000

# scenario-file keys that differ from the field they fill
FILE_KEYS = {"a_matrix": "A", "b_matrix": "B"}


def _is_count(value, low):
    """Whether value is an int or numpy integer, not a bool, and >= low."""
    return (isinstance(value, (int, np.integer)) and not isinstance(value, bool)
            and value >= low)


def _refusal(name, rule, got):
    """The ValueError naming a field, and its file key where that differs."""
    key = f" (scenario file key {FILE_KEYS[name]!r})" if name in FILE_KEYS else ""
    return ValueError(f"{name!r} must be {rule}, got {got}{key}")


@dataclass(frozen=True)
class SimulationScenario:
    """A known system plus sampling, noise and replication settings.

    a_matrix must be a non-empty d x d matrix, initial_state of shape (d,),
    and, when given, b_matrix of shape (d, forcing.dimension) and constant
    of shape (d,), each of real numbers only (no bool or string at any
    depth); they are kept as float arrays.  forcing must be a forcing spec
    of at most n - d - 2 components and include_constant a bool.  snr and
    step must be finite real numbers > 0, with snr**noise_exponent finite
    and > 0, t_span two finite increasing ones that step divides,
    noise_exponent finite and noise_scale finite and >= 0; they are kept as
    Python floats.  replications, horizon and seed must be integers,
    replications >= 1 and horizon and seed >= 0; they are kept as Python
    ints.  A bool is not a number.  n + horizon may not exceed MAX_SAMPLES.
    Otherwise ValueError names the field (and its FILE_KEYS key).
    """

    a_matrix: np.ndarray
    initial_state: np.ndarray
    snr: float
    replications: int
    seed: int
    forcing: object = field(default_factory=_basis.ZeroForcing)
    b_matrix: np.ndarray = None
    constant: np.ndarray = None
    t_span: tuple = (0.0, 5.0)
    step: float = 0.25
    horizon: int = 10
    noise_exponent: float = 2.0
    noise_scale: float = 1.10
    include_constant: bool = False

    def __post_init__(self):
        for name in ("a_matrix", "initial_state", "b_matrix", "constant"):
            if (value := getattr(self, name)) is not None:
                if (array := _basis.real_array(value)) is None:
                    raise _refusal(name, "an array of real numbers", repr(value))
                object.__setattr__(self, name, array)
        shape = np.shape(self.a_matrix)
        if len(shape) != 2 or shape[0] != shape[1] or not shape[0]:
            raise _refusal("a_matrix", "a non-empty square matrix", f"shape {shape}")
        if not isinstance(self.forcing, _basis.SPECS):
            raise _refusal("forcing", "a forcing spec", repr(self.forcing))
        if not isinstance(self.include_constant, (bool, np.bool_)):
            raise _refusal("include_constant", "true or false", repr(self.include_constant))
        object.__setattr__(self, "include_constant", bool(self.include_constant))
        d = shape[0]
        for name, want in (("initial_state", (d,)), ("constant", (d,)),
                           ("b_matrix", (d, self.forcing.dimension))):
            value = getattr(self, name)
            if np.shape(value) != want and (value is not None or name == "initial_state"):
                raise _refusal(name, f"of shape {want}", f"shape {np.shape(value)}")
        for name, in_range, rule in (
                ("snr", lambda snr: snr > 0, "a finite number > 0"),
                ("t_span", lambda t0, t_end: t0 < t_end, "two finite increasing times"),
                ("step", lambda step: step > 0, "a finite number > 0"),
                ("noise_exponent", lambda exponent: True, "a finite number"),
                ("noise_scale", lambda scale: scale >= 0, "a finite number >= 0")):
            reals = _basis.real_array(value := getattr(self, name))
            shape = (2,) if name == "t_span" else ()
            if (reals is None or reals.shape != shape or not np.isfinite(reals).all()
                    or not in_range(*reals.reshape(-1))):
                raise _refusal(name, rule, repr(value))
            object.__setattr__(self, name, tuple(reals.tolist()) if shape else float(reals))
        with np.errstate(over="ignore", under="ignore"):
            if not 0 < np.float64(self.snr) ** self.noise_exponent < np.inf:
                raise _refusal("snr", "a number whose power noise_exponent is "
                               "finite and > 0", repr(self.snr))
        for name, low, rule in (
                ("replications", 1, "an integer >= 1 (need at least one replication)"),
                ("horizon", 0, "an integer >= 0"),
                ("seed", 0, "an integer >= 0")):
            if not _is_count(value := getattr(self, name), low):
                raise _refusal(name, rule, repr(value))
            object.__setattr__(self, name, int(value))
        count = (self.t_span[1] - self.t_span[0]) / self.step
        if not (math.isfinite(count) and abs(count - round(count)) <= 1e-9):
            raise _refusal("step", "a divisor of t_span with a finite count", repr(self.step))
        if self.n + self.horizon > MAX_SAMPLES:
            raise _refusal("step", f"coarse enough for n + horizon <= {MAX_SAMPLES}",
                           f"{self.step!r}, n {self.n} and horizon {self.horizon}")
        if self.forcing.dimension > self.n - d - 2:
            raise _refusal("forcing", f"of at most n - d - 2 components, n = {self.n}",
                           f"{self.forcing.dimension} components")

    @property
    def n(self):
        return int(round((self.t_span[1] - self.t_span[0]) / self.step)) + 1

    @property
    def d(self):
        return len(self.initial_state)

    def times(self):
        return self.t_span[0] + self.step * np.arange(self.n + self.horizon)


def scenario_from_config(config):
    """The SimulationScenario of a scenario file's JSON object: A and B fill
    a_matrix and b_matrix, forcing is read by basis.spec_from_config, and
    replications and seed default to 200 and 0.  A missing A, initial_state
    or snr raises KeyError; unknown keys are ignored."""
    values = {"replications": 200, "seed": 0}
    for item in fields(SimulationScenario):
        key = FILE_KEYS.get(item.name, item.name)
        if key in config or item.name in ("a_matrix", "initial_state", "snr"):
            values[item.name] = config[key]
    if "forcing" in values:
        values["forcing"] = _basis.spec_from_config(values["forcing"])
    return SimulationScenario(**values)


def _clean_trajectory(scenario):
    b = scenario.b_matrix
    if b is None:
        b = np.zeros((scenario.d, scenario.forcing.dimension))
    values = _grey.linear_response(
        scenario.a_matrix, b, scenario.constant, scenario.forcing,
        scenario.initial_state, float(scenario.t_span[0]), scenario.times(),
    )
    return _series.make_series(scenario.times(), values)


def noise_sigmas(scenario, clean_in_values):
    """Per-component noise standard deviations for a scenario;
    OverflowGuardError when one is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        spread = clean_in_values.std(axis=0, ddof=1)
        sigma = scenario.noise_scale * spread / scenario.snr ** scenario.noise_exponent
    if not np.isfinite(sigma).all():
        raise OverflowGuardError(f"noise standard deviations {sigma.tolist()} overflow "
                                 "double precision")
    return sigma


# numpy's SeedSequence hash (O'Neill's seed_seq mix) and its pool size.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
_MASK32 = 0xFFFFFFFF


def _hashed(words, hash_const, mult):
    """The seed_seq hash of an array of uint32 words under the running
    constant hash_const (a Python int); returns it and the next constant."""
    words = words ^ np.uint32(hash_const)
    hash_const = hash_const * mult & _MASK32
    words = words * np.uint32(hash_const)
    return words ^ (words >> np.uint32(16)), hash_const


def _philox_keys(seed, replications):
    """The Philox keys (len(replications), 2) uint64 that
    Philox(SeedSequence(entropy=seed, spawn_key=(r,))) takes for each r,
    bit for bit, computed for all replications in one pass.

    SeedSequence(seed).pool is the pool before the spawn word r is mixed
    in (numpy pads a spawned sequence's entropy with zeros to the pool
    size, as an unspawned one hashes zeros); the spawn word then passes
    through one hashmix and mix per pool word, and generate_state(2,
    np.uint64) hashes the pool into four words read as two little-endian
    uint64."""
    # one spawn word: numpy refuses an r outside [0, 2**32) here
    spawn = np.asarray(replications, dtype=np.uint32)
    seed_words = max(1, -(-seed.bit_length() // 32))
    # hashmix calls made on the seed: one per pool word, one per ordered
    # pair of pool words, one per pool word for each word beyond the pool
    calls = _POOL_SIZE * _POOL_SIZE + _POOL_SIZE * max(0, seed_words - _POOL_SIZE)
    hash_const = _INIT_A * pow(_MULT_A, calls, 1 << 32) & _MASK32
    state = np.empty((len(spawn), _POOL_SIZE), dtype=np.uint32)
    hash_b = _INIT_B
    for i, word in enumerate(np.random.SeedSequence(seed).pool):
        # mix(word, hashmix(r)), then generate_state's hash of the result
        mixed, hash_const = _hashed(spawn, hash_const, _MULT_A)
        mixed = np.uint32(_MIX_MULT_L * int(word) & _MASK32) - _MIX_MULT_R * mixed
        state[:, i], hash_b = _hashed(mixed ^ (mixed >> np.uint32(16)), hash_b, _MULT_B)
    return state.astype("<u4").view("<u8").astype(np.uint64)


def _noisy_series(scenario, clean, sigma, replications):
    """The noisy in-sample series of the given replications, stacked:
    values (len(replications), n, d), each the clean in-sample values plus
    Gaussian noise of per-component standard deviation sigma, drawn from
    the replication's own counter-based stream, the stream of
    Generator(Philox(SeedSequence(entropy=seed, spawn_key=(r,)))).  One
    Philox is reused: each replication sets its key, counter 0 and an
    empty buffer, the state a fresh Philox starts from."""
    n, d = scenario.n, scenario.d
    noise = np.empty((len(replications), n, d))
    bit_generator = np.random.Philox(0)
    generator = np.random.Generator(bit_generator)
    # Python ints: the state setter reads lists faster than uint64 arrays
    state = {"bit_generator": "Philox",
             "state": {"counter": [0, 0, 0, 0], "key": None},
             "buffer": [0, 0, 0, 0], "buffer_pos": 4,
             "has_uint32": 0, "uinteger": 0}
    for row, key in zip(noise, _philox_keys(scenario.seed, replications).tolist()):
        state["state"]["key"] = key
        bit_generator.state = state
        generator.standard_normal(out=row)
    # sigma on every row, a contiguous (n, d) array: the product then runs
    # one inner loop per replication instead of one per row; the noise
    # buffer becomes the series, with no (R, n, d) temporary
    noise *= np.ones((n, 1)) * sigma
    noise += clean.values[:n]
    return _series.VectorSeries(_series.TimeGrid(clean.grid.points[:n]), noise)


def generate_trajectory(scenario, replication=0):
    """One realization: the clean series over the full span (in-sample plus
    horizon) and the noisy in-sample series."""
    clean = _clean_trajectory(scenario)
    sigma = noise_sigmas(scenario, clean.values[:scenario.n])
    noisy = _noisy_series(scenario, clean, sigma, [replication])
    return clean, _series.VectorSeries(noisy.grid, noisy.values[0])


@dataclass(frozen=True)
class ReplicationSummary:
    """Aggregated Monte Carlo output.

    per_replication maps metric keys ("matching_fit", "grey_step10",
    "matching_A", ...) to arrays with one row per completed replication.
    failure_reasons maps the error class name of each failed replication
    to its count.
    """

    scenario: SimulationScenario
    horizons: tuple
    completed: int
    failure_count: int
    failure_reasons: dict
    parameter_means: dict
    parameter_stds: dict
    quartiles: dict
    max_structural_gap: float
    per_replication: dict
    metadata: dict


# Replications fitted in one stacked pass: a default study of 200 is one
# pass.  Larger blocks cost memory.  Against two blocks of 100, one block
# of 200 raises the traced peak of a cell of n = 101 from 1.40 to 1.99 MB
# (2.67 MB if the block's arrays were not each held once), and the peak
# RSS of the mc_study benchmark from 41.8 to 42.6 MB.  Any block size gives
# every replication the same numbers.
REPLICATION_BLOCK = 200


def _metric_keys(horizons):
    return (["grey_A", "matching_A", "grey_eta", "matching_eta",
             "grey_fit", "matching_fit"]
            + [f"grey_step{k}" for k in horizons]
            + [f"matching_step{k}" for k in horizons])


def _time_mean(values):
    """values.mean(axis=1) of a stack (R, n, d), bit for bit.  For d > 1
    numpy adds the rows in order; so does a sum down the rows of a
    contiguous (n, R * d) copy, in one inner loop per row instead of one
    per (replication, row).  For d = 1 numpy sums pairwise along the
    contiguous time axis, and the mean is taken as it is."""
    count, n, d = values.shape
    if d == 1:
        return values.mean(axis=1)
    rows = np.ascontiguousarray(values.swapaxes(0, 1)).reshape(n, count * d)
    return rows.sum(axis=0).reshape(count, d) / n


def _replication_block(scenario, clean, sigma, replications, horizons):
    """Fit both pipelines to a block of replications in one stacked pass and
    score them against the clean trajectory.  Returns the metrics, one row
    per replication, and the failure record (errors.record_failures)."""
    n = scenario.n
    clean_in = clean.values[:n]
    noisy = _noisy_series(scenario, clean, sigma, replications)
    metrics = {}
    with record_failures(len(replications)) as failures:
        models = {"grey": _grey.fit_grey(noisy, scenario.forcing,
                                         strategy="reduced_consistent"),
                  "matching": _matching.fit_matching(noisy, scenario.forcing,
                                                     scenario.include_constant)}
        # each prediction is scored and dropped before the next is made
        for name, model in models.items():
            metrics[f"{name}_A"] = model.A.reshape(len(replications), -1)
            metrics[f"{name}_eta"] = model.eta
            pred = _grey.predict_on_grid(model, clean.grid).values
            for k in horizons:
                idx = n - 1 + k
                metrics[f"{name}_step{k}"] = _series.percentage_errors(
                    pred[:, idx], clean.values[idx])
            metrics[f"{name}_fit"] = _time_mean(
                _series.percentage_errors(pred[:, :n], clean_in))
            del pred
    return metrics, failures


def run_monte_carlo(scenario, horizons=(2, 5, 10)):
    """Run the full replication study for one scenario.

    Replications are fitted in blocks of REPLICATION_BLOCK, each in one
    stacked pass of the fit and response code.  Deterministic in (scenario,
    seed): every replication draws from its own counter-based stream and
    gets the numbers it gets alone, so results do not depend on the block
    size or on how many replications run.  A replication that fails is
    left out of the metrics and counted under its error class.  horizons
    are the step counts ahead that are scored, each an integer >= 1 and at
    most scenario.horizon; otherwise ValueError.
    """
    for k in horizons:
        if not _is_count(k, 1):
            raise ValueError(f"'horizons' must hold integers >= 1, got {k!r}")
    horizons = tuple(int(k) for k in horizons)
    if horizons and max(horizons) > scenario.horizon:
        raise ValueError("scenario horizon is shorter than a requested step count")
    clean = _clean_trajectory(scenario)
    sigma = noise_sigmas(scenario, clean.values[:scenario.n])

    reps = scenario.replications
    blocks = [_replication_block(scenario, clean, sigma,
                                 range(first, min(first + REPLICATION_BLOCK, reps)),
                                 horizons)
              for first in range(0, reps, REPLICATION_BLOCK)]
    failures = np.concatenate([record for _, record in blocks])
    sound = np.equal(failures, None)
    per_replication = {key: np.concatenate([metrics[key] for metrics, _ in blocks])[sound]
                       for key in _metric_keys(horizons)}
    failure_reasons = Counter(error.__name__ for error in failures[~sound])

    parameter_means, parameter_stds = {}, {}
    for key in ("grey_A", "matching_A", "grey_eta", "matching_eta"):
        arr = per_replication[key]
        parameter_means[key] = arr.mean(axis=0) if len(arr) else np.array([])
        parameter_stds[key] = arr.std(axis=0, ddof=1) if len(arr) > 1 else np.array([])
    scored = [key for key in per_replication
              if key.endswith("_fit") or "_step" in key]
    quartiles = {}
    if sound.any():
        # one call over the stacked (replications, keys, d) metrics
        levels = np.percentile(np.stack([per_replication[key] for key in scored], axis=1),
                               QUARTILE_LEVELS, axis=0)
        quartiles = dict(zip(scored, levels.swapaxes(0, 1)))
    gap = np.abs(per_replication["grey_A"] - per_replication["matching_A"])
    return ReplicationSummary(
        scenario=scenario,
        horizons=horizons,
        completed=int(sound.sum()),
        failure_count=int((~sound).sum()),
        failure_reasons=dict(sorted(failure_reasons.items())),
        parameter_means=parameter_means,
        parameter_stds=parameter_stds,
        quartiles=quartiles,
        max_structural_gap=float(gap.max(initial=0.0)),
        per_replication=per_replication,
        metadata={
            "grey_strategy": "reduced_consistent",
            "noise_sigmas": sigma.tolist(),
            "noise_exponent": scenario.noise_exponent,
            "noise_scale": scenario.noise_scale,
            "fitting_error_reference": "clean trajectory",
        },
    )


def summary_to_dict(summary):
    """JSON-ready view of a ReplicationSummary (aggregates only)."""
    return {
        "n": summary.scenario.n,
        "snr": summary.scenario.snr,
        "step": summary.scenario.step,
        "seed": summary.scenario.seed,
        "replications": summary.scenario.replications,
        "completed": summary.completed,
        "failure_count": summary.failure_count,
        "failure_reasons": summary.failure_reasons,
        "horizons": list(summary.horizons),
        "parameter_means": {k: v.tolist() for k, v in summary.parameter_means.items()},
        "parameter_stds": {k: v.tolist() for k, v in summary.parameter_stds.items()},
        "quartiles": {k: v.tolist() for k, v in summary.quartiles.items()},
        "max_structural_gap": summary.max_structural_gap,
        "metadata": summary.metadata,
    }


def tidy_rows(summary):
    """One row per replication x estimator x metric x component, ready for
    CSV export or external plotting."""
    rows = []
    for key, arr in summary.per_replication.items():
        estimator, metric = key.split("_", 1)
        for rep in range(arr.shape[0]):
            for comp in range(arr.shape[1]):
                rows.append({
                    "replication": rep,
                    "estimator": estimator,
                    "metric": metric,
                    "component": comp + 1,
                    "value": float(arr[rep, comp]),
                })
    return rows
