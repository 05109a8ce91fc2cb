"""Experiment harness: the four method variants on one dataset.

A cell is one (method, k, repeat); its RNG is derived from the experiment
seed and the cell coordinates, so cells can run in any order or in
parallel and the report comes out identical. Every cell records its
driving impact (initial vs. best evaluation); RSS-driven cells are
additionally scored once under the customizability oracle on their
RSS-best clustering, against the initial clustering's customizability,
so all four methods can be compared along the axis the application cares
about.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from enum import Enum
from statistics import mean

from .core import Clustering, Dataset, RunTrace, Sense, as_integer, as_seed
from .engines import DEFAULT_ITERATIONS, EngineConfig, Method, best_clustering, run_engine
from .feedback import FeedbackProvider, OracleProfile, provider_from_name, relative_change
from .kmeans import KMeansConfig, lloyd
from .operators import MIN_K
from .rng import derive_seed, substream


class ExperimentMethod(Enum):
    SME_RSS = "sme:rss"
    SME_CUSTOM = "sme:custom"
    SM_RSS = "sm:rss"
    SM_CUSTOM = "sm:custom"

    @property
    def engine_method(self) -> Method:
        return Method(self.value.partition(":")[0])

    @property
    def feedback_kind(self) -> str:
        return self.value.partition(":")[2]


ALL_METHODS = tuple(ExperimentMethod)


def _method(value) -> ExperimentMethod:
    """An ExperimentMethod from a member or its name, e.g. "sme:rss"."""
    try:
        return ExperimentMethod(value)
    except ValueError:
        names = ", ".join(m.value for m in ExperimentMethod)
        raise ValueError(f"unknown method {value!r}; expected one of {names}") from None


@dataclass(frozen=True)
class ExperimentConfig:
    methods: tuple[ExperimentMethod, ...] = ALL_METHODS
    k_values: tuple[int, ...] = (2, 3, 4, 5, 6, 7)
    sme_iterations: int = DEFAULT_ITERATIONS[Method.SME]
    sm_iterations: int = DEFAULT_ITERATIONS[Method.SM]
    repeats_per_cell: int = 3
    fluctuation_calls: int = 10
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "methods", tuple(_method(m) for m in self.methods))
        for name in ("sme_iterations", "sm_iterations", "repeats_per_cell", "fluctuation_calls"):
            object.__setattr__(self, name, as_integer(name, getattr(self, name)))
        object.__setattr__(self, "seed", as_seed("seed", self.seed))
        object.__setattr__(self, "k_values", tuple(as_integer("k_values", k) for k in self.k_values))
        if not self.methods:
            raise ValueError("methods must be non-empty")
        if not self.k_values:
            raise ValueError("k_values must be non-empty")
        for name, values in (("methods", [m.value for m in self.methods]), ("k_values", self.k_values)):
            repeated = sorted({v for v in values if values.count(v) > 1}, key=values.index)
            if repeated:
                raise ValueError(f"{name} repeats {', '.join(map(str, repeated))}")
        if any(k < MIN_K for k in self.k_values):
            raise ValueError(f"every k must be at least {MIN_K}")
        if self.repeats_per_cell < 1:
            raise ValueError("repeats_per_cell must be at least 1")
        if min(self.sme_iterations, self.sm_iterations) < 1:
            raise ValueError("sme_iterations and sm_iterations must be at least 1")
        if self.fluctuation_calls < 2:
            raise ValueError("fluctuation_calls must be at least 2")


@dataclass(frozen=True)
class ImpactRecord:
    """One cell's outcome; custom_* fields are None when no oracle profile
    was supplied to an RSS-driven cell."""

    method: str
    k: int
    seed: int
    driving_feedback: str
    initial_eval: float
    best_eval: float
    impact: float
    custom_initial: float | None
    custom_reference: float | None
    custom_impact: float | None
    final_k: int
    stalled: bool


@dataclass(frozen=True)
class CellFailure:
    method: str
    k: int
    seed: int
    error: str

    def __str__(self) -> str:
        return f"{self.method} k={self.k} seed={self.seed}: {self.error}"


@dataclass(frozen=True)
class ExperimentReport:
    records: tuple[ImpactRecord, ...]
    failures: tuple[CellFailure, ...]
    fluctuation_by_k: dict[int, float] | None = None

    def record_dicts(self) -> list[dict]:
        return [asdict(r) for r in self.records]

    def failure_dicts(self) -> list[dict]:
        return [asdict(f) for f in self.failures]

    def mean_by(self, field: str, *keys: str) -> dict:
        """Mean of a record field grouped by the given record fields, nested
        one dict level per key (e.g. mean_by("impact", "method", "k") maps
        method -> k -> mean). Records whose field is None are skipped, and
        groups left without values are omitted; groups keep their first-seen
        record order."""
        if not keys:
            raise ValueError("mean_by needs at least one record field to group by")
        groups: dict = {}
        for record in self.records:
            value = getattr(record, field)
            if value is None:
                continue
            node = groups
            for key in keys[:-1]:
                node = node.setdefault(getattr(record, key), {})
            node.setdefault(getattr(record, keys[-1]), []).append(value)

        def means(node: dict) -> dict:
            return {k: means(v) if isinstance(v, dict) else mean(v) for k, v in node.items()}

        return means(groups)

    def final_k_distribution(self, method: str) -> dict[int, int]:
        counts: dict[int, int] = {}
        for r in self.records:
            if r.method == method:
                counts[r.final_k] = counts.get(r.final_k, 0) + 1
        return dict(sorted(counts.items()))


def impact(initial: float, best: float, sense: Sense) -> float:
    """Relative change between the initial and best evaluation, oriented so
    that an improvement is positive: a lower-is-better pair is negated
    first, which gives (initial - best) / |initial| exactly."""
    return relative_change(sense.oriented(float(initial)), sense.oriented(float(best)))


def expected_relative_change(
    dataset: Dataset,
    clustering: Clustering,
    provider: FeedbackProvider,
    calls: int,
    seed: int,
) -> float:
    """Fluctuation of a non-deterministic evaluation on a fixed clustering.

    Runs `calls` independent evaluations on distinct substreams and returns
    the mean absolute relative change of calls 2..N against call 1. The
    pairing against the first call is one reading of the statistic; it is
    the package's declared convention.
    """
    if provider.evaluation_rng(0) is None:
        raise ValueError("expected relative change needs a non-deterministic provider")
    if calls < 2:
        raise ValueError("need at least 2 evaluation calls")
    values = [
        provider.evaluate(dataset, clustering, substream(seed, "fluctuation", j)).aggregate
        for j in range(calls)
    ]
    return mean(abs(relative_change(values[0], v)) for v in values[1:])


def run_method(
    dataset: Dataset,
    method: ExperimentMethod,
    k: int,
    seed: int,
    profile: OracleProfile | None = None,
    iterations: int | None = None,
    target: float | None = None,
) -> RunTrace:
    """One run of method from k seeded clusters, as an experiment cell and
    the CLI's run command make it. A customizability-driven run evaluates
    on the profile re-seeded from seed, so the arguments fix the run."""
    seed = as_seed("seed", seed)  # named before the oracle's seed derives from it
    if method.feedback_kind == "custom" and profile is not None:
        profile = profile.with_rng_seed(derive_seed(seed, "oracle"))
    provider = provider_from_name(method.feedback_kind, profile)
    return run_engine(dataset, k, EngineConfig(method.engine_method, provider, seed, iterations, target))


def _run_cell(
    dataset: Dataset,
    method: ExperimentMethod,
    k: int,
    cell_seed: int,
    config: ExperimentConfig,
    profile: OracleProfile | None,
) -> ImpactRecord:
    iterations = config.sme_iterations if method.engine_method is Method.SME else config.sm_iterations
    trace = run_method(dataset, method, k, cell_seed, profile, iterations)
    initial = trace.steps[0].feedback.aggregate
    best_clust, best_eval = best_clustering(trace)
    own_impact = impact(initial, best_eval, trace.sense)

    if method.feedback_kind == "custom":
        custom_initial: float | None = initial
        custom_reference: float | None = best_eval
        custom_impact: float | None = own_impact
    elif profile is not None:
        ref_provider = provider_from_name(
            "custom", profile.with_rng_seed(derive_seed(cell_seed, "reference"))
        )
        custom_initial = ref_provider.evaluate(
            dataset, trace.steps[0].clustering, ref_provider.evaluation_rng(0)
        ).aggregate
        custom_reference = ref_provider.evaluate(
            dataset, best_clust, ref_provider.evaluation_rng(1)
        ).aggregate
        custom_impact = impact(custom_initial, custom_reference, Sense.HIGHER_IS_BETTER)
    else:
        custom_initial = custom_reference = custom_impact = None

    return ImpactRecord(
        method=method.value,
        k=k,
        seed=cell_seed,
        driving_feedback=method.feedback_kind,
        initial_eval=initial,
        best_eval=best_eval,
        impact=own_impact,
        custom_initial=custom_initial,
        custom_reference=custom_reference,
        custom_impact=custom_impact,
        final_k=best_clust.k,
        stalled=trace.stalled,
    )


def _fluctuation_by_k(
    dataset: Dataset, config: ExperimentConfig, profile: OracleProfile
) -> dict[int, float]:
    out: dict[int, float] = {}
    for k in config.k_values:
        try:
            base = lloyd(dataset, KMeansConfig(k=k, seed=derive_seed(config.seed, "fluct-init", k)))
            out[k] = expected_relative_change(
                dataset,
                base,
                provider_from_name("custom", profile),
                calls=config.fluctuation_calls,
                seed=derive_seed(config.seed, "fluct-calls", k),
            )
        except ValueError:
            continue  # degenerate baseline for this k; leave it out
    return out


def run_experiment(
    dataset: Dataset,
    config: ExperimentConfig,
    oracle_profile: OracleProfile | None = None,
    threads: int = 1,
) -> ExperimentReport:
    """Run every (method, k, repeat) cell and collect impact records.

    A failing cell is recorded under failures instead of aborting the rest.
    With threads > 1 cells run in a thread pool; the report is identical to
    a serial run because each cell's randomness is derived from its own
    coordinates.
    """
    cells = [
        (method, k, repeat)
        for method in config.methods
        for k in config.k_values
        for repeat in range(config.repeats_per_cell)
    ]

    def run(cell) -> ImpactRecord | CellFailure:
        method, k, repeat = cell
        cell_seed = derive_seed(config.seed, method.value, k, repeat)
        try:
            return _run_cell(dataset, method, k, cell_seed, config, oracle_profile)
        except Exception as exc:  # record, never drop silently
            return CellFailure(
                method=method.value, k=k, seed=cell_seed, error=f"{type(exc).__name__}: {exc}"
            )

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            outcomes = list(pool.map(run, cells))
    else:
        outcomes = [run(cell) for cell in cells]

    records = tuple(o for o in outcomes if isinstance(o, ImpactRecord))
    failures = tuple(o for o in outcomes if isinstance(o, CellFailure))

    fluctuation = None
    if oracle_profile is not None:
        fluctuation = _fluctuation_by_k(dataset, config, oracle_profile)

    return ExperimentReport(records=records, failures=failures, fluctuation_by_k=fluctuation)
