"""Population setup, the random-session loop, and snapshot metrics."""

import math
from dataclasses import dataclass, fields, asdict

import numpy as np

# `bench/worker.py` wraps `build_payoff_tensor`, `select_profile`, `execute_session`,
# `take_snapshot` and `step` in this module by name, so each stays a module global;
# `simulate`, `sessions` and `step` call the last four through them.
from .game import StrategyProfile, build_payoff_tensor, build_payoff_tensors, select_profile
from .knowledge import Ontology
from .transfer import BELIEF_WEIGHT_MODES, SessionOutcome, TransferParams, execute_session
from .world import World

HISTOGRAM_BINS = 20
# A star's game has 2^(N+1) profiles, and one tensor build at N = 12 peaks near 20 MB.
MAX_RECEIVERS = 12
_BIN_EDGES = np.linspace(-1.0, 1.0, HISTOGRAM_BINS + 1)


class ConfigError(ValueError):
    """A scenario configuration failed validation."""


def _is_rate(v) -> bool:
    """A number in [0, 1]; a bool is not one, and NaN fails the range."""
    return not isinstance(v, bool) and isinstance(v, (int, float)) and 0.0 <= v <= 1.0


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything that pins down one simulation run, checked once when built.

    An `int` field must be an integer, a `float` field a rate in [0, 1]; a bool is neither.
    `knowledge_tiers` is a nonempty list of [fraction, target] rate pairs whose fractions
    sum to 1; `ontology` is "identity" or an n_assertions-square matrix with diagonal 1 and
    finite entries in [-1, 1]. Any malformed value raises `ConfigError` naming its field.
    """

    n_actors: int = 100
    n_assertions: int = 10
    n_receivers: int = 1
    n_steps: int = 50_000
    snapshot_every: int = 500
    knowledge_weight: float = 0.2
    reputation_weight: float = 0.7
    popularity_weight: float = 0.1
    knowledge_tiers: tuple = ((1 / 3, 0.9), (1 / 3, 0.1), (1 / 3, 0.5))  # (fraction, target) pairs
    remembrance: float = 1.0
    trust_history_weight: float = 0.5
    popularity_decay: float = 0.01
    willingness: float = 1.0
    trust_init: float = 0.5
    ontology: object = "identity"  # "identity" or an explicit matrix (a tuple of row tuples)
    ontology_belief_weight: str = "transferred"
    rng_seed: int = 0

    def __post_init__(self):
        self.validate()
        # Nested lists become tuples, so a checked config cannot change afterwards.
        object.__setattr__(self, "knowledge_tiers", tuple(map(tuple, self.knowledge_tiers)))
        if not isinstance(self.ontology, str):
            object.__setattr__(self, "ontology", tuple(map(tuple, self.ontology)))
        # Not a field, so it stays out of to_dict, equality and repr.
        object.__setattr__(self, "_transfer_params", TransferParams(
            remembrance=self.remembrance,
            trust_history_weight=self.trust_history_weight,
            popularity_decay=self.popularity_decay,
            belief_weight_mode=self.ontology_belief_weight,
        ))

    def validate(self) -> None:
        for f in fields(self):
            v = getattr(self, f.name)
            if f.type is int and (isinstance(v, bool) or not isinstance(v, int)):
                raise ConfigError(f"{f.name}={v!r} is not an integer")
            if f.type is float and not _is_rate(v):
                raise ConfigError(f"{f.name}={v!r} is not a rate in [0, 1]")
        if self.n_actors < 2:
            raise ConfigError("need at least two actors")
        if self.n_assertions < 1:
            raise ConfigError("need at least one assertion")
        if not 1 <= self.n_receivers < self.n_actors:
            raise ConfigError("n_receivers must be >= 1 and below n_actors")
        if self.n_receivers > MAX_RECEIVERS:
            raise ConfigError(f"n_receivers={self.n_receivers} is above {MAX_RECEIVERS}: a game has 2^(N+1) profiles")
        if self.n_steps < 0 or self.snapshot_every < 1:
            raise ConfigError("n_steps must be >= 0 and snapshot_every >= 1")
        if self.rng_seed < 0:
            raise ConfigError(f"rng_seed={self.rng_seed} must be >= 0")
        weight_sum = self.knowledge_weight + self.reputation_weight + self.popularity_weight
        if abs(weight_sum - 1.0) > 1e-9:
            raise ConfigError(f"personality weights sum to {weight_sum!r}, expected 1")
        tiers = self.knowledge_tiers
        if not (isinstance(tiers, (list, tuple)) and tiers
                and all(isinstance(t, (list, tuple)) and len(t) == 2 for t in tiers)):
            raise ConfigError(f"knowledge_tiers={tiers!r} is not a nonempty list of [fraction, target] pairs")
        fractions = 0.0
        for tier in tiers:
            if not all(map(_is_rate, tier)):
                raise ConfigError(f"bad knowledge tier {tier!r}")
            fractions += tier[0]
        if abs(fractions - 1.0) > 1e-9:
            raise ConfigError(f"tier fractions sum to {fractions!r}, expected 1")
        if self.ontology_belief_weight not in BELIEF_WEIGHT_MODES:
            raise ConfigError(f"unknown ontology_belief_weight {self.ontology_belief_weight!r}")
        if not isinstance(self.ontology, str):
            try:
                size = Ontology(self.ontology).size
            except (TypeError, ValueError, ArithmeticError) as err:
                raise ConfigError(f"ontology is not a valid matrix: {err}")
            if size != self.n_assertions:
                raise ConfigError(f"explicit ontology is {size}x{size}, n_assertions is {self.n_assertions}")
        elif self.ontology != "identity":
            raise ConfigError(f"unknown ontology preset {self.ontology!r}")

    def transfer_params(self) -> TransferParams:
        """The session rates, built once per config."""
        return self._transfer_params

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioConfig":
        known = set(cls.__dataclass_fields__)
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)


@dataclass
class Snapshot:
    """Knowledge-distribution record for one step of one run."""

    step: int
    actor_mean_value: np.ndarray  # per-actor mean signed value
    actor_mean_abs_value: np.ndarray  # per-actor average knowledge
    actor_popularity: np.ndarray
    actor_reputation: np.ndarray
    histogram: np.ndarray  # counts of actor_mean_value over 20 bins on [-1, 1]
    mean_value: float
    mean_abs_value: float
    std_value: float


def take_snapshot(world: World, step: int) -> Snapshot:
    values = world.values()
    means, abs_means = values.mean(axis=1), np.abs(values).mean(axis=1)
    counts, _ = np.histogram(means, bins=_BIN_EDGES)
    return Snapshot(
        step=step,
        actor_mean_value=means,
        actor_mean_abs_value=abs_means,
        actor_popularity=world.popularity.copy(),
        actor_reputation=world.reputation.copy(),
        histogram=counts,
        mean_value=float(means.mean()),
        mean_abs_value=float(abs_means.mean()),
        std_value=float(means.std()),
    )


def _tier_counts(fractions, n: int) -> list[int]:
    """Largest-remainder apportionment, ties resolved in tier order."""
    quotas = [f * n for f in fractions]
    counts = [math.floor(q) for q in quotas]
    remainders = sorted(
        range(len(quotas)), key=lambda t: (-(quotas[t] - counts[t]), t)
    )
    for t in remainders[: n - sum(counts)]:
        counts[t] += 1
    return counts


def init_population(cfg: ScenarioConfig, rng: np.random.Generator) -> World:
    """Build the starting world.

    Actors fill the tiers in id order; every assertion starts at the tier's
    knowledge target with a belief drawn uniformly from {-1, +1}, so the
    actor's average knowledge equals the target exactly. Trust starts flat
    at trust_init off the diagonal; popularity starts at zero.
    """
    n, a = cfg.n_actors, cfg.n_assertions
    counts = _tier_counts([t[0] for t in cfg.knowledge_tiers], n)
    knowledge = np.empty((n, a))
    start = 0
    for count, (_, target) in zip(counts, cfg.knowledge_tiers):
        knowledge[start : start + count] = target
        start += count
    belief = rng.integers(0, 2, size=(n, a)) * 2.0 - 1.0
    trust = np.full((n, n), float(cfg.trust_init), order="F")
    np.fill_diagonal(trust, 1.0)
    personality = np.tile(
        [cfg.knowledge_weight, cfg.reputation_weight, cfg.popularity_weight], (n, 1)
    )
    return World(
        knowledge=knowledge,
        belief=belief,
        popularity=np.zeros(n),
        trust=trust,
        personality=personality,
        willingness=np.full(n, float(cfg.willingness)),
        ontology=Ontology.identity(a) if isinstance(cfg.ontology, str) else Ontology(cfg.ontology),
    )


def sessions(world: World, cfg: ScenarioConfig, rng: np.random.Generator):
    """A run's sessions in step order, each (sender, receivers, index, profile) for `execute_session`.

    Each session is drawn as it always was: the sender uniformly, then
    n_receivers distinct others (draw order is the friend-list order), then
    an assertion uniformly among the sender's known ones, read from its row
    as the ticks of the sessions before it leave it. Disjoint stars gather
    into a run, played in one `build_payoff_tensors` call, and a run ends
    only where the next star must wait: before a star that shares an actor
    with it, before a sender who knows nothing (forced to hold, with index
    None), and after the last draw. Every star's row is selected with the
    run (`build_payoff_tensors`), and `select_profile` names it as a
    profile as its step takes it. A sender's knowledge row takes the
    forgetting ticks of the run's earlier stars as one
    `np.multiply.accumulate`: the same products in the same order, so it
    underflows to 0 exactly where one product per step does. A star that
    ends a run draws its assertion only once the generator resumes, after
    the run is committed, so the generator is read exactly as one session
    per step reads it.

    A run holds state that is exact only while nothing but `step`, one
    session at a time and in order, changes the world.
    """
    n, n_receivers, params = world.n_actors, cfg.n_receivers, cfg.transfer_params()
    root = np.sqrt(params.remembrance)

    def played(stars):
        if stars:
            for star, tensor in zip(stars, build_payoff_tensors(world, stars, params)):
                yield (*star, select_profile(tensor))

    stars, actors = [], set()
    for _ in range(cfg.n_steps):
        sender = int(rng.integers(n))
        # Draw among the n - 1 others by position, then skip over the sender:
        # this consumes the generator exactly as drawing from the id array would.
        # For one receiver, `choice` without replacement makes exactly one bounded draw.
        if n_receivers == 1:
            picks = [int(rng.integers(n - 1))]
        else:
            picks = rng.choice(n - 1, size=n_receivers, replace=False).tolist()
        receivers = [r + (r >= sender) for r in picks]
        if not actors.isdisjoint([sender, *receivers]):
            yield from played(stars)
            stars, actors = [], set()
        knowledge = world.knowledge[sender]
        if params.remembrance != 1.0 and stars:
            # The forgetting ticks of the sessions before it, one product each, in order.
            ticks = np.full((len(stars) + 1, len(knowledge)), root)
            ticks[0] = knowledge
            knowledge = np.multiply.accumulate(ticks)[-1]
        known = (knowledge > 0.0).nonzero()[0]
        if known.size == 0:
            yield from played(stars)
            stars, actors = [], set()
            yield sender, receivers, None, StrategyProfile.all_hold(n_receivers)
            continue
        stars.append((sender, receivers, int(known[rng.integers(known.size)])))  # as rng.choice(known) draws
        actors.update((sender, *receivers))
    yield from played(stars)


def step(world: World, cfg: ScenarioConfig, stream) -> SessionOutcome:
    """One simulation step: commit the next session of `sessions(world, cfg, rng)` to the world."""
    return execute_session(world, *next(stream), cfg.transfer_params())


@dataclass
class RunResult:
    """Snapshot series plus the run-level action counters."""

    snapshots: list[Snapshot]
    sends: int
    responses: int
    n_steps: int
    n_receivers: int

    @property
    def send_rate(self) -> float:
        return self.sends / self.n_steps if self.n_steps else 0.0

    @property
    def feedback_rate(self) -> float:
        return self.responses / (self.sends * self.n_receivers) if self.sends else 0.0

    def steps_to_threshold(self, threshold: float) -> int | None:
        for snap in self.snapshots:
            if snap.mean_abs_value >= threshold:
                return snap.step
        return None


def simulate(cfg: ScenarioConfig) -> RunResult:
    """Run a full scenario and return snapshots plus action counters."""
    rng = np.random.default_rng(cfg.rng_seed)
    world = init_population(cfg, rng)
    stream = sessions(world, cfg, rng)
    snapshots = [take_snapshot(world, 0)]
    sends = responses = 0
    for t in range(1, cfg.n_steps + 1):
        outcome = step(world, cfg, stream)
        if outcome.sent:
            sends += 1
            responses += len(outcome.responders)
        if t % cfg.snapshot_every == 0 or t == cfg.n_steps:
            snapshots.append(take_snapshot(world, t))
    world.validate()
    return RunResult(
        snapshots=snapshots,
        sends=sends,
        responses=responses,
        n_steps=cfg.n_steps,
        n_receivers=cfg.n_receivers,
    )

