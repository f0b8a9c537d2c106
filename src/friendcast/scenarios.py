"""Built-in scenario presets."""

from __future__ import annotations

from .harness import ConfigError, ScenarioConfig

# Two homogeneous populations of 100 actors trading 10 facts, one receiver
# per session: reputation-driven "experts" and popularity-driven "trolls".
# The presets opt into the "source" belief weighting so that comments can
# actually sway a sender; under the literal "transferred" weighting a
# comment's zero knowledge quantity nullifies its belief and the two
# populations become nearly indistinguishable. A comment carries the
# responder's own tuple from right after forgetting, both trust updates
# compare the two post-forget beliefs, and a comment earns popularity on
# the reputation scale (1/(n-1) per actor changed). PAPER.md settles none
# of these; transfer.py states the grounding. Under them trolls comment on
# nearly every send, experts mostly only where they agree.
BUILTIN_SCENARIOS: dict[str, dict] = {
    "experts": dict(
        knowledge_weight=0.2,
        reputation_weight=0.7,
        popularity_weight=0.1,
        ontology_belief_weight="source",
    ),
    "trolls": dict(
        knowledge_weight=0.1,
        reputation_weight=0.1,
        popularity_weight=0.8,
        ontology_belief_weight="source",
    ),
}


def scenario_config(name: str, **overrides) -> ScenarioConfig:
    """Build a named built-in scenario, optionally overriding fields."""
    if name not in BUILTIN_SCENARIOS:
        known = ", ".join(sorted(BUILTIN_SCENARIOS))
        raise ConfigError(f"unknown scenario {name!r} (known: {known})")
    return ScenarioConfig.from_dict({**BUILTIN_SCENARIOS[name], **overrides})
