"""friendcast: game-theoretic simulator of broadcast information diffusion.

Actors hold fuzzy (knowledge, belief) assertions, trust each other to
varying degrees, and care about knowledge, reputation, and popularity in
personality-specific proportions. Each simulation step, a random sender
and a set of receivers play a one-shot game over whether to publish an
assertion and whether to comment on it; the equilibrium actions are then
applied to the population state.
"""

__version__ = "0.1.0"

from .knowledge import Ontology
from .transfer import TransferParams, execute_session
from .game import StrategyProfile, build_payoff_tensor, find_pure_nash, select_profile
from .world import World
from .harness import simulate
from .scenarios import scenario_config

__all__ = [
    "Ontology",
    "StrategyProfile",
    "TransferParams",
    "World",
    "build_payoff_tensor",
    "execute_session",
    "find_pure_nash",
    "scenario_config",
    "select_profile",
    "simulate",
]
