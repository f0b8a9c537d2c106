"""Walk through the assertion algebra: values, forgetting, and learning.

Run:  python3 demos/01_assertion_algebra.py
"""

import numpy as np

from friendcast import Ontology, StrategyProfile, TransferParams, World, execute_session
from friendcast.knowledge import clamped_array, combined_belief, combined_knowledge


def pair(k, b):
    return f"({float(k)}, {float(b)})"


print("An assertion pairs a quantity of knowledge k with a belief b; its value is k*b.")
# An actor's base is its row of the population state: astrology (knows a
# little, firmly disbelieves), a rumor (well informed about something
# unverifiable) and a plain fact. Two actors hold it, because a session
# needs a sender and a receiver.
base_k, base_b = np.array([0.3, 0.8, 0.5]), np.array([-0.9, 0.0, 1.0])
world = World(
    knowledge=np.tile(base_k, (2, 1)),
    belief=np.tile(base_b, (2, 1)),
    popularity=np.zeros(2),
    trust=np.eye(2),
    personality=np.tile([1.0, 0.0, 0.0], (2, 1)),
    willingness=np.ones(2),
    ontology=Ontology.identity(len(base_k)),
)
values = world.values()[0]
for k, b, value in zip(base_k[:2], base_b[:2], values):
    print(f"  {pair(k, b)}  ->  value {value:+.2f}")

print("\nAverage knowledge is the mean absolute value across the base.")
print(f"  base values {np.round(values, 3)}  ->  K = {np.abs(values).mean():.3f}")

print("\nForgetting shrinks both components, so values scale linearly:")
for rate in (1.0, 0.81, 0.25):
    # every actor forgets once per session, even when nothing is sent
    faded = world.copy()
    quiet = StrategyProfile.all_hold(1)
    execute_session(faded, 0, [1], None, quiet, TransferParams(remembrance=rate))
    print(f"  remembrance {rate:4.2f}:  K = {np.abs(faded.values()[0]).mean():.3f}")

print("\nLearning combines two instances of the same assertion, elementwise:")
labels = ["half-knowledge meets a believer", "an ignorant enthusiast changes nothing", "full knowledge absorbs"]
have_k, have_b = np.array([0.5, 0.4, 0.4]), np.array([0.0, -0.7, -0.7])
heard_k, heard_b = np.array([0.5, 0.0, 1.0]), np.array([0.8, 1.0, 1.0])
# the added belief is weighted by the added knowledge, as the session kernel does
got_k = clamped_array(combined_knowledge(have_k, heard_k), 0.0, 1.0)
got_b = clamped_array(combined_belief(have_b, heard_b, heard_k), -1.0, 1.0)
for i, label in enumerate(labels):
    print(f"  {label}:")
    print(f"    {pair(have_k[i], have_b[i])} + {pair(heard_k[i], heard_b[i])} -> k={got_k[i]:.3f}, b={got_b[i]:+.3f}")

print("\nBeliefs saturate: repeated agreement approaches +1 without crossing it.")
trail = [0.1]  # (0.5, 0.1) hears (0.6, 0.9) six times
for _ in range(6):
    trail.append(combined_belief(trail[-1], 0.9, 0.6))
print("  belief trail:", [f"{b:+.3f}" for b in trail])
