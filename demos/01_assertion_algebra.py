"""Walk through the assertion algebra: values, forgetting, and learning.

Run:  python3 demos/01_assertion_algebra.py
"""

import numpy as np

from friendcast import (
    Assertion,
    Ontology,
    StrategyProfile,
    TransferParams,
    World,
    execute_session,
    learn,
)

print("An assertion pairs a quantity of knowledge with a belief.")
astrology = Assertion(0.3, -0.9)  # knows a little, firmly disbelieves
print(f"  {astrology}  ->  value {astrology.value:+.2f}")
rumor = Assertion(0.8, 0.0)  # well informed about something unverifiable
print(f"  {rumor}  ->  value {rumor.value:+.2f}")

print("\nAverage knowledge is the mean absolute value across the base.")
base = [astrology, rumor, Assertion(0.5, 1.0)]
# An actor's base is its row of the population state. Two actors hold it,
# because a session needs a sender and a receiver.
world = World(
    knowledge=np.array([[a.k for a in base]] * 2),
    belief=np.array([[a.b for a in base]] * 2),
    popularity=np.zeros(2),
    trust=np.eye(2),
    personality=np.tile([1.0, 0.0, 0.0], (2, 1)),
    willingness=np.ones(2),
    ontology=Ontology.identity(len(base)),
)
K = world.average_knowledge_per_actor()[0]
print(f"  base values {np.round(world.values()[0], 3)}  ->  K = {K:.3f}")

print("\nForgetting shrinks both components, so values scale linearly:")
for rate in (1.0, 0.81, 0.25):
    # every actor forgets once per session, even when nothing is sent
    faded = world.copy()
    quiet = StrategyProfile.all_hold(1)
    execute_session(faded, 0, [1], None, quiet, TransferParams(remembrance=rate))
    print(f"  remembrance {rate:4.2f}:  K = {faded.average_knowledge_per_actor()[0]:.3f}")

print("\nLearning combines two instances of the same assertion.")
cases = [
    (Assertion(0.5, 0.0), Assertion(0.5, 0.8), "half-knowledge meets a believer"),
    (Assertion(0.4, -0.7), Assertion(0.0, 1.0), "an ignorant enthusiast changes nothing"),
    (Assertion(0.4, -0.7), Assertion(1.0, 1.0), "full knowledge absorbs"),
]
for have, heard, label in cases:
    got = learn(have, heard)
    print(f"  {label}:")
    print(f"    {have} + {heard} -> k={got.k:.3f}, b={got.b:+.3f}")

print("\nBeliefs saturate: repeated agreement approaches +1 without crossing it.")
a = Assertion(0.5, 0.1)
trail = [a.b]
for _ in range(6):
    a = learn(a, Assertion(0.6, 0.9))
    trail.append(a.b)
print("  belief trail:", [f"{b:+.3f}" for b in trail])
