"""One `friendcast run` in a fresh process, timed, and traced on request.

    python3 bench/worker.py '<job json>'

The job holds the CLI arguments, the report path, whether to trace, and
which steps' sessions to replay through the loop-based session oracle.
The worker calls `friendcast.cli.main`, the function behind the
`friendcast` command, and writes a JSON report of clock marks, peak
memory and, when traced, per-layer spans and counts.

Untraced, the step loop runs unwrapped: one hook marks the first
`harness.step` call and removes itself, one marks the end of
`cli.simulate`, and one runs at each `take_snapshot` (every
`snapshot_every` steps): it times the `Reference` kernel, which gauges
the host's speed at that moment, and marks the clock around it. Traced, the worker wraps the public functions the
program looks up at call time (module globals and `World` methods); the
program itself is not edited.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from pathlib import Path

import numpy as np

from checks import expected_profile

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def clock() -> int:
    """System-wide monotonic time in ns, comparable with the parent's marks."""
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


class Reference:
    """A fixed kernel of the simulator's kind of work, timed to gauge host speed.

    Four scratch copies of 100-actor state per round, fancy-indexed
    updates of two rows, a mean and a column sum, and a dict of payoff
    tuples: small numpy calls and interpreter work, as in a step. It does
    not use friendcast, so a change to the program cannot move it.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.k, self.b, self.t = rng.random((100, 10)), rng.random((100, 10)), rng.random((100, 100))

    def time_ns(self, rounds: int = 40) -> int:
        t0 = time.perf_counter_ns()
        for i in range(rounds):
            cells = {}
            for cell in range(4):
                k, b, t = self.k.copy(), self.b.copy(), self.t.copy()
                rows = [i % 100, (i + 7) % 100]
                b[rows] = np.clip(b[rows] + 0.1 * (1.0 - b[rows]), -1.0, 1.0)
                t[rows, 3] = 0.5 * t[rows, 3] + 0.25
                value = np.abs(k[rows] * b[rows]).mean(axis=1)
                reputation = (t[:, rows].sum(axis=0) - t[rows, rows]) / 99
                cells[(cell > 0, (cell % 2 == 1,))] = tuple(float(x) for x in 0.2 * value + 0.7 * reputation)
            max(v[0] for v in cells.values())
        return time.perf_counter_ns() - t0


class Tracer:
    """Spans and counts at the layer boundaries of one run, kept in memory."""

    def __init__(self, sample_steps):
        self.calls: dict[str, list[int]] = {}  # layer -> [calls, total ns]
        self.step_ns: list[int] = []
        self.draw_ns = 0  # self time of `step` outside game and transfer calls
        self.inner_ns = 0  # game and transfer time, summed over the run
        self.excluded_ns = 0  # the benchmark's own checks inside spans, taken out of them
        self.copy_bytes = self.cells = self.sends = self.responses = self.write_bytes = 0
        self.mismatches = self.fallbacks = self.games = 0
        self.sessions = []  # sampled sessions: state before, state after, call, outcome
        self.sample_steps = set(sample_steps)
        self.current_step = 0
        self.world = None

    def timed(self, layer, fn, inner=False, after=None):
        stats = self.calls.setdefault(layer, [0, 0])

        def wrapper(*args):
            t0 = time.perf_counter_ns()
            result = fn(*args)
            dt = time.perf_counter_ns() - t0
            stats[0] += 1
            stats[1] += dt
            if inner:
                self.inner_ns += dt
            if after is not None:
                after(result, *args)
            return result

        return wrapper

    def install(self, marks: dict) -> None:
        from friendcast import cli, harness
        from friendcast.world import World

        def on_copy(copy, world):
            self.copy_bytes += sum(
                a.nbytes for a in (copy.knowledge, copy.belief, copy.popularity, copy.trust)
            )

        def on_tensor(tensor, *args):
            self.cells += len(tensor.payoffs)

        def on_select(profile, tensor):
            t0 = time.perf_counter_ns()
            choice, fallback = expected_profile(tensor, profile)
            self.games += 1
            self.fallbacks += fallback
            self.mismatches += choice != (profile.send, *profile.feedback)
            self.excluded_ns += time.perf_counter_ns() - t0

        def on_session(outcome, *args):
            self.sends += outcome.sent
            self.responses += len(outcome.responders)

        def on_snapshot(snapshot, world, step):
            self.world = world

        def on_write(result, path, *args):
            self.write_bytes += os.path.getsize(path)

        World.copy = self.timed("world.copy", World.copy, after=on_copy)
        World.utilities = self.timed("world.utilities", World.utilities)
        harness.build_payoff_tensor = self.timed(
            "game.tensor", harness.build_payoff_tensor, inner=True, after=on_tensor
        )
        harness.select_profile = self.timed(
            "game.select", harness.select_profile, inner=True, after=on_select
        )
        harness.take_snapshot = self.timed("harness.snapshot", harness.take_snapshot, after=on_snapshot)
        for name in ("write_snapshots", "write_actors", "write_summary", "write_manifest"):
            setattr(cli, name, self.timed("cli.write", getattr(cli, name), after=on_write))

        session = self.timed("transfer.session", harness.execute_session, inner=True, after=on_session)

        def sampled_session(world, *args):
            if self.current_step not in self.sample_steps:
                return session(world, *args)
            t0 = time.perf_counter_ns()
            before = _state(world)
            self.excluded_ns += time.perf_counter_ns() - t0
            outcome = session(world, *args)
            t0 = time.perf_counter_ns()
            self.sessions.append((before, _state(world), args, outcome))
            self.excluded_ns += time.perf_counter_ns() - t0
            return outcome

        harness.execute_session = sampled_session

        step = harness.step

        def traced_step(world, cfg, rng):
            if not self.step_ns:
                marks["first_step"] = clock()
            self.current_step = len(self.step_ns) + 1
            inner0, excluded0 = self.inner_ns, self.excluded_ns
            t0 = time.perf_counter_ns()
            outcome = step(world, cfg, rng)
            dt = time.perf_counter_ns() - t0 - (self.excluded_ns - excluded0)
            self.step_ns.append(dt)
            self.draw_ns += dt - (self.inner_ns - inner0)
            return outcome

        harness.step = traced_step

    def verify(self) -> dict:
        """Oracle replay of the sampled sessions and the world's range guard."""
        from session_oracle import oracle_session

        oracle_gap = 0.0
        for before, after, (sender, receivers, index, profile, params), outcome in self.sessions:
            mirror = {
                "k": before["knowledge"].tolist(),
                "b": before["belief"].tolist(),
                "pop": before["popularity"].tolist(),
                "trust": before["trust"].tolist(),
                "personality": [tuple(row) for row in before["personality"].tolist()],
                "w": before["willingness"].tolist(),
                "m": before["m"].tolist(),
            }
            deltas = oracle_session(
                mirror, sender, receivers, index, profile.send, profile.feedback,
                dict(
                    remembrance=params.remembrance,
                    trust_history_weight=params.trust_history_weight,
                    popularity_decay=params.popularity_decay,
                    belief_weight_mode=params.belief_weight_mode,
                ),
            )
            gaps = [abs(v - deltas[actor]) for actor, v in outcome.utility_deltas.items()]
            for key, mirrored in (("knowledge", "k"), ("belief", "b"), ("popularity", "pop"), ("trust", "trust")):
                gaps.append(float(np.abs(after[key] - np.array(mirror[mirrored])).max()))
            oracle_gap = max([oracle_gap, *gaps])

        invalid = None
        try:
            self.world.validate()
        except ValueError as err:
            invalid = str(err)

        problems = []
        if self.mismatches:
            problems.append(f"{self.mismatches} of {self.games} sessions played another profile than the brute-force choice")
        if oracle_gap > 1e-12:
            problems.append(f"sampled sessions differ from the session oracle by {oracle_gap:.3g}")
        if len(self.sessions) != len(self.sample_steps):
            problems.append(f"replayed {len(self.sessions)} sessions, expected {len(self.sample_steps)}")
        if invalid:
            problems.append(f"final world fails World.validate: {invalid}")
        return {
            "problems": problems,
            "regret_fallbacks": self.fallbacks,
            "oracle_sessions": len(self.sessions),
            "oracle_gap": oracle_gap,
        }

    def report(self) -> dict:
        return {
            "calls": self.calls,
            "step_ns": self.step_ns,
            "draw_ns": self.draw_ns,
            "excluded_ns": self.excluded_ns,
            "copy_bytes": self.copy_bytes,
            "cells": self.cells,
            "sends": self.sends,
            "responses": self.responses,
            "write_bytes": self.write_bytes,
            **self.verify(),
        }


def _state(world) -> dict:
    return {
        "knowledge": world.knowledge.copy(),
        "belief": world.belief.copy(),
        "popularity": world.popularity.copy(),
        "trust": world.trust.copy(),
        "personality": world.personality.copy(),
        "willingness": world.willingness.copy(),
        "m": world.ontology.m.copy(),
    }


def main(job: dict) -> int:
    marks: dict[str, int] = {}
    chunks: list[tuple[int, int, int, int]] = []  # per snapshot, untraced: step, clock
    # before and after the reference kernel, the kernel's time
    from friendcast import cli, harness

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"friendcast imported from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 3
    tracer = None
    if job["trace"]:
        sys.path.insert(0, str(ROOT / "tests"))
        tracer = Tracer(job["sample_steps"])
        tracer.install(marks)
    else:
        step = harness.step

        def first_step(*args):
            marks["first_step"] = clock()
            harness.step = step
            return step(*args)

        snapshot = harness.take_snapshot
        reference = Reference()

        def marked_snapshot(world, step_number):
            enter = clock()
            reference_ns = reference.time_ns()
            chunks.append((step_number, enter, clock(), reference_ns))
            return snapshot(world, step_number)

        harness.step = first_step
        harness.take_snapshot = marked_snapshot

    simulate = cli.simulate

    def timed_simulate(cfg):
        result = simulate(cfg)
        marks["sim_end"] = clock()
        return result

    cli.simulate = timed_simulate
    status = cli.main(job["argv"])
    marks["end"] = clock()
    report = {
        "status": status,
        "marks": marks,
        "chunks": chunks,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "trace": tracer.report() if tracer else None,
    }
    Path(job["report"]).write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(json.loads(sys.argv[1])))
