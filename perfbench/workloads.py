"""Workload definitions: the generated inputs and the CLI commands of a round.

A workload is a Markov source observed through a symmetric channel. Set-up
writes the source spec (if the source is a JSON file) and runs `simulate`;
a round is the list of `sweep` and `denoise` commands that follow. Both the
worker (which runs the commands) and run.py (which checks their outputs)
read the file names and model matrices from here, so they cannot drift.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

CLEAN = "clean.txt"
NOISY = "noisy.txt"
SOURCE_JSON = "source.json"
FB_OUT = "fb.txt"


@dataclass(frozen=True)
class Step:
    """One command of a round: a sweep over [kmin, kmax], a single-k
    N-DUDE denoise (kmin == kmax, sweep False) or FB (method "fb")."""

    method: str  # dude, ndude or fb
    kmin: int = 0
    kmax: int = 0
    sweep: bool = True

    @property
    def stem(self) -> str:
        if self.method == "fb":
            return "fb"
        if self.sweep:
            return f"{self.method}_{self.kmin}-{self.kmax}"
        return f"{self.method}_k{self.kmin}"

    @property
    def report(self) -> str:
        return self.stem + ".json"

    @property
    def output(self) -> str:
        return FB_OUT if self.method == "fb" else self.stem + ".txt"


def sweep(method: str, kmin: int, kmax: int) -> Step:
    return Step(method, kmin, kmax)


def ndude_at(k: int) -> Step:
    return Step("ndude", k, k, sweep=False)


FB = Step("fb")


@dataclass(frozen=True)
class Workload:
    name: str
    labels: str  # one character per symbol, in alphabet order
    stay: float  # probability that the chain keeps its symbol
    delta: float  # channel flip probability, spread evenly over the other symbols
    n: int
    steps: tuple[Step, ...]  # one round, in order
    # Wall time of one round at the commit that added the benchmark, on a
    # 2-CPU machine. It turns --seconds into a fixed number of rounds, so
    # that two commits compared at the same --seconds run the same work.
    round_s: float

    @property
    def size(self) -> int:
        return len(self.labels)

    def sweeps(self, method: str) -> list[Step]:
        return [s for s in self.steps if s.method == method and s.sweep]

    @property
    def singles(self) -> list[Step]:
        return [s for s in self.steps if s.method == "ndude" and not s.sweep]

    def rounds(self, seconds: float) -> int:
        return max(1, math.ceil(seconds / self.round_s))

    def source_spec(self, d: str) -> str:
        """Binary chains use the built-in `bsmc:` spec, larger ones a JSON file."""
        if self.size == 2:
            return f"bsmc:{1.0 - self.stay:g}"
        return os.path.join(d, SOURCE_JSON)

    def channel_spec(self) -> str:
        if self.size == 2:
            return f"bsc:{self.delta:g}"
        return f"dsc:{self.labels}:{self.delta:g}"

    def transition(self) -> list[list[float]]:
        off = (1.0 - self.stay) / (self.size - 1)
        return [[self.stay if i == j else off for j in range(self.size)] for i in range(self.size)]

    def channel(self) -> list[list[float]]:
        off = self.delta / (self.size - 1)
        return [[1.0 - self.delta if i == j else off for j in range(self.size)] for i in range(self.size)]

    def write_source(self, d: str) -> None:
        """Write the source spec file; a no-op for built-in specs."""
        if self.size == 2:
            return
        doc = {"alphabet": list(self.labels), "transition": self.transition()}
        with open(os.path.join(d, SOURCE_JSON), "w", encoding="utf-8") as fh:
            json.dump(doc, fh)

    def simulate_argv(self, d: str, seed: int) -> list[str]:
        return [
            "simulate", "--source", self.source_spec(d), "--channel", self.channel_spec(),
            "--n", str(self.n), "--seed", str(seed),
            "--out-clean", os.path.join(d, CLEAN), "--out-noisy", os.path.join(d, NOISY),
        ]

    def argv(self, step: Step, d: str, seed: int) -> list[str]:
        """The CLI arguments of one step."""
        argv = ["--input", os.path.join(d, NOISY), "--channel", self.channel_spec(),
                "--method", step.method]
        if step.method == "fb":
            return ["denoise", *argv, "--source", self.source_spec(d),
                    "--output", os.path.join(d, FB_OUT)]
        if step.method == "ndude":
            argv += ["--seed", str(seed)]
        if not step.sweep:
            return ["denoise", *argv, "--k", str(step.kmin), "--output", os.path.join(d, step.output)]
        return [
            "sweep", *argv, "--kmin", str(step.kmin), "--kmax", str(step.kmax),
            "--clean", os.path.join(d, CLEAN), "--report", os.path.join(d, step.stem + ".csv"),
            "--json", os.path.join(d, step.report), "--output", os.path.join(d, step.output),
        ]


# On the two smaller workloads FB is short (1 to 2 s), so it runs several
# times spread over the round and fb_s is the median: one short run samples
# a shared machine's speed at a single moment.
WORKLOADS = {
    w.name: w
    for w in (
        # Counting, context uniquing, scoring, FB's per-position loop and file
        # I/O at the north-star size; the trainer does nothing here.
        Workload(
            "bsmc-1m-dude", "01", stay=0.9, delta=0.1, n=1_000_000, round_s=17.5,
            steps=(sweep("dude", 1, 20), FB),
        ),
        # The trainer dominates: a 4-rule head, dispatch-bound steps. Contexts
        # collapse for k <= 6 and barely at all at k = 16. The N-DUDE sweep
        # is split in two so that FB runs about every ten seconds.
        Workload(
            "bsmc-150k-ndude", "01", stay=0.9, delta=0.1, n=150_000, round_s=29.0,
            steps=(FB, sweep("ndude", 3, 4), FB, sweep("ndude", 5, 6), FB, ndude_at(16), FB),
        ),
        # The same layers used differently: a 256-rule softmax head, mostly
        # distinct contexts at k = 4, 5, 4x4 FB products and a Python loop per
        # symbol in the generator. The N-DUDE sweep is split in two so that
        # FB can run between the halves.
        Workload(
            "dna-100k", "ACGT", stay=0.9, delta=0.2, n=100_000, round_s=31.0,
            steps=(FB, sweep("dude", 1, 5), sweep("ndude", 2, 3), FB, sweep("ndude", 4, 5), FB),
        ),
    )
}
