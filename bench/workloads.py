"""Operations of each benchmark workload, generated from the workload seed.

An operation is one in-process call of ``quadriclab.cli.main(argv)``. A pass
is the fixed list of operations of a workload; every pass of a run has the
same operations, and only the sampling seeds handed to the CLI change from
pass to pass. Operations hit by a known program fault run on inputs that do
not depend on the seed, so they fail in every pass of every run.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

WORKLOADS = ("verify", "angles-scan", "ode-flow")

R_HALF = 1.0 / math.sqrt(2.0)
CARTAN_T = 0.35
ODE_ALPHA0 = math.pi / 12.0
ODE_SPAN = 0.8

VERIFY_GRID = 3
ANGLES_GRID = 12
ANGLES_SEEDS_PER_CONFIG = 3


@dataclass(frozen=True)
class Op:
    """One CLI call with what its checks need to know about it."""

    command: str
    example: str
    n: int
    params: tuple  # ((name, value), ...) passed as --name value
    grid: int = 0
    gauge: str = "normalized"
    seed: int = 0
    steps: int = 0
    fault: str | None = None  # the known fault expected to fail it, see checks.matches_fault

    @property
    def config(self) -> str:
        return f"{self.command}.{self.example}-n{self.n}"

    @property
    def points(self) -> int:
        """Sample points the operation processes (profile samples for ode)."""
        return self.steps + 1 if self.command == "ode" else self.grid

    def argv(self, out_dir: str) -> list[str]:
        args = [self.command, "--example", self.example, "--n", str(self.n)]
        for name, value in self.params:
            args += [f"--{name}", repr(value)]
        if self.command == "ode":
            args += ["--steps", str(self.steps)]
        else:
            args += ["--grid", str(self.grid), "--gauge", self.gauge, "--seed", str(self.seed)]
        return args + ["--out", out_dir]


def example_params(example: str) -> tuple:
    """Catalog parameters, passed explicitly so the closed forms match the argv."""
    if example == "sphere":
        return (("r", R_HALF),)
    if example == "product":
        return (("k", 1), ("r1", R_HALF))
    if example == "cartan":
        return (("t", CARTAN_T),)
    return ()


def _verify_ops(rng: random.Random) -> list[Op]:
    configs = [("sphere", 3), ("product", 2), ("product", 3), ("cartan", 3),
               ("rotational", 3), ("rotational", 4)]
    return [
        Op("verify", ex, n, example_params(ex), grid=VERIFY_GRID, seed=rng.randrange(10**6))
        for ex, n in configs
    ]


def _angles_ops(rng: random.Random) -> list[Op]:
    ops = []
    for ex, n in (("sphere", 3), ("product", 2), ("product", 3), ("cartan", 3)):
        for gauge in ("normalized", "canonical"):
            # The mod-pi fault hits these two in the normalized gauge; they keep
            # fixed seeds so they fail the same way in every pass.
            fault = "angles-mod-pi" if gauge == "normalized" and n == 3 and ex != "sphere" else None
            for k in range(ANGLES_SEEDS_PER_CONFIG):
                seed = k if fault else rng.randrange(10**6)
                ops.append(Op("angles", ex, n, example_params(ex), grid=ANGLES_GRID,
                              gauge=gauge, seed=seed, fault=fault))
    return ops


def _ode_ops() -> list[Op]:
    params = (("alpha0", ODE_ALPHA0), ("span", ODE_SPAN))
    ops = [Op("ode", "rotational", n, params, steps=4000) for n in (3, 4, 5)]
    ops.append(Op("ode", "rotational", 3, params, steps=16000, fault="ode-order-window"))
    return ops


def build_ops(workload: str, seed: int, pass_index: int) -> list[Op]:
    """The operations of one pass; the same (workload, seed, pass) gives the same list."""
    rng = random.Random(f"{workload}:{seed}:{pass_index}")
    if workload == "verify":
        return _verify_ops(rng)
    if workload == "angles-scan":
        return _angles_ops(rng)
    if workload == "ode-flow":
        return _ode_ops()
    raise ValueError(f"unknown workload '{workload}'; choose from {WORKLOADS}")
