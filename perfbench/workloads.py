"""Seeded workload generators.

A workload is an endless stream of rounds; a round is a list of operations
with a fixed composition (kinds, functions, ladder indices, output formats)
whose order and continuous parameters come from the seed.  Fixing the
composition keeps the latency distribution of a run the same from seed to
seed, so quantiles compare across runs; truncation orders are spread over
their range by a golden-ratio sequence with a seeded offset, which covers
the range evenly however many rounds a run completes.

The package under test receives only the generated argv (CLI operations) or
the generated config and truncation order (the README library example).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Iterator

# Parameter ranges on which `semifourier verify` passes every suite.
A_RANGE = (-3.0, 10.0)
LENGTH_RANGE = (2.0, 3.5)
K_RANGE = (0.25, 3.0)

_GOLDEN = 0.6180339887498949


@dataclass(frozen=True)
class Op:
    """One operation: a CLI call (`argv`) or the README library example."""

    kind: str  # verify | spectrum | coeffs | norms | converge | readme
    cfg: tuple[float, float, float]
    params: dict = field(default_factory=dict)

    @property
    def fmt(self) -> str:
        return self.params.get("format", "json")

    @property
    def argv(self) -> list[str] | None:
        if self.kind == "readme":
            return None
        a, b, k = self.cfg
        argv = [self.kind, "--a", repr(a), "--b", repr(b), "--k", repr(k)]
        for flag in ("function", "N", "n", "r", "method", "format"):
            if flag in self.params:
                argv += [f"--{flag}", str(self.params[flag])]
        return argv

    @property
    def label(self) -> str:
        p = self.params
        parts = [self.kind] + [str(p[key]).split(":")[0] for key in ("function", "method") if key in p]
        return ":".join(parts)


def random_config(rng: random.Random) -> tuple[float, float, float]:
    a = rng.uniform(*A_RANGE)
    return (a, a + rng.uniform(*LENGTH_RANGE), rng.uniform(*K_RANGE))


class _Spread:
    """Integers in [lo, hi] from a golden-ratio sequence with a seeded offset."""

    def __init__(self, rng: random.Random, lo: int, hi: int) -> None:
        self.lo, self.hi, self.u, self.i = lo, hi, rng.random(), 0

    def next(self) -> int:
        frac = (self.u + self.i * _GOLDEN) % 1.0
        self.i += 1
        return self.lo + int(frac * (self.hi - self.lo + 1))


def _shuffled_formats(rng: random.Random, count: int) -> list[str]:
    formats = ["json", "csv"] * (count // 2)
    rng.shuffle(formats)
    return formats


def selfcheck_rounds(seed: int):
    """`verify` (all suites) with N in {6, 8, 10} on a pool of three configs."""
    rng = random.Random(f"selfcheck:{seed}")
    pool = [random_config(rng) for _ in range(3)]
    first = True
    while True:
        sizes = [6, 8, 10]
        rng.shuffle(sizes)
        if first:  # the set-up operation is always the N = 6 run
            sizes.remove(6)
            sizes.insert(0, 6)
            first = False
        yield [Op("verify", rng.choice(pool), {"N": N}) for N in sizes]


def expand_rounds(seed: int):
    """Function-handle expansions on a fresh config per operation."""
    rng = random.Random(f"expand:{seed}")
    oc_N = _Spread(rng, 128, 512)
    direct_N = _Spread(rng, 8, 16)
    conv_N = {(f, n): _Spread(rng, 32, 128)
              for f in ("sawtooth", "offset-cosine") for n in (1, 2)}
    first = True
    while True:
        ops = [Op("coeffs", random_config(rng), {"function": "offset-cosine", "N": oc_N.next()})
               for _ in range(3)]
        ops += [Op("coeffs", random_config(rng),
                   {"function": "sawtooth", "N": direct_N.next(), "n": n, "method": "direct"})
                for n in (1, 2, 3)]
        ops += [Op("converge", random_config(rng), {"function": f, "N": spread.next(), "n": n})
                for (f, n), spread in conv_N.items()]
        ops += [Op("norms", random_config(rng), {"function": f, "n": n})
                for f in ("sawtooth", "offset-cosine") for n in (1, 2, 3)]
        rng.shuffle(ops)
        if first:  # the set-up operation is always a quadrature-route coeffs run
            ops.insert(0, Op("coeffs", random_config(rng), {"function": "offset-cosine", "N": 256}))
            first = False
        yield ops


def _synthetic(rng: random.Random) -> tuple[str, float]:
    p = round(rng.uniform(2.5, 5.0), 3)
    return f"synthetic:{p}", p


def series_rounds(seed: int):
    """Coefficient-route operations at large N; half JSON, half CSV."""
    rng = random.Random(f"series:{seed}")
    first = True
    while True:
        fmts = iter(_shuffled_formats(rng, 10))
        ops = []
        for _ in range(2):
            name, p = _synthetic(rng)
            r = round(rng.uniform(0.25, p - 1.0), 3)
            ops.append(Op("norms", random_config(rng),
                          {"function": name, "r": r, "N": 100000, "format": next(fmts)}))
            ops.append(Op("spectrum", random_config(rng), {"N": 20000, "format": next(fmts)}))
            name, _ = _synthetic(rng)
            ops.append(Op("converge", random_config(rng),
                          {"function": name, "N": 20000, "n": 1, "format": next(fmts)}))
        for function in ("sawtooth", "synthetic"):
            for ladder in (None, 2):
                name = function if function == "sawtooth" else _synthetic(rng)[0]
                params = {"function": name, "N": 20000, "format": next(fmts)}
                if ladder is not None:
                    params["n"] = ladder
                ops.append(Op("coeffs", random_config(rng), params))
        ops += [Op("readme", random_config(rng), {"N": 100000}) for _ in range(2)]
        rng.shuffle(ops)
        if first:  # the set-up operation is always the closed-form sawtooth coeffs run
            ops.insert(0, Op("coeffs", random_config(rng),
                             {"function": "sawtooth", "N": 20000, "format": "json"}))
            first = False
        yield ops


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    rounds: Callable[[int], Iterator[list[Op]]]
    min_rounds: int  # enough samples for a tail percentile with 10 samples beyond it


WORKLOADS = {
    w.name: w
    for w in (
        Workload("selfcheck",
                 "verify, all suites, N in {6,8,10}, 3 reused configs: the quadrature-route "
                 "hot path where a per-(cfg, spec, N) basis table pays",
                 selfcheck_rounds, 6),
        Workload("expand",
                 "function-handle coeffs/converge/norms on a fresh config per operation: "
                 "quadrature and basis evaluation with no cross-operation reuse",
                 expand_rounds, 1),
        Workload("series",
                 "closed-form coefficients, spectrum and the README example at N = 2e4..1e5, "
                 "no quadrature: eigenvalue loops and JSON/CSV rendering",
                 series_rounds, 1),
    )
}


def input_config_reuse_share(ops: list[Op]) -> float:
    """Share of operations whose (a, b, k) an earlier operation already used."""
    seen: set = set()
    reused = 0
    for op in ops:
        reused += op.cfg in seen
        seen.add(op.cfg)
    return reused / len(ops) if ops else 0.0
