"""The benchmark's four workloads and the inputs they run.

Every input is a pure function of ``(workload, seed, index)``: seeds are
derived by hashing those parts through :class:`random.Random`'s string
seeding (SHA-512, independent of ``PYTHONHASHSEED``), so the same
``--seed`` always yields the same circuits and the same request stream.

Each pass and each request draws fresh generator seeds.  The rectangle
search's process-wide memo (``REPRO_RECT_MEMO``, on by default) and the
serving tier's result caches would otherwise answer a repeated circuit
without computing it, and the cold workloads would measure a lookup.

==============  ========================================================
workload        why
==============  ========================================================
``seq-mcnc``    The paper's SIS baseline: sequential ping-pong
                ``kernel_extract`` over six MCNC-recipe circuits, the
                Table 1 accounting.  No serve, machine or partition code
                runs.
``par-mcnc``    The three parallel algorithms on the simulated
                4-processor machine: exercises ``machine``,
                ``partition``, ``parallel.cubestate`` and the exhaustive
                search plus memo (replicated), which ``seq-mcnc`` skips.
``serve-cold``  ``repro serve`` with every request a distinct circuit, so
                no cache tier can answer: the whole cold path from HTTP
                to the four phases.
``serve-warm``  ``repro serve`` with a prewarmed Zipf-drawn catalogue:
                the gateway's cache-hit path, plus one fresh circuit per
                hundred requests so the compute layers stay visible.
==============  ========================================================
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import List, Optional, Tuple

WORKLOADS = ("seq-mcnc", "par-mcnc", "serve-cold", "serve-warm")
IN_PROCESS = ("seq-mcnc", "par-mcnc")

#: (MCNC recipe, scale) per circuit of one in-process pass, in run order.
#: Jobs take 0.1-1 s, so a run's median rests on dozens of them; this
#: machine's cores swing by up to 1.8x within seconds, and a run of a
#: few multi-second jobs could not average that out.
SEQ_MCNC = (
    ("misex3", 0.5), ("dalu", 0.3), ("des", 0.25),
    ("seq", 0.1), ("spla", 0.1), ("ex1010", 0.1),
)
PAR_MCNC = (("dalu", 0.25), ("des", 0.15), ("spla", 0.05), ("seq", 0.05))
PAR_ALGORITHMS = ("replicated", "independent", "lshaped")
PROCS = 4

#: The untimed warm-up pass runs the same recipes shrunk by this factor:
#: enough to import and exercise every code path, cheap enough to skip.
WARMUP_SCALE = 0.1
#: Timed passes 1..QUALITY_PASSES always run, whatever the machine speed,
#: and their circuits are the fixed set whose ``lc_ratio`` is reported.
QUALITY_PASSES = 3

#: Served circuits: literal count and the algorithm rotation of
#: ``serve-cold`` (sequential, then both partitioned algorithms at 4).
SERVE_TARGET_LC = 500
COLD_ALGORITHMS = ("sequential", "lshaped", "independent")
COLD_CONNECTIONS = 2
COLD_WARMUP_REQUESTS = 6

WARM_CATALOGUE = 64
WARM_ZIPF_S = 1.0
#: Request ``i`` of ``serve-warm`` is a never-seen circuit when
#: ``i % WARM_FRESH_EVERY == WARM_FRESH_EVERY // 2``.
WARM_FRESH_EVERY = 100
WARM_CONNECTIONS = 1
#: The untimed prewarm computes the catalogue over this many connections.
WARM_PREWARM_CONNECTIONS = 2

#: The first requests of ``serve-cold`` whose quality (``lc_ratio``) is
#: reported: a prefix every run completes, whatever the machine speed.
COLD_QUALITY_PREFIX = 48


def derive_seed(*parts: object) -> int:
    """A 31-bit generator seed determined by *parts* alone."""
    key = ":".join(str(p) for p in ("repro-bench",) + parts)
    return random.Random(key).getrandbits(31)


@dataclass(frozen=True)
class Job:
    """One factorization the benchmark runs and checks."""

    label: str
    spec: object        # a repro.circuits.generators.GeneratorSpec
    algorithm: str


def mcnc_spec(name: str, scale: float, seed: int):
    """The named MCNC recipe at *scale* with its seed replaced.

    Scaling matches :func:`repro.circuits.mcnc.make_circuit`.
    """
    from repro.circuits.mcnc import MCNC_SUITE

    base = MCNC_SUITE[name]
    return replace(base, seed=seed,
                   target_lc=max(40, int(base.target_lc * scale)))


def inproc_pass(workload: str, seed: int, index: int) -> List[Job]:
    """The jobs of pass *index* of an in-process workload.

    Pass 0 is the untimed warm-up; passes 1, 2, ... are timed.  Passes
    up to :data:`QUALITY_PASSES` give the reported quality, and pass 1
    (traced in a traced run) the operation counts.
    """
    shrink = WARMUP_SCALE if index == 0 else 1.0
    if workload == "seq-mcnc":
        recipes, algorithms = SEQ_MCNC, ("sequential",)
    elif workload == "par-mcnc":
        recipes, algorithms = PAR_MCNC, PAR_ALGORITHMS
    else:
        raise ValueError(f"{workload!r} is not an in-process workload")
    jobs = []
    for name, scale in recipes:
        spec = mcnc_spec(name, scale * shrink,
                         derive_seed(workload, seed, index, name))
        for algorithm in algorithms:
            jobs.append(Job(f"{name}@{scale:g}/{algorithm}", spec, algorithm))
    return jobs


def served_spec(stream: str, seed: int, index: int):
    """Circuit *index* of a served request stream.

    Even indices are two-level (12 inputs, checked exhaustively), odd
    ones multi-level (24 inputs, checked on random vectors).
    """
    from repro.circuits.generators import GeneratorSpec

    two_level = index % 2 == 0
    return GeneratorSpec(
        name=f"b{index}",
        seed=derive_seed(stream, seed, index),
        n_inputs=12 if two_level else 24,
        target_lc=SERVE_TARGET_LC,
        two_level=two_level,
        pool_size=12,
        products_per_node=(2, 4),
    )


def cold_job(seed: int, index: int, warmup: bool = False) -> Job:
    """Request *index* of ``serve-cold`` (or of its warm-up stream)."""
    stream = "serve-cold-warmup" if warmup else "serve-cold"
    return Job(f"{stream}/{index}", served_spec(stream, seed, index),
               COLD_ALGORITHMS[index % len(COLD_ALGORITHMS)])


def warm_catalogue(seed: int) -> List[Job]:
    """The ``serve-warm`` catalogue, prewarmed before timing."""
    return [Job(f"serve-warm-cat/{k}", served_spec("serve-warm-cat", seed, k),
                "sequential") for k in range(WARM_CATALOGUE)]


def _zipf_cum_weights(n: int, s: float) -> List[float]:
    cum: List[float] = []
    total = 0.0
    for k in range(n):
        total += 1.0 / (k + 1) ** s
        cum.append(total)
    return cum


_ZIPF_CUM = _zipf_cum_weights(WARM_CATALOGUE, WARM_ZIPF_S)


def zipf_index(seed: int, index: int) -> int:
    """Catalogue entry of ``serve-warm`` request *index*, drawn
    Zipf(s=1) over the catalogue (entry ``k`` has weight ``1/(k+1)``)."""
    rng = random.Random(f"repro-bench:serve-warm-zipf:{seed}:{index}")
    return rng.choices(range(WARM_CATALOGUE), cum_weights=_ZIPF_CUM)[0]


def warm_request(seed: int, index: int) -> Tuple[object, Optional[Job]]:
    """Request *index* of ``serve-warm``: ``(k, None)`` for catalogue
    entry ``k``, or ``(("fresh", index), job)`` for a never-seen
    circuit."""
    if index % WARM_FRESH_EVERY == WARM_FRESH_EVERY // 2:
        return ("fresh", index), Job(
            f"serve-warm-fresh/{index}",
            served_spec("serve-warm-fresh", seed, index), "sequential")
    return zipf_index(seed, index), None
