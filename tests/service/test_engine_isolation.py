"""Jobs on one engine are independent: a failure never steers another job.

Every inline-``eqn`` serve request is named ``inline``, so per-name state
on the engine would let budget failures on some circuits degrade an
unrelated, unbudgeted request on another circuit.
"""

from repro.circuits import load_circuit
from repro.service import FactorizationEngine, FactorizationJob


def _inline(circuit: str, scale: float):
    net = load_circuit(circuit, scale=scale)
    net.name = "inline"
    return net


def _replicated(net, **kw):
    return FactorizationJob(
        circuit="inline", network=net, algorithm="replicated", procs=2, **kw
    )


def test_budget_failures_do_not_degrade_a_later_inline_job():
    engine = FactorizationEngine()
    for circuit in ("misex3", "dalu", "seq"):
        res = engine.execute(_replicated(_inline(circuit, 0.1), node_budget=1))
        assert res.ok and res.degraded and res.attempts == 2, res.error
    res = engine.execute(_replicated(_inline("spla", 0.05)))
    fresh = FactorizationEngine().execute(_replicated(_inline("spla", 0.05)))
    assert res.ok and fresh.ok
    assert res.algorithm == "replicated"
    assert not res.degraded and res.attempts == 1
    assert res.final_lc == fresh.final_lc
