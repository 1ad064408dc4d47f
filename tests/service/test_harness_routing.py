"""Table runs call the algorithm functions directly, with table semantics."""

import pytest

from repro.harness import experiments
from repro.parallel.common import sequential_baseline
from repro.parallel.lshaped import lshaped_kernel_extract
from repro.service import FactorizationEngine, FactorizationJob


class TestTableRouting:
    def test_tables_agree_on_shared_cells(self):
        # Tables 4 and 6 both hold dalu's SIS baseline and its L-shaped
        # run at 2 processors; each table computes them on its own.
        t6 = experiments.run_table6(scale=0.03, circuits=["dalu"], procs=(2,))
        t4 = experiments.run_table4(scale=0.03, circuits=["dalu"], ways=(2,))
        row6, row4 = t6.rows[0], t4.rows[0]
        assert row6[:4] == row4[:4]  # circuit, initial LC, SIS LC, LC@2
        net = experiments.get_circuit("dalu", 0.03)
        assert row4[2] == sequential_baseline(net).result.final_lc
        assert row4[3] == lshaped_kernel_extract(net, 2).final_lc

    def test_table_cell_reraises_budget_exceeded(self, monkeypatch):
        from repro.rectangles.search import BudgetExceeded

        calls = []
        replicated = experiments.replicated_kernel_extract

        def counting(net, procs, **kw):
            calls.append((procs, kw))
            return replicated(net, procs, **kw)

        monkeypatch.setattr(experiments, "replicated_kernel_extract", counting)
        table = experiments.run_table2(
            scale=0.03, circuits=["dalu"], procs=(2,), search_budget=5,
        )
        # the 1-processor reference blows the budget once and is not retried
        assert calls == [(1, {"search_budget": 5})]
        assert table.rows[0][2:4] == [None, None]
        net = experiments.get_circuit("dalu", 0.03)
        with pytest.raises(BudgetExceeded):
            replicated(net, 2, search_budget=5)

    def test_table2_budget_exceeded_renders_dnf(self):
        table = experiments.run_table2(
            scale=0.03, circuits=["dalu"], procs=(2,), search_budget=5,
        )
        assert "budget exceeded" in table.render()

    def test_engine_baseline_matches_direct_call(self):
        # The engine's "baseline" job and the tables' direct call are the
        # same metered SIS run.
        net = experiments.get_circuit("dalu", 0.03)
        via_engine = FactorizationEngine().execute(
            FactorizationJob(circuit=net.name, network=net, algorithm="baseline")
        ).payload
        direct = sequential_baseline(net)
        assert via_engine.result.final_lc == direct.result.final_lc
        assert via_engine.time == direct.time

    def test_table_jobs_complete_cleanly(self):
        table = experiments.run_table3(scale=0.03, circuits=["dalu"], procs=(2,))
        (row,) = table.rows
        assert all(cell is not None for cell in row[:5])
        assert row[3] <= row[1]  # LC@2 never above the initial LC
