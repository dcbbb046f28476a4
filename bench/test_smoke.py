"""Smoke test of the benchmark itself at reduced sizes.

    python3 -m pytest -q bench/test_smoke.py
"""

import dataclasses
import json

import pytest

import run

SMALL = {"steps": 3, "samples": 20000, "stiff_qs": (2.0,)}
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def cli():
    return run.load_cli()


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_is_reported(workload):
    for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
        _, result = run.run(workload, 1, 0.01, trace, sizes=SMALL, setup_probes=1)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["attempted"] >= len(run.FAMILIES)
        assert {m["name"]: m["unit"] for m in SPEC[kind]} == {
            name: m["unit"] for name, m in result["metrics"].items()
        }


@pytest.mark.parametrize("workload", ["curve", "stiff_q"])
def test_wrong_reference_counts_as_failed(cli, workload):
    passes = run.measure(cli, run.build_ops(workload, 1, SMALL), 0.0)
    refs = run.References(cli)
    attempted, failed, wrong, _ = run.evaluate(passes, refs)
    assert (failed, wrong) == (0, 0)

    true_tau, true_curve = refs.tau, refs.curve
    refs.tau = lambda family, q: true_tau(family, q) + 1e-6
    refs.curve = lambda family, steps: (
        true_curve(family, steps)[0], [t + 1e-6 for t in true_curve(family, steps)[1]]
    )
    assert run.evaluate(passes, refs)[:3] == (attempted, attempted, attempted)


def test_monte_carlo_bound_is_checked(cli):
    op = run.build_ops("compare", 1, SMALL)[0]
    res = run.run_op(cli, op)
    assert res.error is None
    data = json.loads(res.stdout)
    data["tau_emp"] = data["tau"] + 2 * run.MC_TOL
    res.stdout = json.dumps(data)
    assert "tau_emp" in run.check(res, run.References(cli))


def test_quantile():
    assert run.quantile(list(range(101)), 0.5) == pytest.approx(50.0)
    assert run.quantile([2.0] * 7, 0.9) == pytest.approx(2.0)
    xs = [0.1, 0.2, 0.3, 5.0, 9.0]
    assert min(xs) < run.quantile(xs, 0.5) < run.quantile(xs, 0.9) < max(xs)
    assert run._beta_cdf(2.0, 3.0, 0.4) == pytest.approx(0.5248)  # P(Binomial(4, 0.4) >= 2)


def test_deadline_miss_counts_as_failed(cli):
    op = dataclasses.replace(run.build_ops("curve", 1, SMALL)[0], deadline=1e-4)
    res = run.run_op(cli, op)
    assert "deadline" in res.error
    assert run.evaluate([(res.seconds, [res])], run.References(cli))[:3] == (1, 1, 0)
    metrics = run.end_to_end_metrics([(res.seconds, [res])], 1, 1, 0.1)
    assert metrics["ops_ok_frac"][0] == 0.0
    assert metrics["op_p50_s"][0] >= op.deadline
