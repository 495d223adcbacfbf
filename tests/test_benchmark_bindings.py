"""The library names that ``benchmarks/worker.py`` wraps or calls.

The worker looks these up by module and attribute name, so removing or
renaming one breaks the benchmark; these tests make that fail here too,
not only in the benchmark self-test, which starts worker processes.
"""

import importlib

import pytest

import mugroup
from mugroup.phy import PhyConfig, RateOracle

from conftest import rician_oracle


def module(name):
    # the package re-exports functions under some module names
    # (``mugroup.gma`` is the function), so import by path
    return importlib.import_module(f"mugroup.{name}")


# (module, attribute) for every call the worker makes and every binding
# it wraps with ``--trace``
BINDINGS = [
    ("phy", "make_rate_oracle"),
    ("grouping", "objective"),
    ("grouping", "search_best_partition"),
    ("cli", "main"),
    ("cli", "run_experiment"),
    ("cli", "write_csv"),
    ("bench", "generate_rician"),
    ("bench", "load_channels"),
    ("bench", "objective"),
    ("baselines", "objective"),
    ("baselines", "pairwise_correlation"),
    ("gma", "objective"),
    ("gma", "optimal_mu2_su"),
    ("gma", "max_weight_matching"),
    ("gma", "hungarian"),
]

# the six solver bindings of ``mugroup.bench`` that the worker times
SOLVERS = ["exhaustive_search", "optimal_mu2_su", "gma", "zfs_grouping",
           "sus_grouping", "random_grouping"]


@pytest.mark.parametrize("name,attr", BINDINGS)
def test_binding_exists(name, attr):
    assert callable(getattr(module(name), attr))


@pytest.mark.parametrize("attr", SOLVERS)
def test_solver_binding_exists(attr):
    assert callable(getattr(module("bench"), attr))


def test_backend_and_oracle_methods():
    assert mugroup.active_backend() == "python"
    assert callable(RateOracle.rate)
    assert callable(RateOracle.precompute)
    channels, oracle = rician_oracle(4, 2, seed=0)
    for attr in ("query_count", "compute_count", "channels", "cfg",
                 "max_group_size", "num_users"):
        assert hasattr(oracle, attr)
    assert isinstance(oracle.cfg, PhyConfig) and oracle.channels is channels


def test_search_is_looked_up_as_a_module_global(monkeypatch):
    # the worker's trace replaces grouping.search_best_partition and
    # expects exhaustive_search to call the replacement
    grouping = module("grouping")
    calls = []
    search = grouping.search_best_partition

    def wrapped(*args):
        calls.append(args[1:])
        return search(*args)

    monkeypatch.setattr(grouping, "search_best_partition", wrapped)
    _, oracle = rician_oracle(5, 2, seed=0)
    grouping.exhaustive_search(oracle)
    assert calls == [(2,)]


def test_solvers_are_looked_up_as_module_globals(monkeypatch):
    # the worker replaces the solver bindings of mugroup.bench by name and
    # expects run_experiment to call the replacements
    bench = module("bench")
    calls = []
    solve = bench.gma

    def wrapped(oracle):
        calls.append((oracle.num_users, oracle.max_group_size))
        return solve(oracle)

    monkeypatch.setattr(bench, "gma", wrapped)
    bench.run_experiment(bench.ExperimentConfig(
        scenario=bench.Scenario.USER_SWEEP, m_values=(5,), nu_values=(2,),
        algorithms=("gma", "random"), seeds=(0, 1)))
    assert calls == [(5, 2), (5, 2)]


def test_gma_makes_scalar_rate_queries(monkeypatch):
    # the worker's phy.rate_queries counts ``RateOracle.rate`` calls alone,
    # and the benchmark self-test needs it above 0 on each workload: a gma
    # solve above a cap of two sorts its merge candidates by scalar queries
    calls = []
    rate = RateOracle.rate
    monkeypatch.setattr(RateOracle, "rate",
                        lambda self, group: calls.append(group) or rate(self, group))
    _, oracle = rician_oracle(10, 3, seed=0)
    module("gma").gma(oracle)
    assert calls
