from __future__ import annotations

import random

import pytest

from ace.chain import ChainDomain
from ace.ea import EaExplorer, EaParams
from ace.errors import ConfigError
from ace.gca import GcaModel, GcaParams, save_model
from ace.loop import ExperimentConfig, run_ace, run_standard
from ace.maze import MazeDomain, generate_maze
from ace.pso import PsoExplorer, PsoParams

from helpers import GridStub, Lacking


def chain_setup(**kw):
    config = ExperimentConfig(
        population_size=kw.pop("population_size", 20),
        max_generations=kw.pop("max_generations", 20),
        abstraction_period=kw.pop("abstraction_period", 5),
        gca=kw.pop("gca", GcaParams(learning_rate=0.01, exploration_floor=0.15)),
        **kw,
    )
    return config, EaExplorer(EaParams(crossover_rate=0.6, mutation_rate=0.15)), ChainDomain()


def test_boundary_single_generation():
    config, explorer, dom = chain_setup(population_size=2, max_generations=1)
    best, model, record = run_ace(config, explorer, dom, random.Random(1))
    assert record.generations_run == 1
    assert record.hebbian_updates >= 0
    assert len(record.best_fitness_by_generation) == 1
    assert best.fitness == record.best_fitness


def test_run_is_deterministic():
    records = []
    bests = []
    for _ in range(2):
        config, explorer, dom = chain_setup()
        best, model, record = run_ace(config, explorer, dom, random.Random(33))
        records.append(record)
        bests.append(best)
    a, b = records
    assert a.best_fitness == b.best_fitness
    assert a.best_fitness_by_generation == b.best_fitness_by_generation
    assert a.hebbian_updates == b.hebbian_updates
    assert a.macros_created == b.macros_created
    assert bests[0].ops == bests[1].ops


def test_standard_run_shares_initialization_with_guided():
    neutral = GcaParams(learning_rate=0.0, exploration_floor=0.999999)
    captured = {}

    class Spy(EaExplorer):
        def initialize(self, domain, config, rng):
            state = super().initialize(domain, config, rng)
            captured.setdefault(self.tag, [list(t.ops) for t in state.population])
            return state

    dom = ChainDomain()
    config = ExperimentConfig(population_size=10, max_generations=1, gca=neutral)
    spy_a = Spy()
    spy_a.tag = "ace"
    run_ace(config, spy_a, dom, random.Random(5))
    spy_b = Spy()
    spy_b.tag = "std"
    run_standard(config, spy_b, dom, random.Random(5))
    assert captured["ace"] == captured["std"]


def test_hebbian_gating_counts_positive_gains(monkeypatch):
    config, explorer, dom = chain_setup()
    calls = {"pair": 0}
    orig = GcaModel.hebbian_pair_update

    def counting(self, *a, **k):
        gain = orig(self, *a, **k)
        assert gain > 0  # the loop must only forward improving offspring
        calls["pair"] += 1
        return gain

    monkeypatch.setattr(GcaModel, "hebbian_pair_update", counting)
    _, _, record = run_ace(config, explorer, dom, random.Random(2))
    assert record.hebbian_updates == calls["pair"]
    assert calls["pair"] > 0


def test_abstraction_cadence(monkeypatch):
    calls = []
    orig = GcaModel.scan_and_abstract

    def tracking(self, generation, k_max_new=3):
        calls.append(generation)
        return orig(self, generation, k_max_new)

    monkeypatch.setattr(GcaModel, "scan_and_abstract", tracking)
    config, explorer, dom = chain_setup(max_generations=23, abstraction_period=5)
    run_ace(config, explorer, dom, random.Random(4))
    assert calls == [5, 10, 15, 20]


def test_elitist_history_is_monotone():
    config, explorer, dom = chain_setup(max_generations=30)
    _, _, record = run_ace(config, explorer, dom, random.Random(9))
    history = record.best_fitness_by_generation
    assert all(b >= a for a, b in zip(history, history[1:]))


def test_stop_on_success_halts_early():
    config, explorer, dom = chain_setup(
        population_size=50, max_generations=100, stop_on_success=True
    )
    _, _, record = run_ace(config, explorer, dom, random.Random(3))
    assert record.success
    assert record.generations_run == record.success_generation
    assert len(record.best_fitness_by_generation) == record.generations_run


def test_success_generation_bounded():
    config, explorer, dom = chain_setup(population_size=50, max_generations=40)
    _, _, record = run_ace(config, explorer, dom, random.Random(5))
    if record.success:
        assert 1 <= record.success_generation <= 40


def test_config_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig(population_size=1).validate()
    with pytest.raises(ConfigError):
        ExperimentConfig(max_generations=0).validate()


def test_warm_start_vocabulary_mismatch(tmp_path):
    maze_model_path = tmp_path / "maze_model.json"
    from ace.gca import GcaModel

    save_model(GcaModel(["N", "E", "S", "W"]), maze_model_path)
    config, explorer, dom = chain_setup(warm_start_model=str(maze_model_path))
    with pytest.raises(ConfigError, match="vocabulary"):
        run_ace(config, explorer, dom, random.Random(1))


def test_warm_start_reuses_trained_model(tmp_path):
    config, explorer, dom = chain_setup(population_size=50, max_generations=60)
    _, donor, donor_record = run_ace(config, explorer, dom, random.Random(77))
    path = tmp_path / "donor.json"
    save_model(donor, path)

    config2, explorer2, dom2 = chain_setup(
        population_size=50, max_generations=10, warm_start_model=str(path)
    )
    _, revived, record = run_ace(config2, explorer2, dom2, random.Random(78))
    # macro library carried over; new ids never collide with loaded ones
    assert revived.atomic_ops == donor.atomic_ops
    assert revived.vocab_size >= donor.vocab_size
    assert record.best_fitness >= donor_record.best_fitness * 0.5


def test_explorer_domain_compatibility_checked():
    config = ExperimentConfig(population_size=4, max_generations=2)
    with pytest.raises(ConfigError):
        run_standard(config, PsoExplorer(), ChainDomain(), random.Random(1))


def test_maze_run_records_efficiency():
    maze = generate_maze(7, 7, 1.0, 3)
    dom = MazeDomain(maze)
    config = ExperimentConfig(
        population_size=8, max_generations=10,
        gca=GcaParams(learning_rate=1e-5, temperature=0.3),
    )
    best, record = run_standard(config, PsoExplorer(PsoParams(heuristic_weight=5.0)), dom, random.Random(2))
    if record.success:
        assert 0 < record.path_efficiency <= 1.0
    else:
        assert record.path_efficiency is None


def test_macro_usage_accounting():
    # a successful guided chain run should both create and use macros
    config, explorer, dom = chain_setup(population_size=50, max_generations=60)
    _, model, record = run_ace(config, explorer, dom, random.Random(11))
    assert record.macros_created == len(model.macros)
    assert record.macros_surviving == sum(1 for m in model.macros if not m.pruned)
    if model.macros:
        assert any(m.uses > 0 for m in model.macros)
        used = [m for m in model.macros if m.uses > 0]
        expected = sum(m.successful_uses / m.uses for m in used) / len(used)
        assert record.mean_macro_effectiveness == pytest.approx(expected)


@pytest.mark.medium
def test_standard_chain_baseline_succeeds_sometimes():
    wins = 0
    for seed in range(20):
        config, explorer, dom = chain_setup(population_size=50, max_generations=50)
        _, record = run_standard(config, explorer, dom, random.Random(seed))
        wins += record.success
    assert wins > 0


def test_pso_loop_on_stub_domain():
    dom = GridStub(4, 4)
    config = ExperimentConfig(population_size=6, max_generations=8)
    best, model, record = run_ace(config, PsoExplorer(PsoParams(heuristic_weight=2.0)), dom, random.Random(8))
    assert record.generations_run == 8
    assert model.atomic_ops == ["N", "E", "S", "W"]
    assert len(record.best_fitness_by_generation) == 8


@pytest.mark.parametrize(
    "explorer, domain",
    [(EaExplorer, ChainDomain), (PsoExplorer, lambda: GridStub(3, 3))],
    ids=["ea", "pso"],
)
def test_guided_run_without_op_names_fails_before_any_variate(explorer, domain):
    rng = random.Random(1)
    before = rng.getstate()
    with pytest.raises(ConfigError, match="names no atomic operations"):
        run_ace(ExperimentConfig(), explorer(), Lacking(domain(), "atomic_op_names"), rng)
    assert rng.getstate() == before
    # a standard run reads no op names
    dom = Lacking(domain(), "atomic_op_names")
    run_standard(ExperimentConfig(max_generations=1), explorer(), dom, rng)
