"""Lockstep ensembles against separate scalar runs, and aborts inside them.

ensemble_run advances R runs as the rows of one (R, d) iterate matrix
through the problem's batched oracles, each with its own seed and, as the
points of a grid, its own rates and momentum weight; every member must give
the record of its own *_run call, bit for bit: the batched oracles repeat
the scalar floating-point steps, so every array of a member's record equals
its run's under np.array_equal, and algo, seed, beta, strategy_kind and
selected_index match.  Other comparisons of floats allow RTOL = 1e-12
relative, an array against its largest magnitude, as in test_golden.py.
"""
import dataclasses
import io

import numpy as np
import pytest

import smgopt.optimizers as optimizers
import smgopt.problems as problems
from smgopt import cli
from smgopt.dataio import parse_libsvm, synth_binary_dataset
from smgopt.optimizers import (
    RunAborted,
    RunRecord,
    adam_run,
    ensemble_outcomes,
    ensemble_run,
    sgdm_run,
    shuffling_sgd_run,
    smg_run,
    ssmg_run,
)
from smgopt.problems import logistic_problem, quadratic_mean_problem
from smgopt.schedules import Schedule, gamma_for_initial_step
from smgopt.shuffling import STRATEGY_KINDS, ShufflingStrategy

RTOL = 1e-12
ALGOS = ("smg", "ssmg", "sgd", "sgdm", "adam")
BETA = {"smg": 0.5, "ssmg": 0.3, "sgd": 0.0, "sgdm": 0.8, "adam": 0.9}
ADAM_LR = 0.01
T = 4
# rows of 1, 0, 2, 0, 1, 4 and 1 entries; the dimension 9 lies beyond index 4
RAGGED = ("+1 2:0.5\n-1\n+1 1:1.5 3:-2.0\n0\n-1 3:0.25\n"
          "+1 1:0.5 2:1.0 3:-1.0 4:2.0\n-1 4:-0.75\n")
# every row stores 3 of 7 columns, so the batched step gathers one block
EQUAL = ("+1 1:0.5 4:-1.0 7:2.0\n-1 2:1.5 3:-0.25 6:0.75\n+1 1:-2.0 5:0.5 6:1.0\n"
         "-1 3:1.0 4:0.25 7:-0.5\n+1 2:-0.75 5:1.25 7:0.5\n-1 1:0.25 2:2.0 3:-1.5\n")
FIXTURES = ("quadratic", "dense-logistic", "ragged-logistic", "sparse-logistic")


def make_dataset(name):
    """The data of a logistic fixture."""
    if name == "dense-logistic":
        return synth_binary_dataset(24, 4, seed=3, separability=0.8)
    if name == "sparse-logistic":
        return parse_libsvm(io.StringIO(EQUAL))[0]
    return dataclasses.replace(parse_libsvm(io.StringIO(RAGGED))[0], d=9)


def make_problem(name):
    if name == "quadratic":
        centers = np.random.default_rng(0).standard_normal((8, 3))
        return quadratic_mean_problem(centers, np.diag([1.0, 2.0, 4.0]))
    return logistic_problem(make_dataset(name), lam=0.01 if name == "dense-logistic" else 0.05)


def schedule(k=0):
    """Member k's schedule when members take their own rates."""
    return Schedule("diminishing", gamma=0.3 * (1 + k / 2), horizon=T, lam=1.0 + k)


def etas(algo, k=0):
    return np.full(T, ADAM_LR * (1 + k / 2)) if algo == "adam" else schedule(k).etas()


def scalar_run(algo, problem, strategy, w0, k=0, beta=None):
    beta = BETA[algo] if beta is None else beta
    if algo == "adam":
        return adam_run(problem, ADAM_LR * (1 + k / 2), T, strategy, w0, beta1=beta)
    if algo == "sgd":
        return shuffling_sgd_run(problem, schedule(k), strategy, w0)
    run = {"smg": smg_run, "ssmg": ssmg_run, "sgdm": sgdm_run}[algo]
    return run(problem, schedule(k), strategy, beta, w0)


def ensemble(algo, problem, strategies, w0=None):
    return ensemble_run(algo, problem, etas(algo), strategies, BETA[algo], w0)


def assert_close(actual, expected):
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.shape == expected.shape
    scale = float(np.max(np.abs(expected), initial=0.0))
    assert np.max(np.abs(actual - expected), initial=0.0) <= RTOL * scale


EXACT = ("algo", "seed", "beta", "strategy_kind", "selected_index", "config_hash",
         "epochs")


def assert_same_record(actual: RunRecord, expected: RunRecord):
    for field in dataclasses.fields(RunRecord):
        a, e = getattr(actual, field.name), getattr(expected, field.name)
        if field.name in EXACT:
            assert a == e, field.name
        else:
            assert np.array_equal(a, e), field.name


# ---------------------------------------------------------------------------
# Members against scalar runs
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("start", ["shared-w0", "per-seed-w0", "per-member-rates"])
@pytest.mark.parametrize("R", [2, 5])
@pytest.mark.parametrize("kind", STRATEGY_KINDS)
@pytest.mark.parametrize("algo", ALGOS)
@pytest.mark.parametrize("fixture", FIXTURES)
def test_members_match_scalar_runs(fixture, algo, kind, R, start):
    problem = make_problem(fixture)
    w0 = np.linspace(-0.5, 0.5, problem.d) if start == "shared-w0" else None
    strategies = [ShufflingStrategy(kind, seed) for seed in range(5, 5 + R)]
    if start == "per-member-rates":
        # member k runs with its own rates and momentum weight, as a grid point
        betas = [0.1 + 0.2 * k for k in range(R)]
        records = ensemble_run(algo, problem, [etas(algo, k) for k in range(R)],
                               strategies, betas)
        expected = [scalar_run(algo, problem, s, None, k, betas[k])
                    for k, s in enumerate(strategies)]
    else:
        records = ensemble(algo, problem, strategies, w0)
        expected = [scalar_run(algo, problem, s, w0) for s in strategies]
    assert len(records) == R
    for record, scalar in zip(records, expected):
        assert_same_record(record, scalar)


@pytest.mark.parametrize("fixture", FIXTURES)
def test_batched_oracles_match_scalar_oracles(fixture, monkeypatch):
    # a budget below one member's entries makes the full passes take one
    # member per chunk
    monkeypatch.setattr(problems, "BATCH_BUDGET", 1)
    problem = make_problem(fixture)
    rng = np.random.default_rng(3)
    W = rng.standard_normal((6, problem.d))
    ids = rng.integers(0, problem.n, size=6)
    assert_close(problem.batch_component_grad(W, ids),
                 [problem.component_grad(w, int(i)) for w, i in zip(W, ids)])
    values, grads = problem.batch_full_pass(W)
    assert_close(values, [problem.full_value(w) for w in W])
    assert_close(grads, [problem.full_grad(w) for w in W])


@pytest.mark.parametrize("fixture", FIXTURES[1:])
def test_full_pass_chunks_of_two_members_match_single_passes(fixture, monkeypatch):
    # a budget of two members' entries splits five members into chunks of 2, 2
    # and 1, whose passes are concatenated
    monkeypatch.setattr(problems, "BATCH_BUDGET", 2 * make_dataset(fixture).values.size)
    problem = make_problem(fixture)
    W = np.random.default_rng(3).standard_normal((5, problem.d))
    values, grads = problem.batch_full_pass(W)
    assert np.array_equal(values, [problem.full_value(w) for w in W])
    assert np.array_equal(grads, [problem.full_grad(w) for w in W])


def count_permutations(monkeypatch) -> list:
    """The (strategy, epoch) of every permutation the driver takes from now on."""
    calls = []
    real = optimizers.permutations

    def counted(strategies, n, t):
        calls.extend((strategy, t) for strategy in strategies)
        return real(strategies, n, t)

    monkeypatch.setattr(optimizers, "permutations", counted)
    return calls


@pytest.mark.parametrize("kind", STRATEGY_KINDS)
def test_permutations_once_per_run_unless_reshuffled(kind, monkeypatch):
    calls = count_permutations(monkeypatch)
    problem = make_problem("quadratic")
    ensemble("smg", problem, [ShufflingStrategy(kind, seed) for seed in (1, 2, 3)])
    epochs = range(1, T + 1) if kind == "rr" else [1]
    assert [(s.seed, t) for s, t in calls] == [(seed, t) for t in epochs
                                               for seed in (1, 2, 3)]


def test_grid_points_share_a_seeds_permutation(tmp_path, monkeypatch):
    calls = count_permutations(monkeypatch)
    assert cli.main(["grid", "--algo", "ssmg", "--paper-grids", "--synth-n", "40",
                     "--T", "2", "--out", str(tmp_path)]) == cli.EXIT_OK
    assert len((tmp_path / "grid_results.csv").read_text().splitlines()) == 2 + 27
    assert calls == [(ShufflingStrategy("rr", 0), 1)]


def test_reshuffled_grid_takes_one_permutation_per_seed_and_epoch(tmp_path, monkeypatch):
    calls = count_permutations(monkeypatch)
    assert cli.main(["grid", "--algo", "smg", "--gamma-grid", "0.1,0.05,0.01",
                     "--repeats", "2", "--seed", "4", "--T", "3",
                     "--out", str(tmp_path)]) == cli.EXIT_OK
    assert calls == [(ShufflingStrategy("rr", seed), t) for t in (1, 2, 3)
                     for seed in (4, 5)]


def test_refused_ensembles():
    problem, rates = make_problem("quadratic"), etas("smg")
    strategies = [ShufflingStrategy("rr", seed) for seed in (1, 2)]
    with pytest.raises(ValueError, match="single runs"):
        ensemble_run("smg", problem, rates, strategies, 0.5, inner_trace=True)
    with pytest.raises(ValueError, match="at least one strategy"):
        ensemble_run("smg", problem, rates, [], 0.5)
    with pytest.raises(ValueError, match="unknown method"):
        ensemble_run("nag", problem, rates, strategies, 0.5)
    with pytest.raises(ValueError, match="momentum weight"):
        ensemble_run("sgdm", problem, rates, strategies, 1.0)


# ---------------------------------------------------------------------------
# Aborts
#
# Plain SGD on the CLI's default problem at gamma = 2e155 over 4 epochs: for
# seeds 1 to 4, seed 1 finishes, seed 2 aborts at epoch 3, seed 3 at epoch
# 2 and seed 4 finishes.  A loop over the seeds raises seed 2's abort first.
# ---------------------------------------------------------------------------

ABORT_GAMMA = 2e155


def sequential(problem, gamma, seeds):
    """Each seed's record, or the RunAborted its run raises."""
    sched = Schedule("constant", gamma=gamma, horizon=T)
    outcomes = []
    for seed in seeds:
        try:
            outcomes.append(shuffling_sgd_run(problem, sched, ShufflingStrategy("rr", seed)))
        except RunAborted as exc:
            outcomes.append(exc)
    return outcomes


@pytest.fixture(scope="module")
def default_problem():
    return cli.build_problem(cli.ExperimentConfig())


@pytest.fixture(scope="module")
def outcomes(default_problem):
    outcomes = sequential(default_problem, ABORT_GAMMA, [1, 2, 3, 4])
    kinds = [type(o) for o in outcomes]
    assert kinds == [RunRecord, RunAborted, RunAborted, RunRecord]
    assert outcomes[2].epoch < outcomes[1].epoch   # the later seed aborts first
    return dict(zip([1, 2, 3, 4], outcomes))


def run_sgd_ensemble(problem, seeds, run=ensemble_run):
    rates = Schedule("constant", gamma=ABORT_GAMMA, horizon=T).etas()
    return run("sgd", problem, rates,
               [ShufflingStrategy("rr", seed) for seed in seeds], 0.0)


@pytest.mark.parametrize("seeds", [[1, 2, 3, 4], [1, 3], [2, 3], [3, 2, 1]])
def test_ensemble_raises_the_first_abort_in_seed_order(seeds, default_problem, outcomes):
    expected = next(outcomes[s] for s in seeds if isinstance(outcomes[s], RunAborted))
    with pytest.raises(RunAborted) as info:
        run_sgd_ensemble(default_problem, seeds)
    assert info.value.epoch == expected.epoch
    assert str(info.value) == str(expected)
    # ensemble_outcomes gives every member's own outcome instead
    members = run_sgd_ensemble(default_problem, seeds, ensemble_outcomes)
    for seed, member in zip(seeds, members):
        assert type(member) is type(outcomes[seed])
        if isinstance(member, RunAborted):
            assert str(member) == str(outcomes[seed])
        else:
            assert_same_record(member, outcomes[seed])


def test_a_diverging_member_leaves_the_others_alone(default_problem, outcomes):
    starts, losses = [], []

    def spy(W):
        starts.append(W.copy())
        value, grad = default_problem.batch_full_pass(W)
        losses.append(value)
        return value, grad

    spied = dataclasses.replace(default_problem, batch_full_pass=spy)
    with pytest.raises(RunAborted):
        run_sgd_ensemble(spied, [1, 2, 3, 4])
    assert len(starts) == T   # the finishing members ran every epoch
    alone = run_sgd_ensemble(default_problem, [1, 4])
    for member, record in ((0, alone[0]), (3, alone[1])):
        traced = shuffling_sgd_run(default_problem,
                                   Schedule("constant", gamma=ABORT_GAMMA, horizon=T),
                                   ShufflingStrategy("rr", record.seed), inner_trace=True)
        assert_close([W[member] for W in starts], [e.start_w for e in traced.epochs])
        for expected in (record, outcomes[record.seed]):
            assert_close([v[member] for v in losses], expected.losses)


def test_a_poisoned_member_leaves_the_others_alone():
    # member 1's gradient turns infinite at the third step of epoch 2
    problem = make_problem("dense-logistic")
    steps, starts = [], []

    def poisoned(W, ids):
        G = problem.batch_component_grad(W, ids)
        steps.append(None)
        if len(steps) == problem.n + 3:
            G[1] = np.inf
        return G

    def spy(W):
        starts.append(W.copy())
        return problem.batch_full_pass(W)

    strategies = [ShufflingStrategy("rr", seed) for seed in (5, 6, 7)]
    with pytest.raises(RunAborted) as info:
        ensemble("smg", dataclasses.replace(problem, batch_component_grad=poisoned,
                                            batch_full_pass=spy), strategies)
    assert str(info.value) == "run aborted at epoch 2: non-finite iterate after inner loop"
    assert len(starts) == T
    for member in (0, 2):
        expected = smg_run(problem, schedule(), strategies[member], BETA["smg"],
                           inner_trace=True)
        assert_close([W[member] for W in starts], [e.start_w for e in expected.epochs])


def test_run_with_a_diverging_seed_exits_2(tmp_path, capsys, outcomes):
    out = tmp_path / "out"
    code = cli.main(["run", "--algo", "sgd", "--T", str(T), "--gamma", repr(ABORT_GAMMA),
                     "--seed", "1", "--repeats", "3", "--out", str(out)])
    assert code == cli.EXIT_ABORT
    assert capsys.readouterr().err == f"runtime error: {outcomes[2]}\n"
    assert not out.exists()


def test_grid_point_with_a_diverging_seed(tmp_path, default_problem):
    n = default_problem.n
    step = ABORT_GAMMA / (n * T ** (1.0 / 3.0))
    gamma = gamma_for_initial_step("constant", step, n, T)
    outcomes = sequential(default_problem, gamma, [1, 2, 3])
    assert [type(o) for o in outcomes] == [RunRecord, RunAborted, RunAborted]
    out = tmp_path / "out"
    assert cli.main(["grid", "--algo", "sgd", "--T", str(T), "--gamma-grid",
                     f"0.05,{step!r}", "--seed", "1", "--repeats", "3",
                     "--out", str(out)]) == cli.EXIT_OK
    rows = [line.split(",") for line in
            (out / "grid_results.csv").read_text().splitlines()[2:]]
    assert [row[8] for row in rows] == ["ok", "aborted"]
    aborted = rows[1]
    assert float(aborted[1]) == step
    assert aborted[6:10] == ["inf", "inf", "aborted", str(outcomes[1].epoch)]
