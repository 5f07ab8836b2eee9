"""Loss accounting, sweeps, order selection, and report serialization."""

import dataclasses
import multiprocessing
import os
import signal
import types

import numpy as np
import pytest

from conftest import ALPHABETS, random_invertible_channel
from dudekit import evaluation, neural
from dudekit.baselines import bsmc, corrupt, generate_source
from dudekit.channel import bsc, build_estimated_loss, hamming_loss
from dudekit.core import BINARY, DNA, Alphabet, Sequence, group_contexts
from dudekit.dude import dude_denoise, select_denoisers
from dudekit.errors import DataError, NumericalError
from dudekit.evaluation import (
    METHODS,
    ExperimentReport,
    KRecord,
    apply_rules,
    estimated_loss,
    report_from_csv,
    report_from_json,
    report_to_csv,
    report_to_json,
    select_k,
    sweep_k,
    symbol_error_rate,
    true_loss,
)
from dudekit.neural import TrainConfig


def bsc01_tables():
    return build_estimated_loss(bsc(0.1), hamming_loss(BINARY))


def test_true_loss_and_ber():
    a = Sequence.from_text("0000", BINARY)
    b = Sequence.from_text("0101", BINARY)
    loss = hamming_loss(BINARY)
    assert true_loss(a, b, loss) == pytest.approx(0.5)
    assert symbol_error_rate(a, b) == pytest.approx(0.5)
    assert true_loss(a, a, loss) == 0.0
    with pytest.raises(DataError, match="length 4 vs 3"):
        true_loss(a, Sequence.from_text("000", BINARY), loss)


def test_true_loss_refuses_a_loss_over_another_alphabet():
    a = Sequence.from_text("0011", BINARY)
    b = Sequence.from_text("0101", BINARY)
    with pytest.raises(DataError, match="loss alphabet does not match the sequence"):
        true_loss(a, b, hamming_loss(DNA))


def test_estimated_loss_identity_rule_is_crossover():
    t = bsc01_tables()
    rng = np.random.default_rng(3)
    z = Sequence(rng.integers(0, 2, 500).astype(np.uint8), BINARY)
    s_idx = np.full(500, t.identity)
    assert estimated_loss(z, s_idx, t) == pytest.approx(0.1, abs=1e-12)


def test_estimated_loss_constant_rule_frozen_value():
    t = bsc01_tables()
    z = Sequence(np.zeros(100, dtype=np.uint8), BINARY)
    s_idx = np.zeros(100, dtype=np.int64)  # constant-zero map
    assert estimated_loss(z, s_idx, t) == pytest.approx(-0.125, abs=1e-12)
    with pytest.raises(DataError, match="need one rule index per position"):
        estimated_loss(z, s_idx[:50], t)


def test_estimated_loss_unbiased_over_channel_draws():
    # a fixed rule scored on fresh corruptions averages to its true
    # expected loss; identity under crossover 0.2 has expected loss 0.2
    t = build_estimated_loss(bsc(0.2), hamming_loss(BINARY))
    x = generate_source(bsmc(0.15, rng_seed=5), 2000)
    s_idx = np.full(2000, t.identity)
    vals = []
    for trial in range(30):
        z = corrupt(x, t.channel, rng_seed=100 + trial)
        vals.append(estimated_loss(z, s_idx, t))
    assert abs(float(np.mean(vals)) - 0.2) < 0.01


def test_apply_rules():
    t = bsc01_tables()
    z = Sequence.from_text("0110", BINARY)
    assert apply_rules(z, np.full(4, t.identity), t) == z
    flipped = apply_rules(z, np.full(4, 1), t)  # rule 1 is the flip map
    assert flipped.to_text() == "1001"


@pytest.mark.parametrize("rules", [np.full(4, -1), np.full(4, 4), np.full(4, 1.0)])
def test_rule_indices_outside_the_rules_raise(rules):
    # Binary has rules 0..3: -1 would wrap to the last rule, 4 would read
    # past the table, and a float is no index. Both readers refuse them.
    t = bsc01_tables()
    z = Sequence.from_text("0110", BINARY)
    for read in (estimated_loss, apply_rules):
        with pytest.raises(DataError, match="rule indices"):
            read(z, rules, t)
        with pytest.raises(DataError, match="different alphabet"):
            read(Sequence.from_text("ACGT", DNA), np.zeros(4, dtype=int), t)


def test_select_k_tie_breaks_low():
    records = [
        KRecord(k=1, estimated_loss=0.3, true_ber=None, n_contexts=1, wall_time_s=0.0),
        KRecord(k=2, estimated_loss=0.2, true_ber=None, n_contexts=1, wall_time_s=0.0),
        KRecord(k=3, estimated_loss=0.2, true_ber=None, n_contexts=1, wall_time_s=0.0),
    ]
    assert select_k(records) == 2
    with pytest.raises(DataError):
        select_k([])


def _instance(n=6000):
    src = bsmc(0.1, rng_seed=7)
    x = generate_source(src, n)
    z = corrupt(x, bsc(0.1), rng_seed=8)
    return x, z


def test_sweep_dude_records():
    x, z = _instance()
    t = bsc01_tables()
    report, recon = sweep_k(z, t, range(1, 5), method="dude", clean=x)
    assert [r.k for r in report.records] == [1, 2, 3, 4]
    assert report.method == "dude"
    assert report.n == len(z)
    assert report.k_star == select_k(report.records)
    for rec in report.records:
        s_idx = select_denoisers(group_contexts(z, rec.k), t)
        assert rec.estimated_loss == pytest.approx(estimated_loss(z, s_idx, t))
        assert rec.true_ber is not None and rec.wall_time_s >= 0.0
    assert recon == dude_denoise(z, report.k_star, tables=t)


@pytest.mark.parametrize("size", [2, 4])
def test_sweep_dude_equals_each_k_alone(size):
    # A sweep refines each order's groups from the one before; records and
    # the reconstruction at k* equal those of denoising each k on its own.
    rng = np.random.default_rng(size)
    chan = random_invertible_channel(rng, size)
    t = build_estimated_loss(chan, hamming_loss(ALPHABETS[size]))
    x = Sequence(rng.integers(0, size, 4000).astype(np.uint8), ALPHABETS[size])
    z = corrupt(x, chan, rng_seed=3)
    ks = [0, 1, 3, 4, 8]
    report, recon = sweep_k(z, t, ks, method="dude", clean=x)
    alone = {k: dude_denoise(z, k, t) for k in ks}
    for rec in report.records:
        s_idx = select_denoisers(group_contexts(z, rec.k), t)
        assert rec.estimated_loss == estimated_loss(z, s_idx, t)
        assert rec.true_ber == symbol_error_rate(x, alone[rec.k])
        assert rec.n_contexts == group_contexts(z, rec.k).n_groups
    assert recon == alone[report.k_star]


def test_sweep_keeps_reconstruction_at_first_best_order(monkeypatch):
    _, z = _instance(2000)
    t = bsc01_tables()
    report, recon = sweep_k(z, t, [1, 2, 3, 4], method="dude")
    assert report.k_star == select_k(report.records)
    assert recon == dude_denoise(z, report.k_star, t)
    # With every order tied, k* is the smallest, and so is the kept
    # reconstruction, although the last order's differs from it.
    monkeypatch.setattr(evaluation, "estimated_loss", lambda z, s_idx, tables: 0.25)
    report, recon = sweep_k(z, t, [2, 4], method="dude")
    assert report.k_star == 2
    assert recon == dude_denoise(z, 2, t) and recon != dude_denoise(z, 4, t)


def test_sweep_without_clean_has_no_ber():
    _, z = _instance(3000)
    t = bsc01_tables()
    report, _ = sweep_k(z, t, [1, 2], method="dude")
    assert all(r.true_ber is None for r in report.records)


def test_sweep_validation():
    _, z = _instance(1000)
    t = bsc01_tables()
    with pytest.raises(DataError):
        sweep_k(z, t, [], method="dude")
    with pytest.raises(DataError):
        sweep_k(z, t, [1, 1], method="dude")
    with pytest.raises(DataError):
        sweep_k(z, t, [1], method="nope")


def test_sweep_ndude_deterministic():
    _, z = _instance(3000)
    t = bsc01_tables()
    cfg = TrainConfig(epochs=2, rng_seed=11)
    rep1, rec1 = sweep_k(z, t, [1, 2], method="ndude", hidden=(10,), config=cfg)
    rep2, rec2 = sweep_k(z, t, [1, 2], method="ndude", hidden=(10,), config=cfg)
    assert rec1 == rec2
    stripped1 = [dataclasses.replace(r, wall_time_s=0.0) for r in rep1.records]
    stripped2 = [dataclasses.replace(r, wall_time_s=0.0) for r in rep2.records]
    assert stripped1 == stripped2
    assert dict(rep1.meta)["hidden"] == "10"


def test_ndude_report_names_every_training_setting():
    # Each TrainConfig field has a meta entry; a new field fails the lookup
    # until reports record it.
    _, z = _instance(500)
    cfg = TrainConfig(epochs=1, minibatch_size=30, rng_seed=5)
    report, _ = sweep_k(z, bsc01_tables(), [1], method="ndude", hidden=(4, 3), config=cfg)
    key = {"epochs": "epochs", "minibatch_size": "minibatch", "rng_seed": "seed"}
    want = {key[f.name]: str(getattr(cfg, f.name)) for f in dataclasses.fields(TrainConfig)}
    meta = dict(report.meta)
    assert {name: meta[name] for name in want} == want
    assert meta["hidden"] == "4,3"


@pytest.mark.parametrize(
    "size, n, minibatch",
    [(2, 403, 7), (2, 151, 1), (4, 403, 7), (4, 97, 1)],
)
def test_sweep_ndude_stack_matches_training_each_k_alone(size, n, minibatch):
    # A sweep's rows and reconstruction are, bit for bit, those of training
    # each k on its own with seed rng_seed + k. n is not a multiple of the
    # minibatch, the orders include 0 and gaps, and size 4 has a 256-rule head.
    rng = np.random.default_rng(size * 1000 + n)
    chan = random_invertible_channel(rng, size)
    t = build_estimated_loss(chan, hamming_loss(ALPHABETS[size]))
    x = Sequence(rng.integers(0, size, n).astype(np.uint8), ALPHABETS[size])
    z = corrupt(x, chan, rng_seed=2)
    cfg = TrainConfig(epochs=2, minibatch_size=minibatch, rng_seed=9)
    ks = [0, 2, 5]
    alone = {k: neural.train(z, k, t, (8, 6), cfg) for k in ks}
    report, recon = sweep_k(z, t, ks, method="ndude", clean=x, hidden=(8, 6), config=cfg)
    recons = {}
    for rec in report.records:
        s_idx = neural.select_denoisers(group_contexts(z, rec.k), alone[rec.k], t)
        recons[rec.k] = apply_rules(z, s_idx, t)
        want = KRecord(
            k=rec.k,
            estimated_loss=estimated_loss(z, s_idx, t),
            true_ber=symbol_error_rate(x, recons[rec.k]),
            n_contexts=group_contexts(z, rec.k).n_groups,
            wall_time_s=rec.wall_time_s,
        )
        assert rec == want
    assert [r.k for r in report.records] == ks
    assert report.k_star == select_k(report.records)
    assert recon == recons[report.k_star]


def test_wall_time_is_each_orders_own(monkeypatch):
    # On one CPU, a clock that moves only while order k trains, by 10 k s:
    # each row reads its own order's time, not a share of the part's.
    _, z = _instance(3000)
    now, real = [0.0], neural.train_groups

    def timed(groups, *args):
        now[0] += 10.0 * groups.k
        return real(groups, *args)

    monkeypatch.setattr(evaluation, "_usable_cpus", lambda: 1)
    monkeypatch.setattr(evaluation, "time", types.SimpleNamespace(perf_counter=lambda: now[0]))
    monkeypatch.setattr(neural, "train_groups", timed)
    cfg = TrainConfig(epochs=1)
    report, _ = sweep_k(z, bsc01_tables(), [1, 3, 4], "ndude", hidden=(8,), config=cfg)
    assert [(r.k, r.wall_time_s) for r in report.records] == [(1, 10.0), (3, 30.0), (4, 40.0)]


def _count_forks(monkeypatch, cpus):
    """Pretend to have `cpus` usable CPUs; returns the list of forked parts."""
    forked = []
    fork = evaluation._fork_child
    monkeypatch.setattr(evaluation, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(
        evaluation, "_fork_child", lambda run, part: (forked.append(part), fork(run, part))[1]
    )
    return forked


def _masked(report):
    """report with every wall_time_s set to 0."""
    records = tuple(dataclasses.replace(r, wall_time_s=0.0) for r in report.records)
    return dataclasses.replace(report, records=records)


@pytest.mark.parametrize("method, ks", [("dude", [0, 1, 3, 4, 8]), ("ndude", [0, 1, 4, 5, 9])])
def test_split_sweep_matches_one_process(monkeypatch, method, ks):
    # k* is the last order: on 2 CPUs this process runs it, on 3 a child.
    # N-DUDE's orders 0 and 1 take full batches of their G contexts, 4..9
    # minibatches drawn from shuffles of the positions.
    x, z = _instance(12000)
    t = bsc01_tables()
    cfg = TrainConfig(epochs=2, rng_seed=4)
    assert group_contexts(z, 1).n_groups <= cfg.minibatch_size < group_contexts(z, 4).n_groups
    runs = []
    for cpus in (1, 2, 3):
        with monkeypatch.context() as patch:
            forked = _count_forks(patch, cpus)
            report, recon = sweep_k(z, t, ks, method, clean=x, hidden=(8,), config=cfg)
        assert forked == [ks[j::cpus] for j in range(1, cpus)]
        assert multiprocessing.active_children() == []
        assert not recon.data.flags.writeable  # also when a child sent it
        runs.append((_masked(report), recon))
    assert runs[1] == runs[0] and runs[2] == runs[0]
    assert [ks.index(runs[0][0].k_star) % cpus for cpus in (2, 3)] == [0, 1]


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("cpus", [1, 2])
def test_dude_sweep_names_smallest_order_too_long_before_forking(monkeypatch, cpus, method):
    # Split over 2 CPUs, this process would reach order 6 before a child
    # reached 5; the error names 5 either way, and nothing forks. N-DUDE
    # takes DUDE's order rule.
    _, z = _instance(10)
    forked = _count_forks(monkeypatch, cpus)
    with pytest.raises(DataError, match=r"need length > 2k = 10, got 10$"):
        sweep_k(z, bsc01_tables(), [9, 1, 6, 5], method=method, hidden=(8,))
    assert forked == []


def test_split_counts_usable_cpus(monkeypatch):
    orders = list(range(5))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert evaluation._usable_cpus() == 1
    assert evaluation._split(orders) == [orders]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    assert evaluation._split(orders) == [[0, 3], [1, 4], [2]]
    assert evaluation._split(orders[:2]) == [[0], [1]]
    assert evaluation._split([]) == []
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert evaluation._usable_cpus() == 2


def test_single_order_and_one_cpu_fork_nothing(monkeypatch):
    _, z = _instance(3000)
    t = bsc01_tables()
    cfg = TrainConfig(epochs=1)
    forked = _count_forks(monkeypatch, 2)
    for method in METHODS:
        sweep_k(z, t, [5], method, hidden=(8,), config=cfg)
    monkeypatch.setattr(evaluation, "_usable_cpus", lambda: 1)
    for method in METHODS:
        sweep_k(z, t, [4, 5], method, hidden=(8,), config=cfg)
    assert forked == []


def _failing_training(monkeypatch, k, fail):
    """On 2 CPUs, make neural.train_groups call fail() when it trains order k."""
    real = neural.train_groups
    monkeypatch.setattr(evaluation, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(
        neural, "train_groups", lambda groups, *a: fail() if groups.k == k else real(groups, *a)
    )


def _raise(exc):
    raise exc


class _PartError(DataError):
    """Raised by a forked part; the parent must raise it again as this type."""


@pytest.mark.parametrize(
    "fail, error, match",
    [
        (lambda: _raise(_PartError("order 4 failed")), _PartError, "order 4 failed"),
        (lambda: os._exit(1), NumericalError, r"orders \[4\] .*exit code 1\)"),
        (lambda: os.kill(os.getpid(), signal.SIGKILL), NumericalError, r"exit code -9\)"),
    ],
    ids=["raises", "exits", "killed"],
)
def test_child_failure_reaches_parent(monkeypatch, fail, error, match):
    # This process runs order 3, a forked child order 4.
    _, z = _instance(3000)
    t = bsc01_tables()
    _failing_training(monkeypatch, 4, fail)
    with pytest.raises(error, match=match):
        sweep_k(z, t, [3, 4], "ndude", hidden=(8,), config=TrainConfig(epochs=1))
    assert multiprocessing.active_children() == []


def test_parent_failure_stops_children(monkeypatch):
    _, z = _instance(3000)
    t = bsc01_tables()
    _failing_training(monkeypatch, 3, lambda: _raise(DataError("order 3 failed")))
    with pytest.raises(DataError, match="order 3 failed"):
        sweep_k(z, t, [3, 4], "ndude", hidden=(8,), config=TrainConfig(epochs=50))
    assert multiprocessing.active_children() == []


def test_report_csv_roundtrip(tmp_path):
    x, z = _instance(3000)
    t = bsc01_tables()
    report, _ = sweep_k(z, t, range(1, 4), method="dude", clean=x)
    path = str(tmp_path / "report.csv")
    report_to_csv(report, path)
    back = report_from_csv(path)
    assert back == report


def test_report_csv_roundtrip_without_ber(tmp_path):
    _, z = _instance(2000)
    t = bsc01_tables()
    report, _ = sweep_k(z, t, [1, 2], method="dude")
    path = str(tmp_path / "report.csv")
    report_to_csv(report, path)
    assert report_from_csv(path) == report


def test_report_csv_roundtrip_with_comma_label(tmp_path):
    report = ExperimentReport(
        method="dude",
        n=10,
        alphabet=Alphabet(("a", ",", "=")).labels,
        k_star=1,
        records=(KRecord(1, 0.1, None, 4, 0.0),),
    )
    path = str(tmp_path / "report.csv")
    report_to_csv(report, path)
    assert report_from_csv(path) == report


def test_report_json_roundtrip(tmp_path):
    x, z = _instance(2000)
    t = bsc01_tables()
    report, _ = sweep_k(z, t, [1, 2], method="dude", clean=x)
    path = str(tmp_path / "report.json")
    report_to_json(report, path)
    assert report_from_json(path) == report


def test_report_csv_malformed(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("k,estimated_loss\n1,0.5\n")
    with pytest.raises(DataError, match="missing '# method=' header"):
        report_from_csv(str(path))
    path.write_text("# method=dude\nk,estimated_loss,true_ber,n_contexts,wall_time_s\n1,.5,,4,.1\n")
    with pytest.raises(DataError, match="missing '# n=' header"):
        report_from_csv(str(path))  # missing n and alphabet headers
    head = "# method=dude\n# n=10\n# alphabet=01\n# k_star=1\n"
    cols = "k,estimated_loss,true_ber,n_contexts,wall_time_s\n"
    for text in (head.replace("n=10", "n=x") + cols, head + cols + "1,abc,,4,0.2\n",
                 head + cols + "1,0.1,,4.5,0.2\n", head + cols + "1,0.1,,4,0.2,9\n",
                 head + cols + "1,0.1\n"):
        path.write_text(text)
        with pytest.raises(DataError, match="bad report"):
            report_from_csv(str(path))
    path.write_text(head + cols.replace("n_contexts,", "") + "1,0.1,,0.2\n")
    with pytest.raises(DataError, match="unexpected CSV columns"):
        report_from_csv(str(path))
    path.write_bytes(head.encode() + b"# note=\xe9\n" + cols.encode())
    with pytest.raises(DataError):
        report_from_csv(str(path))
    with pytest.raises(DataError):
        report_from_csv(str(tmp_path / "missing.csv"))


def test_report_meta_is_sorted():
    rep = ExperimentReport(
        method="dude",
        n=10,
        alphabet=("0", "1"),
        k_star=1,
        records=(KRecord(1, 0.1, None, 4, 0.0),),
        meta=(("zeta", "1"), ("alpha", "2")),
    )
    assert rep.meta == (("alpha", "2"), ("zeta", "1"))



def test_report_json_malformed(tmp_path):
    path = tmp_path / "bad.json"
    for text in ("[1, 2]", '{"method": "dude", "n": "x", "alphabet": ["0", "1"], "k_star": 1, '
                 '"meta": {}, "records": []}', '{"method": "dude", "n": 1e999}'):
        path.write_text(text)
        with pytest.raises(DataError, match="bad report"):
            report_from_json(str(path))
    path.write_text("{")
    with pytest.raises(DataError, match="cannot read report"):
        report_from_json(str(path))
