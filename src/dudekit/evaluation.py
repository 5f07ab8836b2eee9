"""Experiment harness: loss accounting, context-order sweeps, reports.

The sweep runs a denoiser over a range of context orders k, records the
estimated loss (computable from noisy data alone) and, when the clean
sequence is available, the true symbol error rate. The working order
k_star is the one minimizing the estimated loss, ties to the smaller k;
that choice needs no access to the clean data, which is the point.

A sweep runs its orders in parts, one process per usable CPU, each part the
whole pipeline for its orders; outputs do not depend on the number of parts.
"""

from __future__ import annotations

import os
import time
from dataclasses import asdict, astuple, dataclass, fields

import numpy as np

from . import dude, io, neural
from .channel import EstimatedLossTables, apply_rules, one_rule_each
from .core import Sequence, context_groups, interior_slice
from .errors import DataError, NumericalError
from .neural import TrainConfig

METHODS = ("dude", "ndude")


def _scored_pair(a: Sequence, b: Sequence) -> None:
    if len(a) != len(b):
        raise DataError(f"length {len(a)} vs {len(b)}")
    if len(a) == 0:
        raise DataError("cannot score empty sequences")


def true_loss(x: Sequence, xhat: Sequence, loss) -> float:
    """Mean per-symbol loss of a reconstruction against the clean sequence."""
    _scored_pair(x, xhat)
    if loss.alphabet != x.alphabet:
        raise DataError("loss alphabet does not match the sequence")
    return float(loss.entries[x.data.astype(np.int64), xhat.data.astype(np.int64)].mean())


def symbol_error_rate(a: Sequence, b: Sequence) -> float:
    """Fraction of positions where the two sequences disagree."""
    _scored_pair(a, b)
    return float(np.mean(a.data != b.data))


def estimated_loss(z: Sequence, rule_indices: np.ndarray, tables: EstimatedLossTables) -> float:
    """Mean estimated loss of per-position single-symbol rules on noisy data.

    Unbiased for the true loss position-wise, so concentration makes it
    a usable stand-in for the unobservable truth at large n.
    """
    if len(z) == 0:
        raise DataError("cannot score empty sequences")
    flat = np.multiply(z.data, tables.n_denoisers, dtype=np.intp)
    flat += one_rule_each(z, rule_indices, tables)  # estimated_loss[z, r], raveled
    return float(tables.estimated_loss.ravel()[flat].mean())


@dataclass(frozen=True)
class KRecord:
    """One sweep row: context order, losses, distinct contexts, wall time.

    n_contexts counts distinct order-k contexts, edges included.
    wall_time_s is this k's own time: its steps of the grouping walk, its
    training (N-DUDE), selection and scoring (see _sweep_part). Both report
    formats write the fields in this order, and parse reads them back.
    """

    k: int
    estimated_loss: float
    true_ber: float | None
    n_contexts: int
    wall_time_s: float

    @classmethod
    def parse(cls, row) -> "KRecord":
        """Record from a mapping of field name to number or text; '' or None is no true_ber."""
        ber = row["true_ber"]
        record = cls(
            k=int(row["k"]),
            estimated_loss=float(row["estimated_loss"]),
            true_ber=None if ber in ("", None) else float(ber),
            n_contexts=int(row["n_contexts"]),
            wall_time_s=float(row["wall_time_s"]),
        )
        if not np.isfinite([v for v in astuple(record) if v is not None]).all():
            raise DataError(f"the record of k={record.k} holds a number that is not finite")
        return record


@dataclass(frozen=True)
class ExperimentReport:
    """Sweep results plus enough metadata to reproduce the run."""

    method: str
    n: int
    alphabet: tuple[str, ...]
    k_star: int
    records: tuple[KRecord, ...]
    meta: tuple[tuple[str, str], ...] = ()

    def __post_init__(self):
        # Canonical meta order makes the serialization roundtrips exact.
        object.__setattr__(self, "meta", tuple(sorted(self.meta)))
        if self.k_star not in {r.k for r in self.records}:
            raise DataError(f"k_star={self.k_star} is not the order of any record")


def select_k(records) -> int:
    """Order with the smallest estimated loss; ties go to the smaller k."""
    if not records:
        raise DataError("cannot select k from an empty sweep")
    return min(records, key=lambda r: (r.estimated_loss, r.k)).k


def sweep_k(
    z: Sequence,
    tables: EstimatedLossTables,
    k_values,
    method: str = "dude",
    clean: Sequence | None = None,
    config: TrainConfig | None = None,
) -> tuple[ExperimentReport, Sequence]:
    """Run one denoiser across context orders; returns the report and the
    reconstruction at the selected order.

    Both methods take orders with 2k < n (core.interior_slice); the
    smallest order too long for z raises DataError before any part starts.
    The ascending orders are dealt round-robin into min(usable CPUs, number
    of orders) parts, each run by _sweep_part: the first in this process,
    each other in a forked child (see _run_parts); one order, one CPU or no
    fork runs all here. The rows are merged by k, and k*'s reconstruction
    kept. Each part walks the context groups from k = 0, as
    core.group_contexts does, and the trained denoiser seeds order k with
    rng_seed + k, so every row is reproducible alone (neural.train_groups on
    group_contexts, or `denoise`) and the same however orders split.
    The forked parts inherit numpy's BLAS threads: a caller other than the
    CLI, which pins them, sets OPENBLAS_NUM_THREADS=1 (and OMP_NUM_THREADS,
    MKL_NUM_THREADS) before numpy loads, or each part's BLAS oversubscribes
    the CPUs the parts share.
    """
    if method not in METHODS:
        raise DataError(f"unknown method {method!r}, expected one of {METHODS}")
    k_values = sorted(int(k) for k in k_values)
    if not k_values or any(k < 0 for k in k_values) or len(set(k_values)) != len(k_values):
        raise DataError("k values must be distinct and non-negative")
    for k in k_values:  # the smallest order too long for z names the error, in any part
        interior_slice(len(z), k)
    cfg = config if config is not None else TrainConfig()
    results = _run_parts(
        lambda part: _sweep_part(z, tables, part, method, clean, cfg), _split(k_values)
    )
    records = sorted((r for rows, _ in results for r in rows), key=lambda r: r.k)
    k_star = select_k(records)
    kept = next(xhat for rows, xhat in results if select_k(rows) == k_star)
    meta = [("seed", str(cfg.rng_seed)), ("channel_fingerprint", tables.fingerprint())]
    if method == "ndude":
        meta += [("hidden", ",".join(str(h) for h in cfg.hidden)), ("epochs", str(cfg.epochs))]
        meta.append(("minibatch", str(cfg.minibatch_size)))
    report = ExperimentReport(
        method=method,
        n=len(z),
        alphabet=z.alphabet.labels,
        k_star=k_star,
        records=tuple(records),
        meta=tuple(meta),
    )
    return report, kept


def _sweep_part(z, tables, part, method, clean, cfg):
    """Rows of the ascending orders in part, and the reconstruction at the
    order select_k picks among them. One walk refines the context groups
    from k = 0, one order per step. Each order of part is trained (N-DUDE),
    selected and scored while its groups are in hand, and they are dropped
    before the walk moves on. A row's wall_time_s runs from
    the end of the row before, so it holds the walk's steps up to its order."""
    records, t0 = [], time.perf_counter()
    for groups in context_groups(z, part[-1]):
        if groups.k not in part:
            continue
        if method == "dude":
            s_idx = dude.select_denoisers(groups, tables)
        else:
            net = neural.train_groups(groups, tables, cfg)
            s_idx = neural.select_denoisers(groups, net, tables)
        est = estimated_loss(z, s_idx, tables)
        xhat = apply_rules(z, s_idx, tables)
        ber = symbol_error_rate(clean, xhat) if clean is not None else None
        t1 = time.perf_counter()
        records.append(KRecord(groups.k, est, ber, groups.n_groups, t1 - t0))
        if select_k(records) == groups.k:
            kept = xhat
        del groups, s_idx  # not held while the walk refines the orders up to the next k
        t0 = t1
    return records, kept


def _usable_cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _split(items: list) -> list[list]:
    """items dealt round-robin into min(usable CPUs, len(items)) parts, or
    one part where processes cannot be forked."""
    parts = min(_usable_cpus() if hasattr(os, "fork") else 1, len(items))
    return [items[j::parts] for j in range(parts)]


def _run_parts(run, parts: list) -> list:
    """[run(part) for part in parts]: parts[0] in this process, each other
    part in a forked child. A child's exception is raised here as the same
    type, a child that ends without a result raises NumericalError, and no
    child outlives the call."""
    children = []
    try:
        for part in parts[1:]:
            children.append((part, *_fork_child(run, part)))
        results = [run(parts[0])]
        for part, proc, conn in children:
            try:
                results.append(conn.recv())
            except EOFError:  # the child is gone without sending
                proc.join()
                msg = f"sweep of orders {part} ended without a result (exit code {proc.exitcode})"
                raise NumericalError(msg) from None
            if isinstance(results[-1], BaseException):
                raise results[-1]
    finally:
        for _, proc, conn in children:
            conn.close()
            proc.kill()  # a no-op once the child has exited
            proc.join()
            proc.close()
    return results


def _fork_child(run, part):
    """Start a forked child that sends back run(part), or the exception that
    stopped it. It inherits every input, so only its result is pickled.
    Returns the process and the receiving end of its pipe."""
    import multiprocessing

    def child(conn):
        try:
            result = run(part)
        except Exception as exc:  # raised again in the parent, as the same type
            result = exc
        conn.send(result)

    ctx = multiprocessing.get_context("fork")
    conn, child_end = ctx.Pipe(duplex=False)
    proc = ctx.Process(target=child, args=(child_end,), daemon=True)
    try:
        proc.start()
    except BaseException:
        conn.close()
        raise
    finally:
        child_end.close()  # the child holds its own copy; EOF then means it is gone
    return proc, conn


CSV_COLUMNS = tuple(f.name for f in fields(KRecord))
# Report fields other than records and meta: the CSV's required headers.
_HEAD = ("method", "n", "alphabet", "k_star")


def _report(path: str, doc) -> ExperimentReport:
    """Report from its JSON layout; a missing or malformed field raises DataError."""
    try:
        return ExperimentReport(
            method=doc["method"],
            n=int(doc["n"]),
            alphabet=tuple(doc["alphabet"]),
            k_star=int(doc["k_star"]),
            records=tuple(KRecord.parse(row) for row in doc["records"]),
            meta=tuple((str(key), str(value)) for key, value in dict(doc["meta"]).items()),
        )
    except (DataError, KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DataError(f"bad report {path}: {exc!r}") from exc


def report_to_csv(report: ExperimentReport, path: str) -> None:
    """Write a sweep report as commented-header CSV.

    Floats are written with repr so a read-back report compares equal.
    """
    head = [
        ("method", report.method),
        ("n", report.n),
        ("alphabet", "".join(report.alphabet)),
        ("k_star", report.k_star),
        *report.meta,
    ]
    rows = (",".join("" if v is None else repr(v) for v in astuple(r)) for r in report.records)
    io.write_headed(path, head, [",".join(CSV_COLUMNS), *rows])


def report_from_csv(path: str) -> ExperimentReport:
    head, body = io.read_headed(path)
    for key in _HEAD:
        if key not in head:
            raise DataError(f"missing '# {key}=' header in {path}")
    if not body or tuple(body[0].split(",")) != CSV_COLUMNS:
        raise DataError(f"unexpected CSV columns in {path}")
    doc = {key: head.pop(key) for key in _HEAD}
    # A generator, so _report's error mapping covers ragged rows too.
    rows = (dict(zip(CSV_COLUMNS, line.split(","), strict=True)) for line in body[1:])
    return _report(path, {**doc, "meta": head, "records": rows})


def report_to_json(report: ExperimentReport, path: str) -> None:
    io.write_json(path, {**asdict(report), "meta": dict(report.meta)})


def report_from_json(path: str) -> ExperimentReport:
    return _report(path, io.read_json(path, "report"))
