"""Experiment harness: loss accounting, context-order sweeps, reports.

The sweep runs a denoiser over a range of context orders k, records the
estimated loss (computable from noisy data alone) and, when the clean
sequence is available, the true symbol error rate. The working order
k_star is the one minimizing the estimated loss, ties to the smaller k;
that choice needs no access to the clean data, which is the point.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, astuple, dataclass, fields

import numpy as np

from . import dude, io, neural
from .channel import EstimatedLossTables, apply_rules
from .core import Alphabet, Sequence, context_groups, group_contexts
from .errors import DataError, LengthMismatch, MalformedHeader
from .neural import TrainConfig

METHODS = ("dude", "ndude")


def true_loss(x: Sequence, xhat: Sequence, loss) -> float:
    """Mean per-symbol loss of a reconstruction against the clean sequence."""
    if len(x) != len(xhat):
        raise LengthMismatch(f"length {len(x)} vs {len(xhat)}")
    if len(x) == 0:
        raise DataError("cannot score empty sequences")
    return float(loss.entries[x.data.astype(np.int64), xhat.data.astype(np.int64)].mean())


def symbol_error_rate(a: Sequence, b: Sequence) -> float:
    """Fraction of positions where the two sequences disagree."""
    if len(a) != len(b):
        raise LengthMismatch(f"length {len(a)} vs {len(b)}")
    if len(a) == 0:
        raise DataError("cannot score empty sequences")
    return float(np.mean(a.data != b.data))


def estimated_loss(z: Sequence, rule_indices: np.ndarray, tables: EstimatedLossTables) -> float:
    """Mean estimated loss of per-position single-symbol rules on noisy data.

    Unbiased for the true loss position-wise, so concentration makes it
    a usable stand-in for the unobservable truth at large n.
    """
    rule_indices = np.asarray(rule_indices)
    if rule_indices.shape != (len(z),):
        raise LengthMismatch("need one rule index per position")
    return float(tables.estimated_loss[z.data.astype(np.int64), rule_indices].mean())


@dataclass(frozen=True)
class KRecord:
    """One sweep row: context order, losses, distinct contexts, wall time.

    n_contexts counts distinct order-k contexts, edges included.
    wall_time_s is this k's own grouping, selection and scoring time. In
    an N-DUDE sweep, whose orders train in one joint call (in parallel
    processes where there are CPUs to spare), it also holds an equal
    share of that call's wall time. Both report formats write the fields
    in this order, and parse reads them back.
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
        return cls(
            k=int(row["k"]),
            estimated_loss=float(row["estimated_loss"]),
            true_ber=None if ber in ("", None) else float(ber),
            n_contexts=int(row["n_contexts"]),
            wall_time_s=float(row["wall_time_s"]),
        )


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
    hidden: tuple[int, ...] = neural.DEFAULT_HIDDEN,
    config: TrainConfig | None = None,
) -> tuple[ExperimentReport, Sequence]:
    """Run one denoiser across context orders; returns the report and the
    reconstruction at the selected order.

    Orders run in ascending order. DUDE's context groups at each k refine
    those of the order before, over one window view of reach max(k); its
    rules do not depend on how groups are numbered. For the trained
    denoiser each k reseeds its run as rng_seed + k, so every sweep row
    is independently reproducible. All orders train in one neural.train
    call: those with n >= 500 G (G distinct contexts) take 100 full-batch
    steps per epoch on their context tables, the rest train on minibatches
    of positions as up to one stack of networks per usable CPU, each stack
    in its own process. Only the reconstruction at the best order so far
    is kept.
    """
    if method not in METHODS:
        raise DataError(f"unknown method {method!r}, expected one of {METHODS}")
    k_values = sorted(int(k) for k in k_values)
    if not k_values or any(k < 0 for k in k_values) or len(set(k_values)) != len(k_values):
        raise DataError("k values must be distinct and non-negative")
    cfg = config if config is not None else TrainConfig()
    t0 = time.perf_counter()
    nets = neural.train(z, k_values, tables, hidden, cfg) if method == "ndude" else []
    share = (time.perf_counter() - t0) / len(k_values) if nets else 0.0  # of the joint training
    chain = context_groups(z, k_values) if method == "dude" else None
    records = []
    best = None  # (estimated loss, reconstruction) at the best order so far
    for j, k in enumerate(k_values):
        t0 = time.perf_counter()
        if method == "dude":
            groups = next(chain)
            s_idx = dude.select_denoisers(z, k, tables, groups)
        else:  # the network sees its order's own numbering, as neural.denoise does
            groups = group_contexts(z, k)
            s_idx = neural.select_denoisers(z, nets[j], tables, groups)
        est = estimated_loss(z, s_idx, tables)
        xhat = apply_rules(z, s_idx, tables)
        wall = time.perf_counter() - t0 + share
        ber = symbol_error_rate(clean, xhat) if clean is not None else None
        records.append(KRecord(k, est, ber, groups.n_groups, wall))
        if best is None or est < best[0]:  # a tie keeps the smaller k, as select_k does
            best = (est, xhat)
    k_star = select_k(records)
    meta = [("seed", str(cfg.rng_seed))]
    if method == "ndude":
        meta.append(("hidden", ",".join(str(h) for h in hidden)))
        meta.append(("epochs", str(cfg.epochs)))
        meta.append(("minibatch", str(cfg.minibatch_size)))
    meta.append(("channel_fingerprint", tables.fingerprint()))
    report = ExperimentReport(
        method=method,
        n=len(z),
        alphabet=z.alphabet.labels,
        k_star=k_star,
        records=tuple(records),
        meta=tuple(meta),
    )
    return report, best[1]


CSV_COLUMNS = tuple(f.name for f in fields(KRecord))
# Report fields other than records and meta: the CSV's required headers.
_HEAD = ("method", "n", "alphabet", "k_star")


def _report(path: str, doc) -> ExperimentReport:
    """Report from its JSON layout; a missing or malformed field raises MalformedHeader."""
    try:
        return ExperimentReport(
            method=doc["method"],
            n=int(doc["n"]),
            alphabet=tuple(doc["alphabet"]),
            k_star=int(doc["k_star"]),
            records=tuple(KRecord.parse(row) for row in doc["records"]),
            meta=tuple((str(key), str(value)) for key, value in dict(doc["meta"]).items()),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise MalformedHeader(f"bad report {path}: {exc!r}") from exc


def report_to_csv(report: ExperimentReport, path: str) -> None:
    """Write a sweep report as commented-header CSV.

    Floats are written with repr so a read-back report compares equal.
    """
    head = [
        ("method", report.method),
        ("n", report.n),
        ("alphabet", ",".join(report.alphabet)),
        ("k_star", report.k_star),
        *report.meta,
    ]
    rows = (",".join("" if v is None else repr(v) for v in astuple(r)) for r in report.records)
    io.write_headed(path, head, [",".join(CSV_COLUMNS), *rows])


def report_from_csv(path: str) -> ExperimentReport:
    head, body = io.read_headed(path)
    for key in _HEAD:
        if key not in head:
            raise MalformedHeader(f"missing '# {key}=' header in {path}")
    if not body or tuple(body[0].split(",")) != CSV_COLUMNS:
        raise MalformedHeader(f"unexpected CSV columns in {path}")
    doc = {key: head.pop(key) for key in _HEAD}
    doc["alphabet"] = doc["alphabet"].split(",")
    # A generator, so _report's error mapping covers ragged rows too.
    rows = (dict(zip(CSV_COLUMNS, line.split(","), strict=True)) for line in body[1:])
    return _report(path, {**doc, "meta": head, "records": rows})


def report_to_json(report: ExperimentReport, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({**asdict(report), "meta": dict(report.meta)}, fh, indent=2, sort_keys=True)
        fh.write("\n")


def report_from_json(path: str) -> ExperimentReport:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: bad UTF-8 or bad JSON
        raise MalformedHeader(f"cannot read report {path}: {exc}") from exc
    return _report(path, doc)
