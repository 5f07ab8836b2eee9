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
from dataclasses import dataclass, replace

import numpy as np

from . import dude, neural
from .channel import EstimatedLossTables, apply_rules
from .core import Alphabet, Sequence
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
    """One sweep row: context order, losses, wall time."""

    k: int
    estimated_loss: float
    true_ber: float | None
    wall_time_s: float


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

    def meta_dict(self) -> dict[str, str]:
        return dict(self.meta)


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

    For the trained denoiser each k reseeds its run as rng_seed + k, so
    every sweep row is independently reproducible.
    """
    if method not in METHODS:
        raise DataError(f"unknown method {method!r}, expected one of {METHODS}")
    k_values = [int(k) for k in k_values]
    if not k_values or any(k < 0 for k in k_values) or len(set(k_values)) != len(k_values):
        raise DataError("k values must be distinct and non-negative")
    cfg = config if config is not None else TrainConfig()
    records = []
    recons = {}
    for k in sorted(k_values):
        t0 = time.perf_counter()
        if method == "dude":
            s_idx = dude.select_denoisers(z, k, tables)
        else:
            net = neural.train(z, k, tables, hidden, replace(cfg, rng_seed=cfg.rng_seed + k))
            s_idx = neural.select_denoisers(z, net, tables)
        est = estimated_loss(z, s_idx, tables)
        xhat = apply_rules(z, s_idx, tables)
        wall = time.perf_counter() - t0
        ber = symbol_error_rate(clean, xhat) if clean is not None else None
        records.append(KRecord(k=k, estimated_loss=est, true_ber=ber, wall_time_s=wall))
        recons[k] = xhat
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
    return report, recons[k_star]


CSV_COLUMNS = ("k", "estimated_loss", "true_ber", "wall_time_s")


def report_to_csv(report: ExperimentReport, path: str) -> None:
    """Write a sweep report as commented-header CSV.

    Floats are written with repr so a read-back report compares equal.
    """
    lines = [
        f"# method={report.method}",
        f"# n={report.n}",
        f"# alphabet={','.join(report.alphabet)}",
        f"# k_star={report.k_star}",
    ]
    lines += [f"# {key}={value}" for key, value in report.meta]
    lines.append(",".join(CSV_COLUMNS))
    for r in report.records:
        ber = "" if r.true_ber is None else repr(r.true_ber)
        lines.append(f"{r.k},{r.estimated_loss!r},{ber},{r.wall_time_s!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def report_from_csv(path: str) -> ExperimentReport:
    with open(path, "r", encoding="utf-8") as fh:
        raw = [line.rstrip("\n") for line in fh]
    meta: dict[str, str] = {}
    rows = []
    header_seen = False
    for line in raw:
        if not line.strip():
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if "=" in body:
                key, value = body.split("=", 1)
                meta[key.strip()] = value.strip()
            continue
        if not header_seen:
            if tuple(line.split(",")) != CSV_COLUMNS:
                raise MalformedHeader(f"unexpected CSV columns in {path}: {line!r}")
            header_seen = True
            continue
        parts = line.split(",")
        if len(parts) != len(CSV_COLUMNS):
            raise MalformedHeader(f"bad CSV row in {path}: {line!r}")
        rows.append(
            KRecord(
                k=int(parts[0]),
                estimated_loss=float(parts[1]),
                true_ber=None if parts[2] == "" else float(parts[2]),
                wall_time_s=float(parts[3]),
            )
        )
    for key in ("method", "n", "alphabet", "k_star"):
        if key not in meta:
            raise MalformedHeader(f"missing '# {key}=' header in {path}")
    core_keys = {"method", "n", "alphabet", "k_star"}
    extras = tuple((key, value) for key, value in meta.items() if key not in core_keys)
    return ExperimentReport(
        method=meta["method"],
        n=int(meta["n"]),
        alphabet=tuple(meta["alphabet"].split(",")),
        k_star=int(meta["k_star"]),
        records=tuple(rows),
        meta=extras,
    )


def report_to_json(report: ExperimentReport, path: str) -> None:
    doc = {
        "method": report.method,
        "n": report.n,
        "alphabet": list(report.alphabet),
        "k_star": report.k_star,
        "meta": {key: value for key, value in report.meta},
        "records": [
            {
                "k": r.k,
                "estimated_loss": r.estimated_loss,
                "true_ber": r.true_ber,
                "wall_time_s": r.wall_time_s,
            }
            for r in report.records
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def report_from_json(path: str) -> ExperimentReport:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise MalformedHeader(f"cannot read report {path}: {exc}") from exc
    try:
        records = tuple(
            KRecord(
                k=int(r["k"]),
                estimated_loss=float(r["estimated_loss"]),
                true_ber=None if r["true_ber"] is None else float(r["true_ber"]),
                wall_time_s=float(r["wall_time_s"]),
            )
            for r in doc["records"]
        )
        return ExperimentReport(
            method=doc["method"],
            n=int(doc["n"]),
            alphabet=tuple(doc["alphabet"]),
            k_star=int(doc["k_star"]),
            records=records,
            meta=tuple((str(k), str(v)) for k, v in sorted(doc["meta"].items())),
        )
    except KeyError as exc:
        raise MalformedHeader(f"report {path} is missing field {exc}") from exc
