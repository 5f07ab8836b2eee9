"""Command-line entry point.

Subcommands: simulate (draw a source path and corrupt it), denoise (one
method at one context order), sweep (scan context orders and pick the
working one from noisy data), eval (score a reconstruction against the
clean sequence).

Exit codes: 0 success, 1 usage error, 2 bad input data, 3 numerical
failure. All outputs are deterministic functions of the arguments; the
only fields that vary between identical runs are wall-time measurements
inside sweep reports.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import replace

import numpy as np

from . import baselines, dude, evaluation, io, neural
from .channel import build_estimated_loss, hamming_loss, parse_channel_spec
from .errors import DataError, DenoiserError, NumericalError
from .evaluation import sweep_k, symbol_error_rate, true_loss
from .neural import TrainConfig


class _Parser(argparse.ArgumentParser):
    """ArgumentParser whose usage failures exit 1 instead of 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


class _UsageError(Exception):
    """Bad flag combination detected after parsing; exits like a parse error."""


def _fingerprint(payload: dict) -> str:
    """Digest of the run configuration, embedded in every output."""
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


def _source_id(spec: str) -> str:
    """--source as outputs record it: a JSON file by a digest of its bytes,
    so outputs do not depend on the directory; a built-in spec as written."""
    if spec.startswith("bsmc:"):
        return spec
    with open(spec, "rb") as fh:
        return "json-sha256:" + hashlib.sha256(fh.read()).hexdigest()[:16]


def _parse_hidden(text: str) -> tuple[int, ...]:
    try:
        dims = tuple(int(tok) for tok in text.split(",") if tok != "")
    except ValueError as exc:
        raise DataError(f"bad hidden layer spec {text!r}") from exc
    if any(d < 1 for d in dims):
        raise DataError(f"hidden layer sizes must be positive, got {text!r}")
    return dims


def _train_config(args) -> TrainConfig:
    return TrainConfig(
        epochs=args.epochs,
        minibatch_size=args.minibatch,
        learning_rate=args.lr,
        rng_seed=args.seed,
    )


def _add_train_flags(sub):
    sub.add_argument("--hidden", default="40,40,40", help="hidden layer sizes, comma separated")
    sub.add_argument("--epochs", type=int, default=10)
    sub.add_argument("--minibatch", type=int, default=100)
    sub.add_argument("--lr", type=float, default=0.001)


def _cmd_simulate(args) -> int:
    source = baselines.parse_source_spec(args.source, rng_seed=args.seed)
    chan, _ = parse_channel_spec(args.channel)
    if source.alphabet != chan.alphabet:
        raise DataError("source and channel alphabets differ")
    source_id = _source_id(args.source)
    fp = _fingerprint(
        {
            "cmd": "simulate",
            "source": source_id,
            "channel": args.channel,
            "n": args.n,
            "seed": args.seed,
        }
    )
    x = baselines.generate_source(source, args.n)
    # Corruption draws from its own stream so source and noise decouple.
    z = baselines.corrupt(x, chan, rng_seed=args.seed + 1)
    common = {
        "source": source_id,
        "channel": args.channel,
        "seed": str(args.seed),
        "fingerprint": fp,
    }
    io.save_sequence(x, args.out_clean, {"kind": "clean", **common})
    rate = float(np.mean(x.data != z.data))
    io.save_sequence(
        z, args.out_noisy, {"kind": "noisy", "empirical_error_rate": repr(rate), **common}
    )
    print(f"n={args.n} empirical_error_rate={rate:.6f}")
    return 0


def _cmd_denoise(args) -> int:
    chan, loss = parse_channel_spec(args.channel)
    z, _ = io.load_sequence(args.input, chan.alphabet)
    fp = _fingerprint(
        {
            "cmd": "denoise",
            "method": args.method,
            "channel": args.channel,
            "k": args.k,
            "seed": args.seed,
            "hidden": args.hidden,
            "epochs": args.epochs,
            "minibatch": args.minibatch,
            "lr": args.lr,
            "source": _source_id(args.source) if args.source else None,
        }
    )
    meta = {"method": args.method, "channel": args.channel, "fingerprint": fp}
    if args.method in ("dude", "ndude"):
        if args.k is None:
            raise _UsageError(f"--k is required for method {args.method}")
        tables = build_estimated_loss(chan, loss)
        meta["k"] = str(args.k)
    if args.method == "dude":
        xhat = dude.dude_denoise(z, args.k, tables=tables)
    elif args.method == "ndude":
        if args.load_model:
            net, ckpt_meta = neural.load_checkpoint(args.load_model)
            neural.check_checkpoint(ckpt_meta, tables, k=args.k)
        else:
            net = neural.train(z, args.k, tables, _parse_hidden(args.hidden), _train_config(args))
        if args.save_model:
            neural.save_checkpoint(net, args.save_model, tables)
        xhat = neural.denoise(z, net, tables)
    else:  # fb
        if not args.source:
            raise _UsageError("--source is required for method fb")
        spec = baselines.HMMSpec(baselines.parse_source_spec(args.source), chan)
        xhat = baselines.forward_backward_denoise(z, spec, loss)
    io.save_sequence(xhat, args.output, meta)
    line = f"method={args.method} n={len(z)}"
    if args.clean:
        x, _ = io.load_sequence(args.clean, chan.alphabet)
        ber = symbol_error_rate(x, xhat)
        mean_loss = true_loss(x, xhat, loss)
        line += f" symbol_error_rate={ber:.6f} mean_loss={mean_loss:.6f}"
    print(line)
    return 0


def _cmd_sweep(args) -> int:
    chan, loss = parse_channel_spec(args.channel)
    tables = build_estimated_loss(chan, loss)
    fp = _fingerprint(
        {
            "cmd": "sweep",
            "method": args.method,
            "channel": args.channel,
            "kmin": args.kmin,
            "kmax": args.kmax,
            "seed": args.seed,
            "hidden": args.hidden,
            "epochs": args.epochs,
            "minibatch": args.minibatch,
            "lr": args.lr,
            "image": bool(args.image),
        }
    )
    grid = None
    if args.image:
        if args.input or args.clean:
            raise _UsageError("--image replaces --input/--clean")
        grid = io.load_pbm(args.image)
        clean = io.rasterize(grid)
        if chan.alphabet != clean.alphabet:
            raise DataError("image sweeps need a binary channel")
        z = baselines.corrupt(clean, chan, rng_seed=args.seed + 1)
        if args.out_noisy:
            io.save_pbm(io.derasterize(z, grid.width, grid.height), args.out_noisy)
    else:
        if not args.input:
            raise _UsageError("either --input or --image is required")
        z, _ = io.load_sequence(args.input, chan.alphabet)
        clean = None
        if args.clean:
            clean, _ = io.load_sequence(args.clean, chan.alphabet)
    if args.kmin < 0 or args.kmax < args.kmin:
        raise _UsageError(f"bad context order range [{args.kmin}, {args.kmax}]")
    report, recon = sweep_k(
        z,
        tables,
        range(args.kmin, args.kmax + 1),
        method=args.method,
        clean=clean,
        hidden=_parse_hidden(args.hidden),
        config=_train_config(args),
    )
    report = replace(report, meta=report.meta + (("cli_fingerprint", fp),))
    evaluation.report_to_csv(report, args.report)
    if args.json:
        evaluation.report_to_json(report, args.json)
    if args.output:
        if grid is not None:
            io.save_pbm(io.derasterize(recon, grid.width, grid.height), args.output)
        else:
            io.save_sequence(
                recon,
                args.output,
                {"method": args.method, "k": str(report.k_star), "fingerprint": fp},
            )
    best = next(r for r in report.records if r.k == report.k_star)
    line = f"method={args.method} k_star={report.k_star} estimated_loss={best.estimated_loss:.6f}"
    if best.true_ber is not None:
        line += f" true_ber={best.true_ber:.6f}"
    print(line)
    return 0


def _cmd_eval(args) -> int:
    if args.channel:
        chan, loss = parse_channel_spec(args.channel)
        alphabet = chan.alphabet
        x, _ = io.load_sequence(args.clean, alphabet)
    else:
        x, _ = io.load_sequence(args.clean)
        alphabet = x.alphabet
        loss = hamming_loss(alphabet)
    xhat, _ = io.load_sequence(args.recon, alphabet)
    ber = symbol_error_rate(x, xhat)
    mean_loss = true_loss(x, xhat, loss)
    print(f"n={len(x)} symbol_error_rate={ber:.6f} mean_loss={mean_loss:.6f}")
    if args.json:
        doc = {"n": len(x), "symbol_error_rate": ber, "mean_loss": mean_loss}
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dudekit", description="Discrete denoising toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="sample a Markov source and corrupt it")
    sim.add_argument("--source", required=True, help="'bsmc:<alpha>' or a JSON file")
    sim.add_argument("--channel", required=True, help="'bsc:<d>', 'dsc:<labels>:<d>', or JSON")
    sim.add_argument("--n", type=int, required=True)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--out-clean", required=True)
    sim.add_argument("--out-noisy", required=True)
    sim.set_defaults(func=_cmd_simulate)

    den = sub.add_parser("denoise", help="denoise one sequence at a fixed context order")
    den.add_argument("--input", required=True, help="noisy sequence file")
    den.add_argument("--channel", required=True)
    den.add_argument("--method", required=True, choices=("dude", "ndude", "fb"))
    den.add_argument("--k", type=int, default=None, help="context order (dude, ndude)")
    den.add_argument("--output", required=True)
    den.add_argument("--clean", default=None, help="clean sequence for scoring")
    den.add_argument("--source", default=None, help="source spec (fb only)")
    den.add_argument("--seed", type=int, default=0)
    den.add_argument("--save-model", default=None)
    den.add_argument("--load-model", default=None)
    _add_train_flags(den)
    den.set_defaults(func=_cmd_denoise)

    sw = sub.add_parser("sweep", help="scan context orders and select one from noisy data")
    sw.add_argument("--input", default=None, help="noisy sequence file")
    sw.add_argument("--image", default=None, help="clean bitmap; corrupted internally")
    sw.add_argument("--out-noisy", default=None, help="write the corrupted bitmap (image mode)")
    sw.add_argument("--channel", required=True)
    sw.add_argument("--method", required=True, choices=("dude", "ndude"))
    sw.add_argument("--kmin", type=int, default=1)
    sw.add_argument("--kmax", type=int, required=True)
    sw.add_argument("--clean", default=None)
    sw.add_argument("--seed", type=int, default=0)
    sw.add_argument("--report", required=True, help="per-k CSV output")
    sw.add_argument("--json", default=None, help="full report as JSON")
    sw.add_argument("--output", default=None, help="reconstruction at the selected order")
    _add_train_flags(sw)
    sw.set_defaults(func=_cmd_sweep)

    ev = sub.add_parser("eval", help="score a reconstruction against the clean sequence")
    ev.add_argument("--clean", required=True)
    ev.add_argument("--recon", required=True)
    ev.add_argument("--channel", default=None, help="supplies the loss; default Hamming")
    ev.add_argument("--json", default=None)
    ev.set_defaults(func=_cmd_eval)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"dudekit: usage error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"dudekit: numerical error: {exc}", file=sys.stderr)
        return 3
    except DenoiserError as exc:
        print(f"dudekit: error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"dudekit: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
