"""Every file parser fails with a DenoiserError on random or damaged bytes,
and the CLI turns such files into exit code 2 or 3, never a traceback."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dudekit.baselines import parse_source_spec
from dudekit.channel import bsc, build_estimated_loss, hamming_loss, parse_channel_spec
from dudekit.cli import main
from dudekit.core import BINARY, Sequence
from dudekit.errors import DenoiserError
from dudekit.evaluation import (
    ExperimentReport,
    KRecord,
    report_from_csv,
    report_from_json,
    report_to_csv,
    report_to_json,
)
from dudekit.io import ImageGrid, load_pbm, load_sequence, save_pbm, save_sequence
from dudekit.neural import MLPDenoiser, load_checkpoint, save_checkpoint


# The tables and order the valid checkpoint is saved for, and loaded against.
CHECKPOINT_TABLES = build_estimated_loss(bsc(0.1), hamming_loss(BINARY))


def _valid_files(root):
    """One well-formed file per parser, as bytes, for truncation and damage."""
    seq_path = root / "seq.txt"
    save_sequence(Sequence.from_text("0110100111", BINARY), str(seq_path), meta={"kind": "x"})
    model_path = root / "model.npz"
    save_checkpoint(MLPDenoiser((3, 4), k=1, size=2), str(model_path), CHECKPOINT_TABLES)
    pbm_path = root / "img.pbm"
    save_pbm(ImageGrid(5, 3, np.arange(15) % 2), str(pbm_path))
    report = ExperimentReport(
        method="dude", n=10, alphabet=("0", "1"), k_star=1,
        records=(KRecord(1, 0.25, 0.1, 4, 0.5), KRecord(2, 0.3, None, 9, 0.25)),
        meta=(("seed", "0"),),
    )
    report_to_csv(report, str(root / "report.csv"))
    report_to_json(report, str(root / "report.json"))
    return {
        "sequence": seq_path.read_bytes(),
        "channel": b'{"alphabet": ["0", "1"], "channel": [[0.9, 0.1], [0.1, 0.9]],'
                   b' "loss": [[0, 1], [1, 0]]}',
        "source": b'{"alphabet": ["0", "1"], "transition": [[0.9, 0.1], [0.2, 0.8]],'
                  b' "initial": [0.5, 0.5]}',
        "checkpoint": model_path.read_bytes(),
        "pbm": pbm_path.read_bytes(),
        "report_csv": (root / "report.csv").read_bytes(),
        "report_json": (root / "report.json").read_bytes(),
    }


LOADERS = {
    "sequence": load_sequence,
    "channel": parse_channel_spec,
    "source": parse_source_spec,
    "checkpoint": lambda path: load_checkpoint(path, CHECKPOINT_TABLES, 1),
    "pbm": load_pbm,
    "report_csv": report_from_csv,
    "report_json": report_from_json,
}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    return root, _valid_files(root)


def _damaged(valid):
    """Random bytes, truncations of the valid file, and single-byte edits of it."""
    cut = st.integers(0, len(valid) - 1).map(lambda i: valid[:i])
    edit = st.tuples(st.integers(0, len(valid) - 1), st.integers(0, 255)).map(
        lambda e: valid[: e[0]] + bytes([e[1]]) + valid[e[0] + 1 :]
    )
    return st.one_of(st.binary(max_size=200), cut, edit)


@pytest.mark.parametrize("name", sorted(LOADERS))
def test_parsers_raise_only_denoiser_errors(workdir, name):
    root, valid = workdir
    path = root / f"fuzz-{name}"
    path.write_bytes(valid[name])
    LOADERS[name](str(path))  # the file the damaged inputs start from loads

    @settings(derandomize=True, max_examples=80, deadline=None, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(blob=_damaged(valid[name]))
    def check(blob):
        path.write_bytes(blob)
        try:
            LOADERS[name](str(path))
        except DenoiserError:
            pass

    check()


# CLI flag -> (file kind from _valid_files, denoise arguments); {file} is the damaged file.
CLI_CASES = {
    "input": ("sequence", "--input {file} --channel bsc:0.1 --method dude --k 1"),
    "clean": ("sequence", "--input {seq} --channel bsc:0.1 --method dude --k 1 --clean {file}"),
    "channel": ("channel", "--input {seq} --channel {file} --method dude --k 1"),
    "source": ("source", "--input {seq} --channel bsc:0.1 --method fb --source {file}"),
    "load-model": ("checkpoint",
                   "--input {seq} --channel bsc:0.1 --method ndude --k 1 --load-model {file}"),
}


@pytest.mark.parametrize("flag", sorted(CLI_CASES))
def test_cli_exit_codes_on_damaged_files(workdir, flag):
    root, valid = workdir
    kind, argv = CLI_CASES[flag]
    path = root / f"cli-{flag}"
    args = ["denoise", *[a.format(seq=root / "seq.txt", file=path) for a in argv.split()],
            "--output", str(root / "cli-out.txt")]
    path.write_bytes(valid[kind])
    assert main(args) == 0  # the file the damaged inputs start from works

    @settings(derandomize=True, max_examples=30, deadline=None, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(blob=_damaged(valid[kind]))
    def check(blob):
        path.write_bytes(blob)
        assert main(args) in (0, 2, 3)

    check()
