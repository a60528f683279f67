"""Property test of the CLI contract: every argv of every subcommand, at tiny
sizes and with edge values, ends in a documented exit code (0 to 3) with
no traceback, and a nonzero exit prints one stderr line."""
import contextlib
import io
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from smgopt.cli import main

EXIT_CODES = {0, 1, 2, 3}

EDGE = ["0", "-1", "nan", "inf", "-inf", "1e308", "1e-320"]
FLOATS = st.sampled_from(["0.01", "0.5", "0.9", "2"]) | st.sampled_from(EDGE)
FLOAT_LISTS = st.sampled_from(["0.1", "0.5,0.01"]) | st.sampled_from(
    ["", ",", "0.1,0.1", "nan", "0.01,inf", "-1,0.5", "1e308", "0,0.5", "1e-320", "abc"])
SEEDS = st.sampled_from(["0", "1", str(2 ** 64)]) | st.sampled_from(["-1", "x"])
INT_EDGE = st.sampled_from(["0", "-1", "1e308", "x"])
TINY = {"--T": ["1", "2", "3"], "--synth-n": ["1", "2", "8"], "--repeats": ["1", "2", "3"]}
DATASETS = {"missing": None, "empty": "", "malformed": "+1 1:x\n",
            "zero-index": "+1 0:1\n", "one-row": "+1 1:1\n",
            "tiny": "+1 1:0.5 3:1\n-1 2:1\n+1 1:1 2:0.25\n-1 3:0.5\n"}

EXPERIMENT_FLAGS = {
    **{flag: INT_EDGE for flag in TINY},
    "--algo": st.sampled_from(["smg", "ssmg", "sgd", "sgdm", "adam", "newton"]),
    "--beta": FLOATS,
    "--schedule": st.sampled_from(["constant", "diminishing", "exponential", "cosine",
                                   "linear"]),
    "--gamma": FLOATS,
    "--lambda": FLOATS,
    "--rho": FLOATS,
    "--strategy": st.sampled_from(["rr", "once", "inc", "random"]),
    "--seed": SEEDS,
    "--enforce-cap": st.none(),
    "--rr-scaling": st.none(),
    "--dataset": st.sampled_from(sorted(DATASETS)),
    "--synth-d": st.sampled_from(["1", "3"]) | INT_EDGE,
    "--synth-seed": SEEDS,
    "--synth-sep": FLOATS,
    "--reg": FLOATS,
    "--scale-features": st.none(),
}
COMMAND_FLAGS = {
    "run": {"--audit": st.none()},
    "audit": {},
    "grid": {"--paper-grids": st.none(), "--gamma-grid": FLOAT_LISTS,
             "--lambda-grid": FLOAT_LISTS, "--rho-grid": FLOAT_LISTS,
             "--beta-grid": FLOAT_LISTS, "--jobs": st.sampled_from(["2"]) | INT_EDGE},
    "rate": {"--horizons": st.sampled_from(["", "1", "1,2", "2,3", "1,2,3", "3,2", "2,2",
                                            "0,1", "-1,2", "1,x", ","])},
    "compare": {"--methods": st.sampled_from(["", "smg", "smg,smg", "smg,sgd,adam",
                                              "ssmg,sgdm", "newton", "smg,"])},
}


@st.composite
def argvs(draw):
    """A subcommand's argv: tiny sizes, then any subset of its flags, whose
    edge values may replace the sizes (the last of a repeated flag wins)."""
    command = draw(st.sampled_from([*COMMAND_FLAGS, "parse"]))
    if command == "parse":
        return [command, draw(st.sampled_from(sorted(DATASETS)))]
    argv = [command]
    for flag, values in TINY.items():
        argv += [flag, draw(st.sampled_from(values))]
    if command == "rate":
        argv += ["--horizons", "1,2"]   # the default horizons run up to T = 512
    flags = {**EXPERIMENT_FLAGS, **COMMAND_FLAGS[command]}
    for flag in draw(st.lists(st.sampled_from(sorted(flags)), unique=True, max_size=6)):
        value = draw(flags[flag])
        argv += [flag] if value is None else [flag, value]
    return argv


@pytest.fixture(scope="module")
def datasets(tmp_path_factory) -> dict:
    root = tmp_path_factory.mktemp("datasets")
    paths = {}
    for name, text in DATASETS.items():
        paths[name] = str(root / name)
        if text is not None:
            Path(paths[name]).write_text(text)
    return paths


@settings(max_examples=1000, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(argv=argvs())
def test_every_argv_ends_in_a_documented_exit_code(datasets, argv):
    # a dataset name stands for its file; later flags override earlier ones
    argv = [datasets.get(arg, arg) for arg in argv]
    stderr = io.StringIO()
    with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(stderr):
        code = main([*argv, "--out", out] if argv[0] != "parse" else argv)
    assert code in EXIT_CODES
    assert "Traceback" not in stderr.getvalue()
    if code:   # the error or refusal alone, with no warning before it
        assert len(stderr.getvalue().splitlines()) == 1
