#!/usr/bin/env python3
"""Compare the LIBSVM parsers of two source trees on generated texts.

    python scripts/compare_parsers.py OLD_TREE NEW_TREE [COUNT]

Each tree is a checkout of this repository (a directory holding src/smgopt).
COUNT texts (default 6000) are drawn with hypothesis.  About two in three
are clean multi-line texts that parse: binary labels, strictly increasing
indices, and values that are repr floats or digit strings.  The rest are
the TEXT strategy of tests/test_reference_oracles.py (read from this
script's checkout), lines with indices past int64, nan, inf and 1e400
values, and texts with a lone surrogate inserted.  About half are parsed
from a text stream and half from a file of their bytes, where a surrogate
that surrogateescape maps to a byte is written as that undecodable byte.
The outcomes must be equal: the CSR arrays byte for byte (dtypes included)
and the dimension, or the same error line and message.  The first
difference is printed and the exit code is 1; otherwise the exit code is
0.  Needs the test extras.
"""
import importlib.util
import io
import sys
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "tests"), str(ROOT / "src")]
from test_reference_oracles import JUNK, LABEL, SEPARATOR, TEXT, VALUE  # noqa: E402

BIG = st.sampled_from(["9223372036854775807", "9223372036854775808",
                       "-9223372036854775809", "99999999999999999999", "1" * 25])
ODD = st.sampled_from(["nan", "inf", "-inf", "1e400", "-1e400", "NaN", "Infinity"])
SURROGATE = st.sampled_from(["\udcff", "\udc80", "\udcfe", "\ud800"])
TOKEN = (st.builds("{}:{}".format, BIG, VALUE | ODD)
         | st.builds("{}:{}".format, st.integers(1, 40), ODD) | JUNK)
LINE = st.builds(lambda label, tokens, sep: sep.join([label] + tokens),
                 LABEL | ODD, st.lists(TOKEN, max_size=4), SEPARATOR)
FUZZ = (TEXT | st.builds("\n".join, st.lists(LINE | st.just(""), max_size=6))
        | st.builds(lambda text, char, at: text[:at] + char + text[at:],
                    TEXT, SURROGATE, st.integers(0, 400)))
CLEAN_VALUE = (st.floats(allow_nan=False, allow_infinity=False).map(repr)
               | st.integers(-10**20, 10**20).map(str)
               | st.sampled_from(["-0", "+007", "1e-05", "-2.5E-07", "1.", ".5"]))
CLEAN_INDICES = st.lists(st.integers(1, 10**6) | st.integers(1, 2**63 - 1),
                         unique=True, max_size=15).map(sorted)
CLEAN_LINE = st.builds(
    lambda label, idx, values: " ".join([label] + [f"{i}:{v}" for i, v in zip(idx, values)]),
    st.sampled_from(["+1", "-1", "1", "0"]), CLEAN_INDICES,
    st.lists(CLEAN_VALUE, min_size=15, max_size=15))
CLEAN = st.builds(lambda lines: "".join(line + "\n" for line in lines),
                  st.lists(CLEAN_LINE, min_size=1, max_size=40))
TEXTS = st.integers(0, 2).flatmap(lambda k: CLEAN if k else FUZZ)


def load(tree: Path, name: str):
    """The dataio module of tree's smgopt, imported as the package name."""
    spec = importlib.util.spec_from_file_location(
        name, tree / "src" / "smgopt" / "__init__.py",
        submodule_search_locations=[str(tree / "src" / "smgopt")])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return importlib.import_module(f"{name}.dataio")


def outcome(dataio, text: str, directory):
    """The parse of text (from a file under directory, if given) as comparable
    values, or None when text has no bytes to write."""
    try:
        if directory is None:
            dataset, d = dataio.parse_libsvm(io.StringIO(text))
        else:
            path = Path(directory) / dataio.__name__
            path.write_bytes(text.encode("utf-8", "surrogateescape"))
            dataset, d = dataio.parse_libsvm(path)
    except dataio.ParseError as exc:
        return ("error", exc.line_number, str(exc))
    except UnicodeEncodeError:
        return None
    return ("rows", d, [(a.dtype.str, a.tobytes()) for a in
                        (dataset.indptr, dataset.indices, dataset.values, dataset.labels)])


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) not in (2, 3):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    old, new = (load(Path(tree).resolve(), name) for tree, name in
                zip(args, ("old_smgopt", "new_smgopt")))
    seen = {"rows": 0, "error": 0, "file": 0}

    @settings(max_examples=int(args[2]) if len(args) == 3 else 6000, deadline=None,
              database=None, suppress_health_check=list(HealthCheck))
    @given(TEXTS, st.booleans())
    def check(text, from_file):
        with tempfile.TemporaryDirectory() as directory:
            pair = [outcome(dataio, text, directory if from_file else None)
                    for dataio in (old, new)]
        if pair[0] is None:   # a surrogate no byte decodes to: read it as text
            from_file = False
            pair = [outcome(dataio, text, None) for dataio in (old, new)]
        assert pair[0] == pair[1], (text, *pair)
        seen[pair[0][0]] += 1
        seen["file"] += from_file

    try:
        check()
    except AssertionError as exc:
        print(f"outcomes differ: {exc}")
        return 1
    print(f"{seen['rows'] + seen['error']} texts, equal outcomes: {seen['rows']} parsed, "
          f"{seen['error']} errors; {seen['file']} read from files")
    return 0


if __name__ == "__main__":
    sys.exit(main())
