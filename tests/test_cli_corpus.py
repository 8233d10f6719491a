"""Byte-identity corpus for the CLI commands that find no roots.

``cli_corpus.json`` maps each command line (argv, and its stdin text or
null) to the sha256 of ``json.dumps([exit_code, stdout, stderr])``, run in
process through ``main(argv, standalone_mode=False)``.  The commands depend
only on Python ints, ``Fraction``, the seeded ``random`` module and
``json``, never on LAPACK, so the hashes are the same on every machine.

Run as a script from the repository root:

    PYTHONPATH=src python tests/test_cli_corpus.py --check
    PYTHONPATH=src python tests/test_cli_corpus.py --write

``--check`` runs every command of the manifest in this interpreter, exits 1
naming the first command whose hash differs, and asserts that numpy was
never loaded.  ``--write`` rebuilds the manifest from ``CORPUS`` on the
current tree: a change that alters output on purpose rewrites it in the
same commit and names the commands whose hashes moved.
"""

import contextlib
import hashlib
import io
import json
import os
import sys

from signspectra.cli import main
from signspectra.verify import _all_inertia_tuples

MANIFEST = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_corpus.json")

CORPUS = (
    [(["inertia", *map(str, nu)], None) for nu in _all_inertia_tuples()]
    + [
        (["verify", "identities", "--samples", "200"], None),
        (["verify", "identities", "--samples", "1000", "--seed", "42"], None),
        (["verify", "identities", "--samples", "1000", "--seed", "7"], None),
        (["verify", "identities", "--samples", "1000", "--seed", "2024"], None),
        (["verify", "divisors"], None),
    ]
    + [(["pattern", name], None) for name in ("U3", "S", "Sprime")]
    + [(["pattern", "V", "--t", "4", "--d", "6"], None)]
)


def digest(argv, stdin):
    """sha256 of the exit code, stdout and stderr of one in-process run."""
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin or "")
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv, standalone_mode=False)
    finally:
        sys.stdin = saved
    blob = json.dumps([code, out.getvalue(), err.getvalue()]).encode()
    return hashlib.sha256(blob).hexdigest()


def load_manifest():
    with open(MANIFEST) as fh:
        return json.load(fh)["commands"]


def first_mismatch(commands):
    """The first manifest entry whose hash differs on this tree, or None."""
    for entry in commands:
        if digest(entry["argv"], entry["stdin"]) != entry["sha256"]:
            return entry
    return None


def test_manifest_lists_the_corpus():
    assert [(e["argv"], e["stdin"]) for e in load_manifest()] == CORPUS
    assert len(CORPUS) == 95 + 5 + 4


def test_cli_output_is_byte_identical_to_the_manifest():
    bad = first_mismatch(load_manifest())
    assert bad is None, f"output changed: {' '.join(bad['argv'])} (stdin {bad['stdin']!r})"


def _write():
    commands = [{"argv": argv, "stdin": stdin, "sha256": digest(argv, stdin)} for argv, stdin in CORPUS]
    # one command a line, so that a diff names the commands whose hashes moved
    lines = ",\n".join(json.dumps(c) for c in commands)
    with open(MANIFEST, "w") as fh:
        fh.write(f'{{"hash": "sha256 of json.dumps([exit_code, stdout, stderr])",\n"commands": [\n{lines}\n]}}\n')


def _check():
    bad = first_mismatch(load_manifest())
    if bad is not None:
        sys.exit(f"output changed: {' '.join(bad['argv'])} (stdin {bad['stdin']!r})")
    assert "numpy" not in sys.modules, "a corpus command loaded numpy"


if __name__ == "__main__":
    if sys.argv[1:] == ["--write"]:
        _write()
    elif sys.argv[1:] == ["--check"]:
        _check()
    else:
        sys.exit("usage: test_cli_corpus.py --check | --write")
