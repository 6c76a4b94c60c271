"""The byte-contract corpus: every output byte of ``analyze``, ``sod``,
``verify <spec>`` (human and ``--json``) on seeded specs of all three
kinds, of ``gram`` on the projective ones, and the exit code, stdout and
stderr of a few malformed inputs.

The specs have dimension 0-6 and group rank 0-5.  They include
non-effective actions, kernels that hold the element negating every
coordinate, split point pairs and undetermined coarse kinds.
``corpus_digests.json`` pins one SHA-256 per slice (a command and a
format) and a short hash per case, so a failure names the slice and the
first case whose output moved.  The pins change only in a commit that
changes the output contract on purpose; re-record them with

    PYTHONPATH=src python tests/corpus.py --record

Stdlib only, so that any interpreter can check the bytes without pytest.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
import tempfile
from pathlib import Path

from mu2sod.cli import main
from mu2sod.groups import make_spec

DIGESTS = Path(__file__).with_name("corpus_digests.json")

SLICES = [
    *(f"{command}{flag}" for command in ("analyze", "sod", "verify", "gram") for flag in ("", " --json")),
    "malformed",
]

# (command, spec file text) -> an input error; the missing file is a relative
# path that does not exist, so its message names no temporary directory
MALFORMED = [
    ("analyze", "{"),
    ("analyze", "[1, 2]"),
    ("sod", '{"space": {"kind": "projective"}, "group_rank": 0, "action": []}'),
    ("analyze", '{"space": {"kind": "torus", "dim": 1}, "group_rank": 0, "action": []}'),
    ("sod", '{"space": {"kind": "affine", "dim": -1}, "group_rank": 0, "action": []}'),
    ("analyze", '{"space": {"kind": "projective", "dim": 1}, "group_rank": 2, "action": [[1, 0]]}'),
    ("verify", '{"space": {"kind": "projective", "dim": 1}, "group_rank": 1, "action": [[1, 0, 1]]}'),
    ("analyze", '{"space": {"kind": "projective", "dim": 1}, "group_rank": 1, "action": [[1, 2]]}'),
    ("sod", '{"space": {"kind": "affine", "dim": 1}, "group_rank": 2, "action": [[1], [0]]}'),
    ("analyze", '{"space": {"kind": "projective", "dim": 17}, "group_rank": 0, "action": []}'),
    ("gram", '{"space": {"kind": "affine", "dim": 2}, "group_rank": 1, "action": [[1, 0]]}'),
    ("gram", '{"space": {"kind": "fermat_quadric", "dim": 1}, "group_rank": 1, "action": [[1, 0, 0]]}'),
    ("analyze", None),
]


def corpus_specs():
    """The corpus's specs: fixed edge cases, then 144 seeded specs of all
    three kinds, a third of the projective and quadric ones with the
    element negating every coordinate as their last generator."""
    specs = [make_spec(kind, 0, []) for kind in ("affine", "projective", "fermat_quadric")]
    specs += [
        make_spec("projective", 0, [[1]]),
        make_spec("fermat_quadric", 0, [[1, 1]]),
        make_spec("affine", 2, [[1, 1]]),
        make_spec("affine", 3, [[1, 1, 0], [0, 1, 1], [1, 0, 0]]),
        make_spec("fermat_quadric", 2, [[1, 1, 0, 0]]),
        make_spec("projective", 2, [[1, 0, 0]]),
        make_spec("projective", 3, [[1, 1, 1, 1], [1, 0, 0, 0]]),
        make_spec("fermat_quadric", 3, [[1] * 5, [1, 1, 0, 0, 0]]),
        make_spec("projective", 6, [[int(i == j) for j in range(7)] for i in range(4)]),
    ]
    rng = random.Random(31)
    for i in range(144):
        kind = ("affine", "projective", "fermat_quadric")[i % 3]
        dim = rng.randint(0, 6)
        coords = dim + {"affine": 0, "projective": 1, "fermat_quadric": 2}[kind]
        # at most 128 objects on a projective space, whose sod builds a Gram
        k = rng.randint(0, min(5, coords) if kind == "affine" else 5)
        while kind == "projective" and coords << k > 128:
            k -= 1
        rows = [[rng.randint(0, 1) for _ in range(coords)] for _ in range(k)]
        if i % 9 >= 6 and kind != "affine" and k:
            rows[-1] = [1] * coords
        specs.append(make_spec(kind, dim, rows))
    return specs


def _run(argv) -> str:
    """``main(argv)``'s exit code, stdout and stderr as one text."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return f"exit {code}, {len(out.getvalue())} + {len(err.getvalue())} characters\n{out.getvalue()}{err.getvalue()}"


def slice_cases(name: str, workdir: Path):
    """(label, output text) of each case of the slice ``name``, in order."""
    path = workdir / "spec.json"
    if name == "malformed":
        for command, text in MALFORMED:
            if text is None:
                yield f"{command} no-such-dir/spec.json", _run([command, "no-such-dir/spec.json"])
                continue
            path.write_text(text)
            yield f"{command} {text}", _run([command, str(path)])
        return
    command, *flags = name.split()
    for spec in corpus_specs():
        if command == "gram" and spec.kind != "projective":
            continue
        path.write_text(json.dumps(spec.to_dict()))
        yield json.dumps(spec.to_dict()), _run([command, str(path), *flags])


def case_hash(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def slice_digests(name: str, workdir: Path) -> tuple[str, list[tuple[str, str]]]:
    """The slice's SHA-256 over all its texts, and each case's label and short hash."""
    digest, cases = hashlib.sha256(), []
    for label, text in slice_cases(name, workdir):
        digest.update(text.encode())
        cases.append((label, case_hash(text)))
    return digest.hexdigest(), cases


def record() -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        pins = {}
        for name in SLICES:
            digest, cases = slice_digests(name, Path(tmp))
            pins[name] = {"sha256": digest, "cases": [h for _, h in cases]}
    return pins


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    DIGESTS.write_text(json.dumps(record(), indent=1) + "\n")
