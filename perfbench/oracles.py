"""Checks on the CLI outputs, run outside the timed region.

``check`` returns a list of problems with one invocation's result (empty
when it is correct).  The oracles use only the manifest's expectations,
which ``inputs.py`` computed with its own sign arithmetic, and the
output itself:

* every invocation exits 0 with no exception and no error text;
* an output whose input is in ``digests.json`` must match the SHA-256
  recorded there byte for byte (presets on every seed, random inputs on
  the default seed);
* effective projective specs: total rank is the closed form (n+1)*2^k,
  and the reported kernel has the independently computed order;
* gram: unipotent upper triangular with binomial diagonal blocks
  C(m + b - a, m) for a block of size m + 1;
* mutate: the round trip returns the identity vectors and the original
  blocks, semiorthogonal and unimodular;
* verify: every line passes, except projective-rank, which must be
  skipped exactly when the spec is not an effective projective one.
"""

from __future__ import annotations

import hashlib
import json
from math import comb
from pathlib import Path

DIGESTS = Path(__file__).resolve().parent / "digests.json"


def load_digests() -> dict:
    return json.loads(DIGESTS.read_text(encoding="utf-8"))["outputs"] if DIGESTS.exists() else {}


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def check(item: dict, result: dict, digests: dict) -> list[str]:
    problems = []
    if result["exception"]:
        problems.append(f"raised {result['exception']}")
    if result["code"] != 0 or result["stderr"]:
        problems.append(f"exit code {result['code']}: {result['stderr'].strip()[:200]}")
    if problems:
        return problems
    want = digests.get(item["key"])
    if want is not None and want != digest(result["stdout"]):
        problems.append("output differs from the recorded digest")
    try:
        doc = json.loads(result["stdout"])
    except json.JSONDecodeError as exc:
        return problems + [f"output is not JSON: {exc}"]
    expect = item["expect"]
    try:
        return problems + CHECKS[expect["command"]](doc, expect)
    except (KeyError, TypeError, IndexError) as exc:
        return problems + [f"output has an unexpected shape: {exc!r}"]


def _check_spec_flags(flags: dict, expect: dict) -> list[str]:
    problems = []
    if len(flags["kernel"]) != expect["kernel_order"]:
        problems.append(f"kernel of order {len(flags['kernel'])}, expected {expect['kernel_order']}")
    if flags["effective"] != (expect["kernel_order"] == 1):
        problems.append(f"effective={flags['effective']} with kernel order {expect['kernel_order']}")
    return problems


def _check_total(total: int, expect: dict) -> list[str]:
    want = expect["closed_form_rank"]
    if want is not None and total != want:
        return [f"total rank {total}, closed form (n+1)*2^k gives {want}"]
    return []


def check_analyze(doc: dict, expect: dict) -> list[str]:
    total = sum(c["rank"] for c in doc["components"])
    return _check_spec_flags(doc["flags"], expect) + _check_total(total, expect)


def check_sod(doc: dict, expect: dict) -> list[str]:
    problems = _check_spec_flags(doc["flags"], expect) + _check_total(doc["total_rank"], expect)
    if sum(c["rank"] for c in doc["components"]) != doc["total_rank"]:
        problems.append("component ranks do not sum to total_rank")
    moves = doc["msodc"]["moves"]
    if any(m["direction"] != "left" or not isinstance(m["orthogonal"], bool) for m in moves):
        problems.append("plan has a move that is not a left move with a known orthogonality")
    if sorted(doc["msodc"]["block_order"]) != doc["order"]:
        problems.append("plan block order is not a permutation of the components")
    return problems


def check_gram(doc: dict, expect: dict) -> list[str]:
    matrix, blocks = doc["matrix"], doc["blocks"]
    n = len(matrix)
    problems = _check_total(n, expect)
    if not doc["triangular"]:
        problems.append("Gram reported not triangular")
    if any(matrix[i][i] != 1 for i in range(n)) or any(matrix[i][j] for i in range(n) for j in range(i)):
        problems.append("Gram is not unipotent upper triangular")
    start = 0
    for size in blocks:
        m = size - 1
        block = [row[start : start + size] for row in matrix[start : start + size]]
        want = [[comb(m + b - a, m) if b >= a else 0 for b in range(size)] for a in range(size)]
        if block != want:
            problems.append(f"diagonal block at row {start} is not binomial")
        start += size
    if start != n:
        problems.append(f"blocks cover {start} of {n} rows")
    return problems


def check_mutate(doc: dict, expect: dict) -> list[str]:
    problems = []
    n = len(doc["vectors"])
    if doc["vectors"] != [[int(i == j) for j in range(n)] for i in range(n)]:
        problems.append("round trip did not return the identity vectors")
    if doc["blocks"] != expect["blocks"]:
        problems.append("round trip did not return the original blocks")
    if not (doc["semiorthogonal"] and doc["unimodular"]):
        problems.append(f"semiorthogonal={doc['semiorthogonal']} unimodular={doc['unimodular']}")
    if len(doc["moves"]) != expect["moves"]:
        problems.append(f"{len(doc['moves'])} move records for {expect['moves']} moves")
    return problems


def check_verify(doc: list, expect: dict) -> list[str]:
    problems = []
    if not expect.get("battery") and len(doc) != 2:
        problems.append(f"{len(doc)} check lines for a spec, expected 2")
    for line in doc:
        should_skip = (
            line["name"].startswith("projective-rank")
            and not expect.get("battery")
            and expect["closed_form_rank"] is None
        )
        want = "skipped" if should_skip else "pass"
        if line["status"] != want:
            problems.append(f"{line['name']}: {line['status']}, expected {want}")
    return problems


CHECKS = {
    "analyze": check_analyze,
    "sod": check_sod,
    "gram": check_gram,
    "mutate": check_mutate,
    "verify": check_verify,
}
