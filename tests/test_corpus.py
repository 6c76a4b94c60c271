"""Byte-contract gate: every output of the corpus in ``tests/corpus.py``
against the digests pinned in ``tests/corpus_digests.json``."""

import json
from collections import Counter

import pytest

from corpus import DIGESTS, SLICES, corpus_specs, slice_digests
from mu2sod.groups import dot
from mu2sod.sod import assemble

PINS = json.loads(DIGESTS.read_text())


@pytest.mark.parametrize("name", SLICES)
def test_corpus_slice_digest(tmp_path, name):
    digest, cases = slice_digests(name, tmp_path)
    pinned = PINS[name]
    if digest != pinned["sha256"]:
        moved = [label for (label, h), pin in zip(cases, pinned["cases"]) if h != pin]
        first = moved[0] if moved else f"the case count, {len(cases)} against {len(pinned['cases'])}"
        pytest.fail(f"{name}: {len(moved)} of {len(cases)} outputs moved, the first at {first}")


def test_corpus_covers_the_edge_cases():
    seen = Counter()
    for spec in corpus_specs():
        report = assemble(spec)
        seen[spec.kind] += 1
        seen[f"dim {spec.dim}"] += 1
        seen[f"k = {spec.rank}"] += 1
        seen["non-effective"] += not report.effective
        seen["all-negating kernel"] += spec.kind != "affine" and any(
            all(dot(chi, g) for chi in spec.characters) for g in report.kernel
        )
        seen["split pair"] += any(c.split_index is not None for c in report.components)
        seen["undetermined"] += any(c.coarse == "undetermined" for c in report.components)
    required = ["affine", "projective", "fermat_quadric", "non-effective", "all-negating kernel"]
    required += ["split pair", "undetermined", *(f"dim {d}" for d in range(7)), *(f"k = {k}" for k in range(6))]
    assert all(map(seen.__getitem__, required)), seen
