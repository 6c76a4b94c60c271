"""Golden-output gate: the ``--json`` bytes of ``gram``, ``sod`` and
``mutate`` on the preset ladder are pinned by SHA-256.

The mutate input is the identity sequence on the preset's Gram form,
blocked by component rank; its script is the ``sod`` regrouping plan's
left moves followed by the inverse right moves of the plan's second
half, so the final vectors are not the identity and both directions are
exercised.  A digest changes only when an output byte changes.
"""

import hashlib
import json

import pytest

from mu2sod.cli import main

PRESETS = {
    "p2-example": ["--preset", "p2-example"],
    "pn-full-2": ["--preset", "pn-full", "--n", "2"],
    "pn-full-3": ["--preset", "pn-full", "--n", "3"],
    "pn-full-4": ["--preset", "pn-full", "--n", "4"],
}

GOLDEN = {
    "gram p2-example": "406a0fde51001c52e29492a07818260a22b21588843f6bdacd10f5af12cef83c",
    "sod p2-example": "98aff740fc4973b59a3045701a15d202785edb22b5d5158eee333615b30862fe",
    "mutate p2-example": "004bb62cdca4813aab964a083fe60af5ff83df011f73cc65f09c57ec0ca56005",
    "gram pn-full-2": "406a0fde51001c52e29492a07818260a22b21588843f6bdacd10f5af12cef83c",
    "sod pn-full-2": "98aff740fc4973b59a3045701a15d202785edb22b5d5158eee333615b30862fe",
    "mutate pn-full-2": "004bb62cdca4813aab964a083fe60af5ff83df011f73cc65f09c57ec0ca56005",
    "gram pn-full-3": "1d6f65a1566616edcae591e970ee5b7405b135386d56c9d087f586fc8a0a977e",
    "sod pn-full-3": "1ba5884f8727d8095b7793fcbbc22d5c352fd8372815adc96918bfbcc511d3e2",
    "mutate pn-full-3": "84788c89839b84e40fbe55f28dd583241b7855acc0a76a910481bef486d3f732",
    "gram pn-full-4": "62594b8635527ba3359630c17a3309bcb8ff97d9a070030e18bd32aa198ea56e",
    "sod pn-full-4": "0ba9426cb231d695470400c94a04e157f7ac5ca6add6530bd505d24e32a9b4bd",
    "mutate pn-full-4": "583cb3a77aad379e66fa230eb9b29495f720f8dd2a5ed67ea36a82483fe62f5d",
}


def _run(capsys, argv) -> str:
    assert main(argv) == 0
    return capsys.readouterr().out


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def golden_outputs(capsys, tmp_path, name: str) -> dict[str, str]:
    args = PRESETS[name]
    gram_out = _run(capsys, ["gram", *args, "--json"])
    sod_out = _run(capsys, ["sod", *args, "--json"])
    gram_doc, sod_doc = json.loads(gram_out), json.loads(sod_out)
    n = len(gram_doc["matrix"])
    sequence = {
        "form": gram_doc["matrix"],
        "vectors": [[int(i == j) for j in range(n)] for i in range(n)],
        "blocks": [c["rank"] for c in sod_doc["components"]],
    }
    moves = [{"block": m["block"], "direction": "left"} for m in sod_doc["msodc"]["moves"]]
    undo = [{"block": m["block"] - 1, "direction": "right"} for m in moves[len(moves) // 2 :]]
    seq_path, script_path = tmp_path / f"{name}-seq.json", tmp_path / f"{name}-script.json"
    seq_path.write_text(json.dumps(sequence))
    script_path.write_text(json.dumps(moves + undo[::-1]))
    mutate_out = _run(capsys, ["mutate", str(seq_path), "--script", str(script_path), "--json"])
    return {f"gram {name}": gram_out, f"sod {name}": sod_out, f"mutate {name}": mutate_out}


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_golden_json_digests(capsys, tmp_path, name):
    outputs = golden_outputs(capsys, tmp_path, name)
    assert json.loads(outputs[f"mutate {name}"])["semiorthogonal"] is True
    for key, text in outputs.items():
        assert _digest(text) == GOLDEN[key], key
