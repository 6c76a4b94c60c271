"""Golden-output gate: the ``--json`` bytes of ``gram``, ``sod`` and
``mutate`` on the projective preset ladder, of ``analyze`` and
``verify`` on projective, quadric and etale presets, of ``sod`` on the
quadric presets, of the default ``verify`` battery and of each
``verify --check`` name are pinned by SHA-256, as are ``gram``,
``sod`` and ``mutate`` on pn-full n=5, ``sod`` on pn-full n=6 and n=7
and ``gram`` on two seeded random projective specs (one of them needs
character normalization).  The exit code and stderr line of three ``verify``
input errors are pinned as well.

The mutate input is the identity sequence on the preset's Gram form,
blocked by component rank; its script is the ``sod`` regrouping plan's
left moves followed by the inverse right moves of the plan's second
half, so the final vectors are not the identity and both directions are
exercised.  A digest changes only when an output byte changes.
"""

import hashlib
import json
import random

import pytest

from mu2sod.cli import main
from mu2sod.euler import EulerError, canonical_generators
from mu2sod.groups import is_effective, make_spec
from mu2sod.sod import assemble

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


def golden_outputs(capsys, tmp_path, name: str, args=None) -> dict[str, str]:
    args = PRESETS[name] if args is None else args
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


SPEC_PRESETS = {
    **PRESETS,
    "quadric-1": ["--preset", "quadric", "--q-dim", "1"],
    "quadric-2": ["--preset", "quadric", "--q-dim", "2"],
    "quadric-3": ["--preset", "quadric", "--q-dim", "3"],
    "quadric-4": ["--preset", "quadric", "--q-dim", "4"],
    "etale-4-3": ["--preset", "etale", "--n", "4", "--k", "3"],
}

SPEC_CASES = [("analyze", name) for name in SPEC_PRESETS]
SPEC_CASES += [("verify", name) for name in SPEC_PRESETS]
SPEC_CASES += [("sod", name) for name in SPEC_PRESETS if name.startswith("quadric")]

SPEC_GOLDEN = {
    "analyze p2-example": "a8de5473a5cf3ffaf8e63e5804756dc84de0df77f23c7da73a4d550c6318c427",
    "analyze pn-full-2": "a8de5473a5cf3ffaf8e63e5804756dc84de0df77f23c7da73a4d550c6318c427",
    "analyze pn-full-3": "22b749bddd287f074465c1f7bc4f2d5ad6ed7b1d3bd1f96320ee1e1e42247129",
    "analyze pn-full-4": "a8c5f22dd30681544c967ec10fbf2704592620ce602b38df70c8831019ba0fcc",
    "analyze quadric-1": "f8d65558613c956e1beda6f055dca5aaa16b7d8ca9b4fc07b0bc7ebf3598f608",
    "analyze quadric-2": "adad6dd04d2af83ededd3ce1c2208be2072bfa115a060dee40c19c12a8507c52",
    "analyze quadric-3": "3a7940f01a4561d07d2091e6ba91af2785e16c2c00615199ffa5e6f323ac2f4c",
    "analyze quadric-4": "1a703fe4a70f063ee20d30002e0310e61d323701e118ef59fe2887a5c1cbef2e",
    "analyze etale-4-3": "e3d58593d29d5ff3521cc19f19d7dd8d8e649b6355b2b847f24a958dce90a522",
    "verify p2-example": "25f3624d1ed9232cce7a877352fbb9917db1b90ff209fedb60e42d5dab521333",
    "verify pn-full-2": "25f3624d1ed9232cce7a877352fbb9917db1b90ff209fedb60e42d5dab521333",
    "verify pn-full-3": "8c17559be1bd4a18ebe7ce6a9c8581122fde38aa92a8cd0e1767d0853dde10aa",
    "verify pn-full-4": "8b83e018a9192820d2868ff401f1a21ec8e5bbebc25ef5225bf7188c2a8c6674",
    "verify quadric-1": "278abe1fcff5eacbd64224df454a1e27b28be2bef59e1b134785e5dcda26846c",
    "verify quadric-2": "aa1eeec7822d2b71e5cb9ff04888e6985fbc88a929a16d122639ceb1582ff24e",
    "verify quadric-3": "076c064c43b3938a82cc3fca5ac359785021e71dbb9c8c20a20e461d61d42cf0",
    "verify quadric-4": "eef523525027b0c77340eccfe42ee0bff727c933d92b17afed0ae5cf734bfa0f",
    "verify etale-4-3": "20efdb7ab7d687eea994723777a54ff885731da03a5718f249b9fb7a0e91ae36",
    "sod quadric-1": "419dfcf8178c4d92801013779f61c7175f279aaf1dac9f107b77ffe334104c3a",
    "sod quadric-2": "37b1623eae3555fcc840678a4117c95ea5f788fa0ef861fbeab8e1278b66b23c",
    "sod quadric-3": "93c2fe533d1b7dae538f568ae9efc473c712d6107bb294a75eb8f517e3d6359b",
    "sod quadric-4": "91e0c38171e56fbff15abceff3b26169af01bb458b14861afd651ef117e21f0d",
}


@pytest.mark.parametrize("command,name", SPEC_CASES)
def test_golden_spec_digests(capsys, command, name):
    text = _run(capsys, [command, *SPEC_PRESETS[name], "--json"])
    assert _digest(text) == SPEC_GOLDEN[f"{command} {name}"]


BATTERY_GOLDEN = "2013b8a85b77611a99301fd1f7a8fdfdfe80e800ae1a14830d89ee622f5abf49"


def test_golden_verify_battery_digest(capsys):
    assert _digest(_run(capsys, ["verify", "--json"])) == BATTERY_GOLDEN


# every ``verify --check`` name -> (its arguments, digest of ``--json``)
CHECK_GOLDEN = {
    "etale-sweep": ([], "49a635a7fb34c764e944b16ef5a544cf63a3bf611afa230f52eb1f75d5812c79"),
    "gram-presets": ([], "b28ccb31672a128abe3db584e9bd5b6983e2f4523b40b5e1c50bfe38b2a6fcf6"),
    "random-sweep": ([], "dc93db2bd7c6ad5ac51e821ba00d8c088382a2e27ee703c208f810c104726cee"),
    "etale": (["--n", "4", "--k", "2"], "ee4d774b134bcca9a5dd0ac4fde460abeb3950f9e6356d0439d0497ffef7f5e4"),
    "quadric": (["--q-dim", "3"], "076c064c43b3938a82cc3fca5ac359785021e71dbb9c8c20a20e461d61d42cf0"),
    "projective-rank": (
        ["--preset", "pn-full", "--n", "3"],
        "8281e51ffe420393e6ad7f5f6c012e042a1ee47a6dbf8bc813f65c3d232dde02",
    ),
    "burnside-total": (
        ["--preset", "quadric", "--q-dim", "2"],
        "3f4e16d3cdce460cdb8719146bf71a5cf427ea82bf4e44ac8828eb18a5277515",
    ),
}


@pytest.mark.parametrize("check", sorted(CHECK_GOLDEN))
def test_golden_verify_check_digests(capsys, check):
    args, digest = CHECK_GOLDEN[check]
    assert _digest(_run(capsys, ["verify", "--json", "--check", check, *args])) == digest


@pytest.mark.parametrize(
    "argv,line",
    [
        (["--check", "nope"], "error: unknown check 'nope'\n"),
        (["--check", "etale"], "error: the etale check needs --n and --k\n"),
        (["--preset", "quadric"], "error: the quadric check needs --q-dim\n"),
    ],
)
def test_golden_verify_input_errors(capsys, argv, line):
    assert main(["verify", *argv]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", line)


LARGE_GOLDEN = {
    "gram pn-full-5": "e0182c9fc4a4d29fe8beca706a86a1cddd4a318a2871fe82b349beaca98bbd10",
    "sod pn-full-5": "96c8834d0f2c4920ac6860eeacf89c0ee77f637064907acc1bc8091e86895cf0",
    "mutate pn-full-5": "4366eaa57dda1a1c4772f13ffb630f256aef174e05ada10e7ce95c3d1e413724",
    "sod pn-full-6": "1d14d6c5ec9f496463b46be153df3e72245370d2512e840d819ccfa0de5e14f1",
    "sod pn-full-7": "ae4544b0422653fa2865d3c5de8393c36bcc49823b6ea37ea0a79334f13f19f8",
}


@pytest.mark.parametrize("command", ["gram", "sod"])
def test_golden_pn_full_5_digests(capsys, command):
    text = _run(capsys, [command, "--preset", "pn-full", "--n", "5", "--json"])
    assert _digest(text) == LARGE_GOLDEN[f"{command} pn-full-5"]


def test_golden_mutate_pn_full_5_digest(capsys, tmp_path):
    # N=192: the 720 plan moves, then 360 undo moves, on one replay
    outputs = golden_outputs(capsys, tmp_path, "pn-full-5", ["--preset", "pn-full", "--n", "5"])
    doc = json.loads(outputs["mutate pn-full-5"])
    assert (len(doc["vectors"]), len(doc["moves"])) == (192, 1080)
    assert doc["semiorthogonal"] is True and doc["unimodular"] is True
    for key, text in outputs.items():
        assert _digest(text) == LARGE_GOLDEN[key], key


def test_golden_sod_pn_full_6_digest(capsys):
    # N=448: 3,080 plan moves replayed on the Gram
    text = _run(capsys, ["sod", "--preset", "pn-full", "--n", "6", "--json"])
    assert len(json.loads(text)["msodc"]["moves"]) == 3080
    assert _digest(text) == LARGE_GOLDEN["sod pn-full-6"]


def test_golden_sod_pn_full_7_digest(capsys):
    # N=1024: 12,866 flagged plan moves
    text = _run(capsys, ["sod", "--preset", "pn-full", "--n", "7", "--json"])
    moves = json.loads(text)["msodc"]["moves"]
    assert len(moves) == 12866 and all(m["orthogonal"] is not None for m in moves)
    assert _digest(text) == LARGE_GOLDEN["sod pn-full-7"]


def seeded_projective_spec(seed: int, n: int, k: int, effective: bool):
    """First draw from ``seed`` of a k-row action on P^n with the given
    effectiveness whose pieces all have canonical generators."""
    rng = random.Random(seed)
    while True:
        spec = make_spec("projective", n, [[rng.randint(0, 1) for _ in range(n + 1)] for _ in range(k)])
        if is_effective(spec) != effective:
            continue
        try:
            canonical_generators(spec, assemble(spec))
        except EulerError:
            continue
        return spec


# (seed, n, k, effective) -> (digest, whether the Gram needed normalization)
SEEDED_GRAM_GOLDEN = {
    (0, 5, 5, True): ("6a09cd93c4d665ffc062b6fc4d2a1473d0813d5897d8f7110241d470cf6a90d2", False),
    (0, 4, 5, False): ("5efbf8914aaee08428ea5cec09ffe18377415495ec4bec96a4f429e384fb467f", True),
}


@pytest.mark.parametrize("case", sorted(SEEDED_GRAM_GOLDEN))
def test_golden_seeded_gram_digests(capsys, tmp_path, case):
    digest, normalized = SEEDED_GRAM_GOLDEN[case]
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(seeded_projective_spec(*case).to_dict()))
    text = _run(capsys, ["gram", str(path), "--json"])
    doc = json.loads(text)
    assert doc["normalized"] is normalized and doc["triangular"] is True
    assert _digest(text) == digest
