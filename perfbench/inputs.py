"""Seeded inputs for the mu2sod benchmark, and the benchmark's set-up step.

Run as a script, this is what ``setup_s`` times: a fresh interpreter
imports mu2sod from the checkout's ``src/``, draws the workload's inputs
from the seed, and writes the spec, sequence and script JSON files plus
``manifest.json`` (the CLI invocations to run and what each must return)
into ``--out``::

    python3 perfbench/inputs.py --workload inertia-verify --seed 7 --out DIR

The same seed gives the same files.  Random specs are drawn with a fixed
space kind, dimension and group rank per slot, so seeds vary the action
matrix but not the size of the work.  Effectiveness and classification
are decided here with the benchmark's own sign arithmetic, not with
mu2sod, so the expectations in the manifest are independent oracles.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_SEED = 20261017
WORKLOADS = ("inertia-verify", "gram-replay")
OFFSET = {"affine": 0, "projective": 1, "fermat_quadric": 2}

# Input sizes.  Every random spec in inertia-verify has c = 8 coordinates.
# Classified projective specs exist only for n = k (others fail the
# classification or effectiveness test), so gram-replay draws n = k = 5
# (N = 192) for gram and n = k <= 3 (N <= 32) for the mutation replay:
# n = k = 4 would add about 6 s to a round that pn-full n = 4 already
# spends on that size.
INERTIA_SLOTS = [(kind, dim, k) for k in (6, 7) for kind, dim in
                 (("affine", 8), ("projective", 7), ("fermat_quadric", 6))]
GRAM_RANDOM = (5,)
REPLAY_RANDOM = (2, 3, 3)
VERIFY_SLOTS = (("affine", 8, 6), ("projective", 7, 6), ("fermat_quadric", 6, 6))


def import_mu2sod():
    """Import mu2sod from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import mu2sod

    if Path(mu2sod.__file__).resolve().parent != src / "mu2sod":
        raise ImportError(f"mu2sod was imported from {mu2sod.__file__}, not from {src}")
    return mu2sod


# --- sign arithmetic, independent of mu2sod -------------------------------


def characters(spec: dict) -> list[int]:
    """Coordinate characters as ints, generator i in bit i."""
    rows = spec["action"]
    c = spec["space"]["dim"] + OFFSET[spec["space"]["kind"]]
    return [sum(row[j] << i for i, row in enumerate(rows)) for j in range(c)]


def sign(char: int, g: int) -> int:
    return (char & g).bit_count() & 1


def kernel_order(spec: dict) -> int:
    """Number of group elements acting trivially on the space."""
    chars = characters(spec)
    affine = spec["space"]["kind"] == "affine"
    count = 0
    for g in range(1 << spec["group_rank"]):
        signs = {sign(ch, g) for ch in chars}
        count += signs == {0} if affine else len(signs) <= 1
    return count


def fully_classified(spec: dict) -> bool:
    """Whether every fixed-locus piece of a projective spec has a trivial or
    a full residual sign group modulo scalars, so that the Gram of its
    canonical generators is defined."""
    chars = characters(spec)
    group = range(1 << spec["group_rank"])
    seen = set()
    for g in group:
        for s in (0, 1):
            support = tuple(j for j, ch in enumerate(chars) if sign(ch, g) == s)
            if len(support) < 2 or support in seen:
                continue
            seen.add(support)
            patterns = set()
            for h in group:
                p = [sign(chars[j], h) for j in support]
                patterns.add(tuple(b ^ p[0] for b in p))
            if len(patterns) not in (1, 1 << (len(support) - 1)):
                return False
    return True


def random_spec(rng: random.Random, kind: str, dim: int, k: int) -> dict:
    c = dim + OFFSET[kind]
    return {
        "space": {"kind": kind, "dim": dim},
        "group_rank": k,
        "action": [[rng.randint(0, 1) for _ in range(c)] for _ in range(k)],
    }


def random_classified(rng: random.Random, n: int) -> dict:
    """Effective, fully classified projective spec with n = k (about one
    draw in three is accepted)."""
    while True:
        spec = random_spec(rng, "projective", n, n)
        if kernel_order(spec) == 1 and fully_classified(spec):
            return spec


def preset_spec(name: str, n: int) -> dict:
    """The pn-full and quadric presets as spec documents."""
    c = n + (1 if name == "pn-full" else 2)
    k = n if name == "pn-full" else n + 1
    kind = "projective" if name == "pn-full" else "fermat_quadric"
    rows = [[int(i == j) for j in range(c)] for i in range(k)]
    return {"space": {"kind": kind, "dim": n}, "group_rank": k, "action": rows}


P2_EXAMPLE = {"space": {"kind": "projective", "dim": 2}, "group_rank": 2,
              "action": [[1, 0, 0], [0, 1, 0]]}


def expectation(spec: dict) -> dict:
    """What the oracles need to know about a spec."""
    kind, n, k = spec["space"]["kind"], spec["space"]["dim"], spec["group_rank"]
    order = kernel_order(spec)
    effective_projective = kind == "projective" and order == 1
    return {
        "kind": kind,
        "kernel_order": order,
        "closed_form_rank": (n + 1) << k if effective_projective else None,
    }


# --- manifest --------------------------------------------------------------


class Manifest:
    """Invocations of one workload, with their input files under ``out``."""

    def __init__(self, out: Path):
        self.out = out
        self.items: list[dict] = []
        self.files = 0

    def write(self, doc) -> str:
        self.files += 1
        path = self.out / f"input-{self.files:02d}.json"
        path.write_text(json.dumps(doc, indent=1), encoding="utf-8")
        return str(path)

    def add(self, label: str, argv: list[str], inputs: list, expect: dict) -> None:
        """``inputs`` are the documents behind argv's file arguments (or the
        preset arguments); the digest key depends on them, not on paths."""
        key_doc = {"command": argv[0], "inputs": inputs}
        key = hashlib.sha256(json.dumps(key_doc, sort_keys=True).encode()).hexdigest()
        self.items.append({"id": label, "argv": argv, "inputs": inputs, "key": key, "expect": expect})

    def spec_command(self, command: str, label: str, spec: dict, preset: list[str] | None = None):
        if preset:
            argv = [command, "--json", *preset]
        else:
            argv = [command, "--json", self.write(spec)]
        self.add(f"{command} {label}", argv, [preset or spec], {"command": command, **expectation(spec)})


def build_inertia_verify(m: Manifest, rng: random.Random) -> None:
    """analyze --json on the production inertia path, then verify --json on
    the independent oracle path (subgroup sectors, Burnside double sum)."""
    m.spec_command("analyze", "pn-full n=7", preset_spec("pn-full", 7), ["--preset", "pn-full", "--n", "7"])
    m.spec_command("analyze", "quadric q=6", preset_spec("quadric", 6), ["--preset", "quadric", "--q-dim", "6"])
    for i, (kind, dim, k) in enumerate(INERTIA_SLOTS):
        m.spec_command("analyze", f"random-{i} {kind} dim={dim} k={k}", random_spec(rng, kind, dim, k))
    m.add("verify battery", ["verify", "--json"], [], {"command": "verify", "battery": True})
    for i, (kind, dim, k) in enumerate(VERIFY_SLOTS, start=len(INERTIA_SLOTS)):
        m.spec_command("verify", f"random-{i} {kind} dim={dim} k={k}", random_spec(rng, kind, dim, k))


def build_gram_replay(m: Manifest, rng: random.Random) -> None:
    """gram --json on N=192 specs; then, on smaller specs, sod --json and
    mutate --json on the identity sequence of the spec's Gram form, with the
    plan's left moves followed by their inverse right moves in reverse
    order, so that the replay must return the identity."""
    from mu2sod import mutations
    from mu2sod.euler import gram_report
    from mu2sod.groups import make_spec
    from mu2sod.sod import assemble, msodc_plan

    m.spec_command("gram", "pn-full n=5", preset_spec("pn-full", 5), ["--preset", "pn-full", "--n", "5"])
    randoms = [(f"random-{i} projective n=k={n}", random_classified(rng, n))
               for i, n in enumerate(GRAM_RANDOM + REPLAY_RANDOM)]
    for label, spec in randoms[: len(GRAM_RANDOM)]:
        m.spec_command("gram", label, spec)
    cases = [("p2-example", P2_EXAMPLE, ["--preset", "p2-example"]),
             ("pn-full n=3", preset_spec("pn-full", 3), ["--preset", "pn-full", "--n", "3"]),
             ("pn-full n=4", preset_spec("pn-full", 4), ["--preset", "pn-full", "--n", "4"])]
    cases += [(label, spec, None) for label, spec in randoms[len(GRAM_RANDOM) :]]
    for label, spec, preset in cases:
        m.spec_command("sod", label, spec, preset)
        parsed = make_spec(spec["space"]["kind"], spec["space"]["dim"], spec["action"])
        report = assemble(parsed)
        gram = gram_report(parsed, report)
        sequence = mutations.identity_sequence(gram.matrix, gram.block_sizes).to_dict()
        moves = msodc_plan(report).moves
        script = [{"block": mv.block, "direction": "left"} for mv in moves]
        script += [{"block": mv.block - 1, "direction": "right"} for mv in reversed(moves)]
        argv = ["mutate", "--json", m.write(sequence), "--script", m.write(script)]
        expect = {"command": "mutate", "blocks": sequence["blocks"], "moves": len(script)}
        m.add(f"mutate {label}", argv, [sequence, script], expect)


BUILDERS = {
    "inertia-verify": build_inertia_verify,
    "gram-replay": build_gram_replay,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    import_mu2sod()
    args.out.mkdir(parents=True, exist_ok=True)
    manifest = Manifest(args.out)
    # One stream per workload, so adding a slot to one leaves the others' inputs alone.
    rng = random.Random(f"{args.workload}:{args.seed}")
    BUILDERS[args.workload](manifest, rng)
    doc = {"workload": args.workload, "seed": args.seed, "items": manifest.items}
    (args.out / "manifest.json").write_text(json.dumps(doc, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
