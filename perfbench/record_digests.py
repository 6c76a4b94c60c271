"""Record the SHA-256 of every --json output of one round of every
workload on the default seed into ``digests.json``::

    python3 perfbench/record_digests.py

The recorded digests are the byte-for-byte output gate of the benchmark:
a later commit whose output differs from them fails the run.  Nothing is
written unless every output passes the other oracles.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import inputs
import oracles
import run


def main() -> int:
    inputs.import_mu2sod()
    from mu2sod import cli

    outputs, problems = {}, []
    run.STATE.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.STATE) as work:
        for workload in inputs.WORKLOADS:
            out = Path(work) / workload
            run.timed_setup(workload, inputs.DEFAULT_SEED, out)
            manifest = run.load_manifest(out)
            for item in manifest["items"]:
                result = run.invoke(cli, item["argv"], run.cache_clearers())
                problems += [f"{item['id']}: {p}" for p in oracles.check(item, result, {})]
                outputs[item["key"]] = oracles.digest(result["stdout"])
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    doc = {"seed": inputs.DEFAULT_SEED, "outputs": dict(sorted(outputs.items()))}
    oracles.DIGESTS.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"recorded {len(outputs)} digests in {oracles.DIGESTS.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
