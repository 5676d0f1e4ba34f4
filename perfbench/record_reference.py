"""Record reference itemsets and supports into ``reference.json``.

Run from the root of a checkout of the reference code (commit 43d5a9c),
never of code under test::

    python3 perfbench/record_reference.py --workload dense-s1 --seeds 0-63

Entries already present are kept as they are; only missing seeds are
added.  Each recorded output is first checked against
``occumine.measures``, and the file is saved after every seed.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

from workloads import (
    CACHE,
    REFERENCE,
    WORKLOADS,
    Verifier,
    ensure_inputs,
    input_digest,
    library_rows,
    pattern_digest,
)


def _seed_range(text: str) -> range:
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seeds", type=_seed_range, required=True, help="N or N-M")
    args = parser.parse_args()

    sys.path.insert(0, str(CACHE.parent / "src"))
    import occumine

    workload = WORKLOADS[args.workload]
    table = json.loads(REFERENCE.read_text())
    entries = table["workloads"].setdefault(workload.name, {})
    for seed in args.seeds:
        if str(seed) in entries:
            continue
        folder = CACHE / workload.cache_key(seed)
        existed = folder.exists()
        data, utility = ensure_inputs(occumine, workload, seed)
        db = occumine.load_database(data, utility)
        outcome = occumine.mine(
            db,
            occumine.Thresholds(workload.alpha, workload.beta, workload.gamma),
            occumine.PRESETS[workload.preset],
        )
        rows = library_rows(outcome)
        verifier = Verifier(occumine, workload, seed, data, utility)
        verifier.prime(db, rows)
        problems = verifier.check(rows, printed=False)
        if problems:
            print(f"{workload.name} seed {seed}: not recorded: {problems[:3]}", file=sys.stderr)
            return 1
        entries[str(seed)] = {
            "patterns": len(rows),
            "digest": pattern_digest(rows),
            "input_sha256": input_digest(data, utility),
        }
        table["workloads"][workload.name] = dict(sorted(entries.items(), key=lambda kv: int(kv[0])))
        REFERENCE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
        print(f"{workload.name} seed {seed}: {len(rows)} patterns", flush=True)
        if not existed:
            shutil.rmtree(folder)
    return 0


if __name__ == "__main__":
    sys.exit(main())
