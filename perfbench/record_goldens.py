"""Record the per-seed goldens the benchmark checks its outputs against.

Usage, from the repository root::

    python3 perfbench/record_goldens.py --workload static-congest --seeds 0-63

For the static workloads the golden is the spanner's edge digest; for
serve-zipf it is the exact status counts of one replay of the seed's request
stream.  Re-record only when a change is *meant* to alter these outputs, and
say so in the change.  Seeds without a golden still run every other check.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

if __name__ == "__main__":
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.workloads import GOLDENS_PATH, WORKLOADS, load_goldens  # noqa: E402

RECORDABLE = ("static-central", "static-congest", "serve-zipf")


def parse_seeds(text: str):
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def record(name: str, seed: int, out_dir: Path) -> dict:
    workload = WORKLOADS[name](seed, out_dir)
    workload.golden = None
    try:
        workload.setup()
        workload.prepare()
        workload.unit(0)
        if name == "serve-zipf":
            return {"status_counts": workload.status_counts}
        return {"digest": workload.digests[0]}
    finally:
        workload.close()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=RECORDABLE, required=True)
    parser.add_argument("--seeds", default="0-63", help="inclusive range, e.g. 0-63")
    args = parser.parse_args(argv)
    goldens = load_goldens()
    table = goldens.setdefault(args.workload, {})
    with tempfile.TemporaryDirectory(dir=ROOT) as scratch:
        for seed in parse_seeds(args.seeds):
            table[str(seed)] = record(args.workload, seed, Path(scratch))
            print(args.workload, seed, table[str(seed)], flush=True)
    goldens[args.workload] = dict(sorted(table.items(), key=lambda item: int(item[0])))
    GOLDENS_PATH.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
