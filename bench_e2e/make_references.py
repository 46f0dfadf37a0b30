"""Regenerate ``references.json``: the selection hashes each seed must give.

Run from the repository root (about 12 s per seed)::

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 bench_e2e/make_references.py 0-29

For each seed it stores the hash of the Fig. 4 study and the hash of the
fleet's campaigns run as plain uninterrupted trajectories, without the
campaign service.  Both fleets must reproduce the latter, which pins
kill/resume and worker count to the service-free result.  Regenerate
only when a change is meant to alter what AL selects.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from workload import SIZES, fig4, fleet_reference, paper_dataset, selection_hash  # noqa: E402


def main(argv: list[str]) -> int:
    if len(argv) != 1 or "-" not in argv[0]:
        print(__doc__, file=sys.stderr)
        return 2
    lo, hi = (int(x) for x in argv[0].split("-"))
    size = SIZES["full"]
    path = Path(__file__).resolve().parent / "references.json"
    refs = json.loads(path.read_text()) if path.exists() else {}
    dataset = paper_dataset()
    limit = dataset.memory_limit()
    for seed in range(lo, hi + 1):
        refs[str(seed)] = {
            "paper_fig4": selection_hash(fig4(dataset, limit, seed, size)),
            "fleet": fleet_reference(dataset, limit, seed, size),
        }
        print(seed, refs[str(seed)], flush=True)
    ordered = dict(sorted(refs.items(), key=lambda kv: int(kv[0])))
    path.write_text(json.dumps(ordered, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
