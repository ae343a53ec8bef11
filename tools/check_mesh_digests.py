#!/usr/bin/env python
"""Check that the repo benchmark's full-scale input meshes are unchanged.

The workloads of ``python3 -m bench`` run on two generated meshes: the
500k random geometric graph (``adaptive-sfc``) and the 250k
``paper_mesh`` (``static-rcb``, ``real-2rank``), both at the default seed
1995.  A change to graph construction must build them byte for byte as
before, or the benchmark compares different inputs.  This builds both and
compares the sha256 of their ``indptr``, ``indices`` and ``coords`` with
the digests below, recorded before the CSR builders were rewritten to
reuse their per-edge arrays.  Tier-1 pins the same digests of smaller
meshes (``test_mesh_digest_pinned``); these two take seconds and a few
hundred MB, so CI's perf-smoke job runs them:

    PYTHONPATH=src python tools/check_mesh_digests.py

Prints one line per mesh. Exit status: 0 if every digest matches, 1 if
one differs.
"""

from __future__ import annotations

import hashlib
import sys

import numpy as np

from repro.graph.generators import paper_mesh, scale_mesh

#: name -> (build, sha256 of indptr, indices, coords).
DIGESTS = {
    "scale_mesh('500k', family='geometric', seed=1995)": (
        lambda: scale_mesh("500k", family="geometric", seed=1995),
        (
            "9981f01eb40a1f307d678651eb74f80db187ec75399ffdccce784170317674ea",
            "ea1f8e15db77182196c2a1a26ee170a7d9b51803f2f3ddf3d174fea4ef0afcc5",
            "eb671b4a3c8b9525d1babfe2d9ac023ca6e25354a5bc57665f8ac9b326b35760",
        ),
    ),
    "paper_mesh(250_000, seed=1995)": (
        lambda: paper_mesh(250_000, seed=1995),
        (
            "a81049fa4900946483d83d93686f11fb49a94646abfdc958247a0af4e84e27ca",
            "8a87d0edbd04a8fe65af71ac8b4c12d540316a276dc09b082adf98f4d22050d2",
            "bcd220fd543e9e5a3fcc12f5f4084159dc37e498dfea315278698be9a9edb538",
        ),
    ),
}


def digests(graph) -> tuple[str, ...]:
    return tuple(
        hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()
        for a in (graph.indptr, graph.indices, graph.coords)
    )


def main() -> int:
    failed = 0
    for name, (build, want) in DIGESTS.items():
        got = digests(build())
        ok = got == want
        failed += not ok
        print(f"{'ok  ' if ok else 'DIFF'} {name}")
        for field, g, w in zip(("indptr", "indices", "coords"), got, want):
            if g != w:
                print(f"     {field}: {g} (recorded {w})")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
