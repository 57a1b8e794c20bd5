#!/usr/bin/env python3
"""Record the seed-0 reference outputs the correctness gate compares against.

Run from the repository root, only on a commit whose outputs are accepted as
the reference:

    python3 perfbench/record_reference.py

It runs one untraced pass of every workload at seed 0 and writes
perfbench/reference/: the paper datasets and the large_n CSV in full, every
200th row of the closed-form CSV, and the SHA-256 of every output file.
"""

import hashlib
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference")
SAMPLE_EVERY = 200


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def main() -> int:
    import run  # sets the BLAS thread count before NumPy loads
    run.check_checkout()
    sys.path.insert(0, os.path.abspath("src"))
    from spans import Patches
    from workloads import WORKLOADS

    os.makedirs(REFERENCE, exist_ok=True)
    digests = {}
    for name, cls in WORKLOADS.items():
        workload = cls(0, os.path.join(run.OUT, name))
        patches = Patches()
        workload.install_inputs(patches)
        try:
            workload.run_pass()
        finally:
            patches.undo()
        outputs = workload.outputs()
        digests[name] = {file: sha256(text) for file, text in outputs.items()}
        if name == "closed_form_grid":
            lines = outputs["closed_form_grid.csv"].splitlines()
            outputs = {"closed_form_grid_sample.csv":
                       "\n".join([lines[0]] + lines[1::SAMPLE_EVERY]) + "\n"}
        for file, text in outputs.items():
            with open(os.path.join(REFERENCE, file), "w") as fh:
                fh.write(text)
        print(f"recorded {name}")
    with open(os.path.join(REFERENCE, "digests.json"), "w") as fh:
        json.dump(digests, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
