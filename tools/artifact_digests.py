"""Print the sha256 of every artifact the benchmark's workloads write.

Usage (from the repository root):

    python3 tools/artifact_digests.py > change.json
    python3 tools/artifact_digests.py --root ../parent-checkout > parent.json
    diff parent.json change.json

For each workload of ``bench/workloads.py`` and each of ``SEEDS``, one
``bench/run.py`` ``run_pass`` runs the workload's commands through
``marketgen.cli.main`` in this process, at one BLAS thread (importing
``bench/run.py`` pins it).  The output maps workload and seed to
{artifact file name: sha256}; failed commands go to stderr and make the exit
code 1.  At a fixed BLAS thread count every command writes byte-identical
artifacts on a rerun, so two checkouts whose outputs differ in any byte give
different listings.
"""

import argparse
import json
import sys
import tempfile
from pathlib import Path

SEEDS = (1, 2, 3)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent,
                        help="checkout whose bench/ and src/ to run (default: this one)")
    args = parser.parse_args(argv)
    root = args.root.resolve()
    sys.path[:0] = [str(root / "bench"), str(root / "src")]
    import run  # pins BLAS to one thread before numpy is imported

    from marketgen import cli

    digests, failures = {}, []
    with tempfile.TemporaryDirectory() as tmp:
        for name, workload in run.WORKLOADS.items():
            for seed in SEEDS:
                inp = Path(tmp, f"{name}-{seed}-inputs")
                inp.mkdir()
                workload.write_inputs(str(inp), seed)
                p = run.run_pass(cli, workload, inp, Path(tmp, f"{name}-{seed}-out"), seed)
                failures += [f"{name} seed {seed} {label}: {error}"
                             for label, error in p.ops if error is not None]
                digests.setdefault(name, {})[str(seed)] = {
                    file: sha for written in p.artifacts for file, sha in written.items()}
    json.dump(digests, sys.stdout, indent=1, sort_keys=True)
    print()
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
