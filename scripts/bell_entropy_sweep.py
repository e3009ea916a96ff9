"""Entropy of the decaying two-site maximally entangled state.

Sweeps the pumping weight and writes one entropy column per value, on a
common tau grid.  The balanced case climbs to the 2-bit plateau; pure decay
rises and falls back as the state purifies toward the ground state.

Usage: python scripts/bell_entropy_sweep.py [--out bell_entropy.csv]
"""

import argparse
import sys

import numpy as np

from dicke4.lindblad_solver import ModelParams, trajectory
from dicke4.observables import bell_initial, von_neumann_entropy

S_VALUES = (0.0, 0.25, 0.5, 0.75, 1.0)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--tau-max", type=float, default=10.0)
    ap.add_argument("--steps", type=int, default=201)
    ap.add_argument("--out", help="CSV path (default: stdout)")
    args = ap.parse_args(argv)

    taus = np.linspace(0.0, args.tau_max, args.steps)
    v0 = bell_initial()
    columns = []
    for s in S_VALUES:
        columns.append([von_neumann_entropy(v)
                        for v in trajectory(v0, ModelParams(z=2, s=s), taus)])

    lines = ["tau," + ",".join(f"entropy_s={s}" for s in S_VALUES)]
    for i, tau in enumerate(taus):
        lines.append(",".join([repr(float(tau))] + [repr(c[i]) for c in columns]))
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", newline="") as fh:
            fh.write(text)
        print(f"wrote {len(taus)} rows to {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
