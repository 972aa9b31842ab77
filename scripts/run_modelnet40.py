#!/usr/bin/env python3
"""Best-effort full-benchmark run against a ModelNet40 directory.

Trains the requested variants at the full-scale preset (1024 points,
200 epochs, batch 32) and sweeps densities 1024/512/256/128; the 1024 row
is the full-size eval report, so `eval` is not run separately. Expect hours
per variant on CPU; the reported targets are documented in the README and
are not asserted anywhere. Stops at the first command that fails and exits
with its code.
"""

import argparse
import sys
from pathlib import Path

from mulfree.cli import main as cli


def commands(args):
    root = Path(args.out)
    for variant in args.variants.split(","):
        out = root / variant
        print(f"=== {variant} ===")
        yield ["train", "--variant", variant, "--data", f"modelnet40:{args.data}",
               "--epochs", str(args.epochs), "--seed", str(args.seed), "--out", str(out)]
        ckpt = str(out / "ckpt_best.bin")
        yield ["sweep-density", "--ckpt", ckpt, "--out", str(out)]
        yield ["grad-report", "--ckpt", ckpt, "--batches", "8", "--out", str(out)]


def run(args) -> int:
    for argv in commands(args):
        rc = cli(argv)
        if rc:
            return rc
    return 0


if __name__ == "__main__":
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("data", help="ModelNet40 root: <root>/<class>/{train,test}/*.off")
    p.add_argument("--variants", default="mul,shift,add,sa")
    p.add_argument("--out", default="runs/modelnet40")
    p.add_argument("--epochs", type=int, default=200)
    p.add_argument("--seed", type=int, default=7)
    sys.exit(run(p.parse_args()))
