#!/usr/bin/env python3
"""Best-effort full-benchmark run against a ModelNet40 directory.

Trains the requested variants at the full-scale preset (1024 points,
200 epochs, batch 32) and evaluates each at 1024/512/256/128 points; the
1024 row is the full-size report. ModelNet40's 9,843 training clouds make
308 steps an epoch. Measured on a 2-core CPU, an `sa` step takes about
24 s, so an epoch takes about 2 h and 200 epochs about 17 days, before the
per-epoch eval; a `mul` step takes 5.7-6.1 s (about 4 days). `add` and
`shift` were not measured. The paper's accuracies, listed in the README,
are targets that this repository has not reproduced, and nothing asserts
them. Stops at the first command that fails and exits with its code.
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
        yield ["eval", "--ckpt", ckpt, "--densities", "1024,512,256,128", "--out", str(out)]
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
