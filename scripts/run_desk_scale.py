#!/usr/bin/env python3
"""Train all four variants on the synthetic desk-scale dataset and write
every report: accuracy at 256/128/64/32 points (the 256 row is the
full-size report), gradient RMS table, and exports. Stops at the first
command that fails and exits with its code."""

import argparse
import sys
from pathlib import Path

from mulfree.cli import main as cli


def commands(args):
    root = Path(args.out)
    for variant in ("mul", "shift", "add", "sa"):
        out = root / variant
        print(f"=== {variant} ===")
        yield ["train", "--variant", variant, "--data", "synthetic",
               "--epochs", str(args.epochs), "--seed", str(args.seed), "--out", str(out)]
        ckpt = str(out / "ckpt_best.bin")
        yield ["eval", "--ckpt", ckpt, "--densities", "256,128,64,32", "--out", str(out)]
        yield ["grad-report", "--ckpt", ckpt, "--batches", "4", "--out", str(out)]
        yield ["export", "--ckpt", ckpt, "--what", "weights_hist", "--out", str(out / "exports")]
        yield ["export", "--ckpt", ckpt, "--what", "features", "--out", str(out / "exports")]
        if variant in ("shift", "sa"):
            yield ["export", "--ckpt", ckpt, "--what", "packed_shift",
                   "--out", str(out / "exports")]


def run(args) -> int:
    for argv in commands(args):
        rc = cli(argv)
        if rc:
            return rc
    return 0


if __name__ == "__main__":
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--out", default="runs/desk_scale")
    p.add_argument("--epochs", type=int, default=60)
    p.add_argument("--seed", type=int, default=7)
    sys.exit(run(p.parse_args()))
