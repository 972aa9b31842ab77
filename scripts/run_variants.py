#!/usr/bin/env python3
"""Train each variant on one data source and write every report.

    python3 scripts/run_variants.py --data synthetic
    python3 scripts/run_variants.py --data modelnet40:<root> --variants sa

Per variant, in <out>/<variant>: `train` (at the source's default epochs
unless --epochs is given), `eval` at the cloud size and at 1/2, 1/4 and 1/8
of it (the first row is the full-size report), `grad-report`, and the
`weights_hist` and `features` exports, plus `packed_shift` for the variants
with shift layers. The cloud size is the source's: 256 points synthetic,
1024 ModelNet40. Stops at the first command that fails and exits with its
code.

ModelNet40's 9,843 training clouds make 308 steps an epoch at batch 32.
Measured on a 2-core CPU, an `sa` step takes about 24 s, so an epoch takes
about 2 h and the default 200 epochs about 17 days, before the per-epoch
eval; a `mul` step takes 5.7-6.1 s (about 4 days). `add` and `shift` were
not measured. The paper's accuracies, listed in the README, are targets
that this repository has not reproduced, and nothing asserts them.
"""

import argparse
import sys
from pathlib import Path

from mulfree.cli import RunConfig
from mulfree.cli import main as cli
from mulfree.errors import ConfigError
from mulfree.models import layer_kind_sequence


def commands(args):
    """The CLI argv of every step; a bad --data raises ConfigError at the first."""
    points = RunConfig(data=args.data).model_config().points_in
    densities = ",".join(str(points // d) for d in (1, 2, 4, 8))
    epochs = [] if args.epochs is None else ["--epochs", str(args.epochs)]
    for variant in args.variants.split(","):
        out = Path(args.out) / variant
        print(f"=== {variant} ===")
        yield ["train", "--variant", variant, "--data", args.data, *epochs,
               "--seed", str(args.seed), "--out", str(out)]
        ckpt = str(out / "ckpt_best.bin")
        yield ["eval", "--ckpt", ckpt, "--densities", densities, "--out", str(out)]
        yield ["grad-report", "--ckpt", ckpt, "--out", str(out)]
        for what in ("weights_hist", "features", "packed_shift"):
            if what != "packed_shift" or "shift" in layer_kind_sequence(variant):
                yield ["export", "--ckpt", ckpt, "--what", what, "--out", str(out / "exports")]


def run(args) -> int:
    try:
        for argv in commands(args):
            rc = cli(argv)
            if rc:
                return rc
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--data", default="synthetic", help="synthetic or modelnet40:<dir>")
    p.add_argument("--variants", default="mul,shift,add,sa")
    p.add_argument("--epochs", type=int, default=None,
                   help="default: train's, 60 synthetic or 200 ModelNet40")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--out", default="runs/variants")
    return p.parse_args(argv)


if __name__ == "__main__":
    sys.exit(run(parse_args()))
