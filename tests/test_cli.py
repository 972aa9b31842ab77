import importlib.util
import json
import os
import struct
import subprocess
import sys
import zlib
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from mulfree import cli, tensor
from mulfree.cli import (RunConfig, cmd_eval, cmd_export, cmd_grad_report,
                         cmd_sweep_density, cmd_train, config_from_ini,
                         config_to_ini, evaluate, load_checkpoint, load_datasets,
                         main, save_checkpoint)
from mulfree.errors import CacheError, ConfigError
from mulfree.framing import frame
from mulfree.models import ModelConfig, build_model
from mulfree.shiftquant import read_packed
from mulfree.tensor import substream

TINY = dict(data="synthetic", epochs=2, seed=3, synth_per_class=16, synth_points=64)


def tiny_cfg(variant="sa", **over):
    return RunConfig(variant=variant, **{**TINY, **over})


@pytest.fixture(scope="module")
def sa_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("sa_run")
    cmd_train(tiny_cfg(out=str(out)))
    return out


class TestConfigIni:
    def test_roundtrip(self):
        every = RunConfig(variant="add", data="modelnet40:/meshes", epochs=5, batch_size=8,
                          seed=11, augment=False, embed_widths=(4, 4, 8, 8),
                          encoder_widths=(8, 16), head_widths=(8, 4), num_classes=3, knn_k=5,
                          points=96, lr_adaptive_start=2e-3, lr_adaptive_end=2e-6,
                          lr_modulated_start=3e-2, lr_modulated_end=3e-3, eta=0.3, cycles=2,
                          synth_per_class=20, synth_points=128, class_names=("a", "b", "c"))
        default = RunConfig()
        assert [f.name for f in fields(RunConfig)
                if getattr(every, f.name) == getattr(default, f.name)] == ["out"]
        for cfg in (tiny_cfg(embed_widths=(4, 4, 8, 8), augment=False), every):
            assert config_from_ini(config_to_ini(cfg)) == cfg

    def test_points_sets_the_synthetic_cloud_size(self):
        train_ds, test_ds, _ = load_datasets(RunConfig(synth_per_class=4, points=96,
                                                       synth_points=64))
        assert train_ds.points.shape[1] == test_ds.points.shape[1] == 96
        train_ds, _, _ = load_datasets(RunConfig(synth_per_class=4, synth_points=64))
        assert train_ds.points.shape[1] == 64

    def test_knn_k_above_synth_points_trains_on_points_sized_clouds(self, tmp_path):
        ini = tmp_path / "k65.ini"
        ini.write_text(config_to_ini(tiny_cfg(knn_k=65, points=96, synth_per_class=4, epochs=1,
                                              embed_widths=(4, 4, 8, 8),
                                              encoder_widths=(8, 8), head_widths=(8,))))
        assert main(["train", "--config", str(ini), "--out", str(tmp_path / "run")]) == 0

    def test_defaults_match_training_parameters(self):
        cfg = RunConfig()
        assert cfg.batch_size == 32 and cfg.seed == 7
        assert cfg.resolved_epochs() == 60  # synthetic default
        assert RunConfig(data="modelnet40:/x").resolved_epochs() == 200


class TestTrain:
    def test_zero_epochs_writes_initialized_checkpoint(self, tmp_path):
        out = cmd_train(tiny_cfg(epochs=0, out=str(tmp_path / "r")))
        assert (out / "ckpt_last.bin").exists()
        assert (out / "ckpt_best.bin").exists()  # initialized state doubles as best
        assert (out / "config.ini").exists()
        assert (out / "metrics.jsonl").read_text() == ""
        assert (out / "timings.jsonl").read_text() == ""
        model, cfg = load_checkpoint(out / "ckpt_last.bin")
        assert cfg.variant == "sa"

    def test_metrics_are_line_delimited_json(self, sa_run):
        lines = (sa_run / "metrics.jsonl").read_text().splitlines()
        assert len(lines) == 2
        for i, line in enumerate(lines):
            rec = json.loads(line)
            assert rec["epoch"] == i
            for key in ("train_loss", "train_acc", "test_acc", "lr", "grad_rms",
                        "wall_clock_s"):
                assert key in rec
            assert set(rec["lr"]) == {"adaptive_moment", "modulated_sgd"}

    def test_timings_one_record_per_epoch(self, sa_run):
        lines = (sa_run / "timings.jsonl").read_text().splitlines()
        assert len(lines) == 2
        for i, line in enumerate(lines):
            rec = json.loads(line)
            assert set(rec) == {"epoch", "train_s", "eval_s", "checkpoint_s", "minor_faults"}
            assert rec["epoch"] == i
            assert rec["train_s"] > 0 and rec["eval_s"] > 0 and rec["checkpoint_s"] >= 0
            assert isinstance(rec["minor_faults"], int) and rec["minor_faults"] >= 0

    def test_same_seed_identical_streams_and_checkpoints(self, tmp_path):
        a = cmd_train(tiny_cfg(out=str(tmp_path / "a")))
        b = cmd_train(tiny_cfg(out=str(tmp_path / "b")))

        def canon(run):
            recs = [json.loads(l) for l in (run / "metrics.jsonl").read_text().splitlines()]
            for r in recs:
                r.pop("wall_clock_s")
            return recs

        assert canon(a) == canon(b)
        assert (a / "ckpt_last.bin").read_bytes() == (b / "ckpt_last.bin").read_bytes()
        assert (a / "ckpt_best.bin").read_bytes() == (b / "ckpt_best.bin").read_bytes()

    def test_checkpoint_identical_under_any_row_split(self, tmp_path, monkeypatch):
        # two desk epochs; the adder kernels split rows over one worker, then the default
        def desk(name):
            return cmd_train(RunConfig(variant="sa", epochs=2, seed=7, out=str(tmp_path / name)))

        with monkeypatch.context() as m:
            m.setattr(tensor, "_WORKERS", 1)
            one = desk("one")
        split = desk("split")
        assert (one / "ckpt_last.bin").read_bytes() == (split / "ckpt_last.bin").read_bytes()

    def test_different_seed_differs(self, tmp_path, sa_run):
        c = cmd_train(tiny_cfg(seed=11, out=str(tmp_path / "c")))
        assert (c / "ckpt_last.bin").read_bytes() != (sa_run / "ckpt_last.bin").read_bytes()

    def test_config_written_before_metrics(self, sa_run):
        cfg = config_from_ini((sa_run / "config.ini").read_text())
        assert cfg.class_names == ("cube", "disk", "planes", "sphere")
        assert cfg.num_classes == 4


class TestEval:
    def test_full_density_matches_final_training_accuracy(self, sa_run):
        last = json.loads((sa_run / "metrics.jsonl").read_text().splitlines()[-1])
        report = cmd_eval(sa_run / "ckpt_last.bin")
        assert report["accuracy"] == last["test_acc"]

    def test_checkpoint_roundtrip_same_accuracy(self, sa_run):
        model, cfg = load_checkpoint(sa_run / "ckpt_last.bin")
        _, test_ds, _ = load_datasets(cfg)
        acc1, _ = evaluate(model, test_ds, cfg.batch_size)
        model2, _ = load_checkpoint(sa_run / "ckpt_last.bin")
        acc2, _ = evaluate(model2, test_ds, cfg.batch_size)
        assert acc1 == acc2 == cmd_eval(sa_run / "ckpt_last.bin")["accuracy"]

    def test_density_subsampling_and_repeatability(self, sa_run):
        r1 = cmd_eval(sa_run / "ckpt_last.bin", density=32)
        r2 = cmd_eval(sa_run / "ckpt_last.bin", density=32)
        assert r1["accuracy"] == r2["accuracy"]  # eval consumes no augmentation rng
        assert r1["density"] == 32

    def test_density_above_cache_errors(self, sa_run):
        with pytest.raises(ConfigError):
            cmd_eval(sa_run / "ckpt_last.bin", density=128)

    def test_per_class_report(self, sa_run, tmp_path):
        report = cmd_eval(sa_run / "ckpt_last.bin", out=tmp_path)
        assert set(report["per_class"]) == {"cube", "disk", "planes", "sphere"}
        saved = json.loads((tmp_path / "eval_d64.json").read_text())
        assert saved["accuracy"] == report["accuracy"]


class TestSweep:
    def test_loads_checkpoint_once_with_per_density_eval_reports(self, sa_run, monkeypatch):
        ckpt, densities = sa_run / "ckpt_last.bin", (64, 48, 32)
        loads = []
        load = cli.load_checkpoint
        monkeypatch.setattr(cli, "load_checkpoint", lambda path: loads.append(path) or load(path))
        reports = cmd_sweep_density(ckpt, densities=densities, seed=5)
        assert loads == [ckpt]
        assert reports == [cmd_eval(ckpt, density=d, seed=5) for d in densities]

    def test_records_and_order(self, sa_run, tmp_path):
        reports = cmd_sweep_density(sa_run / "ckpt_last.bin", densities=(64, 32),
                                    out=tmp_path)
        assert [r["density"] for r in reports] == [64, 32]
        lines = (tmp_path / "density_sweep.jsonl").read_text().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[0])["density"] == 64

    def test_default_densities_are_cloud_size_and_three_halvings(self, sa_run):
        reports = cmd_sweep_density(sa_run / "ckpt_last.bin")
        assert [r["density"] for r in reports] == [64, 32, 16, 8]


class TestGradReport:
    def test_adder_layers_report_modulated_rms(self, sa_run):
        rows = cmd_grad_report(sa_run / "ckpt_last.bin", batches=2)
        by_name = {r["layer"]: r for r in rows}
        assert len(rows) == 6
        for r in rows:
            if r["kind"] == "adder":
                assert abs(r["modulated_rms"] - 0.2) < 1e-6
            else:
                assert r["modulated_rms"] is None
        assert by_name["embed1"]["kind"] == "shift"
        assert by_name["embed2"]["kind"] == "adder"

    def test_zero_batches_empty_table(self, sa_run, capsys):
        rows = cmd_grad_report(sa_run / "ckpt_last.bin", batches=0)
        assert rows == []
        out = capsys.readouterr().out
        assert "layer" in out  # header prints, no rows


class TestExport:
    def test_features_csv_row_count(self, sa_run, tmp_path):
        (path,) = cmd_export(sa_run / "ckpt_last.bin", "features", tmp_path / "f")
        lines = path.read_text().splitlines()
        _, test_ds, _ = load_datasets(load_checkpoint(sa_run / "ckpt_last.bin")[1])
        assert len(lines) == len(test_ds) + 1  # header + one row per test cloud
        assert lines[0].startswith("label,f0,")

    def test_weights_hist_shift_support_is_powers_of_two(self, sa_run, tmp_path):
        paths = cmd_export(sa_run / "ckpt_last.bin", "weights_hist", tmp_path / "h")
        values_path = next(p for p in paths if p.name == "embed1.values.csv")
        vals = np.array([float(v) for v in values_path.read_text().splitlines()[1:]])
        image = {s * 2.0 ** p for s in (-1, 1) for p in range(-15, 1)}
        assert set(np.unique(vals)).issubset(image)
        hist_path = next(p for p in paths if p.name == "embed1.hist.csv")
        assert len(hist_path.read_text().splitlines()) == 65  # header + 64 bins

    def test_packed_shift_roundtrip_through_fixed_inference(self, sa_run, tmp_path):
        paths = cmd_export(sa_run / "ckpt_last.bin", "packed_shift", tmp_path / "p")
        model, cfg = load_checkpoint(sa_run / "ckpt_last.bin")
        shift_names = {n for n, l in model.linear_layers() if l.kind == "shift"}
        assert {p.stem for p in paths} == shift_names
        # reloaded codes must match the checkpoint quantization exactly
        for path in paths:
            s, p = read_packed(path)
            layer = dict(model.linear_layers())[path.stem]
            layer.quantize()
            np.testing.assert_array_equal(s, layer.s)
            np.testing.assert_array_equal(p, layer.p)
        # and the fixed-point path reproduces the float logits closely
        _, test_ds, _ = load_datasets(cfg)
        lf = model.forward(test_ds.points[:8], train=False)
        lq = model.forward(test_ds.points[:8], train=False, fixed_shift=True)
        assert np.abs(lf - lq).max() < 0.02
        assert (lf.argmax(1) == lq.argmax(1)).all()

    def test_packed_shift_requires_shift_layers(self, tmp_path):
        out = cmd_train(tiny_cfg(variant="add", epochs=0, out=str(tmp_path / "add")))
        with pytest.raises(ConfigError):
            cmd_export(out / "ckpt_last.bin", "packed_shift", tmp_path / "x")


class TestMeshDirectoryTraining:
    def test_train_from_off_directory_end_to_end(self, tmp_path):
        # two geometrically distinct mesh classes, ingested and trained briefly
        from test_data import QUAD_OFF
        tall = QUAD_OFF.replace("1 1 0", "1 9 0").replace("0 1 0", "0 9 0")
        for cls, body in (("slab", QUAD_OFF), ("tower", tall)):
            for split, count in (("train", 8), ("test", 4)):
                d = tmp_path / "meshes" / cls / split
                d.mkdir(parents=True)
                for i in range(count):
                    (d / f"{cls}_{i}.off").write_text(body)
        ini = tmp_path / "small.ini"
        ini.write_text(config_to_ini(RunConfig(
            data=f"modelnet40:{tmp_path/'meshes'}", epochs=2, seed=5,
            embed_widths=(4, 4, 8, 8), encoder_widths=(8, 16), head_widths=(8,),
            knn_k=4, points=96)))
        out = tmp_path / "mesh_run"
        rc = main(["train", "--config", str(ini), "--out", str(out)])
        assert rc == 0
        report = cmd_eval(out / "ckpt_last.bin")
        assert set(report["per_class"]) == {"slab", "tower"}
        assert (tmp_path / "meshes" / "sapc_cache" / "train.sapc").exists()


class TestDiagnostics:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_loss_aborts_and_names_layer(self, tmp_path):
        from mulfree.errors import TrainingDivergedError
        cfg = tiny_cfg(variant="mul", lr_adaptive_start=1e9, lr_adaptive_end=1e9,
                       out=str(tmp_path / "diverge"))
        with pytest.raises(TrainingDivergedError, match="first offending layer"):
            cmd_train(cfg)

    def test_divergence_names_the_stage_that_failed_in_training(self, tmp_path, monkeypatch):
        from mulfree.errors import TrainingDivergedError
        from mulfree.layers import BatchNorm
        forward = BatchNorm.forward

        def nan_in_training(self, x, train=True):
            y = forward(self, x, train)
            return np.full_like(y, np.nan) if train and self.name == "embed3.bn" else y

        monkeypatch.setattr(BatchNorm, "forward", nan_in_training)
        with pytest.raises(TrainingDivergedError, match=r"first offending layer: embed3\b"):
            cmd_train(tiny_cfg(out=str(tmp_path / "diverge")))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_grad_report_on_diverged_checkpoint_names_the_stage(self, tmp_path, capsys):
        cfg = tiny_cfg()
        model = build_model(cfg.model_config(), substream(0, 0))
        dict(model.stages)["encoder2"].w.data[0, 0] = np.nan
        save_checkpoint(tmp_path / "nan.bin", model, config_to_ini(cfg))
        assert main(["grad-report", "--ckpt", str(tmp_path / "nan.bin"), "--batches", "1"]) == 1
        err = capsys.readouterr().err
        assert "non-finite loss at batch 0; first offending layer: encoder2" in err

    def test_grad_report_on_nan_shift_weight_names_the_layer(self, tmp_path, capsys):
        # a NaN master weight must reach the loss check, not quantize to 2^-15
        cfg = tiny_cfg()
        model = build_model(cfg.model_config(), substream(0, 0))
        dict(model.stages)["encoder1"].w.data[0, 0] = np.nan
        save_checkpoint(tmp_path / "nan.bin", model, config_to_ini(cfg))
        assert main(["grad-report", "--ckpt", str(tmp_path / "nan.bin"), "--batches", "1"]) == 1
        err = capsys.readouterr().err
        assert "non-finite loss at batch 0; first offending layer: encoder1" in err

    def test_diagnose_names_first_bad_layer(self):
        model = build_model(ModelConfig(variant="mul", embed_widths=(4, 4, 8, 8),
                                        encoder_widths=(8, 8), head_widths=(8,),
                                        num_classes=4, knn_k=2, points_in=32),
                            substream(0, 0))
        dict(model.stages)["encoder1"].w.data[0, 0] = np.nan
        pts = substream(1, 0).standard_normal((1, 32, 3)).astype(np.float32)
        assert model.diagnose(pts) == "encoder1"

    def test_checkpoint_crc_guard(self, sa_run, tmp_path):
        blob = bytearray((sa_run / "ckpt_last.bin").read_bytes())
        blob[100] ^= 0xFF
        bad = tmp_path / "bad.bin"
        bad.write_bytes(bytes(blob))
        with pytest.raises(CacheError):
            load_checkpoint(bad)

    def test_checkpoint_file_is_the_framed_body(self, tmp_path):
        """save_checkpoint streams its parts; the file is frame() of the body
        joined in memory, the way checkpoints were written before."""
        model = build_model(ModelConfig(variant="sa", embed_widths=(4, 4, 8, 8),
                                        encoder_widths=(8, 8), head_widths=(8,),
                                        num_classes=4, knn_k=2, points_in=32),
                            substream(0, 0))
        text = config_to_ini(tiny_cfg(variant="sa"))
        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, model, text)
        items = model.state_items()
        body = struct.pack("<HI", 1, len(text.encode())) + text.encode()
        body += struct.pack("<I", len(items))
        for name, arr in items:
            body += struct.pack("<H", len(name)) + name.encode()
            body += struct.pack("<BB", cli._DTYPES.index(arr.dtype), arr.ndim)
            body += struct.pack(f"<{arr.ndim}I", *arr.shape) + arr.tobytes()
        assert path.read_bytes() == frame(cli.CKPT_MAGIC, body)

    @staticmethod
    def resealed(tmp_path, edit):
        """A small checkpoint whose body `edit` rewrites, with a fresh CRC."""
        model = build_model(ModelConfig(variant="mul", embed_widths=(4, 4, 8, 8),
                                        encoder_widths=(8, 8), head_widths=(8,),
                                        num_classes=4, knn_k=2, points_in=32),
                            substream(0, 0))
        path = tmp_path / "resealed.bin"
        save_checkpoint(path, model, config_to_ini(tiny_cfg(variant="mul")))
        blob = path.read_bytes()
        body = edit(bytearray(blob[4:-4]))
        path.write_bytes(blob[:4] + bytes(body) + struct.pack("<I", zlib.crc32(body)))
        return path

    @staticmethod
    def first_record(body):
        """Offset of the first tensor record inside a checkpoint body."""
        _, cfg_len = struct.unpack_from("<HI", body, 0)
        return 6 + cfg_len + 4

    def test_checkpoint_unknown_dtype_code(self, tmp_path):
        def edit(body):
            rec = self.first_record(body)
            (nlen,) = struct.unpack_from("<H", body, rec)
            body[rec + 2 + nlen] = 200  # dtype code
            return body
        with pytest.raises(CacheError, match="dtype"):
            load_checkpoint(self.resealed(tmp_path, edit))

    def test_checkpoint_truncated_tensor_record(self, tmp_path):
        for cut in (1, 5, 40):  # inside the name length, the header, the payload
            with pytest.raises(CacheError, match="truncated"):
                load_checkpoint(self.resealed(
                    tmp_path, lambda body: body[: self.first_record(body) + cut]))

    @pytest.mark.parametrize("where", ["config", "tensor name"])
    def test_checkpoint_non_utf8_text_exits_with_message(self, tmp_path, capsys, where):
        def edit(body):
            at = 7 if where == "config" else self.first_record(body) + 2
            body[at] = 0xFF
            return body
        path = self.resealed(tmp_path, edit)
        with pytest.raises(CacheError, match=f"{where} is not UTF-8"):
            load_checkpoint(path)
        assert main(["eval", "--ckpt", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(path) in err

    def test_checkpoint_architecture_mismatch(self, sa_run, tmp_path):
        model, cfg = load_checkpoint(sa_run / "ckpt_last.bin")
        other = build_model(ModelConfig(variant="sa", embed_widths=(4, 4, 8, 8),
                                        encoder_widths=(8, 8), head_widths=(8,),
                                        num_classes=4, knn_k=2, points_in=32),
                            substream(0, 0))
        # config says one architecture, tensors say another
        path = tmp_path / "mismatch.bin"
        save_checkpoint(path, other, config_to_ini(cfg))
        with pytest.raises(ConfigError):
            load_checkpoint(path)


class TestMainEntry:
    def test_train_eval_cycle(self, tmp_path, capsys):
        out = tmp_path / "cli_run"
        rc = main(["train", "--variant", "shift", "--data", "synthetic",
                   "--epochs", "1", "--seed", "5", "--out", str(out),
                   "--synth-per-class", "8", "--synth-points", "64"])
        assert rc == 0
        rc = main(["eval", "--ckpt", str(out / "ckpt_last.bin")])
        assert rc == 0
        report = json.loads(capsys.readouterr().out.split("run directory")[-1]
                            .split("\n", 1)[1])
        assert "accuracy" in report

    def test_error_exit_code(self, tmp_path, capsys):
        rc = main(["eval", "--ckpt", str(tmp_path / "missing.bin")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_grad_report_subcommand(self, sa_run, capsys):
        rc = main(["grad-report", "--ckpt", str(sa_run / "ckpt_last.bin"),
                   "--batches", "1"])
        assert rc == 0
        assert "0.2000" in capsys.readouterr().out

    def test_no_augment_flag(self, tmp_path):
        rc = main(["train", "--variant", "mul", "--epochs", "0", "--out",
                   str(tmp_path / "na"), "--no-augment",
                   "--synth-per-class", "8", "--synth-points", "64"])
        assert rc == 0
        cfg = config_from_ini((tmp_path / "na" / "config.ini").read_text())
        assert cfg.augment is False

    def test_config_file_overrides_with_flag_precedence(self, tmp_path):
        ini = tmp_path / "base.ini"
        ini.write_text(config_to_ini(tiny_cfg(variant="add", eta=0.3)))
        out = tmp_path / "cfg_run"
        rc = main(["train", "--config", str(ini), "--epochs", "0",
                   "--variant", "shift", "--out", str(out)])
        assert rc == 0
        cfg = config_from_ini((out / "config.ini").read_text())
        assert cfg.variant == "shift"  # flags win over the file
        assert cfg.eta == 0.3          # file wins over defaults
        assert cfg.synth_points == 64

    @pytest.mark.parametrize("text", ["[run]\nepochs = abc\n", "epochs = 3\n",
                                      "[run]\nbatch_size = 0\n", "[run]\nseed = -3\n",
                                      "[run]\nepochs = -1\n", "[run]\nepoch = 5\n",
                                      "[bogus]\nx = 1\n", "[run]\nvariant = foo\n",
                                      "[optim]\ncycles = 0\n", b"[run]\nvariant = \xff\n",
                                      "[optim]\neta = 0\n", "[optim]\nlr_adaptive_start = -1\n",
                                      "[model]\nknn_k = 100\n[data]\nsynth_points = 64\n",
                                      "[model]\nembed_widths = 4,4,8\n",
                                      "[model]\nnum_classes = 2\n[data]\nsynth_points = 64\n"])
    def test_malformed_config_file_exits_with_message(self, tmp_path, capsys, text):
        ini = tmp_path / "bad.ini"
        if isinstance(text, bytes):
            ini.write_bytes(text)
        else:
            ini.write_text(text)
        assert main(["train", "--config", str(ini), "--out", str(tmp_path / "run")]) == 1
        assert not (tmp_path / "run").exists()  # checked before the run directory is written
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        if isinstance(text, bytes):
            assert str(ini) in err

    def test_non_utf8_off_file_exits_with_message(self, tmp_path, capsys):
        from test_data import QUAD_OFF
        for split in ("train", "test"):
            d = tmp_path / "meshes" / "slab" / split
            d.mkdir(parents=True)
            (d / "good.off").write_text(QUAD_OFF)
        bad = tmp_path / "meshes" / "slab" / "test" / "bad.off"
        bad.write_bytes(QUAD_OFF.encode().replace(b"1 1 0", b"1 \xff 0"))
        rc = main(["train", "--data", f"modelnet40:{tmp_path / 'meshes'}", "--epochs", "0",
                   "--out", str(tmp_path / "run")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(bad) in err

    def test_bad_face_index_names_the_off_file(self, tmp_path, capsys):
        from test_data import QUAD_OFF
        for split in ("train", "test"):
            d = tmp_path / "meshes" / "slab" / split
            d.mkdir(parents=True)
            (d / "good.off").write_text(QUAD_OFF)
        (tmp_path / "meshes" / "slab" / "train" / "bad.off").write_text(
            "OFF\n4 1 0\n0 0 0\n1 0 0\n1 1 0\n0 1 0\n3 0 1 9\n")
        rc = main(["train", "--data", f"modelnet40:{tmp_path / 'meshes'}", "--epochs", "0",
                   "--out", str(tmp_path / "run")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "bad.off" in err and "face index outside [0, 4)" in err

    @pytest.mark.parametrize("vertex, message", [
        ("1 nan 0", "vertex coordinate is not finite"),
        ("1 inf 0", "vertex coordinate is not finite"),
        ("1e200 1e200 0", "mesh surface area is not finite"),
    ])
    def test_non_finite_off_file_exits_with_message(self, tmp_path, capsys, vertex, message):
        from test_data import QUAD_OFF
        for split in ("train", "test"):
            d = tmp_path / "meshes" / "slab" / split
            d.mkdir(parents=True)
            (d / "good.off").write_text(QUAD_OFF)
        bad = tmp_path / "meshes" / "slab" / "train" / "bad.off"
        bad.write_text(QUAD_OFF.replace("1 1 0", vertex))
        rc = main(["train", "--data", f"modelnet40:{tmp_path / 'meshes'}", "--epochs", "0",
                   "--out", str(tmp_path / "run")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: {message}")

    @pytest.mark.parametrize("argv, message", [
        (["train", "--batch-size", "0"], "batch_size must be >= 1, got 0"),
        (["train", "--seed", "-1"], "seed must be >= 0, got -1"),
        (["train", "--epochs", "-1"], "epochs must be >= 0, got -1"),
        (["train", "--synth-per-class", "0"], "synth_per_class must be >= 1, got 0"),
        (["eval", "--batch-size", "-1"], "batch_size must be >= 1, got -1"),
        (["eval", "--batch-size", "0"], "batch_size must be >= 1, got 0"),
        (["eval", "--density", "32", "--seed", "-1"], "seed must be >= 0, got -1"),
        (["grad-report", "--seed", "-1"], "seed must be >= 0, got -1"),
        (["sweep-density", "--densities", "abc"], "--densities 'abc'"),
        (["sweep-density", "--densities", "64,,32"], "--densities '64,,32'"),
        (["sweep-density", "--densities", "-5"], "density -5 outside [1, 64]"),
        (["sweep-density", "--densities", "0"], "density 0 outside [1, 64]"),
        (["train", "--data", "foo"], "data must be synthetic or modelnet40:<dir>, got 'foo'"),
        (["train", "--data", "modelnet40x:/tmp"], "got 'modelnet40x:/tmp'"),
        (["train", "--variant", "foo"], "unknown variant 'foo'"),
        (["train", "--synth-per-class", "2"], "synth_per_class 2 leaves the test split empty"),
        (["grad-report", "--batches", "-1"], "batches must be >= 0, got -1"),
    ])
    def test_bad_value_exits_with_message(self, sa_run, capsys, argv, message):
        if argv[0] != "train":
            argv = [*argv, "--ckpt", str(sa_run / "ckpt_last.bin")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    def test_eval_accepts_any_density_in_range(self, sa_run, capsys):
        assert main(["eval", "--ckpt", str(sa_run / "ckpt_last.bin"), "--density", "48"]) == 0
        assert json.loads(capsys.readouterr().out)["density"] == 48

    def test_sweep_density_subcommand_prints_table(self, sa_run, capsys, tmp_path):
        rc = main(["sweep-density", "--ckpt", str(sa_run / "ckpt_last.bin"),
                   "--out", str(tmp_path)])
        assert rc == 0
        rows = capsys.readouterr().out.splitlines()
        assert rows[0].split() == ["density", "accuracy"]
        assert [int(r.split()[0]) for r in rows[1:]] == [64, 32, 16, 8]
        assert len((tmp_path / "density_sweep.jsonl").read_text().splitlines()) == 4

    def test_export_subcommand_prints_paths(self, sa_run, capsys, tmp_path):
        rc = main(["export", "--ckpt", str(sa_run / "ckpt_last.bin"), "--what", "packed_shift",
                   "--out", str(tmp_path)])
        assert rc == 0
        printed = capsys.readouterr().out.splitlines()
        assert sorted(printed) == sorted(str(p) for p in tmp_path.glob("*.saq1"))
        assert len(printed) == 3  # embed1, embed3, encoder1 are the sa shift layers

    def test_corrupt_manifest_exits_with_message(self, tmp_path, capsys):
        from test_data import QUAD_OFF
        for split in ("train", "test"):
            d = tmp_path / "meshes" / "slab" / split
            d.mkdir(parents=True)
            (d / "good.off").write_text(QUAD_OFF)
        argv = ["train", "--data", f"modelnet40:{tmp_path / 'meshes'}", "--epochs", "0",
                "--out", str(tmp_path / "run")]
        assert main(argv) == 0
        manifest = tmp_path / "meshes" / "sapc_cache" / "manifest.json"
        for text in (manifest.read_text()[:40], '{"seed": 7}'):
            manifest.write_text(text)
            capsys.readouterr()
            assert main(argv) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and str(manifest) in err

    def test_config_file_variant_survives_without_flag(self, tmp_path):
        ini = tmp_path / "base.ini"
        ini.write_text(config_to_ini(tiny_cfg(variant="add")))
        out = tmp_path / "cfg_run2"
        rc = main(["train", "--config", str(ini), "--epochs", "0", "--out", str(out)])
        assert rc == 0
        cfg = config_from_ini((out / "config.ini").read_text())
        assert cfg.variant == "add"


def _bench_pairs():
    path = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
    spec = importlib.util.spec_from_file_location("bench_pairs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestScripts:
    def test_gain_rule_counts_a_crashed_pair_against_the_change(self):
        bench_pairs = _bench_pairs()
        parent, change = [100.0] * 10, [110.0] * 9 + [90.0]
        met = bench_pairs.summarise("clouds_per_s", "higher", parent, change)
        assert "9/10 wins (meets the gain rule)" in met
        # one more pair in which the change crashed: 9 wins of 11 pairs run is short of 9/10
        short = bench_pairs.summarise("clouds_per_s", "higher", parent + [100.0], change + [None])
        assert short.endswith("9/11 wins")
        assert bench_pairs.summarise("setup_s", "lower", [None], [0.1]) == "no complete pair"

    def test_summary_json_row(self):
        bench_pairs = _bench_pairs()
        bench = {"end_to_end": [{"name": "clouds_per_s", "better": "higher"},
                                {"name": "setup_s", "better": "lower"}]}

        def run(cps, setup, correct=True, failed=0):
            return {"metrics": {"clouds_per_s": {"value": cps}, "setup_s": {"value": setup}},
                    "correct": correct, "failed": failed, "attempted": 4}

        runs = {"parent": [run(100.0, 1.0), run(102.0, 1.0), run(98.0, 1.2)],
                "change": [run(110.0, 0.9), None, run(99.0, 1.3, correct=False, failed=1)]}
        faults = {"parent": [900, 700, 800], "change": [40, 12, 30]}
        row = bench_pairs.summary_json(bench, "desk-train", [5, 6, 7], runs, faults)
        row = json.loads(json.dumps(row, allow_nan=False))  # plain JSON, no NaN
        assert (row["workload"], row["pairs"], row["seeds"]) == ("desk-train", 3, [5, 6, 7])
        cps = row["metrics"]["clouds_per_s"]
        assert cps["parent"] == {"median": 99.0, "q1": 98.5, "q3": 99.5}
        assert cps["change"] == {"median": 104.5, "q1": 101.75, "q3": 107.25}
        assert (cps["wins"], cps["pairs"], cps["meets_gain_rule"]) == (2, 3, False)
        assert cps["gain_pct"] == pytest.approx(100 * (104.5 / 99.0 - 1))
        assert row["metrics"]["setup_s"]["wins"] == 1
        assert row["correctness"] == {
            "parent": {"runs": 3, "correct": 3, "crashed": 0, "failed": 0, "attempted": 12},
            "change": {"runs": 3, "correct": 1, "crashed": 1, "failed": 1, "attempted": 8}}
        # a side record per run in pair order, crashed runs included; not a metric
        assert row["minor_faults"] == {"parent": {"runs": [900, 700, 800], "median": 800},
                                       "change": {"runs": [40, 12, 30], "median": 30}}
        assert "minor_faults" not in row["metrics"]
        crashed = bench_pairs.summary_json(bench, "x", [1], {"parent": [None], "change": [None]},
                                           {"parent": [5], "change": [6]})
        assert crashed["metrics"] == {"clouds_per_s": None, "setup_s": None}
        assert crashed["minor_faults"]["change"] == {"runs": [6], "median": 6}

    @pytest.mark.parametrize("script", ["run_desk_scale.py", "run_modelnet40.py"])
    def test_stops_at_the_first_failed_command(self, tmp_path, script):
        root = Path(__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p)}
        argv = [sys.executable, str(root / "scripts" / script), "--seed", "-1",
                "--epochs", "1", "--out", str(tmp_path / "runs")]
        if script == "run_modelnet40.py":
            argv.append(str(tmp_path / "meshes"))
        proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 1
        assert proc.stderr == "error: seed must be >= 0, got -1\n"
        assert "error" not in proc.stdout
