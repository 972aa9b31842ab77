import argparse
import importlib.util
import json
import os
import re
import shutil
import struct
import subprocess
import sys
import zlib
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from mulfree import cli, optim, tensor
from mulfree.cli import (RunConfig, cmd_eval, cmd_export, cmd_grad_report, cmd_train,
                         config_from_ini, config_to_ini, evaluate, load_checkpoint,
                         load_datasets, main, save_checkpoint)
from mulfree.data import ingest_modelnet40, load_dataset
from mulfree.errors import CacheError, ConfigError, MulfreeError
from mulfree.framing import frame, write_framed
from mulfree.layers import quantize_shift
from mulfree.models import ModelConfig, build_model
from mulfree.shiftquant import unpack_weights
from mulfree.tensor import substream

TINY = dict(data="synthetic", epochs=2, seed=3, synth_per_class=16, points=64)


def tiny_cfg(variant="sa", **over):
    return RunConfig(variant=variant, **{**TINY, **over})


@pytest.fixture(scope="module")
def sa_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("sa_run")
    cmd_train(tiny_cfg(out=str(out)))
    return out


def mesh_dir(root, classes):
    """A ModelNet40-style directory: one quad mesh per class and split."""
    from test_data import QUAD_OFF
    for name in classes:
        for split in ("train", "test"):
            (root / name / split).mkdir(parents=True)
            (root / name / split / "quad.off").write_text(QUAD_OFF)
    return root


@pytest.fixture(scope="module")
def slabs(tmp_path_factory):
    """A ModelNet40-style directory whose one class, "slab", no synthetic run has."""
    return mesh_dir(tmp_path_factory.mktemp("slabs"), ["slab"])


class TestConfigIni:
    def test_roundtrip(self):
        every = RunConfig(variant="add", data="modelnet40:/meshes", epochs=5, batch_size=8,
                          seed=11, embed_widths=(4, 4, 8, 8),
                          encoder_widths=(8, 16), head_widths=(8, 4), knn_k=5,
                          points=96, synth_per_class=20, class_names=("a", "b", "c"))
        default = RunConfig()
        assert [f.name for f in fields(RunConfig)
                if getattr(every, f.name) == getattr(default, f.name)] == ["out"]
        for cfg in (tiny_cfg(embed_widths=(4, 4, 8, 8)), every):
            assert config_from_ini(config_to_ini(cfg)) == cfg

    def test_points_sets_the_synthetic_cloud_size(self):
        train_ds, test_ds, _ = load_datasets(RunConfig(synth_per_class=4, points=96))
        assert train_ds.points.shape[1] == test_ds.points.shape[1] == 96
        train_ds, _, _ = load_datasets(RunConfig(synth_per_class=4))
        assert train_ds.points.shape[1] == 256

    def test_class_names_set_the_head_width(self):
        assert RunConfig(class_names=("a", "b", "c")).model_config().num_classes == 3
        assert RunConfig().model_config().num_classes == 4  # the synthetic preset
        assert RunConfig(data="modelnet40:/x").model_config().num_classes == 40

    def test_knn_k_above_tiny_points_trains_on_points_sized_clouds(self, tmp_path):
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
        assert cfg.model_config().num_classes == 4


class TestEval:
    def test_full_density_matches_final_training_accuracy(self, sa_run):
        last = json.loads((sa_run / "metrics.jsonl").read_text().splitlines()[-1])
        (report,) = cmd_eval(sa_run / "ckpt_last.bin")
        assert report["accuracy"] == last["test_acc"]

    def test_checkpoint_roundtrip_same_accuracy(self, sa_run):
        model, cfg = load_checkpoint(sa_run / "ckpt_last.bin")
        _, test_ds, _ = load_datasets(cfg)
        acc1, _ = evaluate(model, test_ds, cfg.batch_size)
        model2, _ = load_checkpoint(sa_run / "ckpt_last.bin")
        acc2, _ = evaluate(model2, test_ds, cfg.batch_size)
        assert acc1 == acc2 == cmd_eval(sa_run / "ckpt_last.bin")[0]["accuracy"]

    def test_density_subsampling_and_repeatability(self, sa_run):
        (r1,) = cmd_eval(sa_run / "ckpt_last.bin", densities=(32,))
        (r2,) = cmd_eval(sa_run / "ckpt_last.bin", densities=(32,))
        assert r1["accuracy"] == r2["accuracy"]  # eval consumes no augmentation rng
        assert r1["density"] == 32

    def test_density_above_cache_errors(self, sa_run):
        with pytest.raises(ConfigError):
            cmd_eval(sa_run / "ckpt_last.bin", densities=(128,))

    def test_per_class_report(self, sa_run, tmp_path):
        (report,) = cmd_eval(sa_run / "ckpt_last.bin", out=tmp_path)
        assert set(report["per_class"]) == {"cube", "disk", "planes", "sphere"}
        (saved,) = map(json.loads, (tmp_path / "eval.jsonl").read_text().splitlines())
        assert saved["accuracy"] == report["accuracy"]

    def test_loads_checkpoint_once_with_per_density_eval_reports(self, sa_run, monkeypatch):
        ckpt, densities = sa_run / "ckpt_last.bin", (64, 48, 32)
        loads = []
        load = cli.load_checkpoint
        monkeypatch.setattr(cli, "load_checkpoint", lambda path: loads.append(path) or load(path))
        reports = cmd_eval(ckpt, densities=densities)
        assert loads == [ckpt]
        # each density draws from its own stream: a row does not depend on the others
        assert reports == [cmd_eval(ckpt, densities=(d,))[0] for d in densities]

    def test_records_and_order(self, sa_run, tmp_path):
        reports = cmd_eval(sa_run / "ckpt_last.bin", densities=(64, 32), out=tmp_path)
        assert [r["density"] for r in reports] == [64, 32]
        lines = (tmp_path / "eval.jsonl").read_text().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[0])["density"] == 64

    def test_default_density_is_the_cloud_size(self, sa_run):
        reports = cmd_eval(sa_run / "ckpt_last.bin")
        assert [r["density"] for r in reports] == [64]


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
            s, p = unpack_weights(path.read_bytes())
            want_s, want_p, _ = quantize_shift(dict(model.linear_layers())[path.stem].w.data)
            np.testing.assert_array_equal(s, want_s)
            np.testing.assert_array_equal(p, want_p)
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
        (report,) = cmd_eval(out / "ckpt_last.bin")
        assert set(report["per_class"]) == {"slab", "tower"}
        model, _ = load_checkpoint(out / "ckpt_last.bin")
        assert dict(model.stages)["head_out"].w.data.shape == (2, 8)  # one row per class
        assert "num_classes" not in (out / "config.ini").read_text()
        assert [p.name for p in (tmp_path / "meshes" / "sapc_cache").iterdir()] == ["dataset.sapc"]

    def test_clouds_past_the_uint16_range_train_and_cache(self, tmp_path):
        from test_data import make_fake_modelnet
        make_fake_modelnet(tmp_path / "meshes")
        argv = ["train", "--data", f"modelnet40:{tmp_path / 'meshes'}", "--points", "70000",
                "--epochs", "0", "--out", str(tmp_path / "run")]
        assert main(argv) == 0
        train, test, manifest = load_dataset(tmp_path / "meshes" / "sapc_cache")
        assert train.points.shape == (6, 70000, 3) and test.points.shape == (4, 70000, 3)
        shutil.rmtree(tmp_path / "meshes" / "sapc_cache")
        for got, want in zip((train, test), ingest_modelnet40(tmp_path / "meshes", 70000, 7)):
            np.testing.assert_array_equal(got.points, want.points)
            np.testing.assert_array_equal(got.labels, want.labels)


class TestDiagnostics:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_loss_aborts_and_names_layer(self, tmp_path, monkeypatch):
        from mulfree.errors import TrainingDivergedError
        monkeypatch.setitem(optim.RATES, "adaptive_moment", (1e9, 1e9))
        cfg = tiny_cfg(variant="mul", out=str(tmp_path / "diverge"))
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
            body += struct.pack("<BB", 0, arr.ndim)  # dtype code 0: float32
            body += struct.pack(f"<{arr.ndim}I", *arr.shape) + arr.tobytes()
        assert path.read_bytes() == frame(cli.CKPT_MAGIC, body)

    def test_interrupted_save_keeps_the_previous_file(self, tmp_path):
        path = tmp_path / "ckpt_best.bin"
        path.write_bytes(b"previous best")

        def parts():
            yield b"body"
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            write_framed(path, cli.CKPT_MAGIC, parts())
        assert path.read_bytes() == b"previous best"
        assert [p.name for p in tmp_path.iterdir()] == ["ckpt_best.bin"]
        write_framed(path, cli.CKPT_MAGIC, [b"body"])
        assert path.read_bytes() == frame(cli.CKPT_MAGIC, b"body")
        assert [p.name for p in tmp_path.iterdir()] == ["ckpt_best.bin"]

    @staticmethod
    def resealed(tmp_path, edit):
        """A small checkpoint whose body `edit` rewrites, with a fresh CRC."""
        cfg = tiny_cfg(variant="mul", embed_widths=(4, 4, 8, 8), encoder_widths=(8, 8),
                       head_widths=(8,), knn_k=2, points=32)
        path = tmp_path / "resealed.bin"
        save_checkpoint(path, build_model(cfg.model_config(), substream(0, 0)), config_to_ini(cfg))
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
        path = self.resealed(tmp_path, edit)
        with pytest.raises(ConfigError, match=re.escape(
                f"{path}: checkpoint tensor record is not the model's 'embed1.w'")):
            load_checkpoint(path)

    def test_checkpoint_trailing_bytes(self, tmp_path):
        load_checkpoint(self.resealed(tmp_path, lambda body: body))  # the unedited file loads
        path = self.resealed(tmp_path, lambda body: body + b"\0" * 3)
        with pytest.raises(CacheError, match=re.escape(
                f"{path}: 3 bytes after the last checkpoint tensor")):
            load_checkpoint(path)

    def test_checkpoint_extra_record(self, tmp_path):
        def edit(body):
            at = self.first_record(body) - 4
            (count,) = struct.unpack_from("<I", body, at)
            struct.pack_into("<I", body, at, count + 1)
            return body + struct.pack("<H5sBBI", 5, b"extra", 0, 1, 1) + b"\0" * 4
        path = self.resealed(tmp_path, edit)
        with pytest.raises(MulfreeError, match=re.escape(str(path))):
            load_checkpoint(path)

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
        if where == "config":
            with pytest.raises(CacheError, match="config is not UTF-8"):
                load_checkpoint(path)
        else:  # the name is no longer decoded: the record differs from the model's
            with pytest.raises(ConfigError, match=re.escape(f"{path}: checkpoint tensor record")):
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
        with pytest.raises(ConfigError, match=re.escape(f"{path}: checkpoint tensor")):
            load_checkpoint(path)

    @pytest.mark.parametrize("section, key, value", [("data", "synth_points", 256),
                                                     ("run", "augment", True)])
    def test_checkpoint_with_a_removed_setting_names_file_and_key(self, tmp_path, capsys,
                                                                  section, key, value):
        cfg = tiny_cfg()
        path = tmp_path / "old.bin"
        text = config_to_ini(cfg).replace(f"[{section}]\n", f"[{section}]\n{key} = {value}\n")
        save_checkpoint(path, build_model(cfg.model_config(), substream(0, 0)), text)
        message = f"{path}: config [{section}] has unknown key {key!r}"
        with pytest.raises(ConfigError, match=re.escape(message)):
            load_checkpoint(path)
        assert main(["eval", "--ckpt", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"


class TestMainEntry:
    def test_train_eval_cycle(self, tmp_path, capsys):
        out = tmp_path / "cli_run"
        rc = main(["train", "--variant", "shift", "--data", "synthetic",
                   "--epochs", "1", "--seed", "5", "--out", str(out),
                   "--synth-per-class", "8", "--points", "64"])
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

    def test_config_file_overrides_with_flag_precedence(self, tmp_path):
        ini = tmp_path / "base.ini"
        ini.write_text(config_to_ini(tiny_cfg(variant="add", batch_size=8)))
        out = tmp_path / "cfg_run"
        rc = main(["train", "--config", str(ini), "--epochs", "0",
                   "--variant", "shift", "--out", str(out)])
        assert rc == 0
        cfg = config_from_ini((out / "config.ini").read_text())
        assert cfg.variant == "shift"  # flags win over the file
        assert cfg.batch_size == 8     # file wins over defaults
        assert cfg.points == 64

    @pytest.mark.parametrize("text", ["[run]\nepochs = abc\n", "epochs = 3\n",
                                      "[run]\nbatch_size = 0\n", "[run]\nseed = -3\n",
                                      "[run]\nepochs = -1\n", "[run]\nepoch = 5\n",
                                      "[bogus]\nx = 1\n", "[run]\nvariant = foo\n",
                                      "[optim]\ncycles = 1\n", b"[run]\nvariant = \xff\n",
                                      "[optim]\neta = 0\n", "[optim]\nlr_adaptive_start = -1\n",
                                      "[model]\nknn_k = 100\npoints = 64\n",
                                      "[model]\nembed_widths = 4,4,8\n",
                                      "[model]\nnum_classes = 4\n", "[data]\nsynth_points = 256\n",
                                      "[run]\naugment = flase\n", "[run]\naugment = 2\n",
                                      "[run]\naugment =\n"])
    def test_malformed_config_file_exits_with_message(self, tmp_path, capsys, text):
        ini = tmp_path / "bad.ini"
        if isinstance(text, bytes):
            ini.write_bytes(text)
        else:
            ini.write_text(text)
        assert main(["train", "--config", str(ini), "--out", str(tmp_path / "run")]) == 1
        assert not (tmp_path / "run").exists()  # checked before the run directory is written
        err = capsys.readouterr().err
        assert err.startswith(f"error: {ini}: ")  # every error of the file names the file
        if isinstance(text, bytes):
            return
        if "augment" in text:  # augmentation is always on
            assert err == f"error: {ini}: config [run] has unknown key 'augment'\n"
            return
        if text.startswith("[optim]"):  # the optimizer recipe is constants in mulfree.optim
            assert err == f"error: {ini}: config has unknown section [optim]\n"
            return
        for removed in ("num_classes", "synth_points"):  # dropped settings
            if removed in text:
                assert err.startswith(f"error: {ini}: config [")
                assert f"unknown key {removed!r}" in err

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
        (["eval", "--densities", "abc"], "--densities 'abc'"),
        (["eval", "--densities", "64,,32"], "--densities '64,,32'"),
        (["eval", "--densities", "-5"], "density -5 outside [1, 64]"),
        (["eval", "--densities", "0"], "density 0 outside [1, 64]"),
        (["train", "--points", "178956971"],
         "points must be <= 178956970, the largest cloud a cache record holds"),
        (["train", "--points", "10000000000000"], "points must be <= 178956970"),
        (["train", "--data", "foo"], "data must be synthetic or modelnet40:<dir>, got 'foo'"),
        (["train", "--data", "modelnet40x:/tmp"], "got 'modelnet40x:/tmp'"),
        (["train", "--variant", "foo"], "unknown variant 'foo'"),
        (["train", "--synth-per-class", "2"], "synth_per_class 2 leaves the test split empty"),
        (["grad-report", "--batches", "-1"], "batches must be >= 0, got -1"),
        (["eval", "--data", "modelnet40:{slabs}"], "data modelnet40:{slabs} has classes "
         "slab, but the config names cube, disk, planes, sphere"),
        (["grad-report", "--data", "modelnet40:{slabs}"], "has classes slab, but the config"),
        (["export", "--what", "features", "--out", "{slabs}/x", "--data", "modelnet40:{slabs}"],
         "has classes slab, but the config"),
    ])
    def test_bad_value_exits_with_message(self, sa_run, slabs, capsys, argv, message):
        argv = [a.format(slabs=slabs) for a in argv]
        if argv[0] != "train":
            argv = [*argv, "--ckpt", str(sa_run / "ckpt_last.bin")]
        message = message.format(slabs=slabs)
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    def test_report_on_other_data_keeps_the_checkpoint_cloud_size(self, tmp_path, capsys):
        # config.ini leaves out the synthetic preset's 256 points; meshes default to 1024
        run = cmd_train(tiny_cfg(variant="mul", epochs=0, points=None, out=str(tmp_path / "r")))
        assert "points" not in (run / "config.ini").read_text()
        meshes = mesh_dir(tmp_path / "meshes", ["cube", "disk", "planes", "sphere"])
        ckpt, data = str(run / "ckpt_last.bin"), f"modelnet40:{meshes}"
        assert main(["eval", "--ckpt", ckpt, "--data", data]) == 0
        assert json.loads(capsys.readouterr().out)["density"] == 256
        assert main(["export", "--ckpt", ckpt, "--data", data, "--what", "features",
                     "--out", str(tmp_path / "x")]) == 0
        assert main(["grad-report", "--ckpt", ckpt, "--data", data, "--batches", "1"]) == 0

    @pytest.mark.parametrize("exc", [MemoryError("Unable to allocate 7.45 GiB for an array"),
                                     MemoryError()])
    def test_allocation_failure_exits_with_message(self, tmp_path, capsys, monkeypatch, exc):
        def synth_shapes(*args):
            raise exc
        monkeypatch.setattr(cli, "synth_shapes", synth_shapes)
        assert main(["train", "--out", str(tmp_path / "run")]) == 1
        assert not (tmp_path / "run").exists()
        err = capsys.readouterr().err
        assert err == f"error: {str(exc) or 'MemoryError'}\n"

    def test_eval_accepts_any_density_in_range(self, sa_run, capsys):
        assert main(["eval", "--ckpt", str(sa_run / "ckpt_last.bin"), "--densities", "48"]) == 0
        assert json.loads(capsys.readouterr().out)["density"] == 48

    def test_eval_densities_print_one_json_line_each(self, sa_run, capsys, tmp_path):
        rc = main(["eval", "--ckpt", str(sa_run / "ckpt_last.bin"),
                   "--densities", "64,32,16,8", "--out", str(tmp_path)])
        assert rc == 0
        rows = capsys.readouterr().out.splitlines()
        assert [json.loads(r)["density"] for r in rows] == [64, 32, 16, 8]
        assert (tmp_path / "eval.jsonl").read_text().splitlines() == rows

    def test_export_subcommand_prints_paths(self, sa_run, capsys, tmp_path):
        rc = main(["export", "--ckpt", str(sa_run / "ckpt_last.bin"), "--what", "packed_shift",
                   "--out", str(tmp_path)])
        assert rc == 0
        printed = capsys.readouterr().out.splitlines()
        assert sorted(printed) == sorted(str(p) for p in tmp_path.glob("*.saq1"))
        assert len(printed) == 3  # embed1, embed3, encoder1 are the sa shift layers

    def test_corrupt_manifest_exits_with_message(self, tmp_path, capsys):
        from test_data import QUAD_OFF, reseal_cache
        for split in ("train", "test"):
            d = tmp_path / "meshes" / "slab" / split
            d.mkdir(parents=True)
            (d / "good.off").write_text(QUAD_OFF)
        argv = ["train", "--data", f"modelnet40:{tmp_path / 'meshes'}", "--epochs", "0",
                "--out", str(tmp_path / "run")]
        assert main(argv) == 0
        cache = tmp_path / "meshes" / "sapc_cache" / "dataset.sapc"
        blob = cache.read_bytes()
        for corrupt in (lambda: cache.write_bytes(blob[:40]),
                        lambda: reseal_cache(cache, lambda _, rec: (b'{"seed": 7}', rec))):
            corrupt()
            capsys.readouterr()
            assert main(argv) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and str(cache) in err
            cache.write_bytes(blob)

    def test_config_class_names_must_be_the_data_classes(self, tmp_path, capsys):
        ini = tmp_path / "base.ini"
        ini.write_text(config_to_ini(tiny_cfg(class_names=("a", "b", "c", "d"))))
        argv = ["train", "--config", str(ini), "--out", str(tmp_path / "run")]
        assert main(argv) == 1
        assert not (tmp_path / "run").exists()
        assert capsys.readouterr().err == ("error: data synthetic has classes cube, disk, "
                                           "planes, sphere, but the config names a, b, c, d\n")

    def test_flag_error_under_a_config_file_names_no_file(self, tmp_path, capsys):
        ini = tmp_path / "base.ini"
        ini.write_text(config_to_ini(tiny_cfg()))
        argv = ["train", "--config", str(ini), "--batch-size", "0", "--out", str(tmp_path / "r")]
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: batch_size must be >= 1, got 0\n"

    def test_config_file_variant_survives_without_flag(self, tmp_path):
        ini = tmp_path / "base.ini"
        ini.write_text(config_to_ini(tiny_cfg(variant="add")))
        out = tmp_path / "cfg_run2"
        rc = main(["train", "--config", str(ini), "--epochs", "0", "--out", str(out)])
        assert rc == 0
        cfg = config_from_ini((out / "config.ini").read_text())
        assert cfg.variant == "add"


def _script(name):
    path = Path(__file__).resolve().parents[1] / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestScripts:
    def test_gain_rule_counts_a_crashed_pair_against_the_change(self):
        bench_pairs = _script("bench_pairs")
        parent, change = [100.0] * 10, [110.0] * 9 + [90.0]
        line = bench_pairs.fmt_compare
        met = line(bench_pairs.compare("higher", parent, change))
        assert "9/10 wins (meets the gain rule)" in met
        # one more pair in which the change crashed: 9 wins of 11 pairs run is short of 9/10
        short = line(bench_pairs.compare("higher", parent + [100.0], change + [None]))
        assert short.endswith("9/11 wins")
        assert line(bench_pairs.compare("lower", [None], [0.1])) == "no complete pair"

    def test_summary_json_row(self):
        bench_pairs = _script("bench_pairs")
        bench = {"end_to_end": [{"name": "clouds_per_s", "better": "higher"},
                                {"name": "setup_s", "better": "lower"}]}

        def run(cps, setup, correct=True, failed=0):
            return {"metrics": {"clouds_per_s": {"value": cps}, "setup_s": {"value": setup}},
                    "correct": correct, "failed": failed, "attempted": 4}

        runs = {"parent": [run(100.0, 1.0), run(102.0, 1.0), run(98.0, 1.2)],
                "change": [run(110.0, 0.9), None, run(99.0, 1.3, correct=False, failed=1)]}
        sides = {"minor_faults": {"parent": [900, 700, 800], "change": [40, 12, 30]},
                 "cpu_s": {"parent": [30.5, 29.0, 31.0], "change": [28.0, 2.5, 27.5]},
                 "steal_ticks": {"parent": [0, 3, None], "change": [None, None, None]}}
        row = bench_pairs.summary_json(bench, "desk-train", [5, 6, 7], runs, sides)
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
        assert row["cpu_s"] == {"parent": {"runs": [30.5, 29.0, 31.0], "median": 30.5},
                                "change": {"runs": [28.0, 2.5, 27.5], "median": 27.5}}
        # an unread steal counter is null and left out of the median
        assert row["steal_ticks"] == {"parent": {"runs": [0, 3, None], "median": 1.5},
                                      "change": {"runs": [None, None, None], "median": None}}
        assert not {"minor_faults", "cpu_s", "steal_ticks"} & set(row["metrics"])
        crashed = bench_pairs.summary_json(bench, "x", [1], {"parent": [None], "change": [None]},
                                           {"minor_faults": {"parent": [5], "change": [6]}})
        assert crashed["metrics"] == {"clouds_per_s": None, "setup_s": None}
        assert crashed["minor_faults"]["change"] == {"runs": [6], "median": 6}

    @pytest.mark.parametrize("last", ["perfbench: interrupted", '{"correct": true}', "[1, 2]"])
    def test_run_with_a_malformed_last_line_counts_as_crashed(self, monkeypatch, capsys, last):
        bench_pairs = _script("bench_pairs")
        done = subprocess.CompletedProcess([], 0, stdout=f"warm-up\n{last}\n",
                                           stderr="run.py: stopped\n")
        monkeypatch.setattr(bench_pairs.subprocess, "run", lambda *a, **kw: done)
        res, side = bench_pairs.run_once(Path("."), "w", 1, 0.1)
        assert res is None
        assert set(side) == set(bench_pairs.SIDE_RECORDS)  # the side records are kept
        assert capsys.readouterr().err == "run.py: stopped\n"

    def test_run_records_cpu_time_and_steal(self, tmp_path):
        bench_pairs = _script("bench_pairs")
        steal = bench_pairs.steal_ticks()
        assert steal is None or steal >= 0
        # a stand-in benchmark that burns CPU in a child of the run, then prints its line
        (tmp_path / "perfbench").mkdir()
        (tmp_path / "perfbench" / "run.py").write_text(
            "import subprocess, sys\n"
            "subprocess.run([sys.executable, '-c', 'sum(range(3_000_000))'], check=True)\n"
            "print('{\"metrics\": {}, \"correct\": true, \"failed\": 0}')\n")
        res, side = bench_pairs.run_once(tmp_path, "w", 1, 0.1)
        assert res == {"metrics": {}, "correct": True, "failed": 0}
        assert set(side) == set(bench_pairs.SIDE_RECORDS)
        assert side["cpu_s"] > 0 and side["minor_faults"] > 0
        assert side["steal_ticks"] is None or side["steal_ticks"] >= 0

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

    @pytest.mark.parametrize("script", ["run_desk_scale", "run_modelnet40"])
    def test_every_command_parses(self, tmp_path, capsys, script):
        args = argparse.Namespace(out=str(tmp_path / "runs"), epochs=1, seed=7,
                                  variants="mul,shift,add,sa", data=str(tmp_path / "meshes"))
        argvs = list(_script(script).commands(args))
        assert {argv[0] for argv in argvs} >= {"train", "eval", "grad-report"}
        parser = cli.build_parser()
        for argv in argvs:
            parser.parse_args(argv)  # a flag the parser lacks exits 2
