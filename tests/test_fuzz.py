"""Malformed input to the two decoders raises only MulfreeError subclasses."""

import struct
import zlib

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mulfree.cli import RunConfig, config_to_ini, load_checkpoint, save_checkpoint
from mulfree.data import parse_off
from mulfree.errors import MulfreeError
from mulfree.models import build_model
from mulfree.tensor import substream

FUZZ = settings(deadline=None, max_examples=60,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


@pytest.fixture(scope="module")
def ckpt_blob(tmp_path_factory):
    """A valid checkpoint of a tiny sa model: magic, body, CRC."""
    cfg = RunConfig(variant="sa", embed_widths=(2, 2, 2, 2), encoder_widths=(2, 2),
                    head_widths=(2,), num_classes=2, knn_k=1, synth_points=8)
    path = tmp_path_factory.mktemp("fuzz") / "tiny.bin"
    save_checkpoint(path, build_model(cfg.model_config(), substream(0, 0)), config_to_ini(cfg))
    return path.read_bytes()


def load_bytes(tmp_path, blob):
    path = tmp_path / "fuzzed.bin"
    path.write_bytes(blob)
    try:
        load_checkpoint(path)
    except MulfreeError:
        pass


def reseal(blob, body):
    return blob[:4] + bytes(body) + struct.pack("<I", zlib.crc32(bytes(body)))


def test_tiny_checkpoint_loads(ckpt_blob, tmp_path):
    path = tmp_path / "ok.bin"
    path.write_bytes(ckpt_blob)
    model, cfg = load_checkpoint(path)
    assert cfg.variant == "sa"


mutations = st.lists(st.tuples(st.integers(0, 2 ** 16), st.integers(0, 255)),
                     min_size=1, max_size=4)


@FUZZ
@given(mutations)
def test_checkpoint_byte_mutations(ckpt_blob, tmp_path, muts):
    blob = bytearray(ckpt_blob)
    for at, value in muts:
        blob[at % len(blob)] = value
    load_bytes(tmp_path, bytes(blob))


@FUZZ
@given(mutations, st.booleans())
def test_checkpoint_resealed_mutations(ckpt_blob, tmp_path, muts, in_config):
    body = bytearray(ckpt_blob[4:-4])
    (cfg_len,) = struct.unpack_from("<I", body, 2)
    for at, value in muts:
        # half the examples aim at the embedded config, the rest anywhere in the body
        body[6 + at % cfg_len if in_config else at % len(body)] = value
    load_bytes(tmp_path, reseal(ckpt_blob, body))


@FUZZ
@given(st.integers(0, 2 ** 16), st.booleans())
def test_checkpoint_truncations(ckpt_blob, tmp_path, cut, resealed):
    if resealed:
        body = ckpt_blob[4:-4]
        load_bytes(tmp_path, reseal(ckpt_blob, body[: cut % len(body)]))
    else:
        load_bytes(tmp_path, ckpt_blob[: cut % len(ckpt_blob)])


OFF_TOKENS = st.sampled_from(["OFF", "OFF3", "0", "1", "2", "3", "4", "-1", "-2", "0.5",
                              "1e999", "nan", "99999999999", "#", " ", "\n", "x"])


@settings(deadline=None, max_examples=150)
@given(st.one_of(st.text(max_size=200),
                 st.lists(OFF_TOKENS, max_size=60).map(" ".join)))
def test_parse_off_arbitrary_text(text):
    try:
        parse_off(text)
    except MulfreeError:
        pass
