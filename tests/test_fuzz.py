"""Malformed input to the decoders raises only MulfreeError subclasses."""

import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mulfree.cli import (RunConfig, config_from_ini, config_to_ini, load_checkpoint,
                         save_checkpoint)
from mulfree.data import (CACHE_NAME, DatasetManifest, PointDataset, cache_read, cache_write,
                          load_dataset, parse_off, synth_shapes)
from mulfree.errors import CacheError, MulfreeError
from mulfree.framing import frame
from mulfree.layers import quantize_shift
from mulfree.models import build_model
from mulfree.shiftquant import pack_weights, unpack_weights
from mulfree.tensor import substream
from test_data import reseal_cache

FUZZ = settings(deadline=None, max_examples=60,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


@pytest.fixture(scope="module")
def ckpt_blob(tmp_path_factory):
    """A valid checkpoint of a tiny sa model: magic, body, CRC."""
    cfg = RunConfig(variant="sa", embed_widths=(2, 2, 2, 2), encoder_widths=(2, 2),
                    head_widths=(2,), knn_k=1, points=8)
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
    return frame(blob[:4], body)


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


@pytest.fixture(scope="module", params=["sapc", "saq1"])
def framed(request, tmp_path_factory):
    """(valid blob, decoder) for a tiny point cache or packed shift tensor."""
    if request.param == "saq1":
        s, p, _ = quantize_shift(substream(0, 1).uniform(-1, 1, (3, 5)).astype(np.float32))
        return pack_weights(s, p), unpack_weights
    path = tmp_path_factory.mktemp("sapc") / "tiny.sapc"
    names = ["a", "b", "c"]
    clouds = substream(0, 2).standard_normal((4, 4, 3))
    cache_write(path, PointDataset(clouds[:3], np.arange(3), names),
                PointDataset(clouds[3:], np.array([1]), names),
                DatasetManifest(names, ["a/0", "b/0", "c/0"], ["b/1"], 0))

    def decode(blob):
        path.write_bytes(blob)
        return cache_read(path)

    return path.read_bytes(), decode


def decode_or_fail_cleanly(decode, blob):
    try:
        decode(blob)
    except MulfreeError:
        pass


def test_framed_blobs_decode(framed):
    blob, decode = framed
    decode(blob)


@FUZZ
@given(mutations, st.booleans())
def test_framed_byte_mutations(framed, muts, resealed):
    blob, decode = framed
    data = bytearray(blob if not resealed else blob[4:-4])
    for at, value in muts:
        data[at % len(data)] = value
    decode_or_fail_cleanly(decode, reseal(blob, data) if resealed else bytes(data))


@FUZZ
@given(st.integers(0, 2 ** 16), st.booleans())
def test_framed_truncations(framed, cut, resealed):
    blob, decode = framed
    if resealed:
        body = blob[4:-4]
        decode_or_fail_cleanly(decode, reseal(blob, body[: cut % len(body)]))
    else:
        decode_or_fail_cleanly(decode, blob[: cut % len(blob)])


INI = config_to_ini(RunConfig(embed_widths=(4, 4, 8, 8), class_names=("a", "b")))
INI_BYTES = st.sampled_from(b"[]=,:%#;\n ab0-9.e")


@FUZZ
@given(st.lists(st.tuples(st.integers(0, 2 ** 16), INI_BYTES), min_size=1, max_size=6),
       st.integers(0, 2 ** 16))
def test_config_from_ini_mutations(muts, cut):
    text = bytearray(INI.encode())
    for at, value in muts:
        text[at % len(text)] = value
    try:
        config_from_ini(bytes(text[: len(text) - cut % 8]).decode())
    except MulfreeError:
        pass


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    """(directory, embedded manifest bytes) of a cached tiny synthetic dataset."""
    path = tmp_path_factory.mktemp("dataset")
    cache_write(path / CACHE_NAME, *synth_shapes(3, 64, seed=0))
    blob = (path / CACHE_NAME).read_bytes()
    (text_len,) = struct.unpack_from("<I", blob, 14)  # after magic, version and cloud size
    return path, blob[18 : 18 + text_len]


def with_manifest(path, text):
    """Replace the cache's embedded manifest by text, resealed."""
    reseal_cache(path, lambda _, records: (text, records))


def load_with_manifest(dataset_dir, blob):
    path, _ = dataset_dir
    with_manifest(path / CACHE_NAME, blob)
    try:
        load_dataset(path)
    except MulfreeError:
        pass


JSON_BYTES = st.sampled_from(b'[]{}",:0123456789 -.eanul')


@FUZZ
@given(st.lists(st.tuples(st.integers(0, 2 ** 16), st.one_of(st.integers(0, 255), JSON_BYTES)),
                min_size=1, max_size=4))
def test_manifest_byte_mutations(dataset_dir, muts):
    blob = bytearray(dataset_dir[1])
    for at, value in muts:
        blob[at % len(blob)] = value
    load_with_manifest(dataset_dir, bytes(blob))


@FUZZ
@given(st.integers(0, 2 ** 16))
def test_manifest_truncations(dataset_dir, cut):
    blob = dataset_dir[1]
    load_with_manifest(dataset_dir, blob[: cut % len(blob)])


def test_manifest_errors_name_the_file(dataset_dir):
    path, blob = dataset_dir
    for bad in (blob[:40], b"\xff", b'{"seed": 7}', b"[1, 2]", blob.replace(b'"cube"', b"7")):
        with_manifest(path / CACHE_NAME, bad)
        with pytest.raises(CacheError, match=f"{CACHE_NAME}: malformed manifest"):
            load_dataset(path)
    with_manifest(path / CACHE_NAME, blob)
    load_dataset(path)
