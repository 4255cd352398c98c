import itertools
import json
import re
import shlex
import shutil
import struct
import tempfile
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecgres import cli, errors, synthetic
from ecgres import model as md
from ecgres import segment as sg
from ecgres import wfdb_io as wf

from test_model import refuse_model
from test_segment import keys, write_edge_record, write_record


def run(argv):
    return cli.main([str(a) for a in argv])


@pytest.fixture(scope="module")
def preprocessed(synth_db_small, tmp_path_factory):
    out = tmp_path_factory.mktemp("pre")
    rc = run(["preprocess", "--data-dir", synth_db_small, "--output-dir", out, "--seed", 5])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def trained(synth_db_small, tmp_path_factory):
    """Sets of 300 beats each from `preprocess --per-set-size`, and a 3-epoch checkpoint."""
    out = tmp_path_factory.mktemp("trained")
    assert run(["preprocess", "--data-dir", synth_db_small, "--output-dir", out, "--seed", 5,
                "--per-set-size", 300]) == 0
    assert run(["train", "--output-dir", out, "--seed", 5, "--epochs", 3]) == 0
    return out


class TestIngest:
    def test_summary_and_index(self, synth_db_small, tmp_path, capsys):
        rc = run(["ingest", "--data-dir", synth_db_small, "--output-dir", tmp_path])
        assert rc == 0
        captured = capsys.readouterr().out
        assert "records excluded: 1 (102)" in captured
        assert "records selected: 5" in captured
        index = json.loads((tmp_path / "beat_index.json").read_text())
        assert index and all(e["code"] in "NLRAV" for e in index)
        assert all(e["record"] != "102" for e in index)

    def test_empty_directory_exit_2(self, tmp_path):
        assert run(["ingest", "--data-dir", tmp_path / "nothing"]) == 2

    def test_env_var_data_dir(self, synth_db_small, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.DATA_DIR_ENV, str(synth_db_small))
        rc = run(["ingest", "--output-dir", tmp_path])
        assert rc == 0

    def test_data_dir_flag_wins_over_env_var(self, synth_db_small, tmp_path, monkeypatch):
        (tmp_path / "empty").mkdir()
        monkeypatch.setenv(cli.DATA_DIR_ENV, str(tmp_path / "empty"))
        rc = run(["ingest", "--data-dir", synth_db_small, "--output-dir", tmp_path / "out"])
        assert rc == 0
        assert (tmp_path / "out" / "beat_index.json").exists()

    def test_output_dir_is_a_file_exit_2(self, synth_db_small, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        assert run(["ingest", "--data-dir", synth_db_small, "--output-dir", blocker]) == 2

    def test_non_integer_adc_zero_exit_2(self, synth_db_small, tmp_path):
        for ext in ("hea", "dat", "atr"):
            shutil.copy(synth_db_small / f"100.{ext}", tmp_path / f"100.{ext}")
        hea = tmp_path / "100.hea"
        lines = hea.read_text().splitlines()
        toks = lines[1].split()
        toks[4] = "10.5"
        lines[1] = " ".join(toks)
        hea.write_text("\n".join(lines) + "\n")
        assert run(["ingest", "--data-dir", tmp_path, "--output-dir", tmp_path / "o"]) == 2

    @pytest.mark.parametrize("adc_zero", ["1" + "0" * 400, "2048", "-2049"],
                             ids=["1e400", "2048", "-2049"])
    def test_adc_zero_outside_12_bits_exit_2(self, synth_db_small, tmp_path, capsys,
                                             adc_zero):
        # a float64-overflowing ADC zero used to escape as an OverflowError
        for ext in ("hea", "dat", "atr"):
            shutil.copy(synth_db_small / f"100.{ext}", tmp_path / f"100.{ext}")
        hea = tmp_path / "100.hea"
        lines = hea.read_text().splitlines()
        toks = lines[1].split()
        toks[4] = adc_zero
        lines[1] = " ".join(toks)
        hea.write_text("\n".join(lines) + "\n")
        assert run(["ingest", "--data-dir", tmp_path, "--output-dir", tmp_path / "o"]) == 2
        assert "line 2: ADC zero outside format 212's 12-bit range" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["ingest", "preprocess"])
def test_non_ascii_header_exit_2(synth_db_small, tmp_path, capsys, command):
    for ext in ("hea", "dat", "atr"):
        shutil.copy(synth_db_small / f"100.{ext}", tmp_path / f"100.{ext}")
    hea = tmp_path / "100.hea"
    data = bytearray(hea.read_bytes())
    data[5] = 0xFF
    hea.write_bytes(bytes(data))
    assert run([command, "--data-dir", tmp_path, "--output-dir", tmp_path / "o"]) == 2
    assert "100.hea: byte 0xFF at offset 5 is not ASCII" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["ingest", "preprocess"])
def test_header_naming_another_record_exit_2(synth_db_small, tmp_path, capsys, command):
    # 102.hea copied from 105 names record 105 and 105.dat: read as 105, its
    # beats were counted twice and could land in both sets
    for name, ext in itertools.product(("100", "105"), ("hea", "dat", "atr")):
        shutil.copy(synth_db_small / f"{name}.{ext}", tmp_path / f"{name}.{ext}")
    for ext in ("hea", "atr"):
        shutil.copy(synth_db_small / f"105.{ext}", tmp_path / f"102.{ext}")
    assert run([command, "--data-dir", tmp_path, "--output-dir", tmp_path / "o"]) == 2
    assert "102.hea: header declares record 105" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("rate", ["250", "0", "-5", "360.9", "359.99", "360.00001"])
@pytest.mark.parametrize("command", ["ingest", "preprocess", "predict"])
def test_other_sampling_rate_exit_2(synth_db_small, tmp_path, capsys, request, command, rate):
    # the 200-sample beat window assumes 360 Hz
    for ext in ("hea", "dat", "atr"):
        shutil.copy(synth_db_small / f"100.{ext}", tmp_path / f"100.{ext}")
    hea = tmp_path / "100.hea"
    lines = hea.read_text().splitlines()
    toks = lines[0].split()
    toks[2] = rate
    lines[0] = " ".join(toks)
    hea.write_text("\n".join(lines) + "\n")
    argv = [command, "--data-dir", tmp_path]
    if command == "predict":
        argv += ["--checkpoint", request.getfixturevalue("trained") / "checkpoint.ecgm",
                 "--record", "100", "--annotation-index", 0]
    else:
        argv += ["--output-dir", tmp_path / "o"]
    assert run(argv) == 2
    assert f"record 100: sampled at {rate} Hz, only 360 Hz is supported" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["preprocess", "predict"])
def test_record_too_short_to_denoise_exit_3_names_it(tmp_path, capsys, request, command):
    # both beats fit the 200-sample window, but 8-level db4 needs 2**8 samples
    write_record(tmp_path / "db", [100, 120], 240)
    argv = [command, "--data-dir", tmp_path / "db"]
    if command == "predict":
        argv += ["--checkpoint", request.getfixturevalue("trained") / "checkpoint.ecgm",
                 "--record", "100", "--annotation-index", 0]
    else:
        argv += ["--output-dir", tmp_path / "out"]
    assert run(argv) == 3
    assert capsys.readouterr().err == ("error: record 100: signal of length 240 too short; "
                                       "denoising needs at least 256 samples\n")
    assert not (tmp_path / "out").exists()


class TestPreprocess:
    def test_outputs_exist(self, preprocessed):
        assert (preprocessed / "train.ecgb").exists()
        assert (preprocessed / "test.ecgb").exists()

    def test_sets_disjoint(self, preprocessed):
        train = sg.load_segments(preprocessed / "train.ecgb")
        test = sg.load_segments(preprocessed / "test.ecgb")
        assert not (set(keys(train)) & set(keys(test)))

    def test_same_seed_byte_identical(self, synth_db_small, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run(["preprocess", "--data-dir", synth_db_small,
                        "--output-dir", out, "--seed", 11]) == 0
        assert (a / "train.ecgb").read_bytes() == (b / "train.ecgb").read_bytes()
        assert (a / "test.ecgb").read_bytes() == (b / "test.ecgb").read_bytes()

    def test_output_dir_is_a_file_exit_2(self, synth_db_small, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        assert run(["preprocess", "--data-dir", synth_db_small, "--output-dir", blocker]) == 2

    def test_per_set_size_too_large_exit_3(self, synth_db_small, tmp_path):
        rc = run(["preprocess", "--data-dir", synth_db_small, "--output-dir", tmp_path,
                  "--per-set-size", 10**7])
        assert rc == 3


class TestTrain:
    def test_artifacts_and_loss_decrease(self, trained):
        assert (trained / "checkpoint.ecgm").exists()
        lines = (trained / "curves.csv").read_text().splitlines()
        assert lines[0] == "epoch,train_loss,train_acc,test_acc,seconds"
        losses = [float(ln.split(",")[1]) for ln in lines[1:]]
        assert len(losses) == 3
        assert losses[-1] < losses[0]

    def test_missing_dataset_exit_3(self, tmp_path):
        rc = run(["train", "--output-dir", tmp_path, "--epochs", 1])
        assert rc == 3

    @pytest.mark.parametrize("empty", ["train.ecgb", "test.ecgb"])
    def test_zero_beat_set_exit_3_before_training(self, preprocessed, tmp_path, empty):
        for name in ("train.ecgb", "test.ecgb"):
            shutil.copy(preprocessed / name, tmp_path / name)
        sg.save_segments(sg.Beats.concat([]), tmp_path / empty)
        rc = run(["train", "--output-dir", tmp_path, "--epochs", 1])
        assert rc == 3
        assert not (tmp_path / "checkpoint.ecgm").exists()
        assert not (tmp_path / "curves.csv").exists()

    def test_trains_with_the_papers_protocol(self, trained, tmp_path):
        """`train` runs Adam at lr 0.001 in batches of 32: its checkpoint is
        byte-identical to `model.train` with those values on the same split."""
        for name in ("train.ecgb", "test.ecgb"):
            shutil.copy(trained / name, tmp_path / name)
        assert run(["train", "--output-dir", tmp_path, "--epochs", 1, "--seed", 5]) == 0
        split = sg.DatasetSplit(*(sg.load_segments(tmp_path / name)
                                  for name in ("train.ecgb", "test.ecgb")), 5)
        model = md.build_model(md.ModelConfig(seed=5))
        md.train(model, split, md.TrainConfig(epochs=1, batch_size=32, learning_rate=0.001,
                                              shuffle_seed=5))
        md.save_checkpoint(model, tmp_path / "protocol.ecgm")
        assert ((tmp_path / "checkpoint.ecgm").read_bytes()
                == (tmp_path / "protocol.ecgm").read_bytes())


class TestEvaluate:
    def test_matches_training_report(self, trained, tmp_path, capsys):
        rc = run(["evaluate", "--checkpoint", trained / "checkpoint.ecgm",
                  "--dataset", trained / "test.ecgb",
                  "--output-dir", tmp_path])
        assert rc == 0
        doc = json.loads((tmp_path / "metrics.json").read_text())
        assert 0.0 <= doc["overall_accuracy"] <= 1.0
        assert (tmp_path / "confusion.csv").exists()

    def test_corrupt_checkpoint_exit_5(self, trained, tmp_path):
        bad = tmp_path / "bad.ecgm"
        bad.write_bytes(b"XXXX" + bytes(64))
        rc = run(["evaluate", "--checkpoint", bad,
                  "--dataset", trained / "test.ecgb", "--output-dir", tmp_path])
        assert rc == 5

    @pytest.mark.parametrize("field, value", [
        ("conv_kernel", 0), ("conv_stride", 0), ("pool_stride", 0), ("fc_hidden", 0),
        ("seed", -1),
        ("pool_window", 100), ("input_length", 4),  # a stage would shrink to nothing
        ("fc_hidden", 10**9),  # a ~430 GB fc1
        ("input_length", 200),
    ])
    def test_bad_config_block_exit_5(self, trained, tmp_path, monkeypatch, field, value):
        monkeypatch.setattr(md.Model, "__init__", refuse_model)  # no Model is built
        config = {**md.ARCHITECTURE, "seed": 0, field: value}
        text = "".join(f"{k}={v}\n" for k, v in config.items()).encode()
        bad = tmp_path / "bad.ecgm"
        bad.write_bytes(md.CHECKPOINT_MAGIC
                        + struct.pack("<HI", md.CHECKPOINT_VERSION, len(text)) + text)
        rc = run(["evaluate", "--checkpoint", bad,
                  "--dataset", trained / "test.ecgb", "--output-dir", tmp_path / "out"])
        assert rc == 5
        assert not (tmp_path / "out").exists()

    def test_model_input_length_mismatch_exit_5(self, trained, tmp_path):
        data = (trained / "checkpoint.ecgm").read_bytes()
        other = tmp_path / "long.ecgm"
        other.write_bytes(data.replace(b"input_length=180\n", b"input_length=200\n"))
        rc = run(["evaluate", "--checkpoint", other,
                  "--dataset", trained / "test.ecgb", "--output-dir", tmp_path / "out"])
        assert rc == 5
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_weight_exit_5(self, trained, tmp_path, capsys, value):
        model = md.load_checkpoint(trained / "checkpoint.ecgm")
        model.fc2.params["b"][2] = value
        bad = tmp_path / "bad.ecgm"
        md.save_checkpoint(model, bad)
        rc = run(["evaluate", "--checkpoint", bad,
                  "--dataset", trained / "test.ecgb", "--output-dir", tmp_path / "out"])
        assert rc == 5
        assert "fc2.b" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_unwritable_report_dir_exit_2(self, trained, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        rc = run(["evaluate", "--checkpoint", trained / "checkpoint.ecgm",
                  "--dataset", trained / "test.ecgb", "--output-dir", blocker])
        assert rc == 2

    def test_short_dataset_header_exit_2(self, trained, tmp_path):
        short = tmp_path / "short.ecgb"
        short.write_bytes(b"ECGB")
        rc = run(["evaluate", "--checkpoint", trained / "checkpoint.ecgm",
                  "--dataset", short, "--output-dir", tmp_path / "out"])
        assert rc == 2

    def test_zero_beat_dataset_exit_3(self, trained, tmp_path):
        empty = tmp_path / "empty.ecgb"
        sg.save_segments(sg.Beats.concat([]), empty)
        rc = run(["evaluate", "--checkpoint", trained / "checkpoint.ecgm",
                  "--dataset", empty, "--output-dir", tmp_path / "out"])
        assert rc == 3
        assert not (tmp_path / "out").exists()

    def test_trailing_bytes_exit_2(self, trained, tmp_path):
        padded = tmp_path / "padded.ecgb"
        padded.write_bytes((trained / "test.ecgb").read_bytes() + b"garbage")
        rc = run(["evaluate", "--checkpoint", trained / "checkpoint.ecgm",
                  "--dataset", padded, "--output-dir", tmp_path / "out"])
        assert rc == 2
        assert not (tmp_path / "out").exists()

    def test_deterministic_metrics(self, trained, tmp_path):
        outs = []
        for name in ("m1", "m2"):
            out = tmp_path / name
            assert run(["evaluate", "--checkpoint", trained / "checkpoint.ecgm",
                        "--dataset", trained / "test.ecgb",
                        "--output-dir", out]) == 0
            outs.append((out / "metrics.json").read_bytes())
        assert outs[0] == outs[1]


class TestPredict:
    def test_prints_class_and_probabilities(self, trained, synth_db_small, capsys):
        rc = run(["predict", "--checkpoint", trained / "checkpoint.ecgm",
                  "--data-dir", synth_db_small, "--record", "100",
                  "--annotation-index", 0])
        assert rc == 0
        out = capsys.readouterr().out
        assert "predicted:" in out
        probs = [float(ln.split()[-1]) for ln in out.splitlines()
                 if ln.strip().split()[0] in ("NOR", "LBBB", "RBBB", "APC", "PVC")]
        assert len(probs) == 5
        assert sum(probs) == pytest.approx(1.0, abs=1e-3)

    def test_beat_at_record_edge_exit_3(self, trained, tmp_path, capsys):
        write_edge_record(tmp_path)
        argv = ["predict", "--checkpoint", trained / "checkpoint.ecgm",
                "--data-dir", tmp_path, "--record", "100", "--annotation-index"]
        assert run(argv + [0]) == 3
        assert "within 100 samples" in capsys.readouterr().err
        assert run(argv + [1]) == 0
        assert run(argv + [2]) == 3

    def test_index_out_of_range_exit_2(self, trained, synth_db_small):
        rc = run(["predict", "--checkpoint", trained / "checkpoint.ecgm",
                  "--data-dir", synth_db_small, "--record", "100",
                  "--annotation-index", 10**6])
        assert rc == 2

    def test_probabilities_of_the_beat_preprocess_wrote(self, trained, preprocessed,
                                                        synth_db_small, capsys):
        """`predict` denoises and cuts its beat as `preprocess` did: it prints
        what `predict_batch` gives on that beat's `.ecgb` row."""
        model = md.load_checkpoint(trained / "checkpoint.ecgm")
        written = sg.Beats.concat([sg.load_segments(preprocessed / f)
                                   for f in ("train.ecgb", "test.ecgb")])
        centers = wf.select_dataset([wf.load_record(synth_db_small, "100")]).centers
        for index in (1, 17, 42):
            assert run(["predict", "--checkpoint", trained / "checkpoint.ecgm",
                        "--data-dir", synth_db_small, "--record", "100",
                        "--annotation-index", index]) == 0
            (row,) = np.flatnonzero((written.record_ids == "100")
                                    & (written.annotation_index == centers[index]))
            pred, probs = md.predict_batch(model, sg.segments_to_arrays(written[row])[0])
            want = f"predicted: {wf.BeatClass(pred[0]).name}\n" + "".join(
                f"  {c.name:5s} {probs[0, c]:.4f}\n" for c in wf.BeatClass)
            assert capsys.readouterr().out.endswith(want)


# The shared flags each subcommand reads, and so accepts (README "CLI").
SHARED_FLAGS = {"ingest": ("--data-dir", "--output-dir"),
                "preprocess": ("--data-dir", "--output-dir", "--seed"),
                "train": ("--output-dir", "--seed"), "evaluate": ("--output-dir",),
                "predict": ("--data-dir",)}
# The flags evaluate and predict require; the files they name are never read here.
REQUIRED = {"evaluate": ["--checkpoint", "checkpoint.ecgm", "--dataset", "test.ecgb"],
            "predict": ["--checkpoint", "checkpoint.ecgm", "--record", "100",
                        "--annotation-index", 0]}


def parse(argv):
    return cli.build_parser().parse_args([str(a) for a in argv])


@pytest.mark.parametrize("flag", ["--data-dir", "--output-dir", "--seed"])
@pytest.mark.parametrize("command", list(SHARED_FLAGS))
def test_shared_flag_accepted_only_where_read(tmp_path, capsys, monkeypatch, command, flag):
    """A subcommand takes a shared flag, with its default, exactly when it
    reads it. Elsewhere the flag is an unrecognized argument: exit 2, nothing
    written."""
    monkeypatch.delenv(cli.DATA_DIR_ENV, raising=False)
    monkeypatch.chdir(tmp_path)
    argv, dest = [command, *REQUIRED.get(command, [])], flag[2:].replace("-", "_")
    if flag in SHARED_FLAGS[command]:
        default = {"--data-dir": ".", "--output-dir": "out", "--seed": 0}[flag]
        assert getattr(parse(argv), dest) == default
        assert getattr(parse([*argv, flag, 7]), dest) == (7 if flag == "--seed" else "7")
        if flag == "--data-dir":
            monkeypatch.setenv(cli.DATA_DIR_ENV, "db")
            assert parse(argv).data_dir == "db"
        return
    with pytest.raises(SystemExit) as exit_:
        run([*argv, flag, 7])
    assert exit_.value.code == 2
    assert f"unrecognized arguments: {flag} 7" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


class TestRejectedFlags:
    """A flag out of range or not accepted exits 2 before any file is written."""

    @pytest.fixture
    def work(self, preprocessed, tmp_path):
        work = tmp_path / "work"
        work.mkdir()
        for name in ("train.ecgb", "test.ecgb"):
            shutil.copy(preprocessed / name, work / name)
        return work

    def train(self, work, argv=()):
        """Exit code of a one-epoch `train` in `work`, and the files left there."""
        rc = run(["train", "--output-dir", work, *argv])
        return rc, sorted(p.name for p in work.iterdir())

    # The ids keep the names these cases had when the --limit cases sat between them.
    @pytest.mark.parametrize("argv", [
        pytest.param(["--epochs", 0], id="argv0"),
        pytest.param(["--epochs", 1, "--seed", -1], id="argv3"),
    ])
    def test_count_below_one_exit_2(self, work, argv):
        assert self.train(work, argv) == (2, ["test.ecgb", "train.ecgb"])

    def test_optimizer_is_not_a_setting_exit_2(self, work):
        with pytest.raises(SystemExit) as exit_:
            self.train(work, ["--epochs", 1, "--optimizer", "sgd"])
        assert exit_.value.code == 2
        assert sorted(p.name for p in work.iterdir()) == ["test.ecgb", "train.ecgb"]

    @pytest.mark.parametrize("command", ["preprocess", "predict"])
    @pytest.mark.parametrize("flag", [["--levels", 8], ["--window", 251],
                                      ["--threshold-mode", "soft"]],
                             ids=["levels", "window", "threshold_mode"])
    def test_denoising_is_not_a_setting_exit_2(self, synth_db_small, tmp_path, capsys, request,
                                               command, flag):
        """The db4 denoising is fixed: its old flags are unrecognized
        arguments, even at their old defaults."""
        argv = [command, "--data-dir", synth_db_small]
        if command == "predict":
            argv += ["--checkpoint", request.getfixturevalue("trained") / "checkpoint.ecgm",
                     "--record", "100", "--annotation-index", 0]
        else:
            argv += ["--output-dir", tmp_path / "out"]
        with pytest.raises(SystemExit) as exit_:
            run(argv + flag)
        assert exit_.value.code == 2
        assert f"unrecognized arguments: {flag[0]}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("value, flags", [
        (32, ["--batch-size"]),
        (0.001, ["--learning-rate", "--lr"]),
    ], ids=["batch_size", "learning_rate"])
    def test_training_protocol_is_not_a_setting_exit_2(self, work, capsys, value, flags):
        """Adam at lr 0.001 in batches of 32 is fixed: the old flags are
        unrecognized arguments, even at the protocol's values."""
        for flag in flags:
            with pytest.raises(SystemExit) as exit_:
                self.train(work, ["--epochs", 1, flag, value])
            assert exit_.value.code == 2
            assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        assert sorted(p.name for p in work.iterdir()) == ["test.ecgb", "train.ecgb"]

    @pytest.mark.parametrize("size", [-5, 0])
    def test_per_set_size_below_one_exit_2(self, synth_db_small, tmp_path, size):
        rc = run(["preprocess", "--data-dir", synth_db_small, "--output-dir", tmp_path / "out",
                  "--per-set-size", size])
        assert rc == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["train", "evaluate"])
    def test_beats_are_chosen_only_in_preprocess_exit_2(self, trained, tmp_path, capsys,
                                                        command):
        """`preprocess --per-set-size` fixes a run's beats: `train` and
        `evaluate` draw no subset, so `--limit` is an unrecognized argument
        and nothing is written (`evaluate --seed`, which seeded that draw,
        is in `SHARED_FLAGS`' test)."""
        for name in ("train.ecgb", "test.ecgb", "checkpoint.ecgm"):
            shutil.copy(trained / name, tmp_path / name)
        argv = {"train": ["--output-dir", tmp_path, "--epochs", 1],
                "evaluate": ["--checkpoint", tmp_path / "checkpoint.ecgm",
                             "--dataset", tmp_path / "test.ecgb",
                             "--output-dir", tmp_path / "out"]}[command]
        with pytest.raises(SystemExit) as exit_:
            run([command, *argv, "--limit", 50])
        assert exit_.value.code == 2
        assert "unrecognized arguments: --limit 50" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["checkpoint.ecgm", "test.ecgb",
                                                             "train.ecgb"]

    @pytest.mark.parametrize("command", ["ingest", "preprocess", "train", "evaluate", "predict"])
    def test_config_file_is_not_a_setting_exit_2(self, synth_db_small, tmp_path, capsys,
                                                 command):
        """Each setting is a flag: `--config` is an unrecognized argument and
        the file it names is not read."""
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"seed": 2}))
        values = {"--data-dir": synth_db_small, "--output-dir": tmp_path / "out"}
        argv = [command, *REQUIRED.get(command, [])]
        for flag in SHARED_FLAGS[command]:
            if flag in values:
                argv += [flag, values[flag]]
        with pytest.raises(SystemExit) as exit_:
            run([*argv, "--config", config])
        assert exit_.value.code == 2
        assert f"unrecognized arguments: --config {config}" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["run.json"]


@pytest.mark.parametrize("command, name", [("evaluate", "test.ecgb"), ("train", "train.ecgb")])
@pytest.mark.parametrize("value", [np.nan, 7.0, -np.inf])
def test_sample_outside_unit_range_exit_2_names_the_file(trained, tmp_path, capsys,
                                                         command, name, value):
    """`cut_beats` writes samples in [-1, 1] only; any other .ecgb sample is
    a parse error that names the file and its first bad segment."""
    for f in ("train.ecgb", "test.ecgb"):
        shutil.copy(trained / f, tmp_path / f)
    beats = sg.load_segments(tmp_path / name)
    samples = beats.samples.copy()
    samples[3, 90] = samples[5, 0] = value
    sg.save_segments(sg.Beats(samples, beats.labels, beats.record_ids,
                              beats.annotation_index), tmp_path / name)
    argv = {"evaluate": ["--checkpoint", trained / "checkpoint.ecgm",
                         "--dataset", tmp_path / name, "--output-dir", tmp_path / "out"],
            "train": ["--output-dir", tmp_path, "--epochs", 1]}[command]
    assert run([command, *argv]) == 2
    assert f"{tmp_path / name}: segment 3 has a sample outside [-1, 1]" in capsys.readouterr().err
    assert sorted(f.name for f in tmp_path.iterdir()) == ["test.ecgb", "train.ecgb"]


@pytest.mark.parametrize("command", ["ingest", "preprocess"])
def test_reads_one_record_at_a_time(command, synth_db_small, tmp_path, monkeypatch):
    """No two loaded records are alive at once: each is dropped before the next loads."""
    live, alive_at_load, ids = set(), [], itertools.count()
    real = wf.load_record

    def load_record(*args, **kwargs):
        rec = real(*args, **kwargs)
        key = next(ids)
        live.add(key)
        weakref.finalize(rec, live.discard, key)
        alive_at_load.append(len(live))
        return rec

    monkeypatch.setattr(wf, "load_record", load_record)
    assert run([command, "--data-dir", synth_db_small, "--output-dir", tmp_path]) == 0
    assert len(alive_at_load) == len(wf.discover_records(synth_db_small)) >= 4
    assert max(alive_at_load) == 1


# The exit code of every error class, and of OSError, as `main` maps them.
EXIT_CODES = [
    (errors.EcgresError, 3), (errors.ParseError, 2), (errors.NumericError, 4),
    (errors.CheckpointError, 5), (OSError, 2),
]


@pytest.mark.parametrize("cls, code", EXIT_CODES, ids=[c.__name__ for c, _ in EXIT_CODES])
def test_error_class_exit_code(cls, code, monkeypatch, capsys):
    def fail(cfg):
        raise cls("boom")

    monkeypatch.setattr(cli, "cmd_ingest", fail)
    assert cli.main(["ingest"]) == code
    assert capsys.readouterr().err == "error: boom\n"


def test_every_error_class_has_a_pinned_exit_code():
    pinned = {cls for cls, _ in EXIT_CODES}
    assert {c for c in vars(errors).values()
            if isinstance(c, type) and issubclass(c, errors.EcgresError)} == pinned - {OSError}


ROOT = Path(__file__).resolve().parents[1]


def parse_documented(text, values=None):
    """Parse every `ecgres ...` line of shell text, with `\\` continuations
    joined, each shell variable replaced by its entry in `values` and comments
    dropped; return the subcommands in order."""
    text = text.replace("\\\n", " ")
    commands = []
    for ln in text.splitlines():
        if ln.startswith("ecgres "):
            ln = re.sub(r"\$\{?(\w+)\}?", lambda m: values[m.group(1)], ln)
            commands.append(parse(shlex.split(ln, comments=True)[1:]).command)
    return commands


def test_full_protocol_script_flags_parse():
    """Every `ecgres ...` line of the protocol script is valid CLI input."""
    text = (ROOT / "scripts" / "run_full_protocol.sh").read_text()
    values = {"MITDB_DIR": "/data/mitdb", "OUT": "runs/full"}
    assert parse_documented(text, values) == ["preprocess", "train", "evaluate"]


def test_readme_commands_parse():
    """Every `ecgres ...` line of the README's sh blocks is valid CLI input,
    so a flag the CLI drops cannot linger in the documented commands."""
    blocks = re.findall(r"^```sh\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S)
    assert parse_documented("".join(blocks)) == ["ingest", "preprocess", "train", "evaluate",
                                                 "predict"]


# The exit codes a corrupted file of each kind may end in (cli's module
# docstring): a refused checkpoint is 5, and no corrupted input reaches training
# with a non-finite value (4).
CORRUPTION_EXIT_CODES = {".hea": {0, 2, 3}, ".dat": {0, 2, 3}, ".atr": {0, 2, 3},
                         ".ecgb": {0, 2, 3}, ".ecgm": {0, 5}}


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    """The bytes of a one-record database, its preprocessed sets and a
    one-epoch checkpoint, made once for every corruption below."""
    root = tmp_path_factory.mktemp("pristine")
    synthetic.make_database(root, duration_s=60, seed=11, records=["100"])
    assert run(["preprocess", "--data-dir", root, "--output-dir", root,
                "--per-set-size", 32]) == 0
    assert run(["train", "--output-dir", root, "--epochs", 1]) == 0
    return {p.name: p.read_bytes() for p in root.iterdir() if p.suffix != ".csv"}


def corrupt(draw, data: bytes) -> bytes:
    """One drawn corruption: a byte set, a truncation, appended bytes or one
    space-separated token replaced (a header field, in a .hea file)."""
    kind = draw(st.sampled_from(["set", "truncate", "append", "token"]))
    if kind == "set":
        pos = draw(st.integers(0, len(data) - 1))
        return data[:pos] + bytes([draw(st.integers(0, 255))]) + data[pos + 1:]
    if kind == "truncate":
        return data[:draw(st.integers(0, len(data) - 1))]
    if kind == "append":
        return data + draw(st.binary(min_size=1, max_size=16))
    toks = data.split(b" ")
    pos = draw(st.integers(0, len(toks) - 1))
    toks[pos] = draw(st.sampled_from(
        [b"", b"0", b"-1", b"1e400", b"nan", b"99999999999999999999", b"x", b"212+1"]))
    return b" ".join(toks)


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_corrupted_input_ends_in_a_documented_exit_code(pristine, data):
    """One corrupted file through every command that reads it, via cli.main:
    a WFDB file through ingest, preprocess and predict, a .ecgb or .ecgm file
    through evaluate and train. No exception may escape and only an exit code
    documented for that kind of file may come back."""
    name = data.draw(st.sampled_from(sorted(pristine)), label="file")
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for other, content in pristine.items():
            (work / other).write_bytes(content)
        (work / name).write_bytes(corrupt(data.draw, pristine[name]))
        db, out, seed = ["--data-dir", work], ["--output-dir", work / "out"], ["--seed", 0]
        predict = ["predict", *db, "--checkpoint", work / "checkpoint.ecgm",
                   "--record", "100", "--annotation-index", 5]
        if name.endswith((".hea", ".dat", ".atr")):
            commands = [["ingest", *db, *out], ["preprocess", *db, *out, *seed], predict]
        else:
            dataset = work / (name if name.endswith(".ecgb") else "test.ecgb")
            commands = [["evaluate", *out, "--checkpoint", work / "checkpoint.ecgm",
                         "--dataset", dataset],
                        ["train", "--output-dir", work, "--epochs", 1]]
        for argv in commands:
            assert run(argv) in CORRUPTION_EXIT_CODES[Path(name).suffix], argv[0]


def _sample_count_zero(data: bytes) -> bytes:
    first, rest = data.split(b"\n", 1)
    toks = first.split(b" ")
    toks[3] = b"0"
    return b" ".join(toks) + b"\n" + rest


def _annotation_past_the_end(data: bytes) -> bytes:
    samples, codes = wf.parse_annotations(data)
    symbols = [wf.ANNOTATION_SYMBOLS[c] for c in codes.tolist()]
    return wf.encode_annotations([*samples.tolist(), 21771], [*symbols, "N"])


@pytest.mark.parametrize("name, damage, message", [
    ("100.hea", _sample_count_zero, "line 1: non-positive sample count 0"),
    ("100.dat", lambda data: data[:100], "format-212 file too short: need 64800 bytes for "
                                         "21600 samples/channel, got 100"),
    ("100.dat", lambda data: data + bytes(6), "format-212 file too long: need 64800 bytes for "
                                              "21600 samples/channel, got 64806"),
    ("100.atr", lambda data: data[:-2], "annotation stream missing zero terminator"),
    ("100.atr", _annotation_past_the_end,
     "annotation at sample 21771 outside record of 21600 samples"),
], ids=["hea-zero-samples", "dat-truncated", "dat-appended", "atr-unterminated",
        "atr-past-the-end"])
@pytest.mark.parametrize("command", ["ingest", "preprocess", "predict"])
def test_reader_error_exit_2_names_the_file(pristine, tmp_path, capsys, command, name, damage,
                                            message):
    for other, content in pristine.items():
        (tmp_path / other).write_bytes(content)
    (tmp_path / name).write_bytes(damage(pristine[name]))
    argv = [command, "--data-dir", tmp_path]
    if command == "predict":
        argv += ["--checkpoint", tmp_path / "checkpoint.ecgm", "--record", "100",
                 "--annotation-index", 5]
    else:
        argv += ["--output-dir", tmp_path / "out"]
    assert run(argv) == 2
    assert capsys.readouterr().err == f"error: {tmp_path / name}: {message}\n"
    assert not (tmp_path / "out").exists()
