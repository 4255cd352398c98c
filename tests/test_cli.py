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
from test_segment import keys, write_edge_record


def run(argv):
    return cli.main([str(a) for a in argv])


@pytest.fixture(scope="module")
def preprocessed(synth_db_small, tmp_path_factory):
    out = tmp_path_factory.mktemp("pre")
    rc = run(["preprocess", "--data-dir", synth_db_small, "--output-dir", out, "--seed", 5])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def trained(preprocessed, synth_db_small):
    rc = run([
        "train", "--data-dir", synth_db_small, "--output-dir", preprocessed,
        "--seed", 5, "--epochs", 3, "--limit", 300,
    ])
    assert rc == 0
    return preprocessed


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

    def test_config_file(self, synth_db_small, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "data_dir": str(synth_db_small),
            "output_dir": str(tmp_path / "out"),
            "seed": 2,
        }))
        assert run(["preprocess", "--config", cfg]) == 0
        assert (tmp_path / "out" / "train.ecgb").exists()

    @pytest.mark.parametrize("argv, config", [
        (["--levels", 0], None),
        (["--window", 2], None),
        ([], {"threshold_mode": "fuzzy"}),
    ])
    def test_bad_denoise_setting_exit_2(self, synth_db_small, tmp_path, argv, config):
        if config is not None:
            path = tmp_path / "run.json"
            path.write_text(json.dumps(config))
            argv = [*argv, "--config", path]
        rc = run(["preprocess", "--data-dir", synth_db_small, "--output-dir", tmp_path / "out",
                  *argv])
        assert rc == 2
        assert not list(tmp_path.rglob("*.ecgb"))

    def test_too_many_levels_exit_3_names_usable_count(self, synth_db_small, tmp_path, capsys):
        rc = run(["preprocess", "--data-dir", synth_db_small, "--output-dir", tmp_path / "out",
                  "--levels", 40])
        assert rc == 3
        # each record is 120 s at 360 Hz = 43,200 samples, and 2**15 <= 43,200 < 2**16
        assert "at most 15 levels fit" in capsys.readouterr().err
        assert not list(tmp_path.rglob("*.ecgb"))

    def test_window_longer_than_record_exit_3_names_lengths(self, synth_db_small, tmp_path,
                                                           capsys):
        rc = run(["preprocess", "--data-dir", synth_db_small, "--output-dir", tmp_path / "out",
                  "--window", 43201])
        assert rc == 3
        # each record is 120 s at 360 Hz = 43,200 samples
        err = capsys.readouterr().err
        assert "baseline window 43201 exceeds the record's 43200 samples" in err
        assert not list(tmp_path.rglob("*.ecgb"))


class TestTrain:
    def test_artifacts_and_loss_decrease(self, trained):
        assert (trained / "checkpoint.ecgm").exists()
        lines = (trained / "curves.csv").read_text().splitlines()
        assert lines[0] == "epoch,train_loss,train_acc,test_acc,seconds"
        losses = [float(ln.split(",")[1]) for ln in lines[1:]]
        assert len(losses) == 3
        assert losses[-1] < losses[0]

    def test_missing_dataset_exit_3(self, synth_db_small, tmp_path):
        rc = run(["train", "--data-dir", synth_db_small, "--output-dir", tmp_path,
                  "--epochs", 1])
        assert rc == 3

    @pytest.mark.parametrize("empty", ["train.ecgb", "test.ecgb"])
    def test_zero_beat_set_exit_3_before_training(self, preprocessed, tmp_path, empty):
        for name in ("train.ecgb", "test.ecgb"):
            shutil.copy(preprocessed / name, tmp_path / name)
        sg.save_segments(sg.Beats.concat([]), tmp_path / empty)
        rc = run(["train", "--output-dir", tmp_path, "--epochs", 1, "--limit", 200])
        assert rc == 3
        assert not (tmp_path / "checkpoint.ecgm").exists()
        assert not (tmp_path / "curves.csv").exists()


class TestEvaluate:
    def test_matches_training_report(self, trained, tmp_path, capsys):
        rc = run(["evaluate", "--checkpoint", trained / "checkpoint.ecgm",
                  "--dataset", trained / "test.ecgb",
                  "--output-dir", tmp_path, "--seed", 5, "--limit", 300])
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
        rc = run(["evaluate", "--checkpoint", bad, "--limit", 300,
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
                        "--output-dir", out, "--seed", 5]) == 0
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

    def test_denoise_flags_match_config(self, trained, synth_db_small, tmp_path, capsys):
        argv = ["predict", "--checkpoint", trained / "checkpoint.ecgm",
                "--data-dir", synth_db_small, "--record", "100", "--annotation-index", 3]
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"levels": 6, "window": 151, "threshold_mode": "hard"}))
        assert run(argv + ["--config", cfg]) == 0
        want = capsys.readouterr().out
        assert run(argv + ["--levels", 6, "--window", 151, "--threshold-mode", "hard"]) == 0
        assert capsys.readouterr().out == want
        assert run(argv + ["--levels", 6]) == 0

    def test_zero_levels_exit_2(self, trained, synth_db_small):
        rc = run(["predict", "--checkpoint", trained / "checkpoint.ecgm",
                  "--data-dir", synth_db_small, "--record", "100",
                  "--annotation-index", 0, "--levels", 0])
        assert rc == 2


class TestRunConfig:
    """A malformed run config exits 2 before any file is written."""

    @pytest.fixture
    def work(self, preprocessed, tmp_path):
        work = tmp_path / "work"
        work.mkdir()
        for name in ("train.ecgb", "test.ecgb"):
            shutil.copy(preprocessed / name, work / name)
        return work

    def train(self, work, argv=(), config=None):
        """Exit code of a one-epoch `train` in `work`, and the files left there."""
        if config is not None:
            path = work.parent / "run.json"
            path.write_text(config)
            argv = [*argv, "--config", path]
        rc = run(["train", "--output-dir", work, "--limit", 50, *argv])
        return rc, sorted(p.name for p in work.iterdir())

    def test_invalid_json_exit_2(self, work):
        assert self.train(work, config="{") == (2, ["test.ecgb", "train.ecgb"])

    @pytest.mark.parametrize("text", ["null", "[]", "3"])
    def test_not_an_object_exit_2(self, work, text):
        assert self.train(work, config=text) == (2, ["test.ecgb", "train.ecgb"])

    @pytest.mark.parametrize("entry", [
        {"epochs": "2"}, {"epochs": True}, {"epochs": 1.0}, {"limit": [50]},
        {"learning_rate": "0.1"}, {"eval_each_epoch": 1}, {"seed": None},
    ])
    def test_wrong_type_exit_2(self, work, entry):
        config = json.dumps({"epochs": 1, **entry})
        assert self.train(work, config=config) == (2, ["test.ecgb", "train.ecgb"])

    def test_integer_learning_rate_accepted(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"learning_rate": 1, "per_set_size": None}))
        cfg = cli.RunConfig.load(cli.build_parser().parse_args(["train", "--config", str(path)]))
        assert cfg.learning_rate == 1 and cfg.per_set_size is None

    @pytest.mark.parametrize("argv", [
        ["--epochs", 0], ["--batch-size", 0], ["--epochs", 1, "--batch-size", -1],
        ["--epochs", 1, "--limit", -1], ["--epochs", 1, "--limit", 0],
        ["--epochs", 1, "--seed", -1],
    ])
    def test_count_below_one_exit_2(self, work, argv):
        assert self.train(work, argv) == (2, ["test.ecgb", "train.ecgb"])

    def test_count_below_one_in_config_exit_2(self, work):
        assert self.train(work, config='{"epochs": 0}') == (2, ["test.ecgb", "train.ecgb"])

    @pytest.mark.parametrize("lr", ["0", "-1", "inf", "nan"])
    def test_bad_learning_rate_exit_2(self, work, lr):
        assert self.train(work, ["--epochs", 1, f"--lr={lr}"]) == (2, ["test.ecgb", "train.ecgb"])

    def test_optimizer_is_not_a_setting_exit_2(self, work):
        config = '{"epochs": 1, "optimizer": "adam"}'
        assert self.train(work, config=config) == (2, ["test.ecgb", "train.ecgb"])
        with pytest.raises(SystemExit) as exit_:
            self.train(work, ["--epochs", 1, "--optimizer", "sgd"])
        assert exit_.value.code == 2

    def test_zero_learning_rate_in_config_exit_2(self, work):
        config = '{"epochs": 1, "learning_rate": 0}'
        assert self.train(work, config=config) == (2, ["test.ecgb", "train.ecgb"])

    @pytest.mark.parametrize("size", [-5, 0])
    def test_per_set_size_below_one_exit_2(self, synth_db_small, tmp_path, size):
        rc = run(["preprocess", "--data-dir", synth_db_small, "--output-dir", tmp_path / "out",
                  "--per-set-size", size])
        assert rc == 2
        assert not (tmp_path / "out").exists()

    def test_evaluate_limit_below_one_exit_2(self, trained, tmp_path):
        rc = run(["evaluate", "--checkpoint", trained / "checkpoint.ecgm",
                  "--dataset", trained / "test.ecgb", "--output-dir", tmp_path / "out",
                  "--limit", -1])
        assert rc == 2
        assert not (tmp_path / "out").exists()


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
            "train": ["--output-dir", tmp_path, "--epochs", 1, "--limit", 200]}[command]
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
    (errors.EcgresError, 3), (errors.ParseError, 2), (errors.UnsupportedFormat, 2),
    (errors.TruncatedSignal, 2), (errors.RangeError, 2), (errors.SelectionError, 2),
    (errors.LengthError, 3), (errors.ParameterError, 2), (errors.BoundarySkip, 3),
    (errors.SizeError, 3), (errors.ShapeError, 5), (errors.LabelError, 3),
    (errors.NumericError, 4), (errors.CheckpointError, 5), (errors.InputError, 3),
    (OSError, 2),
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
            if isinstance(c, type) and issubclass(c, errors.EcgresError)} <= pinned


def test_full_protocol_script_flags_parse():
    """Every `ecgres ...` line of the protocol script is valid CLI input."""
    script = Path(__file__).resolve().parents[1] / "scripts" / "run_full_protocol.sh"
    text = script.read_text().replace("\\\n", " ")
    values = {"MITDB_DIR": "/data/mitdb", "OUT": "runs/full"}
    commands = [ln.split(None, 1)[1] for ln in text.splitlines()
                if ln.startswith("ecgres ")]
    assert len(commands) == 3
    for cmd in commands:
        cmd = re.sub(r"\$\{?(\w+)\}?", lambda m: values[m.group(1)], cmd)
        args = cli.build_parser().parse_args(shlex.split(cmd))
        assert args.command in ("preprocess", "train", "evaluate")


# The exit codes the CLI documents (cli's module docstring).
DOCUMENTED_EXIT_CODES = {0, 2, 3, 4, 5}


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    """The bytes of a one-record database, its preprocessed sets and a
    one-epoch checkpoint, made once for every corruption below."""
    root = tmp_path_factory.mktemp("pristine")
    synthetic.make_database(root, duration_s=60, seed=11, records=["100"])
    assert run(["preprocess", "--data-dir", root, "--output-dir", root]) == 0
    assert run(["train", "--data-dir", root, "--output-dir", root, "--epochs", 1,
                "--limit", 32]) == 0
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
    through evaluate and train. No exception may escape and only a
    documented exit code may come back."""
    name = data.draw(st.sampled_from(sorted(pristine)), label="file")
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for other, content in pristine.items():
            (work / other).write_bytes(content)
        (work / name).write_bytes(corrupt(data.draw, pristine[name]))
        common = ["--data-dir", work, "--output-dir", work / "out", "--seed", 0]
        predict = ["predict", *common, "--checkpoint", work / "checkpoint.ecgm",
                   "--record", "100", "--annotation-index", 5]
        if name.endswith((".hea", ".dat", ".atr")):
            commands = [["ingest", *common], ["preprocess", *common], predict]
        else:
            dataset = work / (name if name.endswith(".ecgb") else "test.ecgb")
            commands = [["evaluate", *common, "--checkpoint", work / "checkpoint.ecgm",
                         "--dataset", dataset],
                        ["train", "--output-dir", work, "--epochs", 1, "--limit", 32]]
        for argv in commands:
            assert run(argv) in DOCUMENTED_EXIT_CODES, argv[0]
