import itertools
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from chebykan import cli
from chebykan.data import TRAIN_IMAGES, TRAIN_LABELS, write_idx


def run(args):
    return cli.main(args)


def body(path):
    """CSV lines with comments stripped (wall time lives in a comment)."""
    return [l for l in Path(path).read_text().splitlines() if not l.startswith("#")]


def comments(path):
    """The leading #-comment block, the echoed configuration; the trailing
    `# wall_time_s` and `# blas_threads` lines are not part of it."""
    return list(itertools.takewhile(lambda l: l.startswith("#"), path.read_text().splitlines()))


def test_usage_errors_exit_1(tmp_path, synth_mnist_dir, capsys):
    momentum = tmp_path / "momentum.cfg"
    momentum.write_text("momentum = 0.5\n")
    lr_nan = tmp_path / "lr_nan.cfg"
    lr_nan.write_text("lr = nan\n")
    narrow_in = tmp_path / "narrow_in.cfg"
    narrow_in.write_text("widths = 10,10\n")
    few_classes = tmp_path / "few_classes.cfg"
    few_classes.write_text("widths = 784,8,9\n")  # the fixture's labels reach 9
    data = ["--data-dir", str(synth_mnist_dir)]
    cases = [
        (["approx", "--n", "0"], "n"),
        (["approx", "--test-n", "0"], "test_n"),
        (["approx", "--degree", "notanint"], "degree"),
        (["mnist", "--init", "foo"], "init"),
        (["ablate", "--axis", "bogus"], "axis"),
        (["approx", "--degree", "-1"], "degree"),
        (["approx", "--widths", "1,0,1"], "widths"),
        (["approx", "--steps", "-3"], "steps"),
        (["approx", "--lo", "3", "--hi", "2"], "lo"),
        (["approx", "--lo", "nan"], "lo"),
        (["mnist", "--momentum", "0.5"], "momentum"),
        (["mnist", "--config", str(momentum)], "momentum"),
        (["approx", "--config", str(lr_nan), "--steps", "5"], "lr"),
        (["mnist", "--config", str(lr_nan), "--data-dir",
          str(tmp_path / "nowhere")], "lr"),
        (["fractal", "--extent", "nan", "--grid", "4"], "extent"),
        (["fractal", "--b", "nan", "--grid", "4"], "b"),
        (["gradcheck", "--h", "0", "--trials", "3"], "h"),
        (["gradcheck", "--h", "nan"], "h"),
        (["gradcheck", "--h", "1e-320"], "h"),
        (["approx", "--lo=-1e308", "--hi", "1e308"], "hi - lo"),
        (["approx", "--lo=-1e200", "--hi", "1e200"], "target"),
        (["fractal", "--extent", "1e200", "--grid", "4"], "extent"),
        (["fractal", "--alpha", "1e200", "--b", "1e200", "--grid", "4"], "alpha"),
        (["approx", "--seed", "-1"], "seed"),
        (["gradcheck", "--seed", "-1"], "seed"),
        (["mnist", "--seed", "-1", "--data-dir", str(tmp_path / "nowhere")], "seed"),
        (["mnist", "--subset", "0", "--data-dir", str(tmp_path / "nowhere")], "subset"),
        (["mnist", "--subset", "-1", "--data-dir", str(tmp_path / "nowhere")], "subset"),
        (["gradcheck", "--trials", "0"], "trials"),
        (["gradcheck", "--trials", "-1"], "trials"),
        (["approx", "--widths", "2,8,1"], "widths"),
        (["approx", "--widths", "1,8,2"], "widths"),
        (["fractal", "--widths", "1,8,1", "--grid", "4"], "widths"),
        (["fractal", "--widths", "2,8,3", "--grid", "4"], "widths"),
        (["mnist", "--config", str(narrow_in)] + data, "widths"),
        (["mnist", "--config", str(few_classes)] + data, "widths"),
        (["ablate", "--axis", "degree", "--config", str(narrow_in)] + data, "widths"),
    ]
    for argv, key in cases:
        assert run(argv + ["--out", str(tmp_path / "x.csv")]) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("error:") and key in err, (argv, err)
    with pytest.raises(ValueError):
        cli.build_parser().parse_args(["nosuchcommand"])


def test_ablate_rejects_a_value_for_the_axis_it_sweeps(tmp_path, synth_mnist_dir, capsys):
    # the sweep sets its own axis, so a value for it would go unread
    swept_init = tmp_path / "swept_init.cfg"
    swept_init.write_text("init = he\n")
    small = ["--data-dir", str(synth_mnist_dir), "--subset", "16", "--epochs", "1"]
    out = tmp_path / "a.csv"
    for argv, key, value in ((["--axis", "degree", "--degree", "7"], "degree", "7"),
                             (["--axis", "init", "--config", str(swept_init)], "init", "he")):
        assert run(["ablate", *argv, *small, "--out", str(out)]) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"sweeps {key}" in err and value in err, err
        assert not out.exists()


def test_unwritable_out_exits_1_before_any_work(tmp_path, monkeypatch, capsys):
    def ran(*args, **kwargs):
        raise AssertionError("the run started")
    for name in ("load_mnist", "fit_function", "fit_fractal", "grad_check"):
        monkeypatch.setattr(cli, name, ran)
    (tmp_path / "afile").write_text("")
    (tmp_path / "adir").mkdir()
    (tmp_path / "f_true.csv").mkdir()
    before = sorted(tmp_path.rglob("*"))
    nowhere = ["--data-dir", str(tmp_path / "nowhere")]
    cases = [
        ["approx", "--steps", "2000", "--out", str(tmp_path / "nodir" / "x.csv")],
        ["approx", "--out", str(tmp_path / "adir")],
        ["approx", "--out", str(tmp_path / "afile" / "x.csv")],
        ["approx", "--out", str(tmp_path / "nodir") + "/"],
        ["gradcheck", "--out", str(tmp_path / "adir")],
        ["gradcheck", "--out", str(tmp_path / "afile" / "g.txt")],
        ["gradcheck", "--out", ""],
        ["mnist", *nowhere, "--out", str(tmp_path / "nodir" / "m.csv")],
        ["ablate", "--axis", "kind", *nowhere, "--out", str(tmp_path / "afile" / "a.csv")],
        ["fractal", "--out", str(tmp_path / "nodir" / "f.csv")],
        ["fractal", "--out", str(tmp_path / "f.csv")],  # f_true.csv is a directory
        ["fractal", "--out", str(tmp_path) + "/"],
    ]
    for argv in cases:
        assert run(argv) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("error:") and "out" in err, (argv, err)
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_a_failed_write_exits_1_naming_the_file(capsys):
    # /dev/full opens but fails every write, which _outputs cannot foresee
    argv = ["approx", "--steps", "5", "--n", "16", "--test-n", "8", "--out", "/dev/full"]
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert "final test MSE" in captured.out and "wrote" not in captured.out
    assert captured.err.startswith("error: cannot write /dev/full: ")
    assert "No space left on device" in captured.err


def test_missing_data_exits_2(tmp_path):
    assert run(["mnist", "--data-dir", str(tmp_path / "nowhere")]) == 2


def test_corrupt_idx_exits_2(tmp_path, synth_mnist_dir):
    import shutil
    bad = tmp_path / "bad"
    shutil.copytree(synth_mnist_dir, bad)
    blob = (bad / TRAIN_IMAGES).read_bytes()
    (bad / TRAIN_IMAGES).write_bytes(blob[:40])
    assert run(["mnist", "--data-dir", str(bad), "--epochs", "0",
                "--out", str(tmp_path / "x.csv")]) == 2


def test_idx_with_no_images_exits_2(tmp_path, synth_mnist_dir, capsys):
    import shutil
    empty = tmp_path / "empty"
    shutil.copytree(synth_mnist_dir, empty)
    write_idx(empty / TRAIN_IMAGES, np.zeros((0, 28, 28), dtype=np.uint8))
    write_idx(empty / TRAIN_LABELS, np.zeros(0, dtype=np.uint8))
    assert run(["mnist", "--data-dir", str(empty), "--epochs", "0",
                "--out", str(tmp_path / "x.csv")]) == 2
    assert "data error:" in capsys.readouterr().err


def test_approx_writes_dump_with_config_block(tmp_path, capsys):
    out = tmp_path / "dump.csv"
    assert run(["approx", "--steps", "60", "--n", "150", "--test-n", "40",
                "--out", str(out)]) == 0
    lines = body(out)
    assert lines[0] == "x,y_true,y_pred"
    assert len(lines) == 41
    xs = [float(l.split(",")[0]) for l in lines[1:]]
    assert xs == sorted(xs)
    echoed = comments(out)
    assert "# command = approx" in echoed
    assert "# steps = 60" in echoed
    assert "final test MSE" in capsys.readouterr().out


def test_flags_beat_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment line\nsteps = 500\nlr = 0.5\nf32 = true\n")
    out = tmp_path / "o.csv"
    assert run(["approx", "--config", str(cfg), "--steps", "30", "--n", "64",
                "--test-n", "16", "--no-f32", "--out", str(out)]) == 0
    echoed = comments(out)
    assert "# steps = 30" in echoed   # flag wins
    assert "# f32 = false" in echoed  # so does a bool's --no- form
    assert "# lr = 0.5" in echoed     # config survives where no flag given


def test_batch_is_the_prefix_of_batch_size(tmp_path):
    """argparse takes `--batch` as the unique prefix of `--batch-size`;
    fractal's `--b` is an exact match, so it still sets the noise amplitude."""
    def resolve(argv):
        return cli.resolve(argv[0], cli.COMMANDS[argv[0]][1],
                           cli.build_parser().parse_args(argv))

    cfg = tmp_path / "b.cfg"
    cfg.write_text("batch_size = 4\n")
    for command in ("mnist", "approx", "fractal", "ablate"):
        by_flag = resolve([command, "--batch", "4"])
        assert by_flag["batch_size"] == 4, command
        assert by_flag == resolve([command, "--config", str(cfg)]), command
    by_b = resolve(["fractal", "--b", "0.5"])
    assert (by_b["b"], by_b["batch_size"]) == (0.5, 64)

    small = ["approx", "--steps", "5", "--n", "16", "--test-n", "8", "--out"]
    assert run(small + [str(tmp_path / "flag.csv"), "--batch", "4"]) == 0
    assert run(small + [str(tmp_path / "config.csv"), "--config", str(cfg)]) == 0
    assert body(tmp_path / "flag.csv") == body(tmp_path / "config.csv")


@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_help_lists_every_key_as_a_flag(command, capsys):
    """argparse %-formats a help string only when it prints it."""
    with pytest.raises(SystemExit) as done:
        run([command, "--help"])
    assert done.value.code == 0
    listed = set(re.findall(r"(?<![\w-])--?[a-z][\w-]*", capsys.readouterr().out))
    expected = {"-h", "--help", "--config"}
    for o in cli.COMMANDS[command][1]:
        flag = "--" + o.name.replace("_", "-")
        expected |= {flag, "--no-" + flag[2:]} if isinstance(o.default, bool) else {flag}
    assert listed == expected


def ascii_locale_env():
    """The environment of a `python -m chebykan` run under an ASCII locale."""
    src = str(Path(cli.__file__).resolve().parent.parent)
    return dict(os.environ, LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0",
                PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_config_file_is_read_as_utf8_under_an_ascii_locale(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes("# café\nsteps = 5\n".encode("utf-8"))
    done = subprocess.run(
        [sys.executable, "-m", "chebykan", "approx", "--config", str(cfg), "--n", "16",
         "--test-n", "16", "--out", str(tmp_path / "o.csv")],
        env=ascii_locale_env(), capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert "# steps = 5" in comments(tmp_path / "o.csv")


def test_non_ascii_out_path_is_written_under_an_ascii_locale(tmp_path):
    # the path goes in and comes back as bytes, so this test also runs under
    # an ASCII locale, where the name cannot be a str
    out = os.fsencode(tmp_path) + "/é.csv".encode()
    done = subprocess.run(
        [sys.executable, "-m", "chebykan", "approx", "--steps", "2", "--n", "16",
         "--test-n", "16", "--out", out], env=ascii_locale_env(), capture_output=True)
    assert done.returncode == 0, done.stderr
    with open(out, "rb") as fh:
        assert b"# out = " + out + b"\n" in fh.read()


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("data_dir = /tmp\n")  # valid for mnist, not approx
    assert run(["approx", "--config", str(cfg)]) == 1
    cfg.write_text("not key value\n")
    assert run(["approx", "--config", str(cfg)]) == 1
    cfg.write_text("steps = 5\n# the run would take the last one\nsteps = 7\n")
    capsys.readouterr()
    assert run(["approx", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == f"error: {cfg}:3: key 'steps' is already set on line 1\n"
    for missing in (str(tmp_path / "missing.cfg"), ""):
        assert run(["approx", "--config", missing]) == 1
        assert "cannot read config file" in capsys.readouterr().err


def test_mnist_epochs_zero_single_row(tmp_path, synth_mnist_dir):
    out = tmp_path / "m.csv"
    assert run(["mnist", "--data-dir", str(synth_mnist_dir), "--epochs", "0",
                "--out", str(out)]) == 0
    lines = body(out)
    assert lines[0] == "epoch,train_loss,test_loss,metric"
    assert len(lines) == 2
    assert lines[1].startswith("0,")


def test_mnist_short_training_run(tmp_path, synth_mnist_dir, capsys):
    cfg = tmp_path / "small.cfg"
    cfg.write_text("widths = 784,16,10\n")
    out = tmp_path / "m.csv"
    assert run(["mnist", "--data-dir", str(synth_mnist_dir), "--config",
                str(cfg), "--epochs", "2", "--out", str(out)]) == 0
    lines = body(out)
    assert len(lines) == 3
    assert "final test accuracy" in capsys.readouterr().out


def test_fractal_writes_both_grids(tmp_path):
    cfg = tmp_path / "f.cfg"
    cfg.write_text("epochs = 2\nwidths = 2,8,1\n")
    out = tmp_path / "f.csv"
    assert run(["fractal", "--grid", "8", "--config", str(cfg),
                "--out", str(out)]) == 0
    true_path = tmp_path / "f_true.csv"
    pred_path = tmp_path / "f_pred.csv"
    assert true_path.is_file() and pred_path.is_file()
    assert len(body(true_path)) == 64
    assert len(body(pred_path)) == 64
    assert "# command = fractal" in comments(true_path)


def test_fractal_b0_equals_iters0(tmp_path):
    cfg = tmp_path / "f.cfg"
    cfg.write_text("epochs = 1\nwidths = 2,4,1\n")
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert run(["fractal", "--grid", "8", "--b", "0", "--config", str(cfg),
                "--out", str(a)]) == 0
    assert run(["fractal", "--grid", "8", "--iters", "0", "--config", str(cfg),
                "--out", str(b)]) == 0
    assert body(tmp_path / "a_true.csv") == body(tmp_path / "b_true.csv")
    assert body(tmp_path / "a_pred.csv") == body(tmp_path / "b_pred.csv")


def test_gradcheck_passes_and_reports(tmp_path, capsys):
    out = tmp_path / "g.csv"
    # the complex step subtracts nothing, so even a step this small measures
    for step in ([], ["--h", "1e-300"]):
        assert run(["gradcheck", "--trials", "4", "--out", str(out)] + step) == 0
        assert "max_rel_err" in capsys.readouterr().out
        lines = body(out)
        assert lines[0] == "max_rel_err"
        assert float(lines[1]) <= 1e-5


def test_gradcheck_failure_exits_3(tmp_path, monkeypatch, capsys):
    out = tmp_path / "g.txt"
    for err in (1.0, float("nan")):
        monkeypatch.setattr(cli, "grad_check", lambda **kw: err)
        assert run(["gradcheck", "--trials", "1"]) == 3
        assert "FAIL" in capsys.readouterr().err
        # a failed audit still writes its --out file
        assert run(["gradcheck", "--trials", "1", "--out", str(out)]) == 3
        assert body(out) == ["max_rel_err", repr(err)]
        captured = capsys.readouterr()
        assert "FAIL" in captured.err and captured.out.splitlines()[-1] == f"wrote {out}"


def test_divergence_exits_3(tmp_path, capsys):
    cfg = tmp_path / "d.cfg"
    # each of the first two runs' one batch per epoch is finite; the step
    # after it overflows the evaluation that closes epoch 1, and fractal's run
    # ends there. The third run's first squared residual overflows. No numpy
    # warning may precede the failure line
    test_loss = "numerical failure: non-finite test loss at the end of epoch 1\n"
    for text, argv, err in (
            ("lr = 1e200\nwidths = 1,4,1\n",
             ["approx", "--steps", "50", "--n", "64", "--test-n", "16"], test_loss),
            ("grid = 4\nepochs = 1\nlr = 1e300\n", ["fractal"], test_loss),
            ("", ["approx", "--lo=-1e150", "--hi", "1e150", "--steps", "5"],
             "numerical failure: non-finite training loss at epoch 1, batch 0\n")):
        cfg.write_text(text)
        code = run(argv + ["--config", str(cfg), "--out", str(tmp_path / "d.csv")])
        assert code == 3, argv
        assert capsys.readouterr().err == err, argv
    assert not list(tmp_path.glob("d*.csv"))


def test_rerun_is_byte_identical(tmp_path):
    out = tmp_path / "same.csv"
    args = ["approx", "--steps", "40", "--n", "64", "--test-n", "16",
            "--out", str(out)]
    assert run(args) == 0
    first = out.read_bytes()
    assert run(args) == 0
    assert out.read_bytes() == first


def test_f32_runs_and_restores_dtype(tmp_path):
    out = tmp_path / "f32.csv"
    assert run(["approx", "--f32", "--steps", "20", "--n", "64",
                "--test-n", "16", "--out", str(out)]) == 0
    assert "# f32 = true" in comments(out)


def test_ablate_degree_param_counts_match_table(tmp_path, synth_mnist_dir):
    cfg = tmp_path / "a.cfg"
    cfg.write_text("epochs = 1\nsubset = 128\n")
    out = tmp_path / "ab.csv"
    assert run(["ablate", "--axis", "degree", "--data-dir",
                str(synth_mnist_dir), "--config", str(cfg),
                "--out", str(out)]) == 0
    lines = body(out)
    assert lines[0] == "axis_value,test_accuracy,test_loss,param_count,wall_time_s"
    counts = [int(l.split(",")[3]) for l in lines[1:]]
    assert counts == [77376, 103136, 128896, 154656]


def test_ablate_requires_axis(synth_mnist_dir):
    assert run(["ablate", "--data-dir", str(synth_mnist_dir)]) == 1


def test_config_echo_is_reusable_as_config(tmp_path):
    out = tmp_path / "echo.csv"
    assert run(["approx", "--steps", "25", "--n", "64", "--test-n", "16",
                "--out", str(out)]) == 0
    cfg = tmp_path / "replay.cfg"
    cfg.write_text("\n".join(l[2:] for l in comments(out)
                             if not l.startswith("# command")))
    replay = tmp_path / "replay.csv"
    assert run(["approx", "--config", str(cfg), "--out", str(replay)]) == 0
    assert body(out) == body(replay)


_CLASSIFIER_ECHO = {"degree": "3", "kind": "first", "init": "xavier",
                    "norm": "tanh", "epochs": "10", "batch_size": "64",
                    "lr": "0.001", "widths": "784,32,16,10",
                    "optimizer": "adam", "layernorm": "true"}
_FIT_FLAGS = {"degree": "--degree", "kind": "--kind", "init": "--init",
              "batch_size": "--batch-size", "lr": "--lr", "widths": "--widths",
              "optimizer": "--optimizer", "layernorm": "switch"}
_CLASSIFIER_FLAGS = {**_FIT_FLAGS, "norm": "--norm", "epochs": "--epochs",
                     "max_steps": "--max-steps"}

# command -> (flags of the run, keys it overrides, the flag of every key but
# the shared ones, "switch" for a bool, echoed defaults of every other key).
# Keys absent from the echo default to None.
_INTERFACE = {
    "mnist": (
        ["--data-dir", "{idx}", "--subset", "64"], {"data_dir", "subset"},
        {"data_dir": "--data-dir", "subset": "--subset", **_CLASSIFIER_FLAGS},
        _CLASSIFIER_ECHO,
    ),
    "approx": (
        ["--steps", "5", "--n", "16", "--test-n", "8"], {"steps", "n", "test_n"},
        {"target": "--target", "lo": "--lo", "hi": "--hi", "n": "--n",
         "test_n": "--test-n", "steps": "--steps", **_FIT_FLAGS},
        {"target": "sin_plus_sq", "lo": "-2.0", "hi": "2.0", "widths": "1,8,1",
         "degree": "4", "kind": "first", "init": "xavier", "batch_size": "64",
         "lr": "0.01", "optimizer": "adam", "layernorm": "true"},
    ),
    "fractal": (
        ["--grid", "4"], {"grid"},
        {"alpha": "--alpha", "b": "--b", "iters": "--iters", "grid": "--grid",
         "extent": "--extent", "epochs": "--epochs", "max_steps": "--max-steps",
         **_FIT_FLAGS},
        {"alpha": "0.7", "b": "0.001", "iters": "5", "extent": "2.0",
         "widths": "2,64,64,1", "degree": "3", "kind": "first", "init": "xavier",
         "epochs": "60", "batch_size": "64", "lr": "0.01",
         "optimizer": "adam", "layernorm": "true"},
    ),
    "ablate": (
        ["--axis", "degree", "--data-dir", "{idx}", "--subset", "64"],
        {"axis", "data_dir", "subset"},
        {"axis": "--axis", "data_dir": "--data-dir", "subset": "--subset",
         **_CLASSIFIER_FLAGS},
        _CLASSIFIER_ECHO,
    ),
    "gradcheck": (
        ["--trials", "1"], {"trials"}, {"trials": "--trials", "h": "--h"},
        {"h": "1e-40"},
    ),
}


@pytest.mark.parametrize("command", list(_INTERFACE))
def test_command_interface_is_pinned(command, tmp_path, synth_mnist_dir, capsys):
    """Config keys, flag spellings and echoed defaults of each command."""
    args, overridden, key_flags, echo = _INTERFACE[command]
    bogus = tmp_path / "bogus.cfg"
    bogus.write_text("no_such_key = 1\n")
    assert run([command, "--config", str(bogus)]) == 1
    keys = set(capsys.readouterr().err.strip().split("valid keys: ")[1].split(", "))
    training = command != "gradcheck"
    shared = {"seed", "out"} | ({"f32"} if training else set())
    assert keys == shared | set(key_flags)

    sub = next(a for a in cli.build_parser()._actions
               if a.dest == "command").choices[command]
    flags = {a.dest: "switch" if a.nargs == 0 else a.option_strings[0]
             for a in sub._actions if a.option_strings
             and a.dest not in ("help", "config")}
    expected_flags = {"seed": "--seed", "out": "--out", **key_flags}
    if training:
        expected_flags["f32"] = "switch"
    assert flags == expected_flags

    out = tmp_path / "out.csv"
    argv = [a.format(idx=synth_mnist_dir) for a in args]
    assert run([command, *argv, "--out", str(out)]) == 0
    echo_file = tmp_path / "out_true.csv" if command == "fractal" else out
    echoed = dict(l[2:].split(" = ", 1) for l in comments(echo_file))
    assert echoed.pop("command") == command
    assert echoed.pop("out") == str(out)
    echoed = {k: v for k, v in echoed.items() if k in keys - overridden}
    assert echoed == {"seed": "42", **({"f32": "false"} if training else {}), **echo}


# a value other than the base run's for every key mnist, approx and fractal
# accept but the paths out and data_dir; adam is the one value optimizer
# accepts, so its other value is one every run must reject
_BASE_RUN = {"mnist": {"subset": "16", "widths": "784,4,10", "epochs": "2"},
             "approx": {"steps": "5", "n": "16", "test_n": "8"},
             "fractal": {"grid": "4", "widths": "2,4,1", "epochs": "2"}}
_TRAINING_ALTERED = {"seed": "7", "f32": "true", "kind": "second",
                     "init": "he", "batch_size": "4", "lr": "0.02",
                     "optimizer": "sgd", "layernorm": "false"}
_ALTERED = {
    "mnist": {**_TRAINING_ALTERED, "subset": "17", "norm": "minmax", "widths": "784,5,10",
              "degree": "4", "epochs": "3", "max_steps": "1"},  # one step per epoch

    "approx": {**_TRAINING_ALTERED, "target": "step", "lo": "-1.5", "hi": "1.5",
               "n": "17", "test_n": "9", "steps": "4", "widths": "1,4,1",
               "degree": "3"},
    "fractal": {**_TRAINING_ALTERED, "alpha": "0.5", "b": "0.1", "iters": "4",
                "grid": "5", "extent": "1.5", "widths": "2,5,1", "degree": "4",
                "epochs": "3", "max_steps": "1"},  # one step per epoch at grid 4
}


@pytest.mark.parametrize("command", list(_ALTERED))
def test_every_accepted_key_reaches_the_run(command, tmp_path, synth_mnist_dir, capsys):
    """A key no run reads would write the base run's body."""
    keys = {o.name for o in cli.COMMANDS[command][1]} - {"out", "data_dir"}
    assert keys == set(_ALTERED[command])
    base = dict(_BASE_RUN[command])
    if command == "mnist":
        base["data_dir"] = str(synth_mnist_dir)

    def run_body(entries, flags=(), code=0):
        cfg = tmp_path / "k.cfg"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in {**base, **entries}.items()))
        out = tmp_path / "k.csv"
        argv = [command, "--config", str(cfg), *flags, "--out", str(out)]
        assert run(argv) == code, argv
        return [body(p) for p in cli._outputs(command, str(out))] if code == 0 else None

    base_body = run_body({})
    for key in sorted(keys):
        value = _ALTERED[command][key]
        flag = key.replace("_", "-")
        as_flag = {"true": f"--{flag}", "false": f"--no-{flag}"}.get(value, f"--{flag}={value}")
        if key == "optimizer":
            capsys.readouterr()
            for entries, flags in (({key: value}, ()), ({}, [as_flag])):
                run_body(entries, flags, code=1)
                err = capsys.readouterr().err
                assert err.startswith("error: ") and "optimizer" in err, (flags, err)
            continue
        by_config = run_body({key: value})
        assert by_config != base_body, key
        assert run_body({}, [as_flag]) == by_config, as_flag


# one run of each command, small
_SMALL_RUN = {
    "mnist": (["--data-dir", "{idx}", "--subset", "64", "--epochs", "1"],
              "epoch,train_loss,test_loss,metric"),
    "approx": (["--steps", "5", "--n", "16", "--test-n", "8"], "x,y_true,y_pred"),
    "fractal": (["--grid", "4", "--epochs", "1", "--widths", "2,4,1"], None),
    "ablate": (["--axis", "norm", "--data-dir", "{idx}", "--subset", "64", "--epochs", "1"],
               "axis_value,test_accuracy,test_loss,param_count,wall_time_s"),
    "gradcheck": (["--trials", "1"], "max_rel_err"),
}


@pytest.mark.parametrize("command", list(_SMALL_RUN))
def test_every_output_file_is_the_echo_block_then_the_body(command, tmp_path, monkeypatch,
                                                           synth_mnist_dir, capsys):
    # the body ends with the BLAS thread variables, which can change its last bits
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    out = tmp_path / "out.csv"
    args, header = _SMALL_RUN[command]
    argv = [command, *(a.format(idx=synth_mnist_dir) for a in args),
            "--out", str(out)]
    assert run(argv) == 0
    resolved = cli.resolve(command, cli.COMMANDS[command][1],
                           cli.build_parser().parse_args(argv))
    echo = [f"# {c}" for c in cli.config_lines(command, resolved)]
    assert echo[0] == f"# command = {command}"
    paths = cli._outputs(command, str(out))
    assert len(paths) == (2 if command == "fractal" else 1)
    for path in paths:
        text = Path(path).read_text()
        lines = text.splitlines()
        assert text.endswith("\n") and lines[:len(echo)] == echo, path
        assert lines[-1] == "# blas_threads OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=unset", path
        data = lines[len(echo):-1]
        if header is None:  # a grid: one `x y z` line per point
            assert len(data) == 16 and all(len(l.split()) == 3 for l in data)
        else:
            assert data[0] == header and len(data) > 1
    assert capsys.readouterr().out.splitlines()[-1] == "wrote " + " and ".join(paths)
