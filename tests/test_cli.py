import shutil

import pytest

from dagrl.autodiff import load_checkpoint
from dagrl.cli import main, parse_config_file, parse_pairs, parse_seeds
from dagrl.errors import DagrlError
from dagrl.experiments import ALL_PAIRS
from dagrl.trainer import VARIANTS


@pytest.fixture(scope="module")
def synth_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_data")
    code = main(["synth", "--out", str(root), "--name", "SynthBench",
                 "--seed", "3", "--graphs-per-block", "16"])
    assert code == 0
    return root


def test_parse_pairs_all():
    assert parse_pairs("all") == ALL_PAIRS


def test_parse_pairs_explicit():
    assert parse_pairs("0,1;2,3") == ((0, 1), (2, 3))


def test_parse_pairs_malformed():
    with pytest.raises(DagrlError):
        parse_pairs("0-1")


def test_run_non_integer_pairs_exit_2(tmp_path, synth_root, capsys):
    code = main(["run", "--data-root", str(synth_root), "--dataset", "SynthBench",
                 "--pairs", "a,b", "--seeds", "0", "--out", str(tmp_path / "out")])
    assert code == 2
    assert "bad pair 'a,b'" in capsys.readouterr().err


def test_parse_seeds():
    assert parse_seeds("0,1,2") == (0, 1, 2)
    with pytest.raises(DagrlError):
        parse_seeds("a,b")


# int() also reads other digits and underscores ("1_0" as 10, "\u0663" as 3);
# --pairs and --seeds do not.
@pytest.mark.parametrize("raw", ["0_0,1", "0,\u0661"], ids=["underscore", "arabic-indic"])
def test_pairs_outside_ascii_rejected(raw):
    with pytest.raises(DagrlError, match="bad pair"):
        parse_pairs(raw)


@pytest.mark.parametrize("raw", ["1_0,2", "1,\u0663"], ids=["underscore", "arabic-indic"])
def test_seeds_outside_ascii_rejected(raw):
    with pytest.raises(DagrlError, match="bad seed list"):
        parse_seeds(raw)


def test_config_file_round_trip(tmp_path):
    cfg = tmp_path / "train.cfg"
    cfg.write_text(
        "# toy settings\n"
        "epochs = 1\n"
        "lr = 0.01\n"
        "hidden_dim = 8\n"
        "batch_size = 16\n"
        "lambda1 = 0.2\n"
        "wl_depth = 1\n"
    )
    values = parse_config_file(cfg)
    assert values == {"epochs": 1, "lr": 0.01, "hidden_dim": 8, "batch_size": 16,
                      "lambda1": 0.2, "wl_depth": 1}


def test_config_file_unknown_key(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("learning_rate = 0.1\n")
    with pytest.raises(DagrlError, match="line 1: unknown config key 'learning_rate'"):
        parse_config_file(cfg)


# The last three are numbers to int() and float() ("1_0" is 10), not to a config file.
@pytest.mark.parametrize("line", ["epochs = many", "lambda1 = lots", "epochs = 1_0",
                                  "lr = \u0661e-3", "hidden_dim = \u0663"])
def test_config_file_bad_value_exit_2(tmp_path, synth_root, capsys, line):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"# comment\n{line}\n", encoding="utf-8")
    code = main(["run", "--data-root", str(synth_root), "--dataset", "SynthBench",
                 "--pairs", "0,1", "--seeds", "0", "--config", str(cfg),
                 "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "line 2" in err and repr(line.split(" = ")[1]) in err
    assert not (tmp_path / "out").exists()


def test_config_file_nan_epsilon_exit_2(tmp_path, synth_root, capsys):
    cfg = tmp_path / "nan.cfg"
    cfg.write_text("epsilon = nan\n")
    code = main(["run", "--data-root", str(synth_root), "--dataset", "SynthBench",
                 "--pairs", "0,1", "--seeds", "0", "--config", str(cfg),
                 "--out", str(tmp_path / "out")])
    assert code == 2
    assert "epsilon must be finite" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_run_variant_writes_its_checkpoint(tmp_path, synth_root, variant):
    # Branch kinds, perturbation slots and discriminators follow the
    # variant's row of trainer.VARIANTS.
    cfg = tmp_path / "train.cfg"
    cfg.write_text("epochs = 1\nlr = 0.01\nhidden_dim = 8\nbatch_size = 16\nwl_depth = 1\n")
    out = tmp_path / "out"
    code = main(["run", "--data-root", str(synth_root), "--dataset", "SynthBench",
                 "--pairs", "0,1", "--seeds", "0", "--config", str(cfg),
                 "--variant", variant, "--out", str(out)])
    assert code == 0
    arrays = load_checkpoint(out / "checkpoint_0_1_0.txt")
    branches = {k.split("/")[0] for k in arrays if k.startswith("branch")}
    assert branches == {f"branch{i}_{kind}" for i, (kind, _) in enumerate(VARIANTS[variant])}
    for slot, (_, perturbed) in zip(("delta/", "zeta/"), VARIANTS[variant]):
        values = [v for k, v in arrays.items() if k.startswith(slot)]
        assert bool(values) == perturbed and any(v.any() for v in values) == perturbed
    assert any(k.startswith("disc") for k in arrays) == (variant != "source_only")


def test_run_end_to_end(tmp_path, synth_root, capsys):
    cfg = tmp_path / "train.cfg"
    cfg.write_text("epochs = 1\nlr = 0.01\nhidden_dim = 8\nbatch_size = 16\nwl_depth = 1\n")
    out = tmp_path / "out"
    code = main(["run", "--data-root", str(synth_root), "--dataset", "SynthBench",
                 "--pairs", "0,1", "--seeds", "0", "--config", str(cfg),
                 "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    assert (out / "results.csv").is_file()
    assert (out / "summary.csv").is_file()
    assert (out / "loss_history_0_1_0.csv").is_file()
    assert (out / "checkpoint_0_1_0.txt").is_file()
    assert "S0->S1" in captured.out
    assert "Avg." in captured.out


@pytest.mark.parametrize("key,value,flag", [
    ("seed", "1", "--seeds"),
    ("variant", "gkn_only_dual", "--variant"),
], ids=["seed", "variant"])
def test_config_file_flag_owned_key_exit_2(tmp_path, synth_root, capsys, key, value, flag):
    cfg = tmp_path / "train.cfg"
    cfg.write_text(f"epochs = 1\n{key} = {value}\n")
    out = tmp_path / "out"
    code = main(["run", "--data-root", str(synth_root), "--dataset", "SynthBench",
                 "--pairs", "0,1", "--seeds", "0", "--config", str(cfg), "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"line 2: {key} is set by {flag}" in err
    assert not out.exists()


@pytest.mark.parametrize("slot", ["delta", "zeta"])
def test_config_file_unknown_key_exit_2(tmp_path, synth_root, capsys, slot):
    # No config key switches a perturbation off: p1 and p2 are --variant
    # values.
    key = f"{slot}_enabled"
    cfg = tmp_path / "train.cfg"
    cfg.write_text(f"epochs = 1\n{key} = false\n")
    out = tmp_path / "out"
    code = main(["run", "--data-root", str(synth_root), "--dataset", "SynthBench",
                 "--pairs", "0,1", "--seeds", "0", "--config", str(cfg), "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"line 2: unknown config key {key!r}" in err
    assert not out.exists()


def test_config_file_repeated_key_exit_2(tmp_path, synth_root, capsys):
    cfg = tmp_path / "twice.cfg"
    cfg.write_text("epochs = 1\n# again\nepochs = 5\n")
    out = tmp_path / "out"
    code = main(["run", "--data-root", str(synth_root), "--dataset", "SynthBench",
                 "--pairs", "0,1", "--seeds", "0", "--config", str(cfg), "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "line 3: epochs repeats line 1" in err
    assert not out.exists()


@pytest.mark.parametrize("case", ["missing-config", "directory-config", "utf16-config",
                                  "run-out-is-file", "synth-out-is-file"])
def test_bad_path_exit_2_writes_nothing(tmp_path, synth_root, capsys, case):
    taken = tmp_path / "taken.txt"
    taken.write_text("keep\n")
    cfg = tmp_path / "train.cfg"
    if case == "directory-config":
        cfg.mkdir()
    elif case == "utf16-config":
        cfg.write_text("epochs = 1\n", encoding="utf-16")
    run = ["run", "--data-root", str(synth_root), "--dataset", "SynthBench",
           "--pairs", "0,1", "--seeds", "0"]
    if case == "run-out-is-file":
        argv, named = run + ["--out", str(taken)], taken
    elif case == "synth-out-is-file":
        argv, named = ["synth", "--out", str(taken), "--graphs-per-block", "4"], taken
    else:
        argv, named = run + ["--config", str(cfg), "--out", str(tmp_path / "out")], cfg
    before = sorted(tmp_path.rglob("*"))
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and str(named) in err
    assert sorted(tmp_path.rglob("*")) == before
    assert taken.read_text() == "keep\n"


@pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
def test_run_out_is_file_fails_before_parse(tmp_path, synth_root, capsys, monkeypatch, under):
    import dagrl.experiments as experiments

    def parse(*_):
        raise AssertionError("parsed before the output path was checked")

    monkeypatch.setattr(experiments, "parse_tudataset", parse)
    taken = tmp_path / "taken.txt"
    taken.write_text("keep\n")
    out = taken / "out" if under else taken
    code = main(["run", "--data-root", str(synth_root), "--dataset", "SynthBench",
                 "--pairs", "0,1", "--seeds", "0", "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: cannot use {out} ")
    assert sorted(tmp_path.iterdir()) == [taken]
    assert taken.read_text() == "keep\n"


def test_run_undecodable_dataset_file_exit_2(tmp_path, synth_root, capsys):
    root = tmp_path / "data"
    shutil.copytree(synth_root, root)
    with open(root / "SynthBench" / "SynthBench_graph_labels.txt", "ab") as fh:
        fh.write(b"\xff\n")
    out = tmp_path / "out"
    code = main(["run", "--data-root", str(root), "--dataset", "SynthBench",
                 "--pairs", "0,1", "--seeds", "0", "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: SynthBench_graph_labels.txt: ") and "(line 65)" in err
    assert not out.exists()


def test_run_failure_writes_manifest_and_exits_1(tmp_path, synth_root, capsys, monkeypatch):
    import dagrl.cli as cli
    from dagrl.experiments import PlanExecutionError, ResultTable

    def explode(plan):
        raise PlanExecutionError([(0, 1, 0, "RuntimeError: boom")],
                                 ResultTable(dataset_name="SynthBench", pairs=plan.pairs))

    monkeypatch.setattr(cli, "run_plan", explode)
    out = tmp_path / "out"
    code = main(["run", "--data-root", str(synth_root), "--dataset", "SynthBench",
                 "--pairs", "0,1", "--seeds", "0", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 1
    assert "FAILED 0->1 seed=0" in captured.err
    assert (out / "failures.txt").read_text() == "0->1 seed=0: RuntimeError: boom\n"


def test_run_missing_dataset_fails_with_exit_2(tmp_path, capsys):
    code = main(["run", "--data-root", str(tmp_path), "--dataset", "Nope",
                 "--pairs", "0,1", "--seeds", "0", "--out", str(tmp_path / "out" / "inner")])
    captured = capsys.readouterr()
    assert code == 2
    assert "Nope" in captured.err
    # The output directories made before the parse are removed again.
    assert list(tmp_path.iterdir()) == []


def test_run_bad_pairs_usage_error(tmp_path, synth_root, capsys):
    code = main(["run", "--data-root", str(synth_root), "--dataset", "SynthBench",
                 "--pairs", "0,0", "--seeds", "0", "--out", str(tmp_path / "out")])
    assert code == 2
    assert "differ" in capsys.readouterr().err


@pytest.mark.parametrize("pairs,seeds,message", [
    ("0,1;0,1;1,0", "0", "repeated pair in plan: [(0, 1)]"),
    ("0,1", "0,0,1", "repeated seed in plan: [0]"),
    ("0,1", "-1", "seeds must be nonnegative, got -1"),
], ids=["repeated-pair", "repeated-seed", "negative-seed"])
def test_run_rejects_plan_before_any_cell(tmp_path, synth_root, capsys, pairs, seeds, message):
    out = tmp_path / "out"
    code = main(["run", "--data-root", str(synth_root), "--dataset", "SynthBench",
                 "--pairs", pairs, f"--seeds={seeds}", "--out", str(out)])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_synth_round_trips_through_parser(synth_root):
    from dagrl.graphs import parse_tudataset, split_by_density

    ds = parse_tudataset(synth_root, "SynthBench")
    assert len(ds.graphs) == 64
    part = split_by_density(ds)
    assert sorted(len(g) for g in part.groups) == [16, 16, 16, 16]


def test_synth_too_few_graphs_per_block_exit_2(tmp_path, capsys):
    code = main(["synth", "--out", str(tmp_path), "--name", "Empty", "--graphs-per-block", "1"])
    assert code == 2
    assert "graphs_per_block" in capsys.readouterr().err
    assert not (tmp_path / "Empty").exists()


def test_synth_negative_seed_exit_2(tmp_path, capsys):
    code = main(["synth", "--out", str(tmp_path), "--name", "Negative", "--seed", "-1"])
    assert code == 2
    assert "seed" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


# int() also reads other digits and underscores; synth's number flags do not.
@pytest.mark.parametrize("flag,raw", [("--seed", "1_0"), ("--graphs-per-block", "\u0664")],
                         ids=["seed-underscore", "graphs-per-block-arabic-indic"])
def test_synth_number_flags_outside_ascii_exit_2(tmp_path, capsys, flag, raw):
    code = main(["synth", "--out", str(tmp_path), "--name", "Odd", flag, raw])
    assert code == 2
    assert f"bad {flag} {raw!r}; expected an integer" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())
