"""Config loading/validation and the command-line entry point."""

import dataclasses
import glob
import json
import os

import pytest

from hmn.analysis import DEFAULT_GRIDS
from hmn.cli import main
from hmn.config import RunConfig, config_from_dict, load_config
from hmn.model import Model
from hmn.train import train

from conftest import make_tiny_cfg


def write_cfg(path, cfg):
    path.write_text(json.dumps(dataclasses.asdict(cfg)))
    return str(path)


# ------------------------------------------------------------------- config

def test_resolve_fills_dataset_fields():
    cfg = RunConfig(dataset="synth_blobs", synth_classes=3)
    assert cfg.image_size == (16, 16)
    assert cfg.in_channels == 1
    assert cfg.num_classes == 3
    assert cfg.norm_mean == [0.5]


def test_resolve_keeps_explicit_overrides():
    cfg = RunConfig(dataset="synth_blobs", image_size=[8, 8])
    assert cfg.image_size == (8, 8)


@pytest.mark.parametrize("dataset,size,channels,mean,std", [
    ("cifar10", (32, 32), 3, [0.4914, 0.4822, 0.4465], [0.2470, 0.2435, 0.2616]),
    ("fashion_mnist", (28, 28), 1, [0.2860], [0.3530]),
])
def test_real_datasets_fix_their_facts(dataset, size, channels, mean, std):
    cfg = RunConfig(dataset=dataset, synth_classes=3)
    assert cfg.image_size == size
    assert (cfg.in_channels, cfg.num_classes) == (channels, 10)
    assert (cfg.norm_mean, cfg.norm_std) == (mean, std)
    assert RunConfig(dataset=dataset, image_size=list(size)).image_size == size


def test_dataset_facts_are_not_settable():
    fields = {f.name for f in dataclasses.fields(RunConfig)}
    assert len(fields) == 28
    for key in ("num_classes", "in_channels", "norm_mean", "norm_std"):
        assert key not in fields
        with pytest.raises(ValueError, match=f"unknown config keys: {key}"):
            config_from_dict({"dataset": "synth_blobs", key: None})


def test_config_is_frozen_and_replace_checks_again():
    cfg = RunConfig(dataset="synth_blobs")
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.k = 5
    with pytest.raises(TypeError):
        cfg.image_size[0] = 15
    assert cfg.image_size == (16, 16)
    with pytest.raises(ValueError, match="odd"):
        dataclasses.replace(cfg, k=4)
    assert dataclasses.replace(cfg, k=5).k == 5


@pytest.mark.parametrize("field,value", [
    ("epochs", "8"),
    ("epochs", 8.0),
    ("epochs", True),
    ("lr", "0.001"),
    ("lr", float("nan")),
    ("augment", 1),
    ("dataset", None),
    ("image_size", 28),
    ("image_size", [28]),
    ("image_size", [16.0, 16.0]),
    ("image_size", [0, 16]),
])
def test_wrong_typed_values_name_the_field(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be"):
        config_from_dict({"dataset": "synth_blobs", field: value})


def test_values_keep_their_json_form():
    cfg = config_from_dict({"dataset": "synth_blobs", "lr": 1, "image_size": (8, 8)})
    assert cfg.lr == 1 and cfg.image_size == (8, 8)
    assert '"image_size":[8,8]' in cfg.to_json() and '"lr":1,' in cfg.to_json()


def test_unknown_dataset():
    with pytest.raises(ValueError, match="unknown dataset"):
        RunConfig(dataset="imagenet")


def test_unknown_keys_rejected():
    for key, value in (("dropout", 0.1), ("use_norm", True)):
        with pytest.raises(ValueError, match=f"unknown config keys: {key}"):
            config_from_dict({"dataset": "synth_blobs", key: value})


def test_shipped_configs_load_and_build():
    """Every config under configs/ loads and builds its model; no data is read."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    paths = sorted(glob.glob(os.path.join(root, "configs", "*.json")))
    assert [os.path.basename(p) for p in paths] == [
        "fashion_desk.json", "synth_desk.json", "synth_smoke.json"]
    for path in paths:
        cfg = load_config(path)
        model = Model(cfg)
        assert len(model.blocks) == cfg.n_blocks
        assert len(model.parameters()) == 6 + 18 * cfg.n_blocks


def test_load_config_round_trip(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"dataset": "synth_blobs", "epochs": 7,
                             "warmup_epochs": 2}))
    cfg = load_config(p)
    assert cfg.epochs == 7 and cfg.num_classes == 2


def test_load_config_invalid_json(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with pytest.raises(ValueError, match="not valid JSON"):
        load_config(p)


def test_load_config_non_object_root(tmp_path):
    p = tmp_path / "list.json"
    p.write_text("[1, 2]")
    with pytest.raises(ValueError, match="JSON object"):
        load_config(p)


@pytest.mark.parametrize("field,value,phrase", [
    ("k", 4, "odd"),
    ("k", -1, "odd"),
    ("image_size", [15, 16], "not divisible"),
    ("write_sample", 0, "write_sample must be in"),
    ("write_sample", 999, "write_sample must be in"),
    ("t_steps", -1, "nonnegative"),
    ("fraction", 0.0, "fraction"),
    ("fraction", 1.5, "fraction"),
    ("imbalance_ratio", 0.5, "imbalance_ratio"),
    ("warmup_epochs", 60, "warmup_epochs"),
    ("weight_decay", -1e-4, "weight_decay"),
    ("d_emb", 0, "positive"),
    ("k_local", 1, "slot per class"),
    ("dataset", "fashion_mnist", "fashion_mnist images are 28x28"),
    ("patch_size", 0, "patch_size must be positive"),
    ("synth_train_per_class", 0, "synth_train_per_class must be positive"),
    ("synth_test_per_class", -1, "synth_test_per_class must be positive"),
    ("d_lat", 7400, "d_lat 7400 is too wide for the memory read"),
])
def test_validation_rejects(field, value, phrase):
    with pytest.raises(ValueError, match=phrase):
        RunConfig(**{"dataset": "synth_blobs", "synth_classes": 2,
                     "image_size": [16, 16], field: value})


def test_canonical_json_excludes_locations():
    a = RunConfig(dataset="synth_blobs", out_dir="runs/a", data_dir="/x")
    b = RunConfig(dataset="synth_blobs", out_dir="runs/b", data_dir="/y")
    assert a.to_json() == b.to_json()
    assert "out_dir" not in a.to_json()
    # canonical form is stable: sorted keys, no whitespace
    assert a.to_json() == json.dumps(json.loads(a.to_json()),
                                     sort_keys=True, separators=(",", ":"))


def test_grid_properties():
    cfg = RunConfig(dataset="synth_blobs", patch_size=4)
    assert cfg.grid_shape == (4, 4)
    assert cfg.n_tokens == 16


# ---------------------------------------------------------------------- cli

def run_cli(capsys, *argv):
    rc = main(list(argv))
    cap = capsys.readouterr()
    return rc, cap.out, cap.err


def last_json(out):
    return json.loads(out.strip().split("\n")[-1])


def test_cli_probe_variance(capsys):
    rc, out, err = run_cli(capsys, "probe-variance", "--dim", "64", "--n", "2000")
    assert rc == 0 and err == ""
    rec = last_json(out)
    assert rec["dim"] == 64
    assert rec["expected_raw"] == 1.0 / 64
    assert 0.8 <= rec["scaled_var"] <= 1.2


def test_cli_params(capsys, tmp_path):
    cfg_path = write_cfg(tmp_path / "p.json", make_tiny_cfg(tmp_path))
    rc, out, err = run_cli(capsys, "params", "--config", cfg_path)
    assert rc == 0
    rec = last_json(out)
    assert rec["total"] == rec["learnable"] + rec["bank_slots"]
    assert rec["config"] == "p.json"


def test_cli_train_eval_round_trip(capsys, tmp_path):
    cfg = make_tiny_cfg(tmp_path / "run", epochs=1, warmup_epochs=0,
                        synth_train_per_class=10, synth_test_per_class=5)
    cfg_path = write_cfg(tmp_path / "t.json", cfg)
    rc, out, err = run_cli(capsys, "train", "--config", cfg_path)
    assert rc == 0, err
    summary = last_json(out)
    assert {"final_test_acc", "best_test_acc", "out_dir"} <= set(summary)
    assert os.path.exists(os.path.join(cfg.out_dir, "metrics.csv"))
    ckpt = os.path.join(cfg.out_dir, "final.ckpt")

    rc, out, err = run_cli(capsys, "eval", "--ckpt", ckpt)
    assert rc == 0, err
    rec = last_json(out)
    assert rec["test_acc"] == summary["final_test_acc"]
    assert rec["n"] == 10


def test_cli_train_out_override(capsys, tmp_path):
    cfg = make_tiny_cfg(tmp_path / "orig", epochs=1, warmup_epochs=0,
                        synth_train_per_class=10, synth_test_per_class=5)
    cfg_path = write_cfg(tmp_path / "t.json", cfg)
    target = str(tmp_path / "moved")
    rc, out, _ = run_cli(capsys, "train", "--config", cfg_path, "--out", target)
    assert rc == 0
    assert last_json(out)["out_dir"] == target
    assert os.path.exists(os.path.join(target, "final.ckpt"))
    assert not os.path.exists(os.path.join(str(tmp_path / "orig"), "final.ckpt"))


def test_cli_gradcheck(capsys):
    rc, out, err = run_cli(capsys, "gradcheck", "--t", "1", "--tol", "1e-4")
    assert rc == 0, err
    rec = last_json(out)
    assert rec["pass"] is True
    assert rec["max_rel_err"]["T=1"] < 1e-4
    with pytest.raises(SystemExit):  # the model size is fixed, not an option
        main(["gradcheck", "--size", "tiny"])


def test_cli_analyze_hit_rate(capsys, trained_tiny, tmp_path):
    cfg, _, out_dir = trained_tiny
    ckpt = os.path.join(out_dir, "final.ckpt")
    dest = str(tmp_path / "diag")
    rc, out, err = run_cli(capsys, "analyze", "hit-rate", "--ckpt", ckpt,
                           "--out", dest)
    assert rc == 0, err
    rec = last_json(out)
    assert sorted(os.path.basename(p) for p in rec["outputs"]) == [
        "hit_rate_global.csv", "hit_rate_local.csv"]
    for p in rec["outputs"]:
        assert os.path.exists(p)


def test_cli_analyze_consistency(capsys, trained_tiny, tmp_path):
    cfg, _, out_dir = trained_tiny
    ckpt = os.path.join(out_dir, "final.ckpt")
    dest = str(tmp_path / "cons")
    rc, out, err = run_cli(capsys, "analyze", "consistency", "--ckpt", ckpt,
                           "--out", dest, "--family", "occlusion_px",
                           "--grid", "2,4")
    assert rc == 0, err
    assert os.path.exists(os.path.join(dest, "consistency.csv"))


@pytest.fixture(scope="module")
def trained_16px(tmp_path_factory):
    """final.ckpt of a one-epoch tiny run on 16×16 images."""
    cfg = make_tiny_cfg(tmp_path_factory.mktemp("trained_16px"), image_size=[16, 16],
                        epochs=1, warmup_epochs=0, synth_train_per_class=10,
                        synth_test_per_class=5)
    train(cfg, log=lambda *_: None)
    return os.path.join(cfg.out_dir, "final.ckpt")


def test_cli_consistency_default_grid_fits_the_image(capsys, trained_16px, tmp_path):
    dest = str(tmp_path / "cons")
    rc, out, err = run_cli(capsys, "analyze", "consistency", "--ckpt", trained_16px,
                           "--out", dest)
    assert rc == 0, err
    rows = open(os.path.join(dest, "consistency.csv")).read().strip().split("\n")[1:]
    assert [row.split(",")[2] for row in rows] == ["0.0", "4", "8", "12", "16"]


def test_cli_consistency_checks_the_grid_before_out_is_made(capsys, trained_16px, tmp_path):
    dest = str(tmp_path / "cons")
    rc, out, err = run_cli(capsys, "analyze", "consistency", "--ckpt", trained_16px,
                           "--out", dest, "--grid", "4,20")
    assert rc == 1 and out == ""
    rec = json.loads(err.strip())
    assert rec == {"error": "ValueError",
                   "message": "occlusion side must be in [0, 16], got 20.0"}
    assert not os.path.exists(dest)


@pytest.mark.parametrize("family,grid,message", [
    ("gaussian", "nan", "gaussian severity must be finite, got nan"),
    ("contrast", "nan", "contrast severity must be finite, got nan"),
    ("occlusion_px", "4.5", "occlusion side must be a whole number, got 4.5"),
    ("occlusion_px", "-0.5", "occlusion side must be a whole number, got -0.5")])
def test_cli_consistency_rejects_severities_it_cannot_apply(capsys, trained_16px, tmp_path,
                                                            family, grid, message):
    dest = str(tmp_path / "cons")
    rc, out, err = run_cli(capsys, "analyze", "consistency", "--ckpt", trained_16px,
                           "--out", dest, "--family", family, f"--grid={grid}")
    assert rc == 1 and out == ""
    assert json.loads(err.strip()) == {"error": "ValueError", "message": message}
    assert not os.path.exists(dest)


@pytest.mark.parametrize("family", ["gaussian", "occlusion", "contrast"])
def test_cli_consistency_default_grid_follows_the_family(capsys, trained_16px, tmp_path,
                                                         family):
    dest = str(tmp_path / "cons")
    rc, out, err = run_cli(capsys, "analyze", "consistency", "--ckpt", trained_16px,
                           "--out", dest, "--family", family)
    assert rc == 0, err
    rows = open(os.path.join(dest, "consistency.csv")).read().strip().split("\n")[1:]
    ident = "1.0" if family == "contrast" else "0.0"
    assert [row.split(",")[2] for row in rows] == [ident] + [repr(v) for v in DEFAULT_GRIDS[family]]


def test_cli_only_consistency_reads_the_grid(capsys, trained_tiny, tmp_path):
    ckpt = os.path.join(trained_tiny[2], "final.ckpt")
    rc, out, err = run_cli(capsys, "analyze", "hit-rate", "--ckpt", ckpt,
                           "--out", str(tmp_path / "hit"), "--grid", "x")
    assert rc == 0, err


def test_cli_analyze_weights_reads_the_branch_option(capsys, trained_tiny, tmp_path):
    ckpt = os.path.join(trained_tiny[2], "final.ckpt")
    dest = str(tmp_path / "w")
    rc, out, err = run_cli(capsys, "analyze", "weights", "--ckpt", ckpt, "--out", dest,
                           "--branch", "local")
    assert rc == 0, err
    assert sorted(os.listdir(dest)) == ["weights_local_class0.csv",
                                        "weights_local_class0.svg"]
    assert "local branch" in open(os.path.join(dest, "weights_local_class0.svg")).read()


@pytest.mark.parametrize("what", ["weights", "consistency"])
def test_cli_single_branch_analyses_reject_both(capsys, trained_tiny, tmp_path, what):
    ckpt = os.path.join(trained_tiny[2], "final.ckpt")
    dest = str(tmp_path / "diag")
    rc, out, err = run_cli(capsys, "analyze", what, "--ckpt", ckpt, "--out", dest,
                           "--branch", "both")
    assert rc == 1 and out == ""
    rec = json.loads(err.strip())
    assert rec["error"] == "ValueError" and "one --branch" in rec["message"]
    assert not os.path.exists(dest)


@pytest.mark.parametrize("what,args,message", [
    ("hit-rate", ["--batch-size", "0"], "batch size must be at least 1, got 0"),
    ("weights", ["--class-id", "99"], "no samples of class 99 in the dataset")])
def test_cli_analyze_checks_its_arguments_before_out_is_made(capsys, trained_tiny, tmp_path,
                                                              what, args, message):
    ckpt = os.path.join(trained_tiny[2], "final.ckpt")
    dest = str(tmp_path / "diag")
    rc, out, err = run_cli(capsys, "analyze", what, "--ckpt", ckpt, "--out", dest, *args)
    assert rc == 1 and out == ""
    assert json.loads(err.strip()) == {"error": "ValueError", "message": message}
    assert not os.path.exists(dest)


def test_cli_robustness_keeps_checkpoints_of_equal_t_apart(capsys, trained_tiny, tmp_path):
    cfg, _, out_dir = trained_tiny
    ckpt = os.path.join(out_dir, "final.ckpt")
    dest = str(tmp_path / "rob")
    rc, out, err = run_cli(capsys, "analyze", "robustness", "--ckpt", ckpt, "--ckpt", ckpt,
                           "--out", dest, "--families", "contrast")
    assert rc == 0, err
    rows = open(os.path.join(dest, "robustness.csv")).read().strip().split("\n")[1:]
    t = f"T={cfg.t_steps}"
    per_label = {}
    for row in rows:
        label = row.split(",")[0]
        per_label.setdefault(label, []).append(row.split(",", 1)[1])
    assert sorted(per_label) == [f"{t} #1", f"{t} #2"]
    # one checkpoint twice: two equal series, neither merged into the other
    assert per_label[f"{t} #1"] == per_label[f"{t} #2"]
    assert len(per_label[f"{t} #1"]) == len(rows) // 2
    svg = open(os.path.join(dest, "robustness_contrast.svg")).read()
    assert f"{t} #1" in svg and f"{t} #2" in svg


@pytest.mark.parametrize("families", ["gaussian,bogus", "occlusion_px"])
def test_cli_robustness_rejects_unknown_families(capsys, trained_tiny, tmp_path, families):
    ckpt = os.path.join(trained_tiny[2], "final.ckpt")
    dest = str(tmp_path / "rob")
    rc, out, err = run_cli(capsys, "analyze", "robustness", "--ckpt", ckpt, "--out", dest,
                           "--families", families)
    assert rc == 1 and out == ""
    rec = json.loads(err.strip())
    unknown = families.split(",")[-1]
    assert rec["error"] == "ValueError" and repr(unknown) in rec["message"]
    assert all(repr(f) in rec["message"] for f in ("contrast", "gaussian", "occlusion"))
    assert not os.path.exists(dest)


def test_cli_consistency_rejects_an_unknown_family(capsys, trained_tiny, tmp_path):
    ckpt = os.path.join(trained_tiny[2], "final.ckpt")
    dest = str(tmp_path / "cons")
    rc, out, err = run_cli(capsys, "analyze", "consistency", "--ckpt", ckpt, "--out", dest,
                           "--family", "bogus")
    assert rc == 1 and out == ""
    rec = json.loads(err.strip())
    assert rec["error"] == "ValueError" and "'bogus'" in rec["message"]
    assert all(repr(f) in rec["message"]
               for f in ("contrast", "gaussian", "occlusion", "occlusion_px"))
    assert not os.path.exists(dest)


def test_cli_sweep(capsys, tmp_path):
    cfg = make_tiny_cfg(tmp_path / "base", epochs=1, warmup_epochs=0,
                        synth_train_per_class=10, synth_test_per_class=5)
    cfg_path = write_cfg(tmp_path / "s.json", cfg)
    root = str(tmp_path / "sw")
    rc, out, err = run_cli(capsys, "sweep", "--config", cfg_path,
                           "--axis", "T", "--values", "0", "--out", root)
    assert rc == 0, err
    assert last_json(out)["runs"] == 1
    assert os.path.exists(os.path.join(root, "summary.csv"))


def test_cli_error_is_single_json_line(capsys, tmp_path):
    rc, out, err = run_cli(capsys, "eval", "--ckpt", str(tmp_path / "nope.ckpt"))
    assert rc == 1
    assert out == ""
    lines = err.strip().split("\n")
    assert len(lines) == 1
    rec = json.loads(lines[0])
    assert rec["error"] == "FileNotFoundError"
    assert "message" in rec


def test_cli_bad_config_error(capsys, tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{broken")
    rc, out, err = run_cli(capsys, "train", "--config", str(p))
    assert rc == 1
    rec = json.loads(err.strip())
    assert rec["error"] == "ValueError"
    assert "JSON" in rec["message"]


def test_cli_wrong_typed_config_error(capsys, tmp_path):
    p = tmp_path / "typed.json"
    p.write_text(json.dumps({"dataset": "synth_blobs", "epochs": "8"}))
    rc, out, err = run_cli(capsys, "train", "--config", str(p))
    assert rc == 1 and out == ""
    rec = json.loads(err.strip())
    assert rec["error"] == "ValueError"
    assert rec["message"].startswith("epochs must be an integer")


@pytest.mark.parametrize("what", ["hit-rate", "weights", "consistency"])
def test_cli_analyze_rejects_extra_checkpoints(capsys, trained_tiny, tmp_path, what):
    ckpt = os.path.join(trained_tiny[2], "final.ckpt")
    dest = str(tmp_path / "diag")
    rc, out, err = run_cli(capsys, "analyze", what, "--ckpt", ckpt,
                           "--ckpt", str(tmp_path / "nonexistent.ckpt"), "--out", dest)
    assert rc == 1 and out == ""
    rec = json.loads(err.strip())
    assert rec["error"] == "ValueError" and "one --ckpt" in rec["message"]
    assert not os.path.exists(dest)


def test_cli_unknown_command_exits_nonzero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code != 0
