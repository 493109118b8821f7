import copy
import importlib.util
import json
import random
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from actol import ClipSequence, bridge_stats_report, lipschitz_pairs_report, random_clip
from actol.cli import COMMANDS, COMMON, SCHEMA_VERSION, _load_config, _write_json, main

runner = CliRunner()


def write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def invoke(cmd, config, out):
    return runner.invoke(main, [cmd, "--config", config, "--out", str(out)])


class TestTrainCommand:
    def config(self, tmp_path):
        return write_config(
            tmp_path,
            {
                "seed": 3,
                "clip": {"synthetic": {"T": 6, "d": 4, "completion_index": 4,
                                       "tail_mode": "drift-away", "noise_sigma": 0.05}},
                "train": {"learning_rate": 0.05, "steps": 20},
            },
        )

    def test_writes_artifacts(self, tmp_path):
        out = tmp_path / "out"
        result = invoke("train", self.config(tmp_path), out)
        assert result.exit_code == 0, result.output
        history = (out / "history.csv").read_text().splitlines()
        assert history[0] == "step,vlo,bb,total,lower_bound,gap"
        assert len(history) == 21
        final = json.loads((out / "final_clip.json").read_text())
        assert final["schema_version"] == 1
        clip = ClipSequence(final["timestamps"], final["embeddings"], final["language"])
        assert clip.T == 6

    def test_byte_identical_rerun(self, tmp_path):
        cfg = self.config(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert invoke("train", cfg, out1).exit_code == 0
        assert invoke("train", cfg, out2).exit_code == 0
        for name in ("history.csv", "final_clip.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = self.config(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        runner.invoke(main, ["train", "--config", cfg, "--out", str(out1), "--seed", "7"])
        runner.invoke(main, ["train", "--config", cfg, "--out", str(out2), "--seed", "8"])
        assert (out1 / "history.csv").read_bytes() != (out2 / "history.csv").read_bytes()

    def test_clip_from_file(self, tmp_path):
        clip = random_clip(5, 3, np.random.default_rng(0))
        clip_path = tmp_path / "clip.json"
        clip.save(clip_path)
        cfg = write_config(tmp_path, {"clip": {"file": str(clip_path)},
                                      "train": {"steps": 5}})
        result = invoke("train", cfg, tmp_path / "out")
        assert result.exit_code == 0, result.output

    def test_missing_clip_section(self, tmp_path):
        cfg = write_config(tmp_path, {"train": {"steps": 5}})
        assert invoke("train", cfg, tmp_path / "out").exit_code == 2

    @pytest.mark.parametrize("clip", [5, ["file"]], ids=["number", "list"])
    def test_clip_section_not_an_object(self, tmp_path, clip):
        cfg = write_config(tmp_path, {"clip": clip, "train": {"steps": 5}})
        result = invoke("train", cfg, tmp_path / "out")
        assert result.exit_code == 2, result.output
        assert "clip must be a JSON object" in result.output

    @pytest.mark.parametrize("path", [0, None, ["clip.json"]], ids=["fd-0", "null", "list"])
    def test_clip_file_not_a_string(self, tmp_path, path):
        cfg = write_config(tmp_path, {"clip": {"file": path}, "train": {"steps": 2}})
        result = invoke("train", cfg, tmp_path / "out")
        assert result.exit_code == 2, result.output
        assert "clip file must be a path string" in result.output

    def test_clip_file_and_synthetic(self, tmp_path):
        clip_path = tmp_path / "clip.json"
        random_clip(5, 3, np.random.default_rng(0)).save(clip_path)
        cfg = write_config(tmp_path, {"clip": {"file": str(clip_path),
                                               "synthetic": {"T": 4, "d": 3, "completion_index": 2}},
                                      "train": {"steps": 2}})
        result = invoke("train", cfg, tmp_path / "out")
        assert result.exit_code == 2, result.output
        assert "exactly one of 'file' and 'synthetic'" in result.output

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert invoke("train", str(path), tmp_path / "out").exit_code == 2

    def test_bad_train_field(self, tmp_path):
        cfg = write_config(tmp_path, {"clip": {"synthetic": {"T": 4, "d": 3,
                                                             "completion_index": 4}},
                                      "train": {"steps": -1}})
        assert invoke("train", cfg, tmp_path / "out").exit_code == 2

    @pytest.mark.parametrize(
        "field",
        [
            {"temperature": 0},
            {"steps": 2.5},
            {"learning_rate": float("nan")},
            {"bb_weight": float("inf")},
            {"intervals_per_step": 1.5},
            {"steps": True},
            {"intervals_per_step": True},
            {"optimize_language": "false"},
            {"optimize_language": 1},
            {"learning_rate": True},
            {"temperature": True},
            {"bb_weight": False},
            {"temperature": float("inf")},
        ],
        ids=[
            "temperature-0", "steps-2.5", "learning_rate-nan", "bb_weight-inf",
            "intervals_per_step-1.5", "steps-true", "intervals_per_step-true",
            "optimize_language-string", "optimize_language-1", "learning_rate-true",
            "temperature-true", "bb_weight-false", "temperature-inf",
        ],
    )
    def test_invalid_train_value(self, tmp_path, field):
        cfg = write_config(tmp_path, {"clip": {"synthetic": {"T": 4, "d": 3,
                                                             "completion_index": 4}},
                                      "train": {"steps": 5, **field}})
        assert invoke("train", cfg, tmp_path / "out").exit_code == 2

    @pytest.mark.parametrize(
        "content",
        [
            None,
            "{not json",
            '{"d": 2, "timestamps": [0, 1], "embeddings": [[1, 0], [0, 1]]}',
            '{"d": 2, "timestamps": [0, 1], "embeddings": [[1, 0], [0, NaN]],'
            ' "language": [1, 0]}',
            '{"d": 2, "timestamps": [0, 1], "embeddings": [[1, 0], [0, 1]],'
            ' "language": [1, Infinity]}',
            '{"d": 2, "timestamps": [0, 1.5], "embeddings": [[1, 0], [0, 1]],'
            ' "language": [1, 0]}',
            '{"d": 2, "timestamps": [0, Infinity], "embeddings": [[1, 0], [0, 1]],'
            ' "language": [1, 0]}',
            '{"d": 2, "timestamps": [false, true], "embeddings": [[1, 0], [0, 1]],'
            ' "language": [1, 0]}',
        ],
        ids=[
            "missing-file", "invalid-json", "missing-language", "nan-embedding", "inf-language",
            "fractional-timestamp", "inf-timestamp", "boolean-timestamps",
        ],
    )
    def test_bad_clip_file(self, tmp_path, content):
        clip_path = tmp_path / "clip.json"
        if content is not None:
            clip_path.write_text(content)
        cfg = write_config(tmp_path, {"clip": {"file": str(clip_path)}, "train": {"steps": 5}})
        assert invoke("train", cfg, tmp_path / "out").exit_code == 2

    @pytest.mark.parametrize(
        "field",
        [{"T": 4.5}, {"d": 2.5}, {"completion_index": 2.5}, {"T": True}, {"d": True},
         {"completion_index": True}],
        ids=["T-4.5", "d-2.5", "completion_index-2.5", "T-true", "d-true", "completion_index-true"],
    )
    def test_non_integer_synthetic_spec(self, tmp_path, field):
        spec = {"T": 4, "d": 3, "completion_index": 2, **field}
        cfg = write_config(tmp_path, {"clip": {"synthetic": spec}, "train": {"steps": 5}})
        result = invoke("train", cfg, tmp_path / "out")
        assert result.exit_code == 2, result.output
        assert "must be an integer" in result.output

    def test_one_dimensional_synthetic_clip(self, tmp_path):
        cfg = write_config(tmp_path, {"clip": {"synthetic": {"T": 4, "d": 1,
                                                             "completion_index": 2}},
                                      "train": {"steps": 5}})
        result = invoke("train", cfg, tmp_path / "out")
        assert result.exit_code == 2, result.output
        assert "dimension must be at least 2" in result.output


class TestVerifyCommand:
    def test_all_checks_pass(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "seed": 0,
                "checks": ["lower-bound", "tightness", "lipschitz", "robustness",
                           "bridge-stats"],
                "lower_bound": {"clips": 100},
                "lipschitz": {"trials": 500},
                "robustness": {"trials": 500},
                "bridge_stats": {"samples": 2000},
            },
        )
        out = tmp_path / "out"
        result = invoke("verify", cfg, out)
        assert result.exit_code == 0, result.output
        data = json.loads((out / "theorem_reports.json").read_text())
        assert len(data["reports"]) == 5
        assert all(r["passed"] for r in data["reports"])

    def test_negative_control_fails(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "seed": 0,
                "checks": ["bridge-stats"],
                "bridge_stats": {"samples": 2000},
                "debug_flip_bb_variance_sign": True,
            },
        )
        out = tmp_path / "out"
        result = invoke("verify", cfg, out)
        assert result.exit_code == 1
        data = json.loads((out / "theorem_reports.json").read_text())
        assert not data["reports"][0]["passed"]

    @pytest.mark.parametrize("flip", ["yes", 1, None], ids=["string", "number", "null"])
    def test_debug_flip_must_be_boolean(self, tmp_path, flip):
        cfg = write_config(tmp_path, {"checks": ["bridge-stats"],
                                      "debug_flip_bb_variance_sign": flip})
        result = invoke("verify", cfg, tmp_path / "out")
        assert result.exit_code == 2, result.output
        assert "debug_flip_bb_variance_sign must be true or false" in result.output

    def test_empty_checks_rejected(self, tmp_path):
        cfg = write_config(tmp_path, {"checks": []})
        assert invoke("verify", cfg, tmp_path / "out").exit_code == 2

    def test_unknown_check_rejected(self, tmp_path):
        cfg = write_config(tmp_path, {"checks": ["teleportation"]})
        assert invoke("verify", cfg, tmp_path / "out").exit_code == 2

    @pytest.mark.parametrize("checks", [5, [["lipschitz"]]], ids=["number", "nested-list"])
    def test_bad_check_list(self, tmp_path, checks):
        cfg = write_config(tmp_path, {"checks": checks})
        result = invoke("verify", cfg, tmp_path / "out")
        assert result.exit_code == 2, result.output
        assert "checks" in result.output

    @pytest.mark.parametrize("t_end", [9, 0])
    def test_bad_bridge_t_end(self, tmp_path, t_end):
        cfg = write_config(tmp_path, {"checks": ["bridge-stats"], "bridge_stats": {"t_end": t_end}})
        assert invoke("verify", cfg, tmp_path / "out").exit_code == 2

    @pytest.mark.parametrize(
        "check,block,params",
        [
            ("robustness", "robustness", {"dim": 1}),
            ("robustness", "robustness", {"delta_l": [3.0]}),
            ("robustness", "robustness", {"delta_l": []}),
            ("robustness", "robustness", {"trials": 0}),
            ("lower-bound", "lower_bound", {"clips": 0}),
            ("lower-bound", "lower_bound", {"t_range": [1, 2]}),
            ("lipschitz", "lipschitz", {"dim": 0}),
            ("lipschitz", "lipschitz", {"trials": 2.5}),
            ("bridge-stats", "bridge_stats", {"dim": 0}),
            ("bridge-stats", "bridge_stats", {"samples": 1}),
            ("tightness", "tightness", {"eps": [0]}),
            ("tightness", "tightness", {"eps": []}),
            ("tightness", "tightness", {"timestamps": [3, 1]}),
            ("tightness", "tightness", {"timestamps": [0, 1.7, 3]}),
            ("tightness", "tightness", {"timestamps": [0, 1, float("inf")]}),
            ("lower-bound", "lower_bound", {"clips": True}),
            ("lipschitz", "lipschitz", {"trials": True}),
            ("robustness", "robustness", {"trials": True}),
            ("robustness", "robustness", {"delta_l": [True]}),
            ("tightness", "tightness", {"eps": [True]}),
            ("bridge-stats", "bridge_stats", {"tolerance": True}),
            ("tightness", "tightness", 5),
            ("lower-bound", "lower_bound", None),
            ("lipschitz", "lipschitz", {"trails": 5}),
            ("bridge-stats", "bridge_stats", {"variance_sign": -1.0}),
        ],
    )
    def test_bad_check_parameters(self, tmp_path, check, block, params):
        cfg = write_config(tmp_path, {"checks": [check], block: params})
        result = invoke("verify", cfg, tmp_path / "out")
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert f"error: bad {block} parameters" in result.output

    @pytest.mark.parametrize(
        "key,value",
        [
            ("t_range", [3.5, 6]),
            ("d_range", [2.0, 3.0]),
            ("t_range", [True, 5]),
            ("d_range", [2, True]),
            *((key, value) for key in ("t_range", "d_range")
              for value in ([3], [6, 3], [1, 5], "ab")),
        ],
    )
    def test_bad_lower_bound_range(self, tmp_path, key, value):
        cfg = write_config(tmp_path, {"checks": ["lower-bound"],
                                      "lower_bound": {"clips": 50, key: value}})
        result = invoke("verify", cfg, tmp_path / "out")
        assert result.exit_code == 2, result.output
        assert f"error: bad lower_bound parameters: {key} must be" in result.output

    def test_checks_share_one_stream_in_list_order(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "seed": 4,
                "checks": ["lipschitz", "bridge-stats", "lipschitz"],
                "lipschitz": {"trials": 50},
                "bridge_stats": {"samples": 50, "tolerance": 1.0},
            },
        )
        out = tmp_path / "out"
        assert invoke("verify", cfg, out).exit_code == 0
        reports = json.loads((out / "theorem_reports.json").read_text())["reports"]
        rng = np.random.default_rng(4)
        expected = [
            lipschitz_pairs_report(8, 50, rng),
            bridge_stats_report(6, 10, 50, rng, tolerance=1.0),
            lipschitz_pairs_report(8, 50, rng),
        ]
        assert reports == [json.loads(json.dumps(r.to_dict())) for r in expected]
        assert reports[0] != reports[2]


class TestRewardCommand:
    def config(self, tmp_path):
        return write_config(
            tmp_path,
            {
                "seed": 0,
                "synthetic": {"T": 6, "d": 4, "completion_index": 3,
                              "tail_mode": "drift-away", "noise_sigma": 0.05},
                "objectives": ["actol", "last-frame"],
                "train": {"learning_rate": 0.05, "steps": 10, "temperature": 0.5},
                "seeds": 2,
            },
        )

    def test_writes_curves_and_comparison(self, tmp_path):
        out = tmp_path / "out"
        result = invoke("reward", self.config(tmp_path), out)
        assert result.exit_code == 0, result.output
        for obj in ("actol", "last-frame"):
            for seed in (0, 1):
                lines = (out / f"reward_{obj}_seed{seed}.csv").read_text().splitlines()
                assert lines[0] == "frame_index,timestamp,raw_reward,normalized_reward"
                assert len(lines) == 7
        comp = json.loads((out / "comparison.json").read_text())
        assert comp["completion_index"] == 3
        assert set(comp["median_error"]) == {"actol", "last-frame"}
        assert len(comp["per_seed"]) == 2

    def test_byte_identical_rerun(self, tmp_path):
        cfg = self.config(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert invoke("reward", cfg, out1).exit_code == 0
        assert invoke("reward", cfg, out2).exit_code == 0
        for p in sorted(Path(out1).iterdir()):
            assert p.read_bytes() == (out2 / p.name).read_bytes()

    def test_unknown_objective(self, tmp_path):
        cfg = write_config(tmp_path, {"synthetic": {"T": 4, "d": 3, "completion_index": 2},
                                      "objectives": ["mystery"]})
        assert invoke("reward", cfg, tmp_path / "out").exit_code == 2

    @pytest.mark.parametrize(
        "field",
        [
            {"seeds": 0},
            {"seeds": 1.5},
            {"seeds": True},
            {"objectives": []},
            {"objectives": 5},
            {"objectives": [["actol"]]},
            {"objectives": ["actol", "actol"]},
            {"synthetic": {"T": 4, "d": 1, "completion_index": 2}},
            {"synthetic": {"T": 4.5, "d": 3, "completion_index": 2}},
            {"synthetic": {"T": 4, "d": 2.5, "completion_index": 2}},
            {"synthetic": {"T": 4, "d": 3, "completion_index": 2.5}},
            {"synthetic": {"T": 4, "d": 3, "completion_index": 2, "noise_sigma": float("nan")}},
            {"synthetic": {"T": 4, "d": 3, "completion_index": 2, "noise_sigma": float("inf")}},
            {"synthetic": {"T": 4, "d": 3, "completion_index": 2, "noise_sigma": True}},
        ],
        ids=[
            "seeds-0", "seeds-1.5", "seeds-true", "objectives-empty", "objectives-number",
            "objectives-nested-list", "objectives-repeated", "synthetic-d-1",
            "synthetic-T-4.5", "synthetic-d-2.5", "synthetic-completion_index-2.5",
            "synthetic-noise_sigma-nan", "synthetic-noise_sigma-inf", "synthetic-noise_sigma-true",
        ],
    )
    def test_bad_reward_config(self, tmp_path, field):
        data = {"synthetic": {"T": 4, "d": 3, "completion_index": 2},
                "objectives": ["actol"], "train": {"steps": 2}, "seeds": 1}
        cfg = write_config(tmp_path, {**data, **field})
        result = invoke("reward", cfg, tmp_path / "out")
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert not (tmp_path / "out" / "comparison.json").exists()


class TestGradcheckCommand:
    def test_passes_on_defaults(self, tmp_path):
        cfg = write_config(tmp_path, {"seed": 1, "clips": 3, "T": 5, "d": 4})
        out = tmp_path / "out"
        result = invoke("gradcheck", cfg, out)
        assert result.exit_code == 0, result.output
        data = json.loads((out / "gradcheck.json").read_text())
        assert set(data["max_relative_error"]) == {"vlo", "bb", "total"}
        assert all(v < 1e-5 for v in data["max_relative_error"].values())

    @pytest.mark.parametrize("seed", [158176, 302397])
    def test_no_false_failure(self, tmp_path, seed):
        # README config; at these seeds a difference used to cross an
        # alignment-score kink (158176) or round off on a component near
        # zero (302397), with correct analytic gradients
        cfg = write_config(tmp_path, {"seed": seed, "clips": 20, "T": 6, "d": 5})
        result = invoke("gradcheck", cfg, tmp_path / "out")
        assert result.exit_code == 0, result.output

    def test_unknown_loss_rejected(self, tmp_path):
        cfg = write_config(tmp_path, {"losses": ["vlo", "entropy"]})
        assert invoke("gradcheck", cfg, tmp_path / "out").exit_code == 2

    @pytest.mark.parametrize(
        "params",
        [
            {"clips": 0},
            {"clips": True},
            {"T": 1},
            {"T": 2.5},
            {"d": 1},
            {"step": 0},
            {"step": float("inf")},
            {"losses": []},
            {"step": True},
            {"step": 0.01},
            {"losses": 5},
            {"losses": [["vlo"]]},
            {"losses": ["vlo", "vlo"]},
        ],
        ids=["clips-0", "clips-true", "T-1", "T-2.5", "d-1", "step-0", "step-inf", "losses-empty",
             "step-true", "step-too-large", "losses-number", "losses-nested-list",
             "losses-repeated"],
    )
    def test_bad_parameters(self, tmp_path, params):
        cfg = write_config(tmp_path, {"clips": 2, "T": 4, "d": 3, **params})
        result = invoke("gradcheck", cfg, tmp_path / "out")
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert "error: " in result.output
        assert not (tmp_path / "out" / "gradcheck.json").exists()


SMALL_CONFIGS = {
    "train": {"clip": {"synthetic": {"T": 4, "d": 3, "completion_index": 2}},
              "train": {"steps": 2}},
    "verify": {"checks": ["tightness"]},
    "reward": {"synthetic": {"T": 4, "d": 3, "completion_index": 2},
               "objectives": ["actol"], "train": {"steps": 2}, "seeds": 1},
    "gradcheck": {"losses": ["bb"], "clips": 1, "T": 3, "d": 2},
}


@pytest.mark.parametrize("cmd", sorted(SMALL_CONFIGS))
@pytest.mark.parametrize(
    "seed, flag",
    [(None, None), ("a", None), (-1, None), (1.5, None), (True, None), (0, "-5")],
    ids=["null", "string", "negative", "fraction", "true", "flag-negative"],
)
def test_bad_seed(tmp_path, cmd, seed, flag):
    # a null seed would draw OS entropy, so reruns would differ
    cfg = write_config(tmp_path, {**SMALL_CONFIGS[cmd], "seed": seed})
    out = tmp_path / "out"
    args = [cmd, "--config", cfg, "--out", str(out)] + (["--seed", flag] if flag else [])
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert "seed must be a non-negative integer" in result.output
    assert not out.exists() or not any(out.iterdir())


def test_write_json_bytes_match_streamed_dump(tmp_path):
    """One json.dumps write gives the bytes of a streamed json.dump plus a
    newline, signed zeros, extreme exponents and nested lists included."""
    config = {"seed": 0, "eps": [1.0, 0.1, 1e-300]}
    payload = {
        "values": [-0.0, 0.0, 1e-300, -1e-300, 5e-324, 1.7976931348623157e308, 0.1 + 0.2],
        "nested": [[1, [2.5, [-0.0, []]]], {"a": [None, True, "x"]}],
        "empty": {},
    }
    _write_json(tmp_path / "out.json", config, payload)
    with open(tmp_path / "expected.json", "w") as f:
        json.dump({"schema_version": SCHEMA_VERSION, "config": config, **payload}, f, indent=2)
        f.write("\n")
    assert (tmp_path / "out.json").read_bytes() == (tmp_path / "expected.json").read_bytes()


ROOT = Path(__file__).resolve().parent.parent
# Python's wording for an argument of the wrong type; no config error may show it
INTERNAL = ("argument after ** must be a mapping", "object is not iterable",
            "not supported between instances", "unexpected keyword argument",
            "object has no attribute", "unhashable type", "Traceback")
# one value of each JSON type, by the type's name in the tables
SAMPLES = {"boolean": True, "string": "x", "list": [], "object": {}, "null": None, "number": 0.5}


def schema_keys(table, path=()):
    """(path, JsonType, default) of every key of table, each object's keys
    after it."""
    for key, (kind, default) in table.items():
        yield path + (key,), kind, default
        if kind.table is not None:
            yield from schema_keys(kind.table, path + (key,))


def command_keys(cmd):
    return list(schema_keys({**COMMON, **COMMANDS[cmd]}))


def with_value(cmd, path, value):
    """SMALL_CONFIGS[cmd] with value at path, creating the objects above it."""
    config = copy.deepcopy(SMALL_CONFIGS[cmd])
    node = config
    for key in path[:-1]:
        node = node.setdefault(key, {})
    node[path[-1]] = value
    return config


def assert_rejected(tmp_path, cmd, config, *phrases):
    out = tmp_path / "out"
    result = invoke(cmd, write_config(tmp_path, config), out)
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    for phrase in phrases:
        assert phrase in result.output
    assert not any(text in result.output for text in INTERNAL), result.output
    assert not out.exists() or not any(out.iterdir())


LEVELS = [(cmd, path) for cmd in sorted(COMMANDS)
          for path in [()] + [p for p, kind, _ in command_keys(cmd) if kind.table is not None]]


@pytest.mark.parametrize("cmd, level", LEVELS,
                         ids=[f"{cmd}-{'.'.join(path) or 'top'}" for cmd, path in LEVELS])
def test_unknown_key_at_every_level_rejected(tmp_path, cmd, level):
    assert_rejected(tmp_path, cmd, with_value(cmd, level + ("zz_unknown",), 1), "'zz_unknown'")


WRONG_TYPES = [(cmd, path, sample) for cmd in sorted(COMMANDS)
               for path, kind, _ in command_keys(cmd)
               for sample in SAMPLES if sample != kind.name]


@pytest.mark.parametrize("cmd, path, sample", WRONG_TYPES,
                         ids=[f"{c}-{'.'.join(p)}-{s}" for c, p, s in WRONG_TYPES])
def test_wrong_json_type_of_every_key_rejected(tmp_path, cmd, path, sample):
    config = with_value(cmd, path, SAMPLES[sample])
    assert_rejected(tmp_path, cmd, config, f"{path[-1]} must be", repr(SAMPLES[sample]))


SYNTHETIC = {"T": 4, "d": 3, "completion_index": 2}


@pytest.mark.parametrize(
    "cmd, edit, phrase",
    [
        ("train", {"trian": {"steps": 5}}, "unknown key(s) ['trian']"),
        ("train", {"clip": {"flie": "clip.json", "synthetic": SYNTHETIC}},
         "unknown clip key(s) ['flie']"),
        ("gradcheck", {"stpe": 0.1}, "unknown key(s) ['stpe']"),
        ("reward", {"synthetic": {**SYNTHETIC, "seed": 7}},
         "bad synthetic clip spec: unknown key(s) ['seed']"),
        ("train", {"clip": {"synthetic": {**SYNTHETIC, "seed": 7}}},
         "bad synthetic clip spec: unknown key(s) ['seed']"),
        ("train", {"train": {"steps": 2, "seed": 7}}, "bad train config: unknown key(s) ['seed']"),
        ("train", {"debug_flip_bb_variance_sign": True},
         "unknown key(s) ['debug_flip_bb_variance_sign']"),
        ("reward", {"debug_flip_bb_variance_sign": False},
         "unknown key(s) ['debug_flip_bb_variance_sign']"),
        ("train", {"train": []}, "bad train config: train must be a JSON object, got []"),
        ("verify", {"robustness": {"delta_l": 0.1}},
         "bad robustness parameters: delta_l must be a list of numbers, got 0.1"),
        ("verify", {"lipschitz": {"dim": None}},
         "bad lipschitz parameters: dim must be an integer, got None"),
        ("verify", {"checks": ["tightness"], "bridge_stats": {"dim": "6"}},
         "bad bridge_stats parameters: dim must be an integer, got '6'"),
    ],
    ids=["trian", "clip-flie", "stpe", "reward-synthetic-seed", "train-synthetic-seed",
         "train-seed", "train-debug-flag", "reward-debug-flag", "train-list",
         "delta_l-number", "lipschitz-dim-null", "unlisted-block-typed"],
)
def test_config_probes_rejected(tmp_path, cmd, edit, phrase):
    # each of these used to exit 0 and run the defaults, or print Python's own error text
    assert_rejected(tmp_path, cmd, {**SMALL_CONFIGS[cmd], **edit}, phrase)


def test_benchmark_configs_load(tmp_path, monkeypatch):
    """Every config of one cycle of each benchmark workload loads under its
    command's table: a rejected one would fail every operation of it."""
    bench = ROOT / "bench"
    monkeypatch.syspath_prepend(str(bench))  # run.py imports its sibling modules
    spec = importlib.util.spec_from_file_location("bench_run", bench / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    loaded = 0
    for name, workload in run.WORKLOADS.items():
        inputs = tmp_path / name
        inputs.mkdir()
        for op in workload(random.Random(101), inputs):
            _load_config(op["config"], None, op["command"])
            loaded += 1
    assert loaded >= len(run.WORKLOADS)


def readme_cli_sections():
    """The README's CLI section by subheading; its text before the first
    subheading under ""."""
    text = (ROOT / "README.md").read_text().split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    head, *parts = text.split("\n### ")
    return {"": head, **{part.split("\n", 1)[0].strip(): part for part in parts}}


@pytest.mark.parametrize("cmd", sorted(COMMANDS))
def test_readme_configs_load(tmp_path, cmd):
    blocks = [block.split("```", 1)[0] for block in readme_cli_sections()[cmd].split("```json")[1:]]
    assert blocks
    for k, block in enumerate(blocks):
        path = write_config(tmp_path, json.loads(block), f"{cmd}{k}.json")
        _load_config(path, None, cmd)


@pytest.mark.parametrize("section", ["", *sorted(COMMANDS)])
def test_readme_key_tables_match_schema(section):
    """Each README key table lists its keys in table order, with the JSON
    type and default of the schema."""
    table = COMMON if section == "" else COMMANDS[section]
    expected = []
    for path, kind, default in schema_keys(table):
        shown = ("required" if default is ... else "none" if default is None
                 else f"`{json.dumps(default)}`")
        expected.append(["`" + ".".join(path) + "`", kind.name, shown])
    rows = [line.split("|")[1:4] for line in readme_cli_sections()[section].splitlines()
            if line.startswith("| `")]
    assert [[cell.strip() for cell in row] for row in rows] == expected
