import json
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from actol import ClipSequence, bridge_stats_report, lipschitz_pairs_report, random_clip
from actol.cli import main

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
        ],
        ids=[
            "temperature-0", "steps-2.5", "learning_rate-nan", "bb_weight-inf",
            "intervals_per_step-1.5",
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
        ],
        ids=[
            "missing-file", "invalid-json", "missing-language", "nan-embedding", "inf-language",
            "fractional-timestamp", "inf-timestamp",
        ],
    )
    def test_bad_clip_file(self, tmp_path, content):
        clip_path = tmp_path / "clip.json"
        if content is not None:
            clip_path.write_text(content)
        cfg = write_config(tmp_path, {"clip": {"file": str(clip_path)}, "train": {"steps": 5}})
        assert invoke("train", cfg, tmp_path / "out").exit_code == 2

    @pytest.mark.parametrize(
        "field", [{"T": 4.5}, {"d": 2.5}, {"completion_index": 2.5}],
        ids=["T-4.5", "d-2.5", "completion_index-2.5"],
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

    def test_empty_checks_rejected(self, tmp_path):
        cfg = write_config(tmp_path, {"checks": []})
        assert invoke("verify", cfg, tmp_path / "out").exit_code == 2

    def test_unknown_check_rejected(self, tmp_path):
        cfg = write_config(tmp_path, {"checks": ["teleportation"]})
        assert invoke("verify", cfg, tmp_path / "out").exit_code == 2

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
        ],
    )
    def test_bad_check_parameters(self, tmp_path, check, block, params):
        cfg = write_config(tmp_path, {"checks": [check], block: params})
        result = invoke("verify", cfg, tmp_path / "out")
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert "error: bad" in result.output

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
            {"objectives": []},
            {"synthetic": {"T": 4, "d": 1, "completion_index": 2}},
            {"synthetic": {"T": 4.5, "d": 3, "completion_index": 2}},
            {"synthetic": {"T": 4, "d": 2.5, "completion_index": 2}},
            {"synthetic": {"T": 4, "d": 3, "completion_index": 2.5}},
        ],
        ids=[
            "seeds-0", "seeds-1.5", "objectives-empty", "synthetic-d-1",
            "synthetic-T-4.5", "synthetic-d-2.5", "synthetic-completion_index-2.5",
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
            {"T": 1},
            {"T": 2.5},
            {"d": 1},
            {"step": 0},
            {"step": float("inf")},
            {"losses": []},
        ],
        ids=["clips-0", "T-1", "T-2.5", "d-1", "step-0", "step-inf", "losses-empty"],
    )
    def test_bad_parameters(self, tmp_path, params):
        cfg = write_config(tmp_path, {"clips": 2, "T": 4, "d": 3, **params})
        result = invoke("gradcheck", cfg, tmp_path / "out")
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert "error: " in result.output
        assert not (tmp_path / "out" / "gradcheck.json").exists()
