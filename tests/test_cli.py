import copy
import importlib.util
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path
from unittest import mock

import actol
import naive
import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from actol import ClipSequence, bridge_stats_report, lipschitz_pairs_report, random_clip
from actol.cli import (
    COMMANDS,
    COMMON,
    SCHEMA_VERSION,
    _json_text,
    _load_config,
    _write_csv,
    _write_json,
    main,
)
from actol.losses import TieGroups

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

    @pytest.mark.parametrize("source", ["synthetic", "file"])
    def test_timestamps_checked_once(self, tmp_path, source):
        """A CLI train checks its clip's timestamps once: every later
        ClipSequence, TieGroups.of and Bridge.of gets the checked row and
        passes it through."""
        from actol import kinds

        cfg = self.config(tmp_path)
        if source == "file":
            random_clip(6, 4, np.random.default_rng(1)).save(tmp_path / "clip.json")
            data = json.loads(Path(cfg).read_text())
            data["clip"] = {"file": str(tmp_path / "clip.json")}
            cfg = write_config(tmp_path, data)
        rows, check = [], kinds.timestamps
        with mock.patch.object(kinds, "timestamps", lambda v: rows.append(v) or check(v)):
            assert invoke("train", cfg, tmp_path / "out").exit_code == 0
        assert len(rows) >= 5  # load, normalized, with_embeddings, TieGroups.of, Bridge.of
        assert [type(v) is kinds.Timestamps for v in rows].count(False) == 1

    def test_byte_identical_rerun(self, tmp_path):
        data = json.loads(Path(self.config(tmp_path)).read_text())
        for intervals_per_step in (1, 3):  # 3: one random Bridge per step
            data["train"]["intervals_per_step"] = intervals_per_step
            cfg = write_config(tmp_path, data)
            out1, out2 = tmp_path / f"a{intervals_per_step}", tmp_path / f"b{intervals_per_step}"
            assert invoke("train", cfg, out1).exit_code == 0
            assert invoke("train", cfg, out2).exit_code == 0
            for name in ("history.csv", "final_clip.json"):
                assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_bytes_do_not_depend_on_blas_threads(self, tmp_path):
        """At T=160, d=64 the bridge penalty sums P d = 10112 deviations,
        which OpenBLAS splits across threads as a dot product; the sum is
        no BLAS call, so one and two threads write the same bytes."""
        spec = {"T": 160, "d": 64, "completion_index": 100, "tail_mode": "drift-away",
                "noise_sigma": 0.05}
        cfg = write_config(tmp_path, {"clip": {"synthetic": spec},
                                      "train": {"steps": 30, "temperature": 0.5}})
        src = str(Path(actol.__file__).parents[1])
        for threads in ("1", "2"):
            env = {"PATH": os.environ.get("PATH", ""), "PYTHONPATH": src,
                   "PYTHONDONTWRITEBYTECODE": "1", "OPENBLAS_NUM_THREADS": threads}
            args = ["train", "--config", cfg, "--out", str(tmp_path / threads)]
            subprocess.run([sys.executable, "-m", "actol.cli", *args], env=env, check=True)
        for name in ("history.csv", "final_clip.json"):
            assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()

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

    def test_clip_file_timestamp_beyond_int64(self, tmp_path):
        clip_path = tmp_path / "clip.json"
        data = random_clip(3, 2, np.random.default_rng(0)).to_dict()
        data["timestamps"][-1] = 2**70
        clip_path.write_text(json.dumps(data))
        cfg = write_config(tmp_path, {"clip": {"file": str(clip_path)}, "train": {"steps": 2}})
        result = invoke("train", cfg, tmp_path / "out")
        assert result.exit_code == 2, result.output
        assert "timestamps must be less than 2**63" in result.output

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

    @pytest.mark.parametrize(
        "field",
        [{"learning_rate": 1e200}, {"learning_rate": 1e308}, {"bb_weight": 1e308},
         {"temperature": 1e-300}],
        ids=["learning_rate-1e200", "learning_rate-1e308", "bb_weight-1e308", "temperature-1e-300"],
    )
    def test_overflowing_step_exits_3(self, tmp_path, field):
        # an overflow would reach the next step as zero vectors; RuntimeWarning is an error here
        data = json.loads(Path(self.config(tmp_path)).read_text())
        data["train"].update(field)
        result = invoke("train", write_config(tmp_path, data), tmp_path / "out")
        assert result.exit_code == 3, result.output
        assert isinstance(result.exception, SystemExit)
        assert "error: overflow in the update at step 0" in result.output
        assert not (tmp_path / "out" / "history.csv").exists()

    @pytest.mark.parametrize(
        "command, data",
        [("train", {"clip": {"synthetic": {"T": 6, "d": 2, "completion_index": 2}}}),
         ("verify", {"checks": ["lower-bound"], "lower_bound": {"t_range": [5, 6]}})],
    )
    def test_out_of_memory_exits_2(self, monkeypatch, tmp_path, command, data):
        # a size under the ceiling can still exhaust memory, as train at T=200000 does
        error = MemoryError("Unable to allocate 298. GiB for an array")
        monkeypatch.setattr(TieGroups, "of", mock.Mock(side_effect=error))
        result = invoke(command, write_config(tmp_path, data), tmp_path / "out")
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert "error: out of memory: Unable to allocate 298. GiB" in result.output

    def test_one_dimensional_synthetic_clip(self, tmp_path):
        cfg = write_config(tmp_path, {"clip": {"synthetic": {"T": 4, "d": 1,
                                                             "completion_index": 2}},
                                      "train": {"steps": 5}})
        result = invoke("train", cfg, tmp_path / "out")
        assert result.exit_code == 2, result.output
        assert "d must be an integer of at least 2 and at most 10000000, got 1" in result.output


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

    @pytest.mark.parametrize("seed", range(20))
    def test_readme_defaults_pass_and_rerun_byte_identical(self, tmp_path, seed):
        """The README config, every check at its defaults, passes for seeds
        0 to 19, and a rerun writes the same bytes."""
        checks = ["lower-bound", "tightness", "lipschitz", "robustness", "bridge-stats"]
        cfg = write_config(tmp_path, {"seed": seed, "checks": checks})
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert invoke("verify", cfg, out1).exit_code == 0
        assert invoke("verify", cfg, out2).exit_code == 0
        data = (out1 / "theorem_reports.json").read_bytes()
        assert data == (out2 / "theorem_reports.json").read_bytes()
        assert [r["passed"] for r in json.loads(data)["reports"]] == [True] * 5

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
            ("bridge-stats", "bridge_stats", {"tolerance": -1}),
            ("bridge-stats", "bridge_stats", {"tolerance": float("nan")}),
            ("tightness", "tightness", {"eps": [1e-320, 0.1]}),
            ("tightness", "tightness", {"timestamps": [0, 1e300]}),
            ("lower-bound", "lower_bound", {"t_range": [3, 10**30]}),
            ("lower-bound", "lower_bound", {"d_range": [2, 10**11]}),
            ("lipschitz", "lipschitz", {"dim": 10**30}),
            ("robustness", "robustness", {"dim": 10**11}),
            ("bridge-stats", "bridge_stats", {"dim": 10**11}),
            ("bridge-stats", "bridge_stats", {"t_end": 10**30}),
            ("tightness", "tightness", {"eps": [1, 0.1, 1.0]}),
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

    def test_overflowing_step_exits_3(self, tmp_path):
        data = json.loads(Path(self.config(tmp_path)).read_text())
        data["train"]["learning_rate"] = 1e308
        result = invoke("reward", write_config(tmp_path, data), tmp_path / "out")
        assert result.exit_code == 3, result.output
        assert isinstance(result.exception, SystemExit)
        assert "error: overflow in the update at step 0" in result.output
        assert not (tmp_path / "out" / "comparison.json").exists()

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
            {"synthetic": {"T": 10**30, "d": 3, "completion_index": 2}},
            {"synthetic": {"T": 4, "d": 10**11, "completion_index": 2}},
        ],
        ids=[
            "seeds-0", "seeds-1.5", "seeds-true", "objectives-empty", "objectives-number",
            "objectives-nested-list", "objectives-repeated", "synthetic-d-1",
            "synthetic-T-4.5", "synthetic-d-2.5", "synthetic-completion_index-2.5",
            "synthetic-noise_sigma-nan", "synthetic-noise_sigma-inf", "synthetic-noise_sigma-true",
            "synthetic-T-1e30", "synthetic-d-1e11",
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

    @pytest.mark.parametrize(
        "data, code",
        [
            ({}, 0),
            ({"T": 2, "d": 2, "clips": 5}, 0),
            # a per-coordinate check failed these correct gradients: at T=40 its
            # errors sat just above 1e-5, and at T=128 round-off swamped them
            ({"seed": 2, "losses": ["vlo", "total"], "clips": 3, "T": 40, "d": 12}, 0),
            ({"seed": 2, "losses": ["vlo", "total"], "clips": 3, "T": 128, "d": 8,
              "step": 1e-6}, 0),
        ],
        ids=["readme", "T2-d2", "T40-d12", "T128-d8"],
    )
    def test_matches_per_clip_loop(self, tmp_path, data, code):
        """gradcheck.json holds the bytes the per-clip loop of naive
        finite-difference checks writes from the same Generator stream."""
        out = tmp_path / "out"
        assert invoke("gradcheck", write_config(tmp_path, data), out).exit_code == code
        values = {"seed": 0, "losses": ["vlo", "bb", "total"], "clips": 20, "T": 6, "d": 5,
                  "step": 1e-5, **data}
        expected = tmp_path / "expected.json"
        worst = naive.gradcheck_errors(**values)
        _write_json(expected, {**data, "seed": values["seed"]}, {"max_relative_error": worst})
        assert (out / "gradcheck.json").read_bytes() == expected.read_bytes()

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
            {"T": 10**30},
            {"d": 10**11},
        ],
        ids=["clips-0", "clips-true", "T-1", "T-2.5", "d-1", "step-0", "step-inf", "losses-empty",
             "step-true", "step-too-large", "losses-number", "losses-nested-list",
             "losses-repeated", "T-1e30", "d-1e11"],
    )
    def test_bad_parameters(self, tmp_path, params):
        cfg = write_config(tmp_path, {"clips": 2, "T": 4, "d": 3, **params})
        result = invoke("gradcheck", cfg, tmp_path / "out")
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert "error: " in result.output
        assert not (tmp_path / "out" / "gradcheck.json").exists()

    def test_step_too_large_names_the_widest_gap_drawn(self, tmp_path):
        """At T=128 the default step needs similarities 1e-3 apart, which no
        draw of this config reaches; the error names the widest closest-pair
        gap the 100 draws reached, and the run exits 2 with no output."""
        data = {"seed": 2, "losses": ["vlo", "total"], "clips": 3, "T": 128, "d": 8}
        result = invoke("gradcheck", write_config(tmp_path, data), tmp_path / "out")
        assert result.exit_code == 2, result.output
        assert ("error: step 1e-05 too large: no clip of 128 frames in 100 draws has "
                "similarities 100 steps apart; the widest closest-pair gap drawn was "
                "3.9e-04\n") in result.output
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


NAN, INF = math.nan, math.inf
# values whose text json.dumps(indent=2) writes in some other way than a join of reprs
JSON_CASES = {
    "non-finite-in-lists": [[1.0, NAN, 2.0], [INF], [-INF, 0.5], [NAN, INF, -INF]],
    "non-finite-scalars": {"nan": NAN, "inf": INF, "-inf": -INF, "in": [{"x": NAN}]},
    "overflowing-sum": [1e308, 1e308, -1.7976931348623157e308],
    "float64-elements": [np.float64(0.5), np.float64(-0.0), np.float64(1e-300)],
    "float64-mixed": [0.1, np.float64(0.25), 3, np.float64(NAN)],
    "float64-scalars": {"a": np.float64(0.1), "b": np.float64(-INF), "c": np.float64(5e-324)},
    "bools": [True, False, True],
    "bools-and-numbers": [True, 1, 0.5, False, 0, None],
    "tuples": ((1.0, 2.0), (1, 2), ((3, 4.5), [()]), ()),
    "ints-and-floats": [1, 2.5, -3, 0.0, 10**30],
    "ints": [0, -1, 2**63, 10**30],
    "escaped-strings": ["a\"b\\c\n\t\x00\x1f", "caf\u00e9 \u65e5\u672c \u2028", "\U0001f600"],
    "escaped-keys": {"caf\u00e9\n\"k\"": [1.0], "\U0001f600": {"\t": "\x7f"}},
    "non-string-keys": {1: [0.5], 1.5: None, True: "t", None: {2: [1, 2]}, NAN: -INF},
    "empty": [[], {}, [[]], {"a": {}, "b": [], "c": ()}, ""],
    "tolist-block": np.random.default_rng(0).standard_normal((7, 5)).tolist(),
}


@pytest.mark.parametrize("value", list(JSON_CASES.values()), ids=list(JSON_CASES))
def test_json_text_matches_indented_dumps(value):
    assert _json_text(value) == json.dumps(value, indent=2)
    assert _json_text({"x": [value]}) == json.dumps({"x": [value]}, indent=2)


def test_write_json_matches_indented_dumps(tmp_path):
    config = {"seed": 0, "eps": (1.0, NAN)}
    payload = dict(JSON_CASES, empty={})
    _write_json(tmp_path / "out.json", config, payload)
    expected = {"schema_version": SCHEMA_VERSION, "config": config, **payload}
    assert (tmp_path / "out.json").read_text() == json.dumps(expected, indent=2) + "\n"


json_scalars = (
    st.none() | st.booleans() | st.integers() | st.floats() | st.text()
    | st.floats().map(np.float64)
)
json_values = st.recursive(
    json_scalars | st.lists(st.floats(allow_nan=False, allow_infinity=False))
    | st.lists(st.integers()),
    lambda inner: (
        st.lists(inner) | st.lists(inner).map(tuple) | st.dictionaries(st.text(), inner)
        | st.dictionaries(st.integers() | st.floats() | st.booleans() | st.none(), inner)
    ),
    max_leaves=40,
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(value=json_values)
def test_json_text_matches_indented_dumps_on_any_value(value):
    assert _json_text(value) == json.dumps(value, indent=2)


def test_write_csv_formats_float64_as_plain_floats(tmp_path):
    rows = [(0, np.float64(0.5), 0.25, np.float64(-0.0)), (1, np.float64(1e-300), NAN, np.int64(3))]
    _write_csv(tmp_path / "out.csv", ("a", "b", "c", "d"), rows)
    text = (tmp_path / "out.csv").read_text()
    assert text == "a,b,c,d\n0,0.5,0.25,-0.0\n1,1e-300,nan,3\n"


# small configs of every command, verify with all five checks
LAYOUT_CONFIGS = {
    "train": {"clip": {"synthetic": {"T": 6, "d": 4, "completion_index": 3}},
              "train": {"steps": 5, "optimize_language": True}},
    "verify": {"checks": ["lower-bound", "tightness", "lipschitz", "robustness", "bridge-stats"],
               "lower_bound": {"clips": 20}, "lipschitz": {"trials": 50},
               "robustness": {"trials": 50}, "bridge_stats": {"samples": 200}},
    "reward": {"synthetic": {"T": 5, "d": 3, "completion_index": 3},
               "objectives": ["actol", "last-frame"], "train": {"steps": 3}, "seeds": 2},
    "gradcheck": {"losses": ["vlo", "bb"], "clips": 2, "T": 4, "d": 3},
}


@pytest.mark.parametrize("cmd", sorted(LAYOUT_CONFIGS))
def test_json_artefacts_have_the_indented_dumps_layout(tmp_path, cmd):
    """Every JSON file a command writes is json.dumps(indent=2) of its own
    content plus a newline, whatever writes it."""
    out = tmp_path / "out"
    result = invoke(cmd, write_config(tmp_path, LAYOUT_CONFIGS[cmd]), out)
    assert result.exit_code in (0, 1), result.output
    artefacts = sorted(out.glob("*.json"))
    assert artefacts
    for path in artefacts:
        text = path.read_text()
        assert text == json.dumps(json.loads(text), indent=2) + "\n", path.name


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
