"""CLI surface: parsing, listings, and error paths (no heavy training)."""
import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_transfer_args(self):
        args = build_parser().parse_args(["transfer", "--task", "N1", "--samples", "10"])
        assert args.task == "N1" and args.samples == 10 and args.sampler == "cosine-caz"

    def test_partition_args(self):
        args = build_parser().parse_args(
            ["partition", "--devices", "pixel3", "fpga", "--train-size", "1", "--test-size", "1"]
        )
        assert args.devices == ["pixel3", "fpga"]

    def test_serve_args(self):
        args = build_parser().parse_args(
            ["serve", "--task", "N1", "--port", "0", "--max-batch", "32", "--max-wait-ms", "3"]
        )
        assert args.task == "N1" and args.port == 0
        assert args.max_batch == 32 and args.max_wait_ms == 3.0
        assert args.host == "127.0.0.1"
        assert args.compiled is True  # compiled serving is the default path

    def test_serve_no_compiled_escape_hatch(self):
        assert build_parser().parse_args(["serve", "--no-compiled"]).compiled is False
        assert build_parser().parse_args(["serve", "--compiled"]).compiled is True

    def test_compile_args(self):
        args = build_parser().parse_args(
            ["compile", "ckpt.npz", "--devices", "fpga", "eyeriss", "--buckets", "16", "30"]
        )
        assert args.checkpoint == "ckpt.npz"
        assert args.devices == ["fpga", "eyeriss"]
        assert args.buckets == [16, 30]
        assert args.out == "plans"

    def test_serve_plans_arg(self):
        args = build_parser().parse_args(["serve", "--checkpoint", "c.npz", "--plans", "plans/"])
        assert args.plans == "plans/"
        assert build_parser().parse_args(["serve", "--task", "N1"]).plans is None

    def test_serve_workers_arg(self):
        args = build_parser().parse_args(["serve", "--checkpoint", "c.npz", "--workers", "4"])
        assert args.workers == 4
        assert build_parser().parse_args(["serve", "--task", "N1"]).workers == 1

    def test_serve_data_plane_args(self):
        args = build_parser().parse_args(["serve", "--task", "N1"])
        assert args.pipeline_depth == 2
        assert args.score_cache is True
        args = build_parser().parse_args(
            ["serve", "--task", "N1", "--pipeline-depth", "1", "--no-score-cache"]
        )
        assert args.pipeline_depth == 1
        assert args.score_cache is False


class TestServeValidation:
    def test_requires_task_or_checkpoint(self, capsys):
        assert main(["serve"]) == 2
        assert "--task is required" in capsys.readouterr().err

    def test_plans_requires_checkpoint(self, capsys):
        assert main(["serve", "--task", "N1", "--plans", "plans/"]) == 2
        assert "--plans requires --checkpoint" in capsys.readouterr().err

    def test_workers_require_checkpoint(self, capsys):
        assert main(["serve", "--task", "N1", "--workers", "4"]) == 2
        assert "--workers > 1 requires --checkpoint" in capsys.readouterr().err


class TestListings:
    def test_tasks_lists_all(self, capsys):
        assert main(["tasks"]) == 0
        out = capsys.readouterr().out
        for name in ("ND", "N1", "FA"):
            assert name in out

    def test_devices_space_filter(self, capsys):
        assert main(["devices", "--space", "fbnet"]) == 0
        out = capsys.readouterr().out
        assert "eyeriss" in out and "edge_tpu_int8" not in out

    def test_devices_all(self, capsys):
        assert main(["devices"]) == 0
        assert "edge_tpu_int8" in capsys.readouterr().out


class TestNASValidation:
    def test_rejects_non_test_device(self, capsys):
        assert main(["nas", "--task", "ND", "--device", "pixel3"]) == 2
        assert "not a test device" in capsys.readouterr().err


class TestPartitionCommand:
    def test_partitions(self, capsys):
        devices = ["1080ti_1", "titanxp_1", "pixel3", "pixel2", "fpga", "eyeriss"]
        rc = main(
            ["partition", "--devices", *devices, "--train-size", "3", "--test-size", "3"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert out.count("train:") == 1 and out.count("test:") == 1
