"""``python -m repro``: one subparser per command, each with only the
flags that command reads, and the ``serve-metrics`` entry point."""

import json
import re

import pytest

from repro.__main__ import _build_parser, main
from repro.chaos.scale import DEFAULT_LOSS_RATE
from repro.obs.metrics import MetricsRegistry
from repro.obs.serve import MetricsServer

LOG = {"--log-level"}
ARTIFACTS = {"--events-out", "--metrics-out", "--trace-out"}
SERVING = {"--metrics-port", "--serve-host"}
FIGURE = LOG | ARTIFACTS | SERVING
FL = {"--rounds", "--peers", "--dataset"}
PLANS = {"--plans", "--seed0", "--profiles"}
XLAYER = {"--depth", "--engine", "--max-attempts"}

#: command -> every flag it accepts (``--help`` aside)
FLAGS = {
    "env": FIGURE,
    **{f: FIGURE | FL | {"--csv"} for f in ("fig6", "fig7", "fig8", "fig9")},
    **{f: FIGURE | {"--trials", "--csv"} for f in ("fig10", "fig11", "fig12")},
    **{f: FIGURE | {"--csv"} for f in ("fig13", "fig14", "multilayer")},
    "all": FIGURE | FL | {"--trials", "--csv"},
    "report": FIGURE | FL | {"--trials", "--out"},
    "plan": FIGURE | {"--plan-peers", "--plan-dropouts", "--plan-bandwidth"},
    "trace": LOG | ARTIFACTS | {"--seed"},
    "bench": LOG | {"--seed", "--parallel", "--bench-out", "--smoke",
                    "--repeats", "--warmup", "--only", "--compare",
                    "--wall-tolerance", "--mem-tolerance", "--top"},
    "prof": LOG | {"--seed", "--peers", "--resources", "--top"},
    "xlayer": LOG | XLAYER | {"--seed", "--parallel", "--transport",
                              "--peers", "--dim", "--delay-ms", "--loss"},
    "chaos": LOG | PLANS | XLAYER | {"--transport", "--seed", "--parallel",
                                     "--layers", "--scale", "--loss"},
    "campaign": LOG | PLANS | {"--transport", "--parallel", "--rounds",
                               "--peers", "--static", "--no-raft",
                               "--checkpoint-dir"},
    "serve-metrics": LOG | SERVING | {"--serve-rounds", "--serve-interval",
                                      "--incident-dir", "--seed0"},
}


class TestHelp:
    def test_top_level_help_lists_every_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for command in FLAGS:
            assert re.search(rf"^\s+{command}\s", out, re.M), command
        assert "<command> --help" in out

    @pytest.mark.parametrize("command", sorted(FLAGS))
    def test_help_lists_only_the_command_flags(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        listed = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", out))
        assert listed == FLAGS[command] | {"--help"}

    def test_every_command_has_a_parser(self):
        sub = next(a for a in _build_parser()._actions
                   if a.dest == "command")
        assert set(sub.choices) == set(FLAGS)


class TestRejection:
    @pytest.mark.parametrize("argv", [
        ["fig10", "--dim", "3"],
        ["serve-metrics", "--plans", "1"],
        ["env", "--csv", "out"],
        ["trace", "--metrics-port", "0"],
        ["prof", "--parallel", "threads"],
        ["xlayer", "--parallel", "process"],
        ["bench", "--parallel", "process"],
        ["campaign", "--parallel", "process"],
        ["fig99"],
        [],
    ])
    def test_foreign_flag_or_value_exits_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err


class TestDefaults:
    @pytest.mark.parametrize("argv, attr, value", [
        (["chaos"], "loss", DEFAULT_LOSS_RATE),
        (["xlayer"], "loss", 0.0),
        (["chaos"], "transport", "reliable"),
        (["campaign"], "transport", "reliable"),
        (["xlayer"], "transport", None),  # reliable iff --loss > 0
        (["serve-metrics"], "metrics_port", 0),
        (["fig10"], "metrics_port", None),
        (["campaign"], "rounds", 10),
        (["campaign"], "peers", 12),
        (["prof"], "peers", 12),
        (["xlayer"], "peers", 1_000),
        (["bench"], "parallel", "threads"),
        (["xlayer"], "parallel", "off"),
        (["chaos"], "parallel", "off"),
        (["campaign"], "parallel", "off"),
    ])
    def test_real_default(self, argv, attr, value):
        assert getattr(_build_parser().parse_args(argv), attr) == value

    def test_defaults_do_not_leak_between_commands(self):
        parser = _build_parser()
        assert parser.parse_args(["serve-metrics"]).metrics_port == 0
        for figure in ("env", "fig13", "all", "report", "plan"):
            assert parser.parse_args([figure]).metrics_port is None


SERVE = ["serve-metrics", "--serve-rounds", "1", "--serve-interval", "0",
         "--log-level", "error"]


class TestServeMetrics:
    def test_ephemeral_port_prints_port_and_returns_0(self, tmp_path, capsys):
        rc = main(SERVE + ["--metrics-port", "0",
                           "--incident-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 0
        port = re.search(r"^metrics port: (\d+)$", out, re.M)
        assert port and int(port.group(1)) > 0
        assert "over 1 round(s)" in out

    @pytest.mark.parametrize("argv", [SERVE, ["fig13", "--log-level", "error"]])
    def test_bound_port_returns_2(self, argv, tmp_path, capsys):
        with MetricsServer(metrics=MetricsRegistry()) as taken:
            rc = main(argv + ["--metrics-port", str(taken.port)])
        captured = capsys.readouterr()
        assert rc == 2
        assert "metrics port:" not in captured.out
        assert captured.err.count("already in use") == 1
        assert "Traceback" not in captured.err


def test_figure_artifacts_capture_the_run(tmp_path, capsys):
    events = tmp_path / "e.jsonl"
    metrics = tmp_path / "m.prom"
    rc = main(["fig13", "--csv", str(tmp_path), "--events-out", str(events),
               "--metrics-out", str(metrics)])
    assert rc == 0
    assert (tmp_path / "fig13_costs.csv").exists()
    lines = [json.loads(line) for line in events.read_text().splitlines()]
    assert [e["name"] for e in lines] == ["log.info"]
    assert metrics.exists()
    assert "Fig. 13" in capsys.readouterr().out
