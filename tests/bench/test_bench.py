"""Bench harness plumbing: figure results, rendering, paper data, CLI."""

import pytest

from repro.bench.figures import FigureResult, SCALES, run_fig11
from repro.bench.paper_data import PAPER_CURVES, TEXT_CLAIMS
from repro.bench.report import render_figure, render_headline


def test_figure_result_add_and_at():
    fig = FigureResult("figX", "t", "x")
    fig.add("a/s1", 64, 100.0)
    fig.add("a/s1", 128, 200.0)
    fig.add("b/s2", 64, 5.0)
    assert fig.at("a/s1", 128) == 200.0
    assert fig.at("a/s1", 999) is None
    assert fig.at("missing", 64) is None


def test_render_figure_groups_panels():
    fig = FigureResult("figX", "Demo", "procs")
    fig.add("op1/sysA", 64, 1000.0)
    fig.add("op1/sysB", 64, 2000.0)
    fig.add("op2/sysA", 64, 3.14)
    fig.notes.append("hello note")
    text = render_figure(fig)
    assert "-- op1 --" in text and "-- op2 --" in text
    assert "sysA" in text and "sysB" in text
    assert "1,000" in text and "2,000" in text
    assert "3.14" in text
    assert "note: hello note" in text


def test_render_headline_contains_all_claims():
    measured = {
        "procs": 256,
        "dir_create_speedup_vs_lustre": 2.0,
        "dir_create_speedup_vs_pvfs": 24.0,
        "file_stat_speedup_vs_lustre": 1.4,
        "file_stat_speedup_vs_pvfs": 2.9,
    }
    text = render_headline(measured)
    assert "1.9x" in text and "23.0x" in text
    assert "2.00x" in text and "24.00x" in text


def test_paper_data_sanity():
    assert TEXT_CLAIMS["dir_create_speedup_vs_pvfs_256"] == 23.0
    assert TEXT_CLAIMS["zk_mb_per_million_znodes"] == 417.0
    fig10 = PAPER_CURVES["fig10_256procs"]
    # The paper's own ordering relations hold in the digitized data.
    assert fig10["dufs-lustre"]["dir_create"] > fig10["lustre"]["dir_create"]
    assert fig10["lustre"]["dir_create"] > 10 * fig10["pvfs"]["dir_create"]
    assert fig10["dufs-lustre"]["dir_create"] == \
        fig10["dufs-pvfs"]["dir_create"]  # backend-independent


def test_scales_are_increasing():
    q, m, f = SCALES["quick"], SCALES["medium"], SCALES["full"]
    assert max(q[0]) <= max(m[0]) <= max(f[0])
    assert q[1] <= m[1] <= f[1]


def test_fig11_runner_smoke():
    fig = run_fig11(scale="quick", points_millions=(1.0, 2.0),
                    calibrate_n=2000)
    zk = dict(fig.series["zookeeper"])
    assert zk[2.0] > zk[1.0] > 0
    assert dict(fig.series["dufs"])[1.0] < 60
    assert any("calibration" in n for n in fig.notes)


def test_cli_fig11(capsys):
    from repro.cli import main

    assert main(["fig11", "--scale", "quick"]) == 0
    out = capsys.readouterr().out
    assert "fig11" in out and "zookeeper" in out


def test_cli_rejects_unknown_target():
    from repro.cli import main

    with pytest.raises(SystemExit):
        main(["fig99"])


def test_cli_rejects_a_negative_op_count(capsys):
    from repro.cli import main

    with pytest.raises(SystemExit) as exc:
        main(["chaos", "--ops", "-3"])
    assert exc.value.code == 2
    assert "--ops must be >= 0" in capsys.readouterr().err


def test_cli_chaos_exits_nonzero_on_a_dirty_audit(monkeypatch, capsys):
    import repro.chaos
    from repro.chaos import Violation
    from repro.cli import main

    assert main(["chaos", "--ops", "20"]) == 0
    assert "-> CLEAN" in capsys.readouterr().out
    run_chaos = repro.chaos.run_chaos

    def damaged(*args, **kwargs):
        result = run_chaos(*args, **kwargs)
        result.audit.violations.append(Violation("orphan-fid", "/x"))
        return result

    monkeypatch.setattr(repro.chaos, "run_chaos", damaged)
    assert main(["chaos", "--ops", "20"]) == 1
    assert "-> 1 violations" in capsys.readouterr().out
