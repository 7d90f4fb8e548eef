"""Command-line behaviour: run, validate, print-defaults, exit codes."""

import csv
import math
import os
import subprocess
import sys

import pytest

import sitelink
from sitelink.cli import main
from sitelink.config import default_config, parse_config, render_config

TINY = """
preset=custom
sweep_variable=ue_count
sweep=2,4
duration_s=2
warmup_s=0.5
replications=1
rats=lte
"""


def test_print_defaults_round_trips(capsys):
    assert main(["print-defaults"]) == 0
    out = capsys.readouterr().out
    assert parse_config(out) == default_config()


def test_module_entry_point_prints_the_same_defaults(capsys):
    # ``python -m sitelink`` from a checkout, with only src/ on the path.
    src = os.path.dirname(os.path.dirname(os.path.abspath(sitelink.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-m", "sitelink", "print-defaults"],
                          env=env, capture_output=True, check=True)
    assert main(["print-defaults"]) == 0
    assert proc.stdout == capsys.readouterr().out.encode()


def test_validate_accepts_good_config(tmp_path, capsys):
    path = tmp_path / "good.cfg"
    path.write_text(TINY)
    assert main(["validate", "--config", str(path)]) == 0
    assert "ok" in capsys.readouterr().out


def test_validate_reports_field_level_diagnostics(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("replications=0\nduration_s=1\nwarmup_s=2\n")
    assert main(["validate", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert "replications" in err
    assert "duration_s" in err


def test_validate_reports_one_line_per_bad_section(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("traffic.queue_capacity_pkts=0\nradio.nr.mmwave.beta=0\n"
                    "phy.lte.la.overhead=2\n")
    assert main(["validate", "--config", str(path)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert [line.split(":")[1] for line in lines] == [
        " traffic.queue_capacity_pkts", " radio.nr.mmwave.beta",
        " phy.lte.la.overhead"]
    assert all(line.startswith("invalid: ") for line in lines)


def test_validate_reports_one_line_per_unparseable_value(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("replications=few\nduration_s=x\nue_count=y\n")
    assert main(["validate", "--config", str(path)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert [line.split(":")[1] for line in lines] == [
        " replications", " duration_s", " ue_count"]
    assert all(line.startswith("invalid: ") for line in lines)


def test_validate_reports_a_non_finite_sweep_cleanly(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("sweep=nan\n")
    assert main(["validate", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.splitlines() == ["invalid: sweep: must be finite, got nan"]
    assert "Traceback" not in err


@pytest.mark.parametrize("text, key", [
    ("traffic.data_volume_mbps=1e303\n", "traffic.data_volume_mbps"),
    ("preset=scenario2\nsweep=1e303\n", "sweep"),
    ("radio.nr.beam_refresh_s=1e-18\n", "radio.nr.beam_refresh_s"),
    ("traffic.data_volume_mbps=1e300\ntraffic.app_start_s=1\n",
     "traffic.data_volume_mbps"),
    ("preset=scenario2\nsweep=1e300\n", "sweep"),
    # Clocks that move, too slowly to finish: 2e15 CBR instants per UE,
    # and 7e15 refreshes one ulp of the last instant (25 s) apart.
    ("traffic.data_volume_mbps=1e12\n", "traffic.data_volume_mbps"),
    (f"radio.nr.beam_refresh_s={math.ulp(25.0)!r}\n",
     "radio.nr.beam_refresh_s"),
], ids=["rate", "swept-rate", "nr-refresh", "interval", "swept-interval",
        "slow-rate", "slow-nr-refresh"])
def test_validate_rejects_a_config_whose_run_never_ends(tmp_path, capsys,
                                                        text, key):
    path = tmp_path / "endless.cfg"
    path.write_text(text)
    assert main(["validate", "--config", str(path)]) == 1
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith(f"invalid: {key}: ")


def test_validate_missing_file_fails(capsys):
    assert main(["validate", "--config", "/no/such/file.cfg"]) == 1
    assert "error" in capsys.readouterr().err


def test_run_writes_csv_and_metadata(tmp_path, capsys):
    cfg_path = tmp_path / "tiny.cfg"
    cfg_path.write_text(TINY)
    out = tmp_path / "tiny.csv"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 3          # header + 2 sweep points x 1 rat
    meta = (out.parent / "tiny.csv.meta").read_text()
    assert parse_config(meta) is not None
    assert "duration_s=2.0" in meta


def test_run_cli_overrides_take_effect(tmp_path):
    cfg_path = tmp_path / "tiny.cfg"
    cfg_path.write_text(TINY)
    out = tmp_path / "o.csv"
    assert main(["run", "--config", str(cfg_path), "--rat", "both",
                 "--reps", "2", "--seed", "9", "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 5          # header + 2 points x 2 rats
    assert {r[1] for r in rows[1:]} == {"lte", "nr"}
    assert all(r[5] == "2" and r[10] == "9" for r in rows[1:])


def test_run_with_trace_writes_per_run_trace_files(tmp_path):
    cfg_path = tmp_path / "tiny.cfg"
    cfg_path.write_text(TINY)
    out = tmp_path / "t.csv"
    assert main(["run", "--config", str(cfg_path), "--trace",
                 "--out", str(out)]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "custom_lte_2_0.trace", "custom_lte_4_0.trace", "t.csv", "t.csv.meta",
        "tiny.cfg"]


def test_run_preset_flag_expands_sweep(tmp_path):
    # The preset supplies the sweep; the config file keeps the run short.
    cfg_path = tmp_path / "short.cfg"
    cfg_path.write_text("duration_s=2\nwarmup_s=0.5\nreplications=1\nrats=lte\n")
    out = tmp_path / "s2.csv"
    assert main(["run", "--preset", "2", "--config", str(cfg_path),
                 "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 9          # 8 offered-rate points, LTE only
    assert [r[3] for r in rows[1:]] == [str(v) for v in range(1, 9)]


def test_run_invalid_config_exits_nonzero(tmp_path, capsys):
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text("replications=0\n")
    assert main(["run", "--config", str(cfg_path)]) == 1
    assert "replications" in capsys.readouterr().err


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["run", "--frobnicate"])
    assert exc.value.code == 2


def test_missing_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_run_rejects_a_worker_count_below_one(tmp_path, capsys, monkeypatch,
                                              workers):
    def no_sweep(*args, **kwargs):
        raise AssertionError("run_scenario called with --workers below 1")

    monkeypatch.setattr("sitelink.cli.run_scenario", no_sweep)
    with pytest.raises(SystemExit) as exc:
        main(["run", "--workers", workers, "--out", str(tmp_path / "w.csv")])
    assert exc.value.code == 2
    assert f"--workers: must be at least 1, not {workers}" in (
        capsys.readouterr().err)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("trace", [[], ["--trace"]], ids=["plain", "trace"])
def test_run_with_unwritable_metadata_leaves_no_csv(tmp_path, capsys, trace):
    cfg_path = tmp_path / "tiny.cfg"
    cfg_path.write_text(TINY)
    out = tmp_path / "m.csv"
    (tmp_path / "m.csv.meta").mkdir()
    assert main(["run", "--config", str(cfg_path), "--out", str(out),
                 *trace]) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.csv.meta",
                                                          "tiny.cfg"]


def test_run_rejects_duplicate_sweep_values(tmp_path, capsys):
    cfg_path = tmp_path / "dup.cfg"
    cfg_path.write_text(TINY.replace("sweep=2,4", "sweep=2,2"))
    out = tmp_path / "d.csv"
    assert main(["run", "--config", str(cfg_path), "--reps", "2",
                 "--trace", "--out", str(out)]) == 1
    assert "sweep" in capsys.readouterr().err
    assert not out.exists()
    assert not list(tmp_path.glob("*.trace"))


@pytest.mark.parametrize("command", [["validate"], ["run"]])
def test_non_utf8_config_fails_cleanly(tmp_path, capsys, command):
    path = tmp_path / "latin1.cfg"
    path.write_bytes(b"# Baustelle M\xe4rz\nreplications=1\n")
    assert main([*command, "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert "UTF-8" in err and "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["latin1.cfg"]


def test_validate_accepts_a_config_with_a_byte_order_mark(tmp_path, capsys):
    # Windows editors often save UTF-8 with a BOM before the first key.
    path = tmp_path / "bom.cfg"
    path.write_bytes(b"\xef\xbb\xbfpreset=scenario1\n")
    assert main(["validate", "--config", str(path)]) == 0
    assert capsys.readouterr().out == f"{path}: ok\n"


def test_run_reads_a_config_with_a_byte_order_mark(tmp_path):
    path = tmp_path / "bom.cfg"
    path.write_bytes(b"\xef\xbb\xbf" + TINY.lstrip().encode())
    out = tmp_path / "bom.csv"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 0
    meta = (tmp_path / "bom.csv.meta").read_text()
    assert parse_config(meta) == parse_config(TINY)
    with open(out, newline="") as fh:
        assert [row[2] for row in csv.reader(fh)][1:] == ["2", "4"]


def _refuses_before_the_sweep(monkeypatch, capsys, tmp_path, *args):
    """Run ``sitelink run`` on the tiny config with *args* from *tmp_path*:
    it must fail with one ``cannot write results`` line before any
    simulation, and leave no file behind."""
    def no_sweep(*args, **kwargs):
        raise AssertionError("run_scenario called for an unusable --out")

    monkeypatch.setattr("sitelink.cli.run_scenario", no_sweep)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "tiny.cfg").write_text(TINY)
    before = sorted(tmp_path.rglob("*"))
    assert main(["run", "--config", "tiny.cfg", *args]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write results: ")
    assert len(err.splitlines()) == 1
    assert sorted(tmp_path.rglob("*")) == before


# "" and "x.csv/" name an existing directory, but no file in it.
@pytest.mark.parametrize("out", ["existing_dir", "missing_dir/o.csv", "",
                                 "x.csv/"])
@pytest.mark.parametrize("trace", [[], ["--trace"]], ids=["plain", "trace"])
def test_run_rejects_a_bad_out_before_simulating(tmp_path, capsys,
                                                 monkeypatch, out, trace):
    (tmp_path / "existing_dir").mkdir()
    _refuses_before_the_sweep(monkeypatch, capsys, tmp_path, "--out", out,
                              *trace)


def test_run_refuses_a_trace_suffixed_out_with_trace(tmp_path, capsys,
                                                     monkeypatch):
    # The first run's trace is custom_lte_2_0.trace: moved in beside the
    # CSV, it would replace it.  Any .trace name is refused, not just that
    # one, so the check needs no copy of the trace-naming rule.
    _refuses_before_the_sweep(monkeypatch, capsys, tmp_path, "--trace",
                              "--out", "custom_lte_2_0.trace")


def test_run_accepts_a_trace_suffixed_out_without_trace(tmp_path):
    (tmp_path / "tiny.cfg").write_text(TINY)
    out = tmp_path / "r.trace"
    assert main(["run", "--config", str(tmp_path / "tiny.cfg"),
                 "--out", str(out)]) == 0
    assert out.read_text().startswith("scenario,")
