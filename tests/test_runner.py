"""Supervisor (scenario execution), metrics/trace emission, and CLI tests."""

import csv
from unittest.mock import patch

import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from records import irq_log

from proteus_sim import bitstream as bits
from proteus_sim import trace
from proteus_sim.cli import main
from proteus_sim.runner import emit_metrics, run_scenario
from proteus_sim.scenario import parse_scenario
from proteus_sim.trace import TraceRecord, emit_trace

HAPPY = """\
geometry cols=16 frames=32 fbytes=64 fixed=12..15
makebit out=boot.pbit kind=full id=0 cols=0..15 fill=00
boot flash=boot.pbit
bind id=0x21 kernel=identity
makebit out=k21.pbit kind=partial id=0x21 cols=0..3 fill=random:7
reconfig file=k21.pbit
expect reconfig_duration_ps == 163840000
expect reconfig_pauses == 0
stream in=input.bin out=output.bin words=512
expect upstream_bytes == 2048
expect downstream_bytes == 2048
readback cols=0..3 out=rb.pbit
"""


def run_text(tmp_path, text, seed=0, tracing=False):
    scenario = parse_scenario(text, base_dir=tmp_path)
    return run_scenario(scenario, tmp_path, seed=seed, tracing=tracing)


def write_input(tmp_path, nbytes=4096):
    data = bytes((i * 31) % 256 for i in range(nbytes))
    (tmp_path / "input.bin").write_bytes(data)
    return data


def test_happy_path_scenario(tmp_path):
    data = write_input(tmp_path)
    result = run_text(tmp_path, HAPPY, tracing=True)
    assert result.fault is None
    assert result.expect_failures == []
    assert result.exit_status == 0
    assert result.metrics["reconfig_duration_ps"] == 163_840_000
    assert result.metrics["reconfig_pauses"] == 0
    assert result.metrics["boot_ok"] == 1
    assert result.metrics["boot_duration_ps"] == 655_360_000
    # identity kernel: output equals input
    assert (tmp_path / "output.bin").read_bytes() == data[:2048]
    # readback payload equals the applied partial's payload
    applied = bits.parse((tmp_path / "k21.pbit").read_bytes())
    back = bits.parse((tmp_path / "rb.pbit").read_bytes())
    assert back.payload == applied.payload
    assert result.metrics["readback_duration_ps"] == 163_840_000
    log = irq_log(result.trace_records)
    causes = [cause for _t, cause in log]
    assert causes == ["RECONFIG_DONE", "DOWNSTREAM_DONE", "UPSTREAM_DONE", "READBACK_DONE"]
    times = [t for t, _c in log]
    assert times == sorted(times)
    assert result.metrics["interrupts_raised"] == 4


def test_reconfigure_before_boot_faults_with_command_index(tmp_path):
    (tmp_path / "k.pbit").write_bytes(b"junk")
    result = run_text(tmp_path, "reconfig file=k.pbit\n")
    assert result.exit_status == 2
    assert "command 1" in result.fault
    assert "booted" in result.fault


def test_expect_failure_sets_exit_one_but_continues(tmp_path):
    text = (
        "makebit out=boot.pbit kind=full id=0 cols=0..15 fill=00\n"
        "boot flash=boot.pbit\n"
        "expect boot_duration_ps == 1\n"
        "expect boot_ok == 1\n"
    )
    result = run_text(tmp_path, text)
    assert result.exit_status == 1
    assert len(result.expect_failures) == 1
    assert "boot_duration_ps" in result.expect_failures[0]


def test_expect_unknown_key_fails_expectation(tmp_path):
    result = run_text(tmp_path, "expect warp_factor == 9\n")
    assert result.exit_status == 1
    assert "unknown metrics key" in result.expect_failures[0]


def test_stalled_reconfig_pauses_counted(tmp_path):
    text = (
        "makebit out=boot.pbit kind=full id=0 cols=0..15 fill=00\n"
        "boot flash=boot.pbit\n"
        "makebit out=k.pbit kind=partial id=1 cols=0..3 fill=random:3\n"
        "stall at=700us for=200us\n"
        "reconfig file=k.pbit\n"
        "expect reconfig_pauses >= 1\n"
    )
    result = run_text(tmp_path, text)
    assert result.fault is None
    assert result.exit_status == 0
    assert result.metrics["reconfig_pauses"] >= 1
    assert result.metrics["reconfig_duration_ps"] > 163_840_000


def test_corrupt_flash_faults_on_next_device_command(tmp_path):
    text = "makebit out=boot.pbit kind=full id=0 cols=0..15 fill=00\n"
    run_text(tmp_path, text)
    raw = bytearray((tmp_path / "boot.pbit").read_bytes())
    raw[50] ^= 1
    (tmp_path / "boot.pbit").write_bytes(bytes(raw))
    (tmp_path / "k.pbit").write_bytes(b"\x00" * 64)
    result = run_text(tmp_path, "boot flash=boot.pbit\nreconfig file=k.pbit\n")
    assert result.metrics["boot_ok"] == 0
    assert result.exit_status == 2
    assert "command 2" in result.fault


def test_full_bitstream_over_bus_rejected(tmp_path):
    text = (
        "makebit out=boot.pbit kind=full id=0 cols=0..15 fill=00\n"
        "boot flash=boot.pbit\n"
        "reconfig file=boot.pbit\n"
    )
    result = run_text(tmp_path, text)
    assert result.exit_status == 2
    assert "partial" in result.fault


def test_stream_with_short_input_faults(tmp_path):
    (tmp_path / "tiny.bin").write_bytes(b"\x01\x02")
    text = (
        "makebit out=boot.pbit kind=full id=0 cols=0..15 fill=00\n"
        "boot flash=boot.pbit\n"
        "bind id=1 kernel=identity\n"
        "makebit out=k.pbit kind=partial id=1 cols=0..3 fill=00\n"
        "reconfig file=k.pbit\n"
        "stream in=tiny.bin out=o.bin words=64\n"
    )
    result = run_text(tmp_path, text)
    assert result.exit_status == 2
    assert "need 256" in result.fault


def test_deterministic_rerun_bitwise_identical(tmp_path):
    write_input(tmp_path)
    outputs = []
    for run in ("a", "b"):
        result = run_text(tmp_path, HAPPY, seed=99, tracing=True)
        assert result.exit_status == 0
        mpath = tmp_path / f"metrics_{run}.txt"
        tpath = tmp_path / f"trace_{run}.csv"
        emit_metrics(result.metrics, mpath)
        emit_trace(result.trace_records, tpath)
        outputs.append((mpath.read_bytes(), tpath.read_bytes()))
    assert outputs[0] == outputs[1]
    assert len(outputs[0][1].splitlines()) > 5


def test_metrics_file_format(tmp_path):
    write_input(tmp_path)
    result = run_text(tmp_path, HAPPY)
    path = tmp_path / "metrics.txt"
    emit_metrics(result.metrics, path)
    lines = path.read_text().splitlines()
    keys = [line.split("=", 1)[0] for line in lines]
    assert keys == sorted(keys)
    values = dict(line.split("=", 1) for line in lines)
    assert values["reconfig_duration_ps"] == "163840000"
    assert values["upstream_bytes"] == "2048"
    assert "." in values["downstream_throughput_bytes_per_second"]
    assert values["downstream_throughput_bytes_per_second"].split(".")[1].__len__() == 3
    assert values["seed"] == "0"


def test_no_stream_commands_reports_zero_bytes(tmp_path):
    text = (
        "makebit out=boot.pbit kind=full id=0 cols=0..15 fill=00\n"
        "boot flash=boot.pbit\n"
    )
    result = run_text(tmp_path, text)
    assert result.metrics["upstream_bytes"] == 0
    assert result.metrics["upstream_throughput_bytes_per_second"] == 0.0


def test_trace_csv_contract(tmp_path):
    path = tmp_path / "t.csv"
    records = [
        TraceRecord(0, "selectmap", "pause", "buffer empty"),
        TraceRecord(5, "pci", "grant", "detail, with comma"),
    ]
    emit_trace(records, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "time_ps,component,event,detail"
    assert lines[1] == "0,selectmap,pause,buffer empty"
    assert lines[2] == '5,pci,grant,"detail, with comma"'
    emit_trace([], path)
    assert path.read_text() == "time_ps,component,event,detail\n"


# Text heavy in what CSV quotes or may trip on, and any other character.
FIELD = st.text(st.sampled_from(list(',"\r\n \0aZé€\u2028🙂')) | st.characters(
    blacklist_categories=("Cs",)), max_size=12)
TIME = st.sampled_from([0, 2**63 - 1, 2**63, 2**64 + 1]) | st.integers(0, 2**70)


@given(st.lists(st.tuples(TIME, FIELD, FIELD, FIELD), max_size=12), st.integers(1, 5))
@example([(0, "pci", "grant", "")], 1)
@example([(2**63, "pci", "x", "a,b"), (1, "a", "b", ' "q" '), (2, "c", "d", "x\ry\nz")], 2)
@example([(1, "c", "e", 'say "hi"'), (2, "c", "e", "a\rb"), (3, "c", "e", "a\nb"),
          (4, "c", "e", "a, b"), (5, "c,d", "e", ""), (6, "c", "e\n", ""), (7, "c", "e", "\0")], 1)
def test_trace_csv_matches_a_plain_csv_writer(tmp_path_factory, rows, per_write):
    # Whichever way a chunk of rows goes out, the file holds the bytes a
    # plain csv.writer writes, or the same error is raised.
    work = tmp_path_factory.mktemp("trace")
    records = [TraceRecord(*row) for row in rows]
    try:
        with open(work / "want.csv", "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["time_ps", "component", "event", "detail"])
            for rec in records:
                writer.writerow([rec.time, rec.component, rec.event, rec.detail])
    except Exception as exc:      # what csv.writer or the file's encoding refuses
        with pytest.raises(type(exc)), patch.object(trace, "ROWS_PER_WRITE", per_write):
            emit_trace(records, work / "got.csv")
        return
    with patch.object(trace, "ROWS_PER_WRITE", per_write):
        emit_trace(records, work / "got.csv")
    assert (work / "got.csv").read_bytes() == (work / "want.csv").read_bytes()


def test_trace_contains_pause_and_resume_rows(tmp_path):
    text = (
        "makebit out=boot.pbit kind=full id=0 cols=0..15 fill=00\n"
        "boot flash=boot.pbit\n"
        "makebit out=k.pbit kind=partial id=1 cols=0..3 fill=random:3\n"
        "stall at=700us for=200us\n"
        "reconfig file=k.pbit\n"
    )
    result = run_text(tmp_path, text, tracing=True)
    events = [(r.component, r.event) for r in result.trace_records]
    assert ("selectmap", "pause") in events
    assert ("selectmap", "resume") in events
    grants = [r.detail for r in result.trace_records
              if (r.component, r.event) == ("pci", "grant")]
    assert grants and all(g == "selectmap_write" for g in grants)
    times = [r.time for r in result.trace_records]
    assert times == sorted(times)


def test_cli_run_and_exit_codes(tmp_path, capsys):
    write_input(tmp_path)
    scenario = tmp_path / "demo.pscn"
    scenario.write_text(HAPPY)
    metrics = tmp_path / "m.txt"
    trace = tmp_path / "t.csv"
    assert main(["run", str(scenario), "--metrics", str(metrics),
                 "--trace", str(trace), "--seed", "5"]) == 0
    assert metrics.exists() and trace.exists()
    assert "seed=5" in metrics.read_text()

    bad = tmp_path / "bad.pscn"
    bad.write_text("warp speed=9\n")
    assert main(["run", str(bad)]) == 2
    assert "unknown command" in capsys.readouterr().err

    failing = tmp_path / "fail.pscn"
    failing.write_text("expect boot_ok == 1\n")
    assert main(["run", str(failing)]) == 1

    assert main(["run", str(tmp_path / "absent.pscn")]) == 2


def test_cli_kernels_lists_builtins(capsys):
    assert main(["kernels"]) == 0
    out = capsys.readouterr().out
    for name in ("identity", "negate", "add_const", "fir4"):
        assert name in out


def test_console_script_entry_point(tmp_path):
    import shutil
    import subprocess

    exe = shutil.which("proteus-sim")
    if exe is None:
        import pytest
        pytest.skip("console script not installed")
    scenario = tmp_path / "mini.pscn"
    scenario.write_text(
        "makebit out=boot.pbit kind=full id=0 cols=0..15 fill=00\n"
        "boot flash=boot.pbit\n"
        "expect boot_ok == 1\n"
    )
    proc = subprocess.run([exe, "run", str(scenario)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_cli_makebit_roundtrip(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["makebit", "out=x.pbit", "kind=partial", "id=0x5",
                 "cols=2..3", "fill=random:9"]) == 0
    bs = bits.parse((tmp_path / "x.pbit").read_bytes())
    assert (bs.kernel_id, bs.first_column, bs.column_count) == (5, 2, 2)
    assert main(["makebit", "out=y.pbit", "kind=partial", "id=1",
                 "cols=90..99", "fill=00"]) == 2


def test_unseeded_random_fills_draw_from_the_seed(tmp_path, monkeypatch):
    # The CLI draws an unseeded random fill from seed 0; a run draws its
    # k-th (from 0) from its seed plus k, and a seeded fill takes no turn.
    monkeypatch.chdir(tmp_path)
    args = ["makebit", "kind=partial", "id=1", "cols=0..1"]
    assert main([*args, "out=cli.pbit", "fill=random"]) == 0
    assert main([*args, "out=one.pbit", "fill=random:1"]) == 0
    text = "".join(f"makebit out={name}.pbit kind=partial id=1 cols=0..1 fill={fill}\n"
                   for name, fill in (("a", "random"), ("s", "random:5"), ("b", "random")))
    assert run_text(tmp_path, text, seed=0).exit_status == 0
    image = {name: (tmp_path / f"{name}.pbit").read_bytes() for name in ("cli", "one", "a", "b")}
    assert image["a"] == image["cli"] and image["b"] == image["one"] != image["a"]
