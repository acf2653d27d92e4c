"""Command-line interface: subcommands, documents, exit codes."""

import importlib
import json
import sys
from dataclasses import replace

import pytest

import fixturelib as fx
import wasmdebloat
from wasmdebloat import decode, encode, validate_module
from wasmdebloat import opcodes as op
from wasmdebloat.cli import EXIT_INPUT, EXIT_OK, EXIT_USAGE, EXIT_VALIDATION, entry, main
from wasmdebloat.documents import workload_to_document
from wasmdebloat.module import Instruction


def write_pair(tmp_path, module, workload, stem="m"):
    mod = tmp_path / f"{stem}.wasm"
    mod.write_bytes(encode(module))
    wlf = tmp_path / f"{stem}.workload.json"
    wlf.write_text(workload_to_document(workload), "utf-8")
    return str(mod), str(wlf)


def test_exit_code_constants():
    assert (EXIT_OK, EXIT_INPUT, EXIT_VALIDATION, EXIT_USAGE) == (0, 1, 2, 64)


def test_debloat_writes_module_and_report(tmp_path, capsys):
    mod, wlf = write_pair(tmp_path, fx.calculator_module(), fx.CALCULATOR_WORKLOAD)
    out = tmp_path / "out.wasm"
    rep = tmp_path / "report.json"
    code = main(
        ["debloat", "--module", mod, "--workload", wlf,
         "--out", str(out), "--report", str(rep)]
    )
    assert code == EXIT_OK
    assert capsys.readouterr().out == ""
    doc = json.loads(rep.read_text("utf-8"))
    assert doc["keepRatio"] == 40.0
    assert doc["validation"]["behavioralOk"] is True
    shrunk = decode(out.read_bytes())
    assert len(shrunk.functions) == 7
    assert validate_module(shrunk).ok


def test_debloat_report_defaults_to_stdout(tmp_path, capsys):
    mod, wlf = write_pair(tmp_path, fx.calculator_module(), fx.CALCULATOR_WORKLOAD)
    out = tmp_path / "out.wasm"
    code = main(["debloat", "--module", mod, "--workload", wlf, "--out", str(out)])
    assert code == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["removeRatio"] == 30.0


def test_missing_module_file(tmp_path, capsys):
    _, wlf = write_pair(tmp_path, fx.add_module(), fx.wl())
    code = main(
        ["debloat", "--module", str(tmp_path / "nope.wasm"),
         "--workload", wlf, "--out", str(tmp_path / "o.wasm")]
    )
    assert code == EXIT_INPUT
    assert "wasm-debloat: error:" in capsys.readouterr().err


def test_malformed_workload_document(tmp_path, capsys):
    mod, _ = write_pair(tmp_path, fx.add_module(), fx.wl())
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", "utf-8")
    code = main(
        ["debloat", "--module", mod, "--workload", str(bad),
         "--out", str(tmp_path / "o.wasm")]
    )
    assert code == EXIT_INPUT
    err = capsys.readouterr().err
    assert "wasm-debloat: error: line 1" in err


def test_unknown_export_in_workload(tmp_path, capsys):
    mod, wlf = write_pair(tmp_path, fx.add_module(), fx.wl(fx.inv("nosuch")))
    code = main(
        ["debloat", "--module", mod, "--workload", wlf,
         "--out", str(tmp_path / "o.wasm")]
    )
    assert code == EXIT_INPUT
    assert "unknown function export: 'nosuch'" in capsys.readouterr().err


def test_trace_prints_entered_functions(tmp_path, capsys):
    mod, wlf = write_pair(
        tmp_path, fx.main_helper_module(), fx.wl(fx.inv("main"))
    )
    code = main(["trace", "--module", mod, "--workload", wlf])
    assert code == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"entered": [0, 1], "callTargets": [1], "tableObserved": []}


def test_trace_with_empty_workload(tmp_path, capsys):
    mod, wlf = write_pair(tmp_path, fx.add_module(), fx.wl())
    code = main(["trace", "--module", mod, "--workload", wlf])
    assert code == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"entered": [], "callTargets": [], "tableObserved": []}


def test_trace_to_file(tmp_path, capsys):
    mod, wlf = write_pair(tmp_path, fx.add_module(), fx.ADD_WORKLOAD)
    out = tmp_path / "trace.json"
    code = main(["trace", "--module", mod, "--workload", wlf, "--out", str(out)])
    assert code == EXIT_OK
    assert capsys.readouterr().out == ""
    assert json.loads(out.read_text("utf-8"))["entered"] == [0]


def test_trace_rejects_invalid_module(tmp_path, capsys):
    m = replace(
        fx.add_module(),
        exports=(fx.Export("f", "func", 0), fx.Export("f", "func", 0))
    )
    mod, wlf = write_pair(tmp_path, m, fx.wl())
    code = main(["trace", "--module", mod, "--workload", wlf])
    assert code == EXIT_INPUT
    err = capsys.readouterr().err
    assert "module invalid at export[1]: duplicate export name 'f'" in err


def test_validate_identical_modules(tmp_path, capsys):
    mod, wlf = write_pair(tmp_path, fx.add_module(), fx.ADD_WORKLOAD)
    code = main(
        ["validate", "--original", mod, "--debloated", mod, "--workload", wlf]
    )
    assert code == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"syntacticOk": True, "behavioralOk": True, "mismatches": []}


def test_validate_reports_divergence(tmp_path, capsys):
    mod, wlf = write_pair(tmp_path, fx.add_module(), fx.ADD_WORKLOAD)
    broken = replace(
        fx.add_module(),
        functions=(
            replace(
                fx.add_module().functions[0],
                body=(Instruction(op.UNREACHABLE),),
            ),
        )
    )
    dbl = tmp_path / "broken.wasm"
    dbl.write_bytes(encode(broken))
    code = main(
        ["validate", "--original", mod, "--debloated", str(dbl), "--workload", wlf]
    )
    assert code == EXIT_VALIDATION
    doc = json.loads(capsys.readouterr().out)
    assert doc["behavioralOk"] is False
    assert doc["mismatches"] == [
        {
            "invocation": 0,
            "field": "outcome",
            "original": "Results[i32:5]",
            "debloated": "Trap(unreachable)",
        }
    ]


def test_stats_empty_module(tmp_path, capsys):
    mod = tmp_path / "empty.wasm"
    mod.write_bytes(fx.EMPTY_BYTES)
    code = main(["stats", "--module", str(mod)])
    assert code == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc == {
        "sectionSizes": {},
        "totalBytes": 8,
        "functionsImported": 0,
        "functionsDefined": 0,
    }


def test_stats_calculator(tmp_path, capsys):
    mod, _ = write_pair(tmp_path, fx.calculator_module(), fx.wl())
    code = main(["stats", "--module", str(mod)])
    assert code == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["functionsDefined"] == 10
    assert doc["functionsImported"] == 0
    assert "code" in doc["sectionSizes"]
    assert sum(doc["sectionSizes"].values()) + 8 == doc["totalBytes"]


def test_stats_rejects_garbage(tmp_path, capsys):
    mod = tmp_path / "junk.wasm"
    mod.write_bytes(b"\x00\x01\x02")
    code = main(["stats", "--module", str(mod)])
    assert code == EXIT_INPUT
    assert "wasm-debloat: error: malformed binary" in capsys.readouterr().err


def test_usage_errors_exit_64(capsys):
    for argv in ([], ["debloat"], ["bogus"], ["trace", "--module", "x"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("usage: wasm-debloat")
        assert ": error:" in err


def test_console_script_exits_with_the_code_of_main(tmp_path, capsys, monkeypatch):
    mod, _ = write_pair(tmp_path, fx.calculator_module(), fx.wl())
    for argv, expected in ((["bogus"], EXIT_USAGE), (["stats", "--module", mod], EXIT_OK)):
        monkeypatch.setattr(sys, "argv", ["wasm-debloat", *argv])
        with pytest.raises(SystemExit) as exc:
            entry()
        assert exc.value.code == expected
    assert json.loads(capsys.readouterr().out)["functionsDefined"] == 10


def test_fail_on_behavior_change_clean_run(tmp_path, capsys):
    mod, wlf = write_pair(tmp_path, fx.calculator_module(), fx.CALCULATOR_WORKLOAD)
    code = main(
        ["debloat", "--module", mod, "--workload", wlf,
         "--out", str(tmp_path / "o.wasm"), "--fail-on-behavior-change"]
    )
    assert code == EXIT_OK


def test_fail_on_behavior_change_divergent_run(tmp_path, capsys, monkeypatch):
    from wasmdebloat.shrink import apply_plan as real

    def wrecked(m, plan):
        out = real(m, plan)
        funcs = list(out.functions)
        funcs[0] = replace(funcs[0], locals=(), body=(Instruction(op.UNREACHABLE),))
        return replace(out, functions=tuple(funcs))

    monkeypatch.setattr(wasmdebloat.pipeline, "apply_plan", wrecked)
    mod, wlf = write_pair(tmp_path, fx.add_module(), fx.ADD_WORKLOAD)
    out = tmp_path / "o.wasm"
    rep = tmp_path / "r.json"
    code = main(
        ["debloat", "--module", mod, "--workload", wlf, "--out", str(out),
         "--report", str(rep), "--fail-on-behavior-change"]
    )
    assert code == EXIT_VALIDATION
    assert "behavior changed: 1 mismatch(es)" in capsys.readouterr().err
    # artifact and report are still written for inspection
    assert out.exists()
    doc = json.loads(rep.read_text("utf-8"))
    assert doc["validation"]["behavioralOk"] is False


def test_fail_on_behavior_change_sees_the_written_bytes(tmp_path, capsys, monkeypatch):
    # the input is encoded before the encoder is broken; only the output
    # carries the wrong constant
    mod, wlf = write_pair(tmp_path, fx.calculator_module(), fx.CALCULATOR_WORKLOAD)
    encoder = importlib.import_module("wasmdebloat.encode")
    real = encoder.Writer.sleb
    monkeypatch.setattr(encoder.Writer, "sleb", lambda w, v, bits: real(w, v + 1, bits))
    rep = tmp_path / "r.json"
    code = main(
        ["debloat", "--module", mod, "--workload", wlf, "--out",
         str(tmp_path / "o.wasm"), "--report", str(rep), "--fail-on-behavior-change"]
    )
    assert code == EXIT_VALIDATION
    assert "wasm-debloat: behavior changed:" in capsys.readouterr().err
    assert json.loads(rep.read_text("utf-8"))["validation"]["behavioralOk"] is False


@pytest.mark.parametrize("command", ["debloat", "trace", "validate"])
def test_workload_that_is_not_utf8_is_an_input_error(tmp_path, capsys, command):
    mod, _ = write_pair(tmp_path, fx.add_module(), fx.wl())
    wlf = tmp_path / "bad.workload.json"
    wlf.write_bytes(b"\xff\xfe\x7b")
    argv = {
        "debloat": ["debloat", "--module", mod, "--out", str(tmp_path / "o.wasm")],
        "trace": ["trace", "--module", mod],
        "validate": ["validate", "--original", mod, "--debloated", mod],
    }[command]
    code = main(argv + ["--workload", str(wlf)])
    assert code == EXIT_INPUT
    assert "wasm-debloat: error: byte 0: workload is not UTF-8" in capsys.readouterr().err


@pytest.mark.parametrize("case", sorted(fx.HOSTILE_WORKLOADS))
def test_hostile_workload_is_an_input_error(tmp_path, capsys, case):
    text, error = fx.HOSTILE_WORKLOADS[case]
    mod, _ = write_pair(tmp_path, fx.calculator_module(), fx.wl())
    wlf = tmp_path / "hostile.workload.json"
    wlf.write_text(text, "utf-8")
    code = main(["trace", "--module", mod, "--workload", str(wlf)])
    assert code == EXIT_INPUT
    assert capsys.readouterr().err == f"wasm-debloat: error: {error}\n"


def test_nesting_past_the_limit_is_an_input_error(tmp_path, capsys):
    mod = tmp_path / "deep.wasm"
    mod.write_bytes(fx.nested_blocks_bytes(30_000))
    wlf = tmp_path / "deep.workload.json"
    wlf.write_text(workload_to_document(fx.wl(fx.inv("f"))), "utf-8")
    code = main(
        ["debloat", "--module", str(mod), "--workload", str(wlf),
         "--out", str(tmp_path / "o.wasm")]
    )
    assert code == EXIT_INPUT
    assert "blocks nested deeper than" in capsys.readouterr().err


@pytest.mark.parametrize(
    "data, error",
    [
        (fx.BAD_START_TYPE_BYTES, "start: function 0 has type index 12 out of range"),
        (encode(fx.bad_call_type_module(imported=False)), "func[0]: type index 7 out of range"),
        (encode(fx.bad_call_type_module(imported=True)), "import[0]: type index 7 out of range"),
    ],
    ids=["start", "call-defined", "call-import"],
)
def test_function_with_bad_type_index_is_an_input_error(tmp_path, capsys, data, error):
    mod = tmp_path / "bad.wasm"
    mod.write_bytes(data)
    wlf = tmp_path / "bad.workload.json"
    wlf.write_text(workload_to_document(fx.wl()), "utf-8")
    code = main(
        ["debloat", "--module", str(mod), "--workload", str(wlf),
         "--out", str(tmp_path / "o.wasm")]
    )
    assert code == EXIT_INPUT
    assert f"input module invalid at {error}" in capsys.readouterr().err


def test_table_past_the_element_limit_is_an_input_error(tmp_path, capsys):
    # instantiating this table would allocate 2**32 - 1 elements
    m = replace(fx.add_module(), tables=(fx.Limits(0xFFFFFFFF),))
    mod, wlf = write_pair(tmp_path, m, fx.wl())
    out = tmp_path / "o.wasm"
    code = main(["debloat", "--module", mod, "--workload", wlf, "--out", str(out)])
    assert code == EXIT_INPUT
    err = capsys.readouterr().err
    assert "input module invalid at table[0]: limits minimum 4294967295 exceeds 10000000" in err
    assert not out.exists()
