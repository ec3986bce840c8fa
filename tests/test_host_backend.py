"""The host target: NIR lowered straight to native vector kernels.

The third registered backend (ISSUE 7) re-proves the paper's
retargeting claim on the CPU running the tests: the whole shared
pipeline (promote -> normalize -> pad_masks -> dse -> block) feeds a
dispatch engine that compiles blocked phases to per-element C loops
and cache-blocked numpy kernels instead of simulating PEs.  The
contract under test is **bit identity**: every program must produce
byte-for-byte the arrays of the cm2 interpreter oracle, across all
three exec modes.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.driver.cli import main as cli_main
from repro.driver.compiler import CompilerOptions, compile_source
from repro.driver.reference import run_reference
from repro.frontend.parser import parse_program
from repro.machine.ckernel import _compiler
from repro.service.jobs import execute_request, run_target_compare
from repro.targets import (
    TargetModelMismatchError,
    build_machine,
    get_target,
    resolve_model,
)

from .test_targets import PROGRAMS, SWE_PATH, TINY

# Tier-1 programs are too short to earn a ``cc`` run: see conftest.
pytestmark = pytest.mark.usefixtures("eager_c")


def _swe_source(n: int = 16) -> str:
    with open(SWE_PATH) as f:
        return f.read().replace("n = 64", f"n = {n}")


def _host_arrays(source: str, exec_mode: str = "fused"):
    exe = compile_source(source, CompilerOptions(target="host"))
    machine = build_machine("host", exec_mode=exec_mode)
    return exe.run(machine).arrays, machine


def _cm2_oracle(source: str):
    exe = compile_source(source, CompilerOptions(target="cm2"))
    return exe.run(build_machine("cm2", pes=64, exec_mode="interp")).arrays


# -- registry record --------------------------------------------------------


class TestHostRegistration:
    def test_record_resolves_to_backend(self):
        from repro.backend.host.compiler import HostCompiler
        from repro.backend.host.machine import HostMachine

        record = get_target("host")
        assert record.compiler() is HostCompiler
        assert record.compiler().target_name == "host"
        assert record.machine_class() is HostMachine
        assert record.models == ("host",)
        assert record.default_pes == 1

    def test_cm_targets_keep_the_shared_machine(self):
        from repro.machine import Machine

        assert get_target("cm2").machine_class() is Machine
        assert get_target("cm5").machine_class() is Machine

    def test_build_machine_yields_host_machine(self):
        from repro.backend.host.machine import HostMachine

        machine = build_machine("host")
        assert isinstance(machine, HostMachine)
        assert machine.model.name == "host"
        assert machine.model.n_pes == 1
        assert machine.exec_mode == "fused"  # the host default

    def test_host_model_canned_calibration(self, monkeypatch):
        from repro.machine.costs import _host_calibration, host_model

        monkeypatch.setenv("REPRO_HOST_CALIBRATE", "0")
        _host_calibration.cache_clear()
        try:
            model = host_model()
            assert model.clock_hz == 1.0e9
            assert model.instr.arith >= 1
        finally:
            _host_calibration.cache_clear()


# -- bit identity -----------------------------------------------------------


class TestHostBitIdentity:
    @pytest.mark.parametrize("source", PROGRAMS)
    @pytest.mark.parametrize("mode", ["interp", "fast", "fused"])
    def test_small_programs_match_oracle(self, source, mode):
        ref = _cm2_oracle(source)
        arrays, _ = _host_arrays(source, exec_mode=mode)
        assert set(arrays) == set(ref)
        for name in ref:
            assert arrays[name].tobytes() == ref[name].tobytes(), name

    @pytest.mark.parametrize("mode", ["interp", "fast", "fused"])
    def test_swe_matches_oracle(self, mode):
        ref = _cm2_oracle(_swe_source())
        arrays, machine = _host_arrays(_swe_source(), exec_mode=mode)
        for name in ("u", "v", "p"):
            assert arrays[name].tobytes() == ref[name].tobytes(), name
        if mode == "fast" and _compiler() is None:
            # No native tier: the blocked kernels take what C would.
            assert machine.host_metrics["native_dispatches"] == 0
            assert machine.host_metrics["blocked_dispatches"] > 0
        elif mode == "fast":
            # SWE must actually exercise the native tier, not only
            # fall back to recording/steps.
            assert machine.host_metrics["native_dispatches"] > 0

    def test_degraded_tiers_bit_identical(self, monkeypatch):
        # No C compiler path: blocked kernels and the step engine
        # must carry the whole program alone.
        monkeypatch.setenv("REPRO_FUSED_CC", "0")
        ref = _cm2_oracle(_swe_source())
        arrays, machine = _host_arrays(_swe_source(), exec_mode="fast")
        for name in ("u", "v", "p"):
            assert arrays[name].tobytes() == ref[name].tobytes(), name
        assert machine.host_metrics["native_dispatches"] == 0


class TestHostLaunchRecords:
    """The native and blocked tiers replay like the CM fast paths do,
    and every replayed trip still counts as a dispatch of its tier."""

    def _run(self, mode, routine, trips):
        machine = build_machine("host", exec_mode=mode)
        machine.alloc("x", (8,), np.dtype(np.float64))
        machine.alloc("y", (8,), np.dtype(np.float64))
        machine.set_array("x", np.arange(8.0))
        for _ in range(trips):
            machine.call_routine(
                routine, {"x": machine.view("x", None),
                          "y": machine.view("y", None), "k": 3},
                (8,), site="s")
        return machine

    @pytest.mark.parametrize("cc", ["1", "0"])
    def test_every_replayed_trip_counts_for_its_tier(self, cc, monkeypatch):
        from .test_execplan import _axpy

        if cc == "1" and _compiler() is None:
            pytest.skip("no C compiler")
        monkeypatch.setenv("REPRO_FUSED_CC", cc)
        routine = _axpy(name=f"axpy_cc{cc}", spill=True)
        machine = self._run("fast", routine, 6)
        oracle = self._run("interp", routine, 6)
        assert machine.launch_metrics["replays"] == 4
        tier = "native" if cc == "1" else "blocked"
        assert machine.host_metrics["steps_dispatches"] == 1
        assert machine.host_metrics[f"{tier}_dispatches"] == 5
        assert (machine.home("y").data.tobytes()
                == oracle.home("y").data.tobytes())
        assert machine.stats.to_dict() == oracle.stats.to_dict()

    def test_stats_json_and_service_report_the_launch_counters(
            self, tmp_path):
        f = tmp_path / "heat.f90"
        f.write_text(PROGRAMS[1])
        stats = tmp_path / "stats.json"
        assert cli_main(["run", str(f), "--target", "host",
                         "--stats-json", str(stats)]) == 0
        fusion = json.loads(stats.read_text())["fusion"]
        response = execute_request(
            {"op": "run", "source": PROGRAMS[1],
             "options": {"target": "host"}})
        for block in (fusion, response["fusion"]):
            assert {"launch_records", "launch_replays",
                    "launch_drops"} <= set(block)
            assert set(block["launch_drop_reasons"]) == {
                "binding", "plan", "scalar_type", "tier_up"}


@st.composite
def _elemental_programs(draw):
    """Random elemental/shift programs over small real arrays."""
    n = draw(st.integers(min_value=4, max_value=12))
    lines = [f"real a({n}), b({n}), c({n})",
             f"forall (i=1:{n}) a(i) = i * 1.5",
             f"forall (i=1:{n}) b(i) = {n} - i",
             f"forall (i=1:{n}) c(i) = mod(i, 3) * 2.0"]
    arrays = ["a", "b", "c"]
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        tgt = draw(st.sampled_from(arrays))
        lhs = draw(st.sampled_from(arrays))
        rhs = draw(st.sampled_from(arrays))
        op = draw(st.sampled_from(["+", "-", "*"]))
        shift = draw(st.integers(min_value=-2, max_value=2))
        expr = f"{lhs} {op} cshift({rhs}, {shift})" if shift \
            else f"{lhs} {op} {rhs}"
        lines.append(f"{tgt} = {expr}")
    lines.append("end")
    return "\n".join(lines)


@settings(max_examples=25, deadline=None)
@given(_elemental_programs())
def test_random_programs_host_matches_reference(source):
    """Differential property: host output == reference interpreter."""
    exe = compile_source(source, CompilerOptions(target="host"))
    result = exe.run(build_machine("host"))
    ref = run_reference(parse_program(source))
    for name, expected in ref.arrays.items():
        np.testing.assert_array_equal(result.arrays[name], expected)


# -- model mismatch (satellite: typed errors on every entry point) ----------


class TestHostModelMismatch:
    def test_api_host_rejects_cm_models(self):
        for model in ("slicewise", "fieldwise", "cm5"):
            with pytest.raises(TargetModelMismatchError):
                resolve_model("host", model)

    def test_api_cm_targets_reject_host_model(self):
        with pytest.raises(TargetModelMismatchError) as exc:
            resolve_model("cm2", "host")
        assert "cm2" in str(exc.value) and "host" in str(exc.value)
        with pytest.raises(TargetModelMismatchError):
            resolve_model("cm5", "host")

    def test_cli_mismatch_fails(self, tmp_path):
        f = tmp_path / "t.f90"
        f.write_text(TINY)
        assert cli_main(["run", str(f), "--target", "host",
                         "--model", "slicewise"]) == 1
        assert cli_main(["run", str(f), "--target", "cm2",
                         "--model", "host"]) == 1

    def test_service_mismatch_is_structured_error(self):
        for target, model in (("host", "slicewise"), ("cm2", "host")):
            response = execute_request(
                {"op": "run", "source": TINY, "model": model,
                 "options": {"target": target}})
            assert not response["ok"]
            assert response["error"]["type"] == "TargetModelMismatchError"


# -- driver/CLI plumbing ----------------------------------------------------


class TestHostCli:
    def test_run_stats_json(self, tmp_path):
        f = tmp_path / "t.f90"
        f.write_text(TINY)
        stats = tmp_path / "stats.json"
        assert cli_main(["run", str(f), "--target", "host",
                         "--stats-json", str(stats)]) == 0
        payload = json.loads(stats.read_text())
        assert payload["target"] == "host"
        assert payload["model"] == "host"
        assert payload["pipeline"]["passes"]

    def test_run_verify_and_dump_after(self, tmp_path, capsys):
        f = tmp_path / "t.f90"
        f.write_text(TINY)
        assert cli_main(["run", str(f), "--target", "host",
                         "--verify"]) == 0
        assert cli_main(["compile", str(f), "--target", "host",
                         "--dump-after", "normalize"]) == 0
        assert "NIR after pass 'normalize'" in capsys.readouterr().out

    def test_compare_targets_flag(self, tmp_path, capsys):
        f = tmp_path / "t.f90"
        f.write_text(PROGRAMS[1])
        assert cli_main(["compare", str(f), "--targets"]) == 0
        out = capsys.readouterr().out
        for name in ("cm2", "cm5", "host"):
            assert name in out

    def test_compare_explicit_subset(self, tmp_path, capsys):
        f = tmp_path / "t.f90"
        f.write_text(TINY)
        assert cli_main(["compare", str(f),
                         "--targets", "cm2", "host"]) == 0
        out = capsys.readouterr().out
        assert "host" in out and "cm5" not in out


# -- service plumbing -------------------------------------------------------


class TestHostService:
    def test_run_op(self):
        response = execute_request(
            {"op": "run", "source": PROGRAMS[1],
             "options": {"target": "host"}})
        assert response["ok"], response
        assert response["target"] == "host"
        assert response["model"] == "host"
        assert "host_native_dispatches" in response["fusion"]

    def test_compare_op_all_targets(self):
        response = execute_request(
            {"op": "compare", "source": PROGRAMS[1], "targets": "all"})
        assert response["ok"], response
        names = [row["target"] for row in response["rows"]]
        assert names == ["cm2", "cm5", "host"]
        assert all(row["max_abs_diff"] == 0.0 for row in response["rows"])

    def test_compare_op_explicit_targets(self):
        response = execute_request(
            {"op": "compare", "source": TINY,
             "targets": ["cm5", "host"]})
        assert response["ok"], response
        assert response["reference"] == "cm5"
        assert [row["target"] for row in response["rows"]] \
            == ["cm5", "host"]

    def test_compare_op_unknown_target_is_structured(self):
        response = execute_request(
            {"op": "compare", "source": TINY, "targets": ["cm9"]})
        assert not response["ok"]
        assert response["error"]["type"] == "UnknownTargetError"

    def test_run_target_compare_api(self):
        payload = run_target_compare(_swe_source(8))
        assert payload["reference"] == "cm2"
        assert len(payload["rows"]) == 3
        for row in payload["rows"]:
            assert row["wall_seconds"] > 0
            assert row["max_abs_diff"] == 0.0


# -- compile-time lowering audit --------------------------------------------


class TestHostLoweringAudit:
    def test_swe_audit(self):
        exe = compile_source(_swe_source(), CompilerOptions(target="host"))
        report = exe.partition
        assert report.lowerings, "host report carries per-phase audits"
        by_name = {low.routine: low for low in report.lowerings}
        # The sin/cos initialization phase cannot lower natively...
        blocked = [low for low in report.lowerings
                   if not low.native_eligible]
        assert any("fsinv" in low.blockers or "fcosv" in low.blockers
                   for low in blocked)
        # ...but the bulk of the timestep phases do.
        assert report.native_fraction > 0.5
        assert all(low.instructions > 0 for low in by_name.values())
