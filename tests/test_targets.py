"""The target registry: resolution, validation, CLI/service wiring, and
cm2-vs-cm5 end-to-end equivalence.

The paper's retargeting claim (§5.3.1) is that the CM/5 compiler reuses
the CM/2 structure — here that means both targets are one registry
record apart, and (since the node semantics are identical) produce
bit-identical output arrays on the same programs.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.driver.cli import main as cli_main
from repro.driver.compiler import CompilerOptions, compile_source
from repro.service.jobs import build_machine, build_options, execute_request
from repro.targets import (
    Target,
    TargetModelMismatchError,
    UnknownModelError,
    UnknownTargetError,
    build_machine as registry_build_machine,
    get_model_factory,
    get_target,
    register_target,
    resolve_model,
    target_names,
)

from .conftest import lower  # noqa: F401  (shared fixtures import path)

TINY = "integer a(8)\na = 1\na = a + 2\nend"

PROGRAMS = [
    TINY,
    "real x(4,4), y(4,4)\ny = cshift(x + 1.5, 1, 2) * 2.0\nend",
    """
integer i
real a(8), b(8)
do i = 1, 8
  a(i) = i * 1.5
end do
b = cshift(a, 1)
where (b > 6.0)
  b = b - 6.0
end where
end
""",
]


# -- registry ---------------------------------------------------------------


class TestTargetRegistry:
    def test_builtin_targets(self):
        assert target_names() == ["cm2", "cm5", "host"]

    def test_records_resolve_lazily_to_backends(self):
        from repro.backend.cm2.partition import Cm2Compiler
        from repro.backend.cm5.compiler import Cm5Compiler

        assert get_target("cm2").compiler() is Cm2Compiler
        assert get_target("cm5").compiler() is Cm5Compiler
        assert get_target("cm2").compiler().target_name == "cm2"
        assert get_target("cm5").compiler().target_name == "cm5"

    def test_unknown_target_is_typed_valueerror(self):
        with pytest.raises(UnknownTargetError) as exc:
            get_target("cm3")
        assert isinstance(exc.value, ValueError)
        assert "cm2" in str(exc.value) and "cm5" in str(exc.value)

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError):
            register_target(Target(
                name="cm2", description="dup",
                compiler_loader=lambda: object, models=("slicewise",)))

    def test_registering_with_unknown_model_rejected(self):
        with pytest.raises(UnknownModelError):
            register_target(Target(
                name="cm6", description="bad",
                compiler_loader=lambda: object, models=("warpwise",)))
        assert "cm6" not in target_names()


class TestModelResolution:
    def test_defaults_come_from_the_target(self):
        assert resolve_model("cm2") == "slicewise"
        assert resolve_model("cm5") == "cm5"

    def test_explicit_compatible_model_passes_through(self):
        assert resolve_model("cm2", "fieldwise") == "fieldwise"

    def test_unknown_model_raises(self):
        with pytest.raises(UnknownModelError):
            resolve_model("cm2", "warpwise")
        with pytest.raises(UnknownModelError):
            get_model_factory("warpwise")

    def test_target_model_mismatch_raises(self):
        with pytest.raises(TargetModelMismatchError) as exc:
            resolve_model("cm5", "slicewise")
        assert "cm5" in str(exc.value)

    def test_build_machine_defaults(self):
        m2 = registry_build_machine("cm2", pes=64)
        assert m2.model.name == "cm2-slicewise" and m2.model.n_pes == 64
        m5 = registry_build_machine("cm5", pes=64)
        assert m5.model.name == "cm5"

    def test_executable_default_machine_matches_target(self):
        exe = compile_source(TINY, CompilerOptions(target="cm5"))
        result = exe.run()
        assert result.machine.model.name == "cm5"


# -- service wiring ---------------------------------------------------------


class TestServiceResolution:
    def test_unknown_model_is_an_error_response_not_slicewise(self):
        response = execute_request(
            {"op": "run", "source": TINY, "model": "warpwise"})
        assert not response["ok"]
        assert response["error"]["type"] == "UnknownModelError"

    def test_unknown_target_is_an_error_response(self):
        response = execute_request(
            {"op": "compile", "source": TINY,
             "options": {"target": "cm3"}})
        assert not response["ok"]
        assert response["error"]["type"] == "UnknownTargetError"

    def test_model_defaults_from_request_target(self):
        response = execute_request(
            {"op": "run", "source": TINY, "pes": 64,
             "options": {"target": "cm5"}})
        assert response["ok"], response
        assert response["target"] == "cm5"
        assert response["model"] == "cm5"

    def test_mismatched_model_is_an_error_response(self):
        response = execute_request(
            {"op": "run", "source": TINY, "model": "slicewise",
             "options": {"target": "cm5"}})
        assert not response["ok"]
        assert response["error"]["type"] == "TargetModelMismatchError"

    def test_build_helpers_resolve_through_registry(self):
        assert build_options({"target": "cm5"}).target == "cm5"
        machine = build_machine({"pes": 64}, target="cm2")
        assert machine.model.name == "cm2-slicewise"

    def test_run_response_carries_pipeline_trace(self):
        response = execute_request({"op": "run", "source": TINY, "pes": 64})
        assert response["ok"]
        names = [p["name"] for p in response["pipeline"]["passes"]]
        assert names == ["racecheck", "promote", "normalize", "pad_masks",
                         "dse", "block", "recheck", "commaudit"]


# -- CLI wiring -------------------------------------------------------------

SWE_PATH = "examples/swe.f90"


class TestCliResolution:
    def test_list_passes(self, capsys):
        assert cli_main(["run", "--list-passes"]) == 0
        out = capsys.readouterr().out
        for name in ("promote", "normalize", "pad_masks", "dse", "block",
                     "recheck"):
            assert name in out

    def test_dump_after(self, tmp_path, capsys):
        f = tmp_path / "t.f90"
        f.write_text(TINY)
        assert cli_main(["compile", str(f),
                         "--dump-after", "normalize"]) == 0
        out = capsys.readouterr().out
        assert "NIR after pass 'normalize'" in out
        assert "MOVE" in out

    def test_dump_after_unknown_pass_fails(self, tmp_path):
        f = tmp_path / "t.f90"
        f.write_text(TINY)
        assert cli_main(["compile", str(f), "--dump-after", "bogus"]) == 1

    def test_model_defaults_from_target(self, tmp_path):
        f = tmp_path / "t.f90"
        f.write_text(TINY)
        stats = tmp_path / "stats.json"
        assert cli_main(["run", str(f), "--target", "cm5", "--pes", "64",
                         "--stats-json", str(stats)]) == 0
        payload = json.loads(stats.read_text())
        assert payload["target"] == "cm5"
        assert payload["model"] == "cm5"
        assert payload["pipeline"]["passes"]

    def test_model_target_mismatch_fails(self, tmp_path):
        f = tmp_path / "t.f90"
        f.write_text(TINY)
        assert cli_main(["run", str(f), "--target", "cm5",
                         "--model", "slicewise"]) == 1

    def test_missing_file_still_an_error(self):
        assert cli_main(["run"]) == 2


# -- cm2 vs cm5 end-to-end equivalence --------------------------------------


def _arrays(source: str, target: str) -> dict[str, np.ndarray]:
    exe = compile_source(source, CompilerOptions(target=target))
    return exe.run(registry_build_machine(target, pes=64)).arrays


class TestTargetEquivalence:
    @pytest.mark.parametrize("source", PROGRAMS)
    def test_small_programs_bit_identical(self, source):
        cm2 = _arrays(source, "cm2")
        cm5 = _arrays(source, "cm5")
        assert set(cm2) == set(cm5)
        for name, data in cm2.items():
            np.testing.assert_array_equal(
                data, cm5[name],
                err_msg=f"array {name!r} differs between targets")

    def test_swe_bit_identical(self):
        with open(SWE_PATH) as f:
            src = f.read().replace("n = 64", "n = 16")
        cm2 = _arrays(src, "cm2")
        cm5 = _arrays(src, "cm5")
        for name in ("u", "v", "p"):
            np.testing.assert_array_equal(
                cm2[name], cm5[name],
                err_msg=f"SWE array {name!r} differs between targets")
