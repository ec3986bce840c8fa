"""Explicit data layout (§5.3.2) and the CLI driver."""

import numpy as np
import pytest

from repro.driver.cli import main as cli_main
from repro.driver.compiler import compile_source
from repro.driver.reference import run_reference
from repro.frontend.directives import (
    DirectiveError,
    parse_layout_directives,
)
from repro.frontend.parser import parse_program
from repro.machine import Machine, slicewise_model
from repro.machine.geometry import make_geometry


class TestDirectiveParsing:
    def test_basic(self):
        out = parse_layout_directives(
            "!layout: a(news, serial)\ninteger a(4,4)\nend")
        assert out == {"a": ("news", "serial")}

    def test_colon_prefixed_modes(self):
        out = parse_layout_directives("!layout: b(:serial, :news)")
        assert out == {"b": ("serial", "news")}

    def test_case_insensitive(self):
        out = parse_layout_directives("!LAYOUT: C(NEWS)")
        assert out == {"c": ("news",)}

    def test_unknown_mode_rejected(self):
        with pytest.raises(DirectiveError, match="unknown layout mode"):
            parse_layout_directives("!layout: a(block)")

    def test_non_directive_comments_ignored(self):
        assert parse_layout_directives("! a comment\nx = 1") == {}


class TestGeometryModes:
    def test_serial_axis_unsplit(self):
        g = make_geometry((64, 64), 64, ("news", "serial"))
        assert g.pe_grid[1] == 1
        assert g.pe_grid[0] == 64

    def test_all_news_matches_default(self):
        assert make_geometry((64, 64), 64, ("news", "news")) \
            == make_geometry((64, 64), 64)

    def test_rank_mismatch_rejected(self):
        with pytest.raises(ValueError, match="rank"):
            make_geometry((64, 64), 64, ("news",))


class TestLayoutEffects:
    SRC = """
!layout: t(news, serial)
program stencil
double precision, array(128,128) :: t, u
forall (i=1:128, j=1:128) t(i,j) = i + j * 0.5d0
u = t + cshift(t, 1, 2) + cshift(t, -1, 2)
end program stencil
"""
    SRC_DEFAULT = SRC.replace("!layout: t(news, serial)\n", "")

    def test_semantics_unchanged(self):
        res = compile_source(self.SRC).run(Machine(slicewise_model()))
        ref = run_reference(parse_program(self.SRC))
        np.testing.assert_allclose(res.arrays["u"], ref.arrays["u"])

    def test_serial_axis_communication_free(self):
        # Shifts run along axis 2, which the directive keeps on-PE:
        # all CSHIFT traffic becomes local subgrid copies.
        with_layout = compile_source(self.SRC).run(
            Machine(slicewise_model()))
        default = compile_source(self.SRC_DEFAULT).run(
            Machine(slicewise_model()))
        assert with_layout.stats.comm_cycles < default.stats.comm_cycles

    def test_alloc_carries_layout(self):
        from repro.runtime import host as h
        exe = compile_source(self.SRC)
        allocs = {op.name: op.layout for op in exe.host_program.ops
                  if isinstance(op, h.Alloc)}
        assert allocs["t"] == ("news", "serial")
        assert allocs["u"] is None

    def test_inputs_keep_the_layout(self):
        # An input is allocated before the program's own Alloc runs,
        # which then skips it: it must be allocated with that Alloc's
        # layout, or every shift of it is priced as block-laid traffic.
        exe = compile_source(self.SRC)
        plain = exe.run(Machine(slicewise_model()))
        fed = exe.run(Machine(slicewise_model()),
                      inputs={"t": np.zeros((128, 128))})
        assert fed.machine.home("t").geometry == \
            plain.machine.home("t").geometry
        assert fed.stats == plain.stats
        assert fed.stats.comm_cycles == 384


class TestCli:
    DEMO = """
program demo
double precision a(32)
double precision s
forall (i=1:32) a(i) = i * 0.5d0
s = sum(a)
print *, s
end program demo
"""

    @pytest.fixture
    def demo_file(self, tmp_path):
        f = tmp_path / "demo.f90"
        f.write_text(self.DEMO)
        return str(f)

    def test_run_prints_program_output(self, demo_file, capsys):
        assert cli_main(["run", demo_file, "--pes", "64"]) == 0
        out = capsys.readouterr().out
        assert "264.0" in out

    def test_run_stats_flag(self, demo_file, capsys):
        assert cli_main(["run", demo_file, "--pes", "64", "--stats"]) == 0
        err = capsys.readouterr().err
        assert "breakdown:" in err

    def test_compile_emits_peac(self, demo_file, capsys):
        assert cli_main(["compile", demo_file]) == 0
        out = capsys.readouterr().out
        assert "jnz ac2" in out
        assert "computation blocks" in out

    def test_compile_emit_nir(self, demo_file, capsys):
        assert cli_main(["compile", demo_file, "--emit", "nir"]) == 0
        out = capsys.readouterr().out
        assert "WITH_DOMAIN" in out

    def test_compile_emit_host(self, demo_file, capsys):
        assert cli_main(["compile", demo_file, "--emit", "host"]) == 0
        out = capsys.readouterr().out
        assert "HOST PROGRAM" in out

    def test_compare_table(self, demo_file, capsys):
        assert cli_main(["compare", demo_file, "--pes", "64"]) == 0
        out = capsys.readouterr().out
        assert "Fortran-90-Y" in out
        assert "CM Fortran v1.1" in out

    def test_missing_file_exit_code(self, capsys):
        assert cli_main(["run", "/nonexistent.f90"]) == 2

    def test_compile_error_exit_code(self, tmp_path, capsys):
        f = tmp_path / "bad.f90"
        f.write_text("integer a(4)\na = undeclared_thing + 1\nend")
        assert cli_main(["compile", str(f)]) == 1
        assert "repro:" in capsys.readouterr().err

    def test_neighborhood_flag(self, tmp_path, capsys):
        f = tmp_path / "st.f90"
        f.write_text("double precision t(16,16), u(16,16)\n"
                     "u = t + cshift(t, 1, 1)\nend")
        assert cli_main(["compile", str(f), "--neighborhood",
                         "--emit", "host"]) == 0
        out = capsys.readouterr().out
        assert "cm_rt" not in out  # the shift became a halo argument
