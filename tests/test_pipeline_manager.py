"""The pass manager: registry, ordering, trace, dumps, equivalence.

The refactor contract is that driving the transform pipeline through
the declarative pass registry produces *bit-identical* executables to
the hand-wired sequence it replaced — the hypothesis test at the bottom
replays the legacy wiring inline and compares both the optimized NIR
and the executed arrays.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import nir
from repro.backend.cm2.partition import Cm2Compiler
from repro.lowering.check import check_program
from repro.machine import Machine, slicewise_model
from repro.pipeline import (
    Pass,
    PassContext,
    PassManager,
    PassRegistry,
    UnknownPassError,
    unwrap_body,
    wrap_body,
)
from repro.runtime.host import HostExecutor
from repro.transform import (
    PASSES,
    LoopPromoter,
    MaskPadder,
    Normalizer,
    Options,
    TransformedProgram,
    TransformReport,
    optimize,
    pipeline_identity,
)
from repro.transform.passes import (
    _block_recursive,
    _eliminate_dead_scalar_stores,
)

from .conftest import lower

PROGRAM = """
integer i
real a(8,8), b(8,8), c(8,8)
a = 1.0
do i = 1, 4
  b(i,:) = a(i,:) * 2.0
end do
c = cshift(a, 1, 1) + b
where (c > 1.0)
  c = c - 1.0
end where
end
"""


# -- registry ---------------------------------------------------------------


class TestRegistry:
    def test_default_order_is_the_paper_pipeline(self):
        # racecheck/commaudit bracket the paper pipeline: report-only
        # analyses, default-off, racecheck on the lowered input and
        # commaudit on what the backend will actually compile.
        assert PASSES.names() == ["racecheck", "promote", "normalize",
                                  "pad_masks", "dse", "block", "recheck",
                                  "commaudit"]

    def test_unknown_pass_is_loud(self):
        with pytest.raises(UnknownPassError) as exc:
            PASSES.get("vectorize")
        assert "vectorize" in str(exc.value)
        assert "normalize" in str(exc.value)  # names the known passes

    def test_duplicate_registration_rejected(self):
        reg = PassRegistry()
        p = Pass(name="x", scope="body", run=lambda ctx: ctx.node)
        reg.register(p)
        with pytest.raises(ValueError):
            reg.register(p)

    def test_bad_scope_rejected(self):
        with pytest.raises(ValueError):
            Pass(name="x", scope="galaxy", run=lambda ctx: ctx.node)

    def test_identity_orders_and_configures(self):
        ident = pipeline_identity(Options())
        assert [e["name"] for e in ident] == [
            "promote", "normalize", "pad_masks", "dse", "block", "recheck"]
        block = dict(ident[4]["config"])
        assert block == {"block": True, "fuse": True, "neighborhood": False}

    def test_identity_drops_disabled_passes(self):
        ident = pipeline_identity(Options.naive())
        assert [e["name"] for e in ident] == [
            "promote", "normalize", "dse", "recheck"]


# -- golden pass orders -----------------------------------------------------


class TestGoldenPassOrders:
    def test_default_pipeline_executes_all_passes(self):
        tp = optimize(lower(PROGRAM), Options())
        assert tp.trace.executed() == [
            "promote", "normalize", "pad_masks", "dse", "block", "recheck"]

    def test_naive_pipeline_skips_blocking_and_padding(self):
        tp = optimize(lower(PROGRAM), Options.naive())
        assert tp.trace.executed() == [
            "promote", "normalize", "dse", "recheck"]
        disabled = [t.name for t in tp.trace.passes if not t.enabled]
        assert disabled == ["racecheck", "pad_masks", "block", "commaudit"]

    def test_ablation_pipeline_no_promotion_no_fuse(self):
        tp = optimize(lower(PROGRAM),
                      Options(promote_loops=False, fuse=False))
        assert tp.trace.executed() == [
            "normalize", "pad_masks", "dse", "block", "recheck"]

    def test_fuse_only_still_runs_block_pass(self):
        tp = optimize(lower(PROGRAM), Options(block=False))
        assert "block" in tp.trace.executed()


# -- trace ------------------------------------------------------------------


class TestTrace:
    def test_timings_and_ir_sizes_recorded(self):
        tp = optimize(lower(PROGRAM), Options())
        for t in tp.trace.passes:
            if t.enabled:
                assert t.seconds >= 0.0
                assert t.ir_before > 0 and t.ir_after > 0
        assert tp.trace.total_seconds > 0.0
        # Fusion shrinks the IR on this program.
        block = tp.trace.timing("block")
        assert block is not None and block.ir_delta <= 0

    def test_to_dict_round_trips_to_json(self):
        import json

        tp = optimize(lower(PROGRAM), Options())
        payload = json.loads(json.dumps(tp.trace.to_dict()))
        assert payload["total_seconds"] > 0
        assert [p["name"] for p in payload["passes"]] == PASSES.names()
        assert all(set(p) >= {"name", "enabled", "seconds", "ir_before",
                              "ir_after", "ir_delta"}
                   for p in payload["passes"])

    def test_summary_lines_render(self):
        tp = optimize(lower(PROGRAM), Options())
        lines = tp.trace.summary_lines()
        assert any("normalize" in line for line in lines)
        assert "total" in lines[-1]

    def test_trace_survives_pickling(self):
        import pickle

        tp = optimize(lower(PROGRAM), Options())
        trace = pickle.loads(pickle.dumps(tp.trace))
        assert trace.executed() == tp.trace.executed()


# -- dump-after -------------------------------------------------------------


class TestDumpAfter:
    def test_captures_pretty_nir(self):
        tp = optimize(lower(PROGRAM), Options(),
                      dump_after=("normalize", "block"))
        assert set(tp.trace.dumps) == {"normalize", "block"}
        assert "MOVE" in tp.trace.dumps["normalize"]

    def test_unknown_pass_raises_before_running(self):
        with pytest.raises(UnknownPassError):
            optimize(lower(PROGRAM), Options(), dump_after=("bogus",))

    def test_disabled_pass_produces_no_dump(self):
        tp = optimize(lower(PROGRAM), Options.naive(),
                      dump_after=("pad_masks",))
        assert "pad_masks" not in tp.trace.dumps


# -- manager scope handling -------------------------------------------------


class TestManagerScopes:
    def test_body_pass_sees_unwrapped_tree(self):
        seen = {}

        def probe(ctx: PassContext):
            seen["node"] = ctx.node
            return ctx.node

        reg = PassRegistry()
        reg.register(Pass(name="probe", scope="body", run=probe))
        low = lower(PROGRAM)
        manager = PassManager(reg.pipeline())
        program, trace = manager.run(low.nir, low.env, Options(),
                                     TransformReport())
        assert not isinstance(seen["node"], (nir.WithDomain, nir.WithDecl,
                                             nir.Program))
        assert isinstance(program, nir.Program)
        assert trace.executed() == ["probe"]

    def test_disabled_passes_are_recorded_not_run(self):
        ran = []

        def never(ctx):
            ran.append(True)
            return ctx.node

        reg = PassRegistry()
        reg.register(Pass(name="off", scope="program", run=never,
                          enabled=lambda o: False))
        low = lower(PROGRAM)
        _, trace = PassManager(reg.pipeline()).run(
            low.nir, low.env, Options(), TransformReport())
        assert not ran
        assert trace.passes[0].enabled is False


# -- equivalence with the legacy hand-wired pipeline ------------------------


def legacy_optimize(lowered, options: Options) -> TransformedProgram:
    """The pre-refactor ``optimize()`` wiring, replayed verbatim."""
    env = lowered.env
    report = TransformReport()
    program = lowered.nir
    if options.promote_loops:
        promoter = LoopPromoter(env)
        program = promoter.promote(program)
        report.promotion = promoter.report
    normalizer = Normalizer(env, comm_cse=options.comm_cse,
                            neighborhood=options.neighborhood)
    program = normalizer.normalize(program)
    report.normalize = normalizer.report
    body = unwrap_body(program)
    if options.pad_masks:
        padder = MaskPadder(env)
        body = padder.pad_program(body)
        report.masking = padder.report
    body = _eliminate_dead_scalar_stores(
        body, report.promotion.promoted_indices)
    if options.block or options.fuse:
        body = _block_recursive(body, env, options, report.blocking)
    program = wrap_body(body, env, program.name)
    result = TransformedProgram(nir=program, env=env, options=options,
                                report=report)
    if options.recheck:
        check_program(program, env)
    return result


def _run_backend(tp: TransformedProgram) -> dict[str, np.ndarray]:
    compiler = Cm2Compiler(tp.env)
    host_program = compiler.compile_program(tp.nir)
    machine = Machine(slicewise_model(64))
    HostExecutor(machine).run(host_program)
    return {name: home.data for name, home in machine.arrays.items()}


option_strategy = st.builds(
    Options,
    promote_loops=st.booleans(),
    comm_cse=st.booleans(),
    block=st.booleans(),
    fuse=st.booleans(),
    pad_masks=st.booleans(),
)


class TestLegacyEquivalence:
    @settings(max_examples=12, deadline=None)
    @given(options=option_strategy)
    def test_bit_identical_nir_and_arrays(self, options):
        new = optimize(lower(PROGRAM), options)
        old = legacy_optimize(lower(PROGRAM), options)
        assert nir.pretty(new.nir) == nir.pretty(old.nir)
        new_arrays = _run_backend(new)
        old_arrays = _run_backend(old)
        assert set(new_arrays) == set(old_arrays)
        for name, data in new_arrays.items():
            np.testing.assert_array_equal(
                data, old_arrays[name],
                err_msg=f"array {name!r} not bit-identical")

    def test_reports_match_legacy(self):
        new = optimize(lower(PROGRAM), Options())
        old = legacy_optimize(lower(PROGRAM), Options())
        assert new.report.promotion.promoted == old.report.promotion.promoted
        assert new.report.masking.padded == old.report.masking.padded
        assert new.report.blocking.phases_in == old.report.blocking.phases_in
