"""Compiled-dispatch equivalence: the executor vs the reference loop.

The decode-every-instruction loop in ``tests/shader/reference_interpreter``
is the oracle: for every opcode family the compiled program must produce
bit-identical environment side effects, discard/complete masks and
recorded traces — not merely "close" results, since the timing model
replays the trace and any drift changes the event schedule.

Every program compared against the oracle lives in :data:`PROGRAMS`, so
:class:`TestOracleCoverage` can check that each :class:`Opcode` is
exercised by at least one of them.
"""

import numpy as np
import pytest

from repro.shader.compiler import _DISPATCH_CACHE, dispatch_for
from repro.shader.interpreter import WarpInterpreter
from repro.shader.isa import Opcode
from repro.shader.program import assemble

from tests.shader.fake_env import FakeEnv
from tests.shader.reference_interpreter import ReferenceInterpreter

LANES = np.arange(8.0)

#: name -> (assembly, stage, FakeEnv kwargs, initial mask)
PROGRAMS = {
    "straight_line_alu": ("""
        mov r0, 2.0
        add r1, r0, 3.0
        mul r2, r1, r1
        mad r3, r2, r0, r1
        rsqrt r4, r2
        min r5, r3, r4
        st.out o0, r5
        exit
    """, "fragment", {}, None),
    "divergent_branch": ("""
        ld.vary r0, v0
        setp.lt p0, r0, 4.0
        @p0 bra small
        mul r1, r0, 2.0
        bra join
    small:
        add r1, r0, 100.0
    join:
        st.out o0, r1
        exit
    """, "fragment", {"varyings": {0: LANES}}, None),
    "predicated_discard": ("""
        ld.vary r0, v0
        setp.ge p0, r0, 5.0
        @p0 discard
        st.out o0, r0
        exit
    """, "fragment", {"varyings": {0: LANES}}, None),
    "memory_ops": ("""
        zread r0
        mov r1, 0.25
        zwrite r1
        fb.read r2, r3, r4, r5
        fb.write r1, r1, r1, r1
        exit
    """, "fragment", {}, None),
    "partial_mask": ("""
        ld.vary r0, v0
        add r0, r0, 1.0
        st.out o0, r0
        exit
    """, "fragment", {"varyings": {0: LANES}},
        np.array([1, 0, 1, 0, 1, 0, 1, 0], dtype=bool)),
    # Lane values straddle zero so the SFU ops hit their inf/nan edges
    # (division by zero, sqrt/log2 of negatives) on both paths.
    "alu_sfu_families": ("""
        ld.vary r0, v0
        sub r1, r0, 3.0
        div r2, r0, r1
        max r3, r1, r2
        abs r4, r1
        neg r5, r4
        floor r6, r2
        frac r7, r2
        rcp r8, r1
        sqrt r9, r1
        sin r10, r0
        cos r11, r0
        exp2 r12, r1
        log2 r13, r1
        pow r14, r1, 0.5
        add r15, r3, r5
        add r15, r15, r6
        add r15, r15, r7
        add r15, r15, r8
        st.out o0, r15
        st.out o1, r9
        st.out o2, r10
        st.out o3, r11
        st.out o4, r12
        st.out o5, r13
        st.out o6, r14
        exit
    """, "fragment", {"varyings": {0: LANES}}, None),
    "predicate_logic": ("""
        ld.vary r0, v0
        setp.le p0, r0, 5.0
        setp.gt p1, r0, 1.0
        setp.eq p2, r0, 3.0
        setp.ne p3, r0, 6.0
        pand p4, p0, p1
        por p5, p2, p3
        pnot p6, p5
        sel r1, p4, 10.0, 20.0
        sel r2, p6, r0, 7.0
        @p6 discard
        st.out o0, r1
        st.out o1, r2
        exit
    """, "fragment", {"varyings": {0: LANES}}, None),
    "vertex_inputs_and_global": ("""
        .attr pos 1
        .uniform k 1
        ld.attr r0, a0
        ld.const r1, c0
        mul r2, r0, r1
        mov r3, 64.0
        st.global r3, r2
        ld.global r4, r3
        st.out o0, r4
        exit
    """, "vertex", {"attributes": {0: LANES}, "constants": {0: 1.5}}, None),
    "texture_and_stencil": ("""
        .vary uv 2
        .tex albedo
        ld.vary r0, v0
        ld.vary r1, v1
        tex r2, r3, r4, r5, t0, r0, r1
        sread r6
        add r6, r6, 1.0
        swrite r6
        st.out o0, r2
        st.out o1, r3
        exit
    """, "fragment", {"varyings": {0: np.linspace(0, 1, 8),
                                   1: np.full(8, 0.5)},
                      "textures": {0: lambda u, v: (u, v, 0.0, 1.0)}},
        None),
}


def run_both(name):
    asm, stage, env_kwargs, initial_mask = PROGRAMS[name]
    program = assemble(asm, stage=stage)
    fast_env, ref_env = FakeEnv(**env_kwargs), FakeEnv(**env_kwargs)
    fast = WarpInterpreter(program, fast_env).run(initial_mask)
    ref = ReferenceInterpreter(program, ref_env).run(initial_mask)
    return fast, ref, fast_env, ref_env


def assert_identical(fast, ref, fast_env, ref_env):
    assert np.array_equal(fast.discarded, ref.discarded)
    assert np.array_equal(fast.completed, ref.completed)
    assert len(fast.trace.ops) == len(ref.trace.ops)
    for fop, rop in zip(fast.trace.ops, ref.trace.ops):
        assert fop.op is rop.op
        assert fop.pc == rop.pc
        assert fop.active_lanes == rop.active_lanes
        assert [(a.space, a.address, a.size, a.write) for a in fop.accesses] \
            == [(a.space, a.address, a.size, a.write) for a in rop.accesses]
    assert sorted(fast_env.outputs) == sorted(ref_env.outputs)
    for slot, values in fast_env.outputs.items():
        # equal_nan: NaN lanes (e.g. sqrt of a negative) must match too.
        assert np.array_equal(values, ref_env.outputs[slot], equal_nan=True)
    assert np.array_equal(fast_env.depth, ref_env.depth)
    assert np.array_equal(fast_env.color, ref_env.color)
    assert np.array_equal(fast_env.stencil, ref_env.stencil)
    assert fast_env.global_memory == ref_env.global_memory


class TestEquivalence:
    def test_straight_line_alu(self):
        assert_identical(*run_both("straight_line_alu"))

    def test_divergent_branch_reconverges(self):
        assert_identical(*run_both("divergent_branch"))

    def test_predicated_discard(self):
        fast, ref, fe, re_ = run_both("predicated_discard")
        assert fast.discarded.sum() == 3
        assert_identical(fast, ref, fe, re_)

    def test_memory_ops_and_trace_addresses(self):
        assert_identical(*run_both("memory_ops"))

    def test_partial_initial_mask(self):
        fast, ref, fe, re_ = run_both("partial_mask")
        assert fast.trace.ops[0].active_lanes == 4
        assert_identical(fast, ref, fe, re_)

    @pytest.mark.parametrize("name", sorted(PROGRAMS))
    def test_program_matches_the_oracle(self, name):
        assert_identical(*run_both(name))


class TestOracleCoverage:
    def test_every_opcode_runs_against_the_oracle(self):
        """A compiled handler cannot lose its oracle check unnoticed: each
        opcode must appear in some program that
        test_program_matches_the_oracle compares."""
        covered = {instr.op
                   for asm, stage, _, _ in PROGRAMS.values()
                   for instr in assemble(asm, stage=stage).instructions}
        missing = sorted(op.name for op in Opcode if op not in covered)
        assert missing == []


class TestDispatchCache:
    def test_cache_hit_keyed_by_digest_and_width(self):
        asm = "mov r0, 1.0\nst.out o0, r0\nexit"
        a = assemble(asm, stage="fragment")
        b = assemble(asm, stage="fragment")
        first = dispatch_for(a, 8)
        assert dispatch_for(b, 8) is first          # same digest, same table
        assert dispatch_for(a, 16) is not first     # width is part of the key

    def test_distinct_programs_get_distinct_tables(self):
        a = assemble("mov r0, 1.0\nexit", stage="fragment")
        b = assemble("mov r0, 2.0\nexit", stage="fragment")
        assert a.digest != b.digest
        assert dispatch_for(a, 8) is not dispatch_for(b, 8)

    def test_cache_backstop_clears_instead_of_growing(self):
        from repro.shader import compiler
        saved = dict(_DISPATCH_CACHE)
        try:
            _DISPATCH_CACHE.clear()
            _DISPATCH_CACHE.update({
                ("fake", i): None for i in range(compiler._DISPATCH_CACHE_MAX)
            })
            program = assemble("exit", stage="fragment")
            dispatch_for(program, 8)
            assert len(_DISPATCH_CACHE) == 1
        finally:
            _DISPATCH_CACHE.clear()
            _DISPATCH_CACHE.update(saved)
