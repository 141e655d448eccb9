"""Differential fuzzing: random mini-C programs must compute identical
results on three independent execution paths:

1. the VAX tree-walking interpreter (never touches the CRISP toolchain),
2. crispcc → assembler → functional simulator,
3. crispcc (with spreading) → cycle-accurate pipeline with folding.

Any compiler, assembler, encoder, folder or pipeline bug that changes
semantics shows up as a divergence.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.baselines.vax import run_vax_model
from repro.isa.parcels import to_s32
from repro.lang import CompilerOptions, PredictionMode, compile_source
from repro.sim.cpu import run_cycle_accurate
from repro.sim.functional import run_program

VARIABLES = ("a", "b", "c0", "g0", "g1")


def _expr(depth: int):
    """Strategy for a safe integer expression string."""
    leaf = st.one_of(
        st.integers(-50, 50).map(str),
        st.sampled_from(VARIABLES),
        st.integers(0, 7).map(lambda i: f"arr[{i}]"),
    )
    if depth <= 0:
        return leaf
    sub = _expr(depth - 1)
    binary = st.tuples(sub, st.sampled_from(
        ["+", "-", "*", "&", "|", "^"]), sub).map(
        lambda t: f"({t[0]} {t[1]} {t[2]})")
    shift = st.tuples(sub, st.sampled_from(["<<", ">>"]),
                      st.integers(0, 5)).map(
        lambda t: f"({t[0]} {t[1]} {t[2]})")
    divide = st.tuples(sub, st.sampled_from(["/", "%"]),
                       st.integers(1, 9)).map(
        lambda t: f"({t[0]} {t[1]} {t[2]})")
    compare = st.tuples(sub, st.sampled_from(
        ["<", "<=", ">", ">=", "==", "!="]), sub).map(
        lambda t: f"({t[0]} {t[1]} {t[2]})")
    logical = st.tuples(sub, st.sampled_from(["&&", "||"]), sub).map(
        lambda t: f"({t[0]} {t[1]} {t[2]})")
    # parenthesize the operand: "-" + "-1" must not lex as "--"
    unary = st.tuples(st.sampled_from(["-", "~", "!"]), sub).map(
        lambda t: f"({t[0]}({t[1]}))")
    ternary = st.tuples(compare, sub, sub).map(
        lambda t: f"({t[0]} ? {t[1]} : {t[2]})")
    return st.one_of(leaf, binary, shift, divide, compare, logical,
                     unary, ternary)


def _statement(depth: int):
    target = st.sampled_from(VARIABLES + ("arr[1]", "arr[6]"))
    assign = st.tuples(target, st.sampled_from(
        ["=", "+=", "-=", "^=", "&=", "|="]), _expr(depth)).map(
        lambda t: f"{t[0]} {t[1]} {t[2]};")
    incdec = st.tuples(target, st.sampled_from(["++", "--"])).map(
        lambda t: f"{t[0]}{t[1]};")
    if depth <= 0:
        return st.one_of(assign, incdec)
    sub = _statement(depth - 1)
    if_stmt = st.tuples(_expr(1), sub, sub).map(
        lambda t: f"if ({t[0]}) {{ {t[1]} }} else {{ {t[2]} }}")
    # each nesting depth gets its own counter, so generated loops always
    # terminate
    loop = st.tuples(st.integers(1, 5), sub).map(
        lambda t: f"for (k{depth} = 0; k{depth} < {t[0]}; k{depth}++) "
                  f"{{ {t[1]} }}")
    switch = st.tuples(_expr(1), sub, sub, sub).map(
        lambda t: (f"switch (({t[0]}) & 3) {{ case 0: {t[1]} break; "
                   f"case 1: case 2: {t[2]} break; default: {t[3]} }}"))
    return st.one_of(assign, incdec, if_stmt, loop, switch)


@st.composite
def programs(draw):
    statements = draw(st.lists(_statement(2), min_size=1, max_size=6))
    init_a = draw(st.integers(-100, 100))
    init_b = draw(st.integers(-100, 100))
    body = "\n    ".join(statements)
    return f"""
int g0; int g1; int arr[8];

int main()
{{
    int a, b, c0, k0, k1, k2;
    a = {init_a}; b = {init_b}; c0 = 0;
    k0 = k1 = k2 = 0;
    {body}
    return a + 31 * b + 17 * c0 + g0 + 13 * g1
         + arr[0] + 3 * arr[1] + 5 * arr[6];
}}
"""


def reference_result(source: str) -> int:
    return to_s32(run_vax_model(source, max_instructions=2_000_000)
                  .return_value)


class TestDifferentialFuzz:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(programs())
    def test_functional_matches_interpreter(self, source):
        expected = reference_result(source)
        simulator = run_program(compile_source(source),
                                max_instructions=2_000_000)
        assert to_s32(simulator.state.accum) == expected

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(programs())
    def test_spreading_and_prediction_preserve_semantics(self, source):
        expected = reference_result(source)
        options = CompilerOptions(spreading=True,
                                  prediction=PredictionMode.TAKEN)
        simulator = run_program(compile_source(source, options),
                                max_instructions=2_000_000)
        assert to_s32(simulator.state.accum) == expected

    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(programs())
    def test_pipeline_matches_interpreter(self, source):
        expected = reference_result(source)
        options = CompilerOptions(spreading=True)
        cpu = run_cycle_accurate(compile_source(source, options))
        assert to_s32(cpu.state.accum) == expected
        functional = run_program(compile_source(source, options),
                                 max_instructions=2_000_000)
        assert (cpu.stats.executed_instructions
                == functional.stats.instructions)


class TestEngineMatrixCampaign:
    """Seeded (non-hypothesis) rounds through the widened engine matrix:
    ``engine="all"`` runs the full 4-way check (oracle, reference, fast,
    blockspec), and a worker pool must be indistinguishable from serial
    execution."""

    SEEDS = tuple(range(6))
    PROFILES = ("mixed", "branch-dense", "fold-chains")

    def _tasks(self, engine):
        from repro.verify.runner import FuzzTask
        return [FuzzTask(seed=seed, profile=profile, engine=engine)
                for seed in self.SEEDS for profile in self.PROFILES]

    def test_four_way_agreement_on_seeded_round(self):
        from repro.verify.runner import run_fuzz_task
        for task in self._tasks("all"):
            report = run_fuzz_task(task)
            assert report.ok, (task, report.mismatches)

    def test_serial_campaign_equals_jobs_4(self):
        """Serial vs a ``--jobs 4`` worker pool: the reports must come
        out byte-identical, so campaign output never depends on which
        scheduler produced it."""
        from repro.eval.parallel import map_ordered
        from repro.verify.runner import run_fuzz_task
        tasks = self._tasks("all")
        serial = map_ordered(run_fuzz_task, tasks)
        assert serial == map_ordered(run_fuzz_task, tasks, jobs=4)
