"""Relaxation model building, export, feasibility, and the gap family."""

import math
import random
from fractions import Fraction

import pytest

from dcs import (
    DomainMismatch,
    FractionalSolution,
    MA,
    build_lp,
    check_feasible,
    exact_best,
    export_lp,
    gap_report,
    gen_gap_instance,
    harmonic_solution,
    lp,
    parse,
    score,
)
from dcs.lp import harmonic_number
from helpers import random_temporal

TINY = parse("3 2\n0 0 1\n1 0 1\n1 1 2\n")


def test_build_lp_counts():
    m = build_lp(TINY)
    assert len(m.variables) == 6      # 3 y + 2 x + z
    assert len(m.constraints) == 7    # 1 + 2*2 + 2
    single = build_lp(parse("2 1\n0 0 1\n"))
    assert len(single.variables) == 4 and len(single.constraints) == 4
    edgeless = build_lp(parse("3 1\n"))
    frame = [c for c in edgeless.constraints if c.name == "frame_0"][0]
    assert frame.terms == ((1, "z"),) and frame.sense == "<=" and frame.rhs == 0


def test_counts_and_export_build_no_row_objects(monkeypatch):
    def no_rows(*args):
        raise AssertionError("an LPConstraint was built")

    monkeypatch.setattr(lp, "LPConstraint", no_rows)
    m = build_lp(TINY)
    assert (len(m.variables), len(m.constraints)) == (6, 7)
    # three header lines, the rows, "Bounds", one bound per variable, "End"
    assert export_lp(m).count("\n") == 3 + 7 + 1 + 6 + 1


def test_constraints_index_like_a_tuple():
    rows = build_lp(TINY).constraints
    whole = tuple(rows)
    assert len(whole) == len(rows) == 7
    assert rows[-1] == whole[-1] and rows[-1].name == "frame_1"
    assert rows[1:5:2] == whole[1:5:2] and rows[::-1] == whole[::-1]
    assert rows.index(whole[3]) == 3 and whole[2] in rows
    for bad in (7, -8):
        with pytest.raises(IndexError):
            rows[bad]


def test_variable_naming_and_order():
    m = build_lp(TINY)
    assert m.variables == ("y0", "y1", "y2", "x_0_1", "x_1_2", "z")


def test_export_structure_and_determinism():
    m = build_lp(TINY)
    text = export_lp(m)
    assert text.splitlines()[0] == "Maximize"
    for section in ("Subject To", "Bounds", "End"):
        assert f"\n{section}\n" in text or text.endswith(f"{section}\n")
    assert " normalize: y0 + y1 + y2 = 1" in text
    assert " x_0_1_le_y0: x_0_1 - y0 <= 0" in text
    assert " frame_1: z - x_0_1 - x_1_2 <= 0" in text
    assert export_lp(build_lp(TINY)) == text


def test_check_feasible_zero_solution():
    n = 4
    g = gen_gap_instance(n)
    f = FractionalSolution(
        y={v: Fraction(1, n) for v in range(n)},
        x={e: Fraction(0) for e in g.union_edges},
        z=Fraction(0),
    )
    feasible, objective, violations = check_feasible(g, f)
    assert feasible and objective == 0 and violations == []


def test_check_feasible_harmonic_and_bumped():
    g, f = harmonic_solution(4)
    feasible, objective, violations = check_feasible(g, f)
    assert feasible and objective == Fraction(6, 17) and not violations
    bumped = FractionalSolution(y=f.y, x=f.x, z=f.z + Fraction(1, 1000))
    feasible, _, violations = check_feasible(g, bumped)
    assert not feasible
    assert any(v.startswith("frame_") for v in violations)


def test_check_feasible_domain_mismatch():
    g, f = harmonic_solution(3)
    with pytest.raises(DomainMismatch):
        check_feasible(g, FractionalSolution(y={0: Fraction(1)}, x=f.x, z=f.z))
    with pytest.raises(DomainMismatch):
        check_feasible(g, FractionalSolution(y=f.y, x={}, z=f.z))


def test_harmonic_solution_values():
    g, f = harmonic_solution(4)
    assert f.z == Fraction(6, 17)
    assert [f.y[i] for i in range(4)] == [
        Fraction(6, 17), Fraction(6, 17), Fraction(3, 17), Fraction(2, 17)
    ]
    for t in range(g.T):
        assert sum(f.x[e] for e in g.frames[t]) == Fraction(6, 17)
    assert harmonic_solution(3)[1].z == Fraction(2, 5)
    g2, f2 = harmonic_solution(2)
    assert g2.T == 1 and len(g2.union_edges) == 1 and f2.z == Fraction(1, 2)


def test_harmonic_mass_sums_to_one():
    for n in range(2, 12):
        _, f = harmonic_solution(n)
        assert sum(f.y.values()) == 1


def test_gap_report_examples():
    r = gap_report(4)
    assert (r.lp_value, r.integral_opt, r.ratio) == (
        Fraction(6, 17), Fraction(1, 4), Fraction(24, 17)
    )
    r = gap_report(3)
    assert (r.lp_value, r.integral_opt, r.ratio) == (
        Fraction(2, 5), Fraction(1, 3), Fraction(6, 5)
    )
    assert gap_report(8).integral_opt == Fraction(1, 8)


def test_gap_report_at_n18_across_oracle_chunks():
    # 17 frames and 2^18 masks: eight 2^15-mask oracle chunks
    assert gap_report(18).ratio == Fraction(220540320, 54394463)


def test_gap_instance_every_proper_subset_scores_zero():
    for n in range(2, 8):
        g = gen_gap_instance(n)
        full = tuple(range(n))
        assert score(g, full, MA).value == Fraction(1, n)
        for mask in range(1, 2**n - 1):
            members = [v for v in range(n) if mask >> v & 1]
            assert score(g, members, MA).value == 0


def test_gap_ratio_numeric_lower_bound():
    for n in range(3, 65):
        ratio = Fraction(n) / (1 + harmonic_number(n - 1))
        assert float(ratio) >= n / (math.log(n - 1) + 2)


def test_single_frame_lp_admits_classical_solution():
    rng = random.Random(97)
    for _ in range(15):
        n = rng.randint(2, 8)
        g = random_temporal(rng, n, 1)
        size = rng.randint(1, n)
        members = sorted(rng.sample(range(n), size))
        inside = set(members)
        induced = [e for e in g.union_edges if e[0] in inside and e[1] in inside]
        f = FractionalSolution(
            y={v: (Fraction(1, size) if v in inside else Fraction(0)) for v in range(n)},
            x={e: (Fraction(1, size) if e in induced else Fraction(0))
               for e in g.union_edges},
            z=Fraction(len(induced), size),
        )
        feasible, objective, violations = check_feasible(g, f)
        assert feasible, violations
        assert objective == score(g, members, MA).value


def test_gap_report_lower_bounds_true_lp_value():
    # the harmonic value is certified feasible, so it cannot exceed the
    # integral optimum times the reported ratio by construction; sanity-check
    # coherence of the three fields
    for n in (3, 5, 7):
        r = gap_report(n)
        assert r.ratio == r.lp_value / r.integral_opt
        assert r.ratio == Fraction(n) / (1 + harmonic_number(n - 1))
