"""Machine-readable views of every reproduced exhibit.

``crisp-eval <exhibit> --json`` prints one JSON object per exhibit so
tooling can diff reproduced numbers across runs (the same motivation as
the :mod:`repro.obs.manifest` run documents — these are the evaluation-
layer equivalent). Each document carries ``exhibit`` plus the measured
rows and, where the paper states them, the paper's numbers.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Any


def table1_json(synthetic_events: int) -> dict[str, Any]:
    from repro.eval.table1 import PAPER_TABLE1, run_table1
    rows = []
    for row in run_table1(synthetic_events):
        data = asdict(row)
        data["paper"] = PAPER_TABLE1[row.program]
        rows.append(data)
    return {"exhibit": "table1", "rows": rows}


def table2_json() -> dict[str, Any]:
    from repro.eval.table2 import (
        PAPER_CRISP_COUNTS,
        PAPER_CRISP_TOTAL,
        PAPER_VAX_COUNTS,
        PAPER_VAX_TOTAL,
        run_table2,
    )
    result = run_table2()
    return {
        "exhibit": "table2",
        "crisp": {"total": result.crisp.instructions,
                  "paper_total": PAPER_CRISP_TOTAL,
                  "grouped_counts": result.crisp_grouped(),
                  "paper_counts": dict(PAPER_CRISP_COUNTS)},
        "vax": {"total": result.vax.total_instructions,
                "paper_total": PAPER_VAX_TOTAL,
                "opcode_counts": dict(result.vax.opcode_counts),
                "paper_counts": dict(PAPER_VAX_COUNTS)},
    }


def table3_json() -> dict[str, Any]:
    from repro.eval.table3 import run_table3
    result = run_table3()
    return {
        "exhibit": "table3",
        "unspread_gaps": result.unspread_gaps,
        "spread_gaps": result.spread_gaps,
        "if_branch_spread_distance": result.if_branch_spread_distance,
        "unspread_listing": result.unspread_listing,
        "spread_listing": result.spread_listing,
    }


def _table4_case_row(case_name: str) -> dict[str, Any]:
    """One attributed Table-4 JSON row (parallel-runner worker)."""
    from repro.eval.table4 import (
        CASE_DEFINITIONS,
        PAPER_TABLE4,
        case_program_config,
    )
    from repro.obs.attrib import attribute_run

    case = next(c for c in CASE_DEFINITIONS if c.name == case_name)
    program, config = case_program_config(case)
    cpu, table = attribute_run(program, config)
    return {
        "case": case.name,
        "folding": case.folding,
        "prediction": case.prediction,
        "spreading": case.spreading,
        "relative_performance": 0.0,
        "paper": PAPER_TABLE4[case.name],
        "metrics": cpu.stats.as_dict(),
        "sites": table.as_dict(),
    }


def table4_json(jobs: int | None = None,
                recorder=None) -> dict[str, Any]:
    """Table 4 with a per-site attribution section per case.

    Each case runs once with an attribution sink attached (sinks do not
    change simulated timing), so ``metrics`` stays identical to
    :func:`repro.eval.table4.run_table4` while ``sites`` adds the
    per-branch-site breakdown the aggregate rows cannot show. ``jobs``
    fans the cases out over worker processes with an ordered merge —
    the emitted document is byte-identical to the serial one.
    ``recorder`` collects out-of-band campaign telemetry.
    """
    from repro.eval.parallel import map_ordered
    from repro.eval.table4 import CASE_DEFINITIONS

    rows = map_ordered(_table4_case_row,
                       [case.name for case in CASE_DEFINITIONS],
                       jobs,
                       recorder=recorder,
                       labeler=lambda case_name: f"table4/{case_name}")
    reference = rows[0]["metrics"]["cycles"]
    for row in rows:
        row["relative_performance"] = reference / row["metrics"]["cycles"]
    return {"exhibit": "table4", "rows": rows}


def dynfold_json(jobs: int | None = None,
                 recorder=None) -> dict[str, Any]:
    """The dynamic-fold exhibit: Table-4 cases × fold-policy variants."""
    from repro.eval.table4 import run_dynfold
    rows = []
    for row in run_dynfold(jobs=jobs, recorder=recorder):
        rows.append({
            "case": row.case.name,
            "variant": row.label,
            "confidence": row.confidence,
            "relative_performance": row.relative_performance,
            "metrics": row.stats.as_dict(),
        })
    return {"exhibit": "dynfold", "rows": rows}


def figures_json() -> dict[str, Any]:
    from repro.eval.figures import nextpc_datapath_cases, pipeline_structure
    return {
        "exhibit": "figures",
        "figure1_blocks": [asdict(report)
                           for report in pipeline_structure()],
        "figure2_nextpc_cases": [asdict(case)
                                 for case in nextpc_datapath_cases()],
    }


def branch_stats_json() -> dict[str, Any]:
    from repro.eval.branch_stats import (
        aggregate_one_parcel_fraction,
        run_branch_stats,
    )
    rows = run_branch_stats()
    return {
        "exhibit": "branch-stats",
        "rows": [asdict(row) for row in rows],
        "one_parcel_fraction": aggregate_one_parcel_fraction(rows),
    }


def exhibit_json(name: str, synthetic_events: int = 100_000,
                 jobs: int | None = None,
                 recorder=None) -> dict[str, Any]:
    """The JSON document for one exhibit name (as the CLI spells it).

    ``jobs`` parallelises exhibits built from independent simulations
    (currently table4/dynfold) and ``recorder`` collects campaign
    telemetry for them; the other exhibits ignore both.
    """
    builders = {
        "table1": lambda: table1_json(synthetic_events),
        "table2": table2_json,
        "table3": table3_json,
        "table4": lambda: table4_json(jobs, recorder),
        "dynfold": lambda: dynfold_json(jobs, recorder),
        "figures": figures_json,
        "branch-stats": branch_stats_json,
    }
    try:
        return builders[name]()
    except KeyError:
        raise ValueError(f"no JSON view for exhibit {name!r}") from None
