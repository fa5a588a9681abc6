"""Experiment drivers: one module per paper table/figure plus ablations.

Every driver is a thin wrapper that builds the matching declarative
sweep (see :mod:`repro.api.presets`), evaluates it through a
:class:`~repro.api.Session`, and shapes the results into the artefact's
row/curve dataclasses.
"""

from ..api.session import Session, SweepResult
from ..api.spec import UNLIMITED
from .ablations import (
    BypassPoint,
    ExpansionPoint,
    HierarchyPoint,
    IssueSplitPoint,
    PartitionPoint,
    run_bypass_ablation,
    run_code_expansion_ablation,
    run_issue_split_ablation,
    run_memory_hierarchy_ablation,
    run_partition_ablation,
)
from .esw_study import EswStudyRow, run_esw_study
from .ewr_figures import EwrCurve, EwrFigure, run_ewr_figure
from .formatting import format_cell, render_plot, render_table
from .generalization import (
    FamilyGeneralization,
    GeneralizationResult,
    GeneralizationRow,
    run_generalization_study,
)
from .scales import (
    EWR_DIFFERENTIALS,
    EWR_WINDOWS,
    FIGURE_PROGRAMS,
    PRESETS,
    SPEEDUP_DIFFERENTIALS,
    SPEEDUP_WINDOWS,
    TABLE1_WINDOWS,
    ScalePreset,
    active_preset,
)
from .speedup_figures import SpeedupCurve, SpeedupFigure, run_speedup_figure
from .table1 import Table1Result, Table1Row, run_table1

__all__ = [
    "BypassPoint",
    "EWR_DIFFERENTIALS",
    "EWR_WINDOWS",
    "EswStudyRow",
    "EwrCurve",
    "EwrFigure",
    "ExpansionPoint",
    "FIGURE_PROGRAMS",
    "FamilyGeneralization",
    "GeneralizationResult",
    "GeneralizationRow",
    "HierarchyPoint",
    "IssueSplitPoint",
    "PRESETS",
    "PartitionPoint",
    "SPEEDUP_DIFFERENTIALS",
    "SPEEDUP_WINDOWS",
    "ScalePreset",
    "Session",
    "SweepResult",
    "SpeedupCurve",
    "SpeedupFigure",
    "TABLE1_WINDOWS",
    "Table1Result",
    "Table1Row",
    "UNLIMITED",
    "active_preset",
    "format_cell",
    "render_plot",
    "render_table",
    "run_bypass_ablation",
    "run_code_expansion_ablation",
    "run_esw_study",
    "run_ewr_figure",
    "run_generalization_study",
    "run_issue_split_ablation",
    "run_memory_hierarchy_ablation",
    "run_partition_ablation",
    "run_speedup_figure",
    "run_table1",
]
