"""Core contribution: interaction mapper, interface model, closure.

The end-to-end pipeline lives in :mod:`repro.api` as composable stages;
this package holds the algorithms they orchestrate — Initialize/Merge
(with their incremental, partition-scoped variants), the interface model,
and closure membership (with a reusable proof cache)."""

from repro.core.closure import (
    ClosureCache,
    apply_widget_choice,
    enumerate_closure,
    expresses,
)
from repro.core.interface import Interface
from repro.core.mapper import (
    MapCache,
    MapperStats,
    PartitionIndex,
    initialize,
    initialize_indexed,
    map_interactions,
    merge_widgets,
    merge_widgets_incremental,
    pick_widget,
)
from repro.core.options import PipelineOptions

__all__ = [
    "Interface",
    "PipelineOptions",
    "MapperStats",
    "MapCache",
    "PartitionIndex",
    "pick_widget",
    "initialize",
    "initialize_indexed",
    "merge_widgets",
    "merge_widgets_incremental",
    "map_interactions",
    "ClosureCache",
    "expresses",
    "enumerate_closure",
    "apply_widget_choice",
]
