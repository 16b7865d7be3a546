"""I/O: JSON round-tripping, JSONL streaming, DOT export, matrix printing."""

from .dot import clustered_graph_to_dot, system_graph_to_dot, task_graph_to_dot
from .jsonl import dumps_record, read_jsonl, write_record
from .matrixfmt import format_matrix, format_paper_matrices, format_vector
from .serialize import (
    assignment_from_dict,
    assignment_to_dict,
    clustering_from_dict,
    clustering_to_dict,
    load_instance,
    save_instance,
    system_graph_from_dict,
    system_graph_to_dict,
    task_graph_from_dict,
    task_graph_to_dict,
)

__all__ = [
    "assignment_from_dict",
    "assignment_to_dict",
    "clustered_graph_to_dot",
    "clustering_from_dict",
    "clustering_to_dict",
    "dumps_record",
    "format_matrix",
    "format_paper_matrices",
    "format_vector",
    "load_instance",
    "read_jsonl",
    "save_instance",
    "write_record",
    "system_graph_from_dict",
    "system_graph_to_dict",
    "task_graph_from_dict",
    "task_graph_to_dict",
]
