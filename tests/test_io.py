"""Unit tests for the repro.io package (serialize, dot, matrixfmt)."""

import json

import numpy as np
import pytest

from repro.core import Assignment, Clustering, collect_matrices
from repro.io import (
    assignment_from_dict,
    assignment_to_dict,
    clustered_graph_to_dot,
    clustering_from_dict,
    clustering_to_dict,
    format_matrix,
    format_paper_matrices,
    format_vector,
    load_instance,
    save_instance,
    system_graph_from_dict,
    system_graph_to_dict,
    task_graph_from_dict,
    task_graph_to_dict,
)
from repro.topology import SystemGraph, hypercube, ring
from repro.utils import GraphError
from repro.workloads import (
    layered_random_dag,
    running_example_assignment_vector,
    running_example_clustered,
    running_example_system,
)


class TestSerialize:
    def test_task_graph_round_trip(self):
        g = layered_random_dag(num_tasks=30, rng=0)
        assert task_graph_from_dict(task_graph_to_dict(g)) == g

    def test_system_graph_round_trip(self):
        s = hypercube(3)
        assert system_graph_from_dict(system_graph_to_dict(s)) == s

    def test_clustering_round_trip(self):
        c = Clustering([0, 1, 0, 2])
        assert clustering_from_dict(clustering_to_dict(c)) == c

    def test_assignment_round_trip(self):
        a = Assignment([2, 0, 1, 3])
        assert assignment_from_dict(assignment_to_dict(a)) == a

    def test_json_serializable(self):
        g = layered_random_dag(num_tasks=20, rng=1)
        text = json.dumps(task_graph_to_dict(g))
        assert task_graph_from_dict(json.loads(text)) == g

    def test_instance_round_trip(self, tmp_path):
        g = layered_random_dag(num_tasks=20, rng=1)
        s = ring(5)
        c = Clustering([t % 5 for t in range(20)])
        a = Assignment([4, 3, 2, 1, 0])
        path = tmp_path / "instance.json"
        save_instance(path, g, s, c, a)
        g2, s2, c2, a2 = load_instance(path)
        assert g2 == g and s2 == s and c2 == c and a2 == a

    def test_weighted_instance_round_trip(self, tmp_path):
        g = layered_random_dag(num_tasks=20, rng=1)
        s = SystemGraph(ring(4).sys_edge, link_weights=3 * ring(4).sys_edge)
        path = tmp_path / "weighted.json"
        save_instance(path, g, s)
        _, s2, _, _ = load_instance(path)
        assert s2 == s
        assert s2.shortest[0].tolist() == [0, 3, 6, 3]

    def test_unit_machine_writes_no_link_weights(self):
        assert "link_weights" not in system_graph_to_dict(ring(4))

    @pytest.mark.parametrize("triple", [[0, 2, 3], [-1, 0, 3], [0, 4, 3]])
    def test_link_weight_off_the_links_rejected(self, triple):
        data = system_graph_to_dict(ring(4))
        data["link_weights"] = [triple]
        with pytest.raises(GraphError, match="is not on a link"):
            system_graph_from_dict(data)

    def test_instance_optional_parts(self, tmp_path):
        g = layered_random_dag(num_tasks=10, rng=2)
        s = ring(4)
        path = tmp_path / "bare.json"
        save_instance(path, g, s)
        g2, s2, c2, a2 = load_instance(path)
        assert g2 == g and s2 == s
        assert c2 is None and a2 is None

    def test_wrong_kind_rejected(self):
        with pytest.raises(GraphError, match="expected a serialized"):
            task_graph_from_dict({"kind": "assignment", "version": 1})

    def test_wrong_version_rejected(self):
        g = layered_random_dag(num_tasks=5, rng=0)
        data = task_graph_to_dict(g)
        data["version"] = 99
        with pytest.raises(GraphError, match="version"):
            task_graph_from_dict(data)


class TestDot:
    def test_task_graph_dot(self):
        from repro.io import task_graph_to_dot
        from repro.workloads import running_example_task_graph

        dot = task_graph_to_dot(running_example_task_graph())
        assert dot.startswith("digraph")
        assert dot.count("->") == 20  # one line per edge
        assert '"2"' in dot  # an edge weight label

    def test_system_graph_dot(self):
        from repro.io import system_graph_to_dot

        dot = system_graph_to_dot(ring(4))
        assert dot.startswith("graph")
        assert dot.count("--") == 4

    def test_clustered_dot_has_subgraphs(self):
        dot = clustered_graph_to_dot(running_example_clustered())
        assert dot.count("subgraph cluster_") == 4
        assert "style=dashed" in dot  # intra-cluster edges


class TestMatrixFmt:
    def test_format_matrix_blank_zeros(self):
        mat = np.asarray([[0, 2], [0, 0]])
        text = format_matrix(mat)
        assert "2" in text
        assert "0" not in text.splitlines()[-1]  # zeros blanked

    def test_format_matrix_explicit_zeros(self):
        mat = np.zeros((2, 2), dtype=int)
        text = format_matrix(mat, blank_zeros=False)
        assert "0" in text

    def test_format_vector(self):
        text = format_vector(np.asarray([0, 2, 3]), title="v")
        assert text.splitlines()[0] == "v"
        assert "2" in text

    def test_rejects_wrong_rank(self):
        with pytest.raises(ValueError):
            format_matrix(np.zeros(3))
        with pytest.raises(ValueError):
            format_vector(np.zeros((2, 2)))

    def test_full_paper_bundle(self):
        matrices = collect_matrices(
            running_example_clustered(),
            running_example_system(),
            Assignment(running_example_assignment_vector()),
        )
        text = format_paper_matrices(matrices)
        for fig in ("Fig. 18", "Fig. 19-a", "Fig. 20-b", "Fig. 21-a",
                    "Fig. 22-a", "Fig. 23-b", "Fig. 23-d"):
            assert fig in text

    def test_bundle_without_assignment(self):
        matrices = collect_matrices(
            running_example_clustered(), running_example_system()
        )
        assert matrices.assi is None
        text = format_paper_matrices(matrices)
        assert "Fig. 23-b" not in text


class TestPaperMatricesObject:
    def test_as_dict_keys(self):
        matrices = collect_matrices(
            running_example_clustered(), running_example_system()
        )
        d = matrices.as_dict()
        assert "prob_edge" in d and "crit_edge" in d
        assert "assi" not in d  # no assignment supplied

    def test_c_abs_edge_has_degree_column(self):
        matrices = collect_matrices(
            running_example_clustered(), running_example_system()
        )
        assert matrices.c_abs_edge.shape == (4, 5)
        assert matrices.c_abs_edge[0, 4] == 9  # critical degree of node 0


class TestJsonl:
    """The tail-tolerant JSONL reader's contract (see repro.io.jsonl)."""

    def write(self, tmp_path, text, name="records.jsonl"):
        path = tmp_path / name
        path.write_text(text)
        return path

    def test_round_trip(self, tmp_path):
        from repro.io import read_jsonl, write_record

        records = [{"key": f"k{i}", "value": i} for i in range(5)]
        path = tmp_path / "records.jsonl"
        with path.open("w") as fh:
            for record in records:
                write_record(fh, record)
        assert read_jsonl(path) == records

    def test_dumps_record_is_canonical(self):
        from repro.io import dumps_record

        assert dumps_record({"b": 1, "a": 2}) == '{"a":2,"b":1}'

    def test_empty_file_is_empty_result(self, tmp_path):
        from repro.io import read_jsonl

        path = self.write(tmp_path, "")
        assert read_jsonl(path) == []
        assert read_jsonl(path, tolerate_partial=False) == []

    def test_blank_lines_skipped(self, tmp_path):
        from repro.io import read_jsonl

        path = self.write(tmp_path, '\n\n{"a": 1}\n\n   \n')
        assert read_jsonl(path) == [{"a": 1}]

    def test_torn_tail_after_many_records_dropped(self, tmp_path):
        from repro.io import read_jsonl

        good = [{"key": f"k{i}"} for i in range(4)]
        text = "".join(json.dumps(r) + "\n" for r in good)
        # the killed writer got half a record out, no trailing newline
        path = self.write(tmp_path, text + '{"key": "k4", "val')
        assert read_jsonl(path) == good

    def test_torn_tail_rejected_when_strict(self, tmp_path):
        from repro.io import read_jsonl

        path = self.write(tmp_path, '{"a": 1}\n{"b": ')
        with pytest.raises(GraphError, match="line 2"):
            read_jsonl(path, tolerate_partial=False)

    def test_torn_line_mid_file_always_raises(self, tmp_path):
        from repro.io import read_jsonl

        path = self.write(tmp_path, '{"a": 1}\n{"b": \n{"c": 3}\n')
        with pytest.raises(GraphError, match="line 2"):
            read_jsonl(path)

    @pytest.mark.parametrize("bad", ["[1, 2, 3]", '"a string"', "42", "null"])
    def test_non_dict_json_lines_always_raise(self, tmp_path, bad):
        # A parseable non-object can never be a torn record (no proper
        # prefix of a serialized object is valid JSON), so it is corruption
        # even on the final line, with or without tolerance.
        from repro.io import read_jsonl

        path = self.write(tmp_path, '{"a": 1}\n' + bad + "\n")
        with pytest.raises(GraphError, match="not an object"):
            read_jsonl(path)
        with pytest.raises(GraphError, match="not an object"):
            read_jsonl(path, tolerate_partial=False)

    def test_non_dict_mid_file_raises(self, tmp_path):
        from repro.io import read_jsonl

        path = self.write(tmp_path, '[]\n{"a": 1}\n')
        with pytest.raises(GraphError, match="line 1"):
            read_jsonl(path)
