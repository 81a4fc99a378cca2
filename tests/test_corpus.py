import json
import re

import pytest

from latticepath.corpus import (
    CorpusFormatError,
    GenerationConfig,
    Trajectory,
    UnreachableGoalError,
    check_trajectory,
    generate_corpus,
    oracle_path,
    read_jsonl,
    read_records,
    record_from_dict,
    record_to_dict,
    split_tags,
    splitmix64,
    validate_path,
    write_jsonl,
    write_records,
)
from latticepath.lattice import LatticeCoord, Workspace, desk_workspace, manhattan

C = LatticeCoord


def small_cfg(count=20, density=0.0):
    return GenerationConfig(
        workspace=Workspace(-2, 2, -2, 2, 0, 2),
        count=count,
        obstacle_density=density,
        max_path_length=16,
    )


def test_trajectory_requires_points():
    with pytest.raises(ValueError):
        Trajectory(points=())


def test_oracle_path_includes_both_endpoints():
    w = desk_workspace()
    t = oracle_path(C(0, 0, 0), C(2, 1, 0), w)
    assert t.start == C(0, 0, 0)
    assert t.end == C(2, 1, 0)
    assert len(t) == 4
    check_trajectory(t, w)


def test_oracle_path_is_manhattan_optimal_without_obstacles():
    w = desk_workspace()
    for goal in (C(3, 3, 4), C(-3, 2, 1), C(0, -3, 2)):
        t = oracle_path(C(0, 0, 0), goal, w)
        assert len(t) - 1 == manhattan(C(0, 0, 0), goal)


def test_oracle_path_detours_around_obstacle():
    """A blocked straight corridor forces the canonical 5-point bypass."""
    w = desk_workspace().with_obstacles({C(1, 0, 0)})
    t = oracle_path(C(0, 0, 0), C(2, 0, 0), w)
    assert t.points == (C(0, 0, 0), C(0, 1, 0), C(1, 1, 0), C(2, 1, 0), C(2, 0, 0))


def test_oracle_path_single_cell():
    t = oracle_path(C(1, 1, 1), C(1, 1, 1), desk_workspace())
    assert t.points == (C(1, 1, 1),)


def test_oracle_path_unreachable_goal():
    # seal off (2,2,0) in a flat corner
    w = Workspace(0, 2, 0, 2, 0, 0, obstacles=frozenset({C(1, 2, 0), C(2, 1, 0)}))
    with pytest.raises(UnreachableGoalError):
        oracle_path(C(0, 0, 0), C(2, 2, 0), w)


def test_oracle_path_rejects_out_of_bounds_endpoints():
    w = desk_workspace()
    with pytest.raises(ValueError):
        oracle_path(C(99, 0, 0), C(0, 0, 0), w)
    with pytest.raises(ValueError):
        oracle_path(C(0, 0, 0), C(99, 0, 0), w)


def test_splitmix64_reference_value_and_range():
    # first output of the splitmix64 reference stream for seed 0
    assert splitmix64(0) == 0xE220A8397B1DCDAF
    seen = set()
    state = 0
    for _ in range(100):
        state = splitmix64(state)
        assert 0 <= state < (1 << 64)
        seen.add(state)
    assert len(seen) == 100


def test_generation_is_deterministic():
    a = generate_corpus(small_cfg(), seed=11)
    b = generate_corpus(small_cfg(), seed=11)
    assert a == b
    c = generate_corpus(small_cfg(), seed=12)
    assert a != c


def test_generated_records_are_legal_and_targeted():
    for r in generate_corpus(small_cfg(count=30, density=0.05), seed=3):
        check_trajectory(r.trajectory, r.workspace)
        assert r.context.target == r.trajectory.end
        assert r.context.sequence_length_hint == len(r.trajectory)
        assert len(r.trajectory) <= 16


def test_split_exact_counts():
    records = generate_corpus(small_cfg(count=1000), seed=5)
    tags = [r.split_tag for r in records]
    assert tags.count("train") == 800
    assert tags.count("validation") == 200


def test_split_is_stable_under_reordering():
    records = generate_corpus(small_cfg(count=50), seed=9)
    seeds = [r.trajectory.seed for r in records]
    assert split_tags(seeds, 0.8) == [r.split_tag for r in records]
    reordered = seeds[::-1]
    assert split_tags(reordered, 0.8) == [r.split_tag for r in reversed(records)]


def test_split_rejects_degenerate_fractions():
    seeds = [r.trajectory.seed for r in generate_corpus(small_cfg(count=5), seed=1)]
    with pytest.raises(ValueError):
        split_tags(seeds, 0.0)
    with pytest.raises(ValueError):
        split_tags(seeds, 1.0)


def test_generation_config_validation():
    with pytest.raises(ValueError):
        small_cfg(density=0.5)
    with pytest.raises(ValueError):
        GenerationConfig(workspace=desk_workspace(), count=-1)
    with pytest.raises(ValueError):
        GenerationConfig(workspace=desk_workspace(), max_path_length=1)


def test_record_dict_round_trip():
    records = generate_corpus(small_cfg(count=8, density=0.05), seed=2)
    for r in records:
        assert record_from_dict(record_to_dict(r)) == r


def test_write_read_round_trip(tmp_path):
    records = generate_corpus(small_cfg(count=12), seed=4)
    path = tmp_path / "corpus.jsonl"
    write_records(path, records)
    assert read_records(path) == records


def test_writes_are_byte_stable(tmp_path):
    records = generate_corpus(small_cfg(count=12), seed=4)
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_records(p1, records)
    write_records(p2, records)
    assert p1.read_bytes() == p2.read_bytes()


def test_read_reports_file_and_line_of_truncated_record(tmp_path):
    records = generate_corpus(small_cfg(count=3), seed=6)
    path = tmp_path / "broken.jsonl"
    lines = [json.dumps(record_to_dict(r), sort_keys=True) for r in records]
    lines[2] = lines[2][: len(lines[2]) // 2]  # truncate mid-record
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CorpusFormatError) as err:
        read_records(path)
    assert "line 3" in str(err.value)
    assert "broken.jsonl" in str(err.value)


def test_read_rejects_wrong_schema_version(tmp_path):
    records = generate_corpus(small_cfg(count=1), seed=7)
    d = record_to_dict(records[0])
    d["schema_version"] = 99
    path = tmp_path / "wrong.jsonl"
    path.write_text(json.dumps(d) + "\n")
    with pytest.raises(CorpusFormatError) as err:
        read_records(path)
    assert "schema_version" in str(err.value)


def test_check_trajectory_flags_bad_paths():
    w = desk_workspace()
    with pytest.raises(ValueError):
        check_trajectory(Trajectory(points=(C(0, 0, 0), C(2, 0, 0))), w)  # jump
    with pytest.raises(ValueError):
        check_trajectory(Trajectory(points=(C(0, 0, 0), C(0, 0, -1))), w)  # out of box
    wob = w.with_obstacles({C(1, 0, 0)})
    with pytest.raises(ValueError):
        check_trajectory(Trajectory(points=(C(0, 0, 0), C(1, 0, 0))), wob)  # obstacle


def test_check_trajectory_reports_the_first_violation_validate_path_finds():
    w = desk_workspace()
    t = Trajectory(points=(C(0, 0, 0), C(2, 0, 0), C(2, 0, -1)))  # jump, then out of box
    assert validate_path(t, w).first_violation == 1
    with pytest.raises(ValueError, match="point 1 "):
        check_trajectory(t, w)


def test_read_jsonl_names_file_and_line_for_any_parser(tmp_path):
    path = tmp_path / "rows.jsonl"
    write_jsonl(path, [{"b": 1, "a": 2}, {"a": 3}])
    assert path.read_text() == '{"a": 2, "b": 1}\n{"a": 3}\n'
    assert read_jsonl(path, lambda d: d["a"]) == [2, 3]
    with pytest.raises(CorpusFormatError, match="rows.jsonl: line 2: malformed record"):
        read_jsonl(path, lambda d: d["b"])


def test_read_shares_equal_workspaces_and_task_graphs_within_one_read(tmp_path):
    records = generate_corpus(small_cfg(count=30), seed=4)  # density 0: one workspace for all
    path = tmp_path / "corpus.jsonl"
    write_records(path, records)
    back = read_records(path)
    assert back == records
    assert len({id(r.workspace) for r in back}) == 1
    graphs = {json.dumps(r.trajectory.task.to_dict()) for r in back}
    assert len({id(r.trajectory.task) for r in back}) == len(graphs) > 1
    again = read_records(path)
    assert again[0].workspace is not back[0].workspace  # nothing is kept from one read to the next


@pytest.mark.parametrize("entry, key, value, detail", [
    ("workspace", "z_min", False, "workspace.z_min must be an integer, got false"),
    ("workspace", "resolution_mm", "20", "workspace.resolution_mm must be a finite positive number"),
    ("task_graph", "edges", [[0, True], [1, 2], [2, 3]], "task_graph.edges[0][1] must be an integer, got true"),
])
def test_a_shared_entry_still_rejects_what_the_parser_rejects(tmp_path, entry, key, value, detail):
    records = generate_corpus(small_cfg(count=4), seed=4)
    rows = [record_to_dict(r) for r in records]
    rows = [row for row in rows if len(row["task_graph"]["edges"]) == 3][:2]  # two records on the 4-node chain
    rows[1][entry] = {**rows[0][entry], key: value}
    if key != "resolution_mm":  # equal in Python to the entry read before, but for the type
        assert rows[1][entry] == rows[0][entry]
    path = tmp_path / "corpus.jsonl"
    write_jsonl(path, rows)
    with pytest.raises(CorpusFormatError, match=re.escape(f"line 2: malformed record ({detail}")):
        read_records(path)


def test_points_read_as_read_cell_reads_them(tmp_path):
    row = record_to_dict(generate_corpus(small_cfg(count=1), seed=4)[0])
    path = tmp_path / "corpus.jsonl"
    x, y, z = row["points"][0]
    for points, error in (([[float(x), y, z]], None), ([[x, y, True]], "points[0] must be three integers"),
                          ([[x, y, z], [x, y]], "points[1] must be three integers"),
                          ([[x, y, z, 0]], "points[0] must be three integers"),
                          ([], "a trajectory needs at least one point"),
                          (5, "points must be a list of [x, y, z] cells, got 5")):
        write_jsonl(path, [{**row, "points": points}])
        if error is None:
            assert read_records(path)[0].trajectory.points == (C(x, y, z),)
        else:
            with pytest.raises(CorpusFormatError, match=re.escape(error)):
                read_records(path)
