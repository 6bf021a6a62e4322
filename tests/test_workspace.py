"""Workspace tests: parent curation, seed materialization, archiving,
checkpoints, and the run store layout."""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from seedevo.errors import ArchiveError, CorruptStateError, MaterializationError
from seedevo.executors import ExperimentRecord, RunOutcome
from seedevo.operators import Operator as Op
from seedevo.workspace import (
    AgentSeed,
    ArchiveRef,
    CurationRules,
    RunStore,
    curate_parent_archive,
    load_checkpoint,
    materialize_seed,
    save_checkpoint,
)


def build_tree(root: Path, files: dict[str, str]) -> Path:
    for rel, text in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    return root


def make_parent(tmp_path: Path, name: str, score: float, files: dict[str, str] | None = None) -> ArchiveRef:
    root = tmp_path / name
    build_tree(root, files or {"solution/main.py": "print('hi')\n", "notes.md": "notes\n"})
    return ArchiveRef(
        id=name, path=root, score=score, origin_operator=Op.INITIAL, origin_iteration=1, slot=0
    )


def verified_outcome(score: float = 0.8, n: int = 1) -> RunOutcome:
    records = tuple(
        ExperimentRecord(run_name=f"run_{i + 1}", score=score - 0.01 * (n - 1 - i))
        for i in range(n)
    )
    return RunOutcome(score=score, experiments=records, verified=True)


# -- curation --------------------------------------------------------


def tree(root: Path) -> dict[str, bytes | None]:
    """Every path under root, relative: a file maps to its bytes, a
    directory to None."""
    return {
        p.relative_to(root).as_posix(): None if p.is_dir() else p.read_bytes()
        for p in root.rglob("*")
    }


def curate(src: Path, rules: CurationRules = CurationRules(), name: str = "copy"):
    """Curate src into a sibling directory: (its files, sorted; warnings)."""
    dest = src.with_name(name)
    warnings = curate_parent_archive(src, dest, rules)
    files = tuple(sorted(rel for rel, data in tree(dest).items() if data is not None))
    return files, warnings


def test_curation_includes_everything_by_default(tmp_path):
    src = build_tree(tmp_path / "src", {
        "a.txt": "a", "sub/b.txt": "b", "sub/deep/c.bin": "c",
    })
    files, warnings = curate(src)
    assert files == ("a.txt", "sub/b.txt", "sub/deep/c.bin")
    assert tree(tmp_path / "copy") == tree(src)
    assert warnings == []


def test_curation_is_sorted_and_deterministic(tmp_path):
    src = build_tree(tmp_path / "src", {f"f{i}.txt": "x" for i in (9, 3, 7, 1)})
    for name in ("ghost_b", "ghost_a"):
        (src / name).symlink_to(src / "nowhere")
    first = curate(src, name="first")
    second = curate(src, name="second")
    assert first == second
    assert first[0] == ("f1.txt", "f3.txt", "f7.txt", "f9.txt")
    # warnings come in walk order, which is name order
    warnings = first[1]
    assert len(warnings) == 2 and "ghost_a" in warnings[0] and "ghost_b" in warnings[1]
    assert tree(tmp_path / "first") == tree(tmp_path / "second")


def test_curation_glob_exclusion(tmp_path):
    src = build_tree(tmp_path / "src", {
        "keep.py": "k", "junk.pyc": "j", "logs/run.tmp": "t", "logs/run.log": "l",
    })
    rules = CurationRules(excluded_globs=("*.pyc", "logs/*.tmp"))
    assert curate(src, rules)[0] == ("keep.py", "logs/run.log")


def test_curation_drops_inherited_parents_at_any_depth(tmp_path):
    src = build_tree(tmp_path / "src", {
        "top.txt": "t",
        "Previous Experiments/parent_0/old.txt": "o",
        "nested/Previous Experiments/parent_1/older.txt": "o",
        "nested/keep.txt": "k",
    })
    assert curate(src)[0] == ("nested/keep.txt", "top.txt")
    assert sorted(tree(tmp_path / "copy")) == ["nested", "nested/keep.txt", "top.txt"]


def test_curation_enforces_byte_cap(tmp_path):
    src = tmp_path / "src"
    build_tree(src, {"small.bin": "x" * 10})
    (src / "big.bin").write_bytes(b"y" * 1001)
    assert curate(src, CurationRules(max_file_bytes=1000))[0] == ("small.bin",)


def test_curation_dangling_symlink_becomes_warning(tmp_path):
    src = build_tree(tmp_path / "src", {"real.txt": "r"})
    (src / "ghost").symlink_to(src / "nowhere")
    files, warnings = curate(src)
    assert files == ("real.txt",)
    assert len(warnings) == 1
    assert "ghost" in warnings[0]


def test_curation_missing_source_is_an_error(tmp_path):
    with pytest.raises(ArchiveError):
        curate_parent_archive(tmp_path / "absent", tmp_path / "copy", CurationRules())
    assert not (tmp_path / "copy").exists()


# -- materialization -------------------------------------------------


def test_materialize_initial_seed_has_no_parent_dir(tmp_path):
    seed = AgentSeed(Op.INITIAL, 0, (), {"iteration": 1})
    ws = materialize_seed(seed, tmp_path / "ws")
    assert ws.is_dir()
    assert not (ws / "Previous Experiments").exists()
    manifest = json.loads((ws / "seed_manifest.json").read_text())
    assert manifest["operator"] == "initial"
    assert manifest["slot"] == 0
    assert manifest["parents"] == []
    assert manifest["context_params"] == {"iteration": 1}


def test_materialize_merge_lays_parents_in_order(tmp_path):
    p0 = make_parent(tmp_path, "p0", 0.5, {"a.txt": "from p0"})
    p1 = make_parent(tmp_path, "p1", 0.6, {"b.txt": "from p1"})
    seed = AgentSeed(Op.MERGE, 1, (p0, p1), {"iteration": 2})
    ws = materialize_seed(seed, tmp_path / "ws")
    assert (ws / "Previous Experiments/parent_0/a.txt").read_text() == "from p0"
    assert (ws / "Previous Experiments/parent_1/b.txt").read_text() == "from p1"
    manifest = json.loads((ws / "seed_manifest.json").read_text())
    assert [p["id"] for p in manifest["parents"]] == ["p0", "p1"]
    assert [p["score"] for p in manifest["parents"]] == [0.5, 0.6]
    assert manifest["parents"][0]["path"] == "Previous Experiments/parent_0"


def test_materialize_makes_no_directory_for_excluded_files_only(tmp_path):
    parent = make_parent(tmp_path, "p0", 0.5, {
        "keep.txt": "k",
        "junk/a.pyc": "j",
        "big/huge.bin": "x" * 101,
        "nested/Previous Experiments/parent_0/old.txt": "o",
    })
    seed = AgentSeed(Op.CONTINUE, 0, (parent,), {"iteration": 2})
    rules = CurationRules(excluded_globs=("*.pyc",), max_file_bytes=100)
    ws = materialize_seed(seed, tmp_path / "ws", rules=rules)
    assert tree(ws / "Previous Experiments/parent_0") == {"keep.txt": b"k"}


def test_materialize_curates_nested_parent_dirs_away(tmp_path):
    parent = make_parent(tmp_path, "p0", 0.5, {
        "keep.txt": "k",
        "Previous Experiments/parent_0/grandparent.txt": "g",
    })
    seed = AgentSeed(Op.CONTINUE, 0, (parent,), {"iteration": 2})
    ws = materialize_seed(seed, tmp_path / "ws")
    copied = ws / "Previous Experiments/parent_0"
    assert (copied / "keep.txt").exists()
    assert not (copied / "Previous Experiments").exists()


def test_materialize_rejects_existing_workspace(tmp_path):
    target = tmp_path / "ws"
    target.mkdir()
    seed = AgentSeed(Op.INITIAL, 0, (), {})
    with pytest.raises(MaterializationError):
        materialize_seed(seed, target)


def test_materialize_data_link_mode(tmp_path):
    data = build_tree(tmp_path / "data", {"train.csv": "1,2\n"})
    seed = AgentSeed(Op.INITIAL, 0, (), {})
    ws = materialize_seed(seed, tmp_path / "ws", data_source=data, provisioning="link")
    mounted = ws / "data"
    assert mounted.is_symlink()
    assert (mounted / "train.csv").read_text() == "1,2\n"
    assert mounted.resolve() == data.resolve()


def test_materialize_data_copy_mode(tmp_path):
    data = build_tree(tmp_path / "data", {"train.csv": "1,2\n"})
    seed = AgentSeed(Op.INITIAL, 0, (), {})
    ws = materialize_seed(seed, tmp_path / "ws", data_source=data, provisioning="copy")
    mounted = ws / "data"
    assert not mounted.is_symlink()
    assert (mounted / "train.csv").read_text() == "1,2\n"
    # a copy is independent of later changes to the source
    (data / "train.csv").write_text("3,4\n")
    assert (mounted / "train.csv").read_text() == "1,2\n"


def test_materialize_missing_data_is_an_error(tmp_path):
    seed = AgentSeed(Op.INITIAL, 0, (), {})
    with pytest.raises(MaterializationError):
        materialize_seed(seed, tmp_path / "ws", data_source=tmp_path / "absent")


def test_materialize_unknown_provisioning_mode(tmp_path):
    data = build_tree(tmp_path / "data", {"x": "x"})
    seed = AgentSeed(Op.INITIAL, 0, (), {})
    with pytest.raises(MaterializationError):
        materialize_seed(seed, tmp_path / "ws", data_source=data, provisioning="teleport")


def test_materialize_records_curation_warnings(tmp_path):
    parent = make_parent(tmp_path, "p0", 0.5, {"real.txt": "r"})
    (parent.path / "ghost").symlink_to(parent.path / "nowhere")
    seed = AgentSeed(Op.EDA, 0, (parent,), {"iteration": 2})
    ws = materialize_seed(seed, tmp_path / "ws")
    manifest = json.loads((ws / "seed_manifest.json").read_text())
    assert len(manifest["curation_warnings"]) == 1
    assert "ghost" in manifest["curation_warnings"][0]


# -- archiving -------------------------------------------------------


def store_with_run(tmp_path, files=None) -> RunStore:
    """A run store whose workspace of iteration 1, slot 0 holds a finished run."""
    store = RunStore.create(tmp_path / "run")
    workspace = store.workspace_path(1, 0)
    workspace.mkdir(parents=True)
    if files is None:
        files = {"solution/model.py": "m", "logs/run.log": "log line"}
    build_tree(workspace, files)
    return store


def archive(store: RunStore, outcome) -> ArchiveRef:
    return store.archive_run(outcome, Op.CONTINUE, ["p0"], 1, 0)


def test_archive_run_freezes_experiments_and_manifest(tmp_path):
    ref = archive(store_with_run(tmp_path), verified_outcome(0.8, n=5))
    exp_dir = ref.path / "experiments"
    names = sorted(p.name for p in exp_dir.iterdir())
    assert names == [f"run_{i}.json" for i in range(1, 6)]
    loaded = json.loads((exp_dir / "run_5.json").read_text())
    assert loaded["score"] == 0.8
    manifest = json.loads((ref.path / "manifest.json").read_text())
    assert manifest["score"] == 0.8
    assert manifest["operator"] == "continue"
    assert manifest["parent_ids"] == ["p0"]
    assert manifest["experiments"] == [f"run_{i}" for i in range(1, 6)]
    assert ref.score == 0.8 and ref.parent_ids == ("p0",)
    assert ref.origin_operator is Op.CONTINUE and ref.origin_iteration == 1
    assert (ref.path / "solution/model.py").read_text() == "m"
    assert (ref.path / "logs/run.log").read_text() == "log line"


def test_archive_run_moves_solution_and_logs(tmp_path):
    files = {"solution/model.py": "m", "solution/pkg/util.py": "u" * 5000,
             "logs/run.log": "log line", "logs/stdout.log": "out\n" * 100}
    store = store_with_run(tmp_path, files)
    workspace = store.workspace_path(1, 0)
    before = {sub: tree(workspace / sub) for sub in ("solution", "logs")}
    ref = archive(store, verified_outcome())
    for sub in ("solution", "logs"):
        assert not (workspace / sub).exists()
        assert tree(ref.path / sub) == before[sub]


def test_archive_run_skips_dangling_symlink(tmp_path):
    store = store_with_run(tmp_path, {"solution/model.py": "m"})
    solution = store.workspace_path(1, 0) / "solution"
    (solution / "dangling").symlink_to(tmp_path / "nonexistent")
    ref = archive(store, verified_outcome())
    assert sorted(p.name for p in (ref.path / "solution").iterdir()) == ["model.py"]
    assert store.resolve_archive(ref.id) == ref


def test_archive_run_keeps_no_symlink(tmp_path):
    outside = build_tree(tmp_path / "task_data", {"train.csv": "x" * 4096, "sub/more.csv": "y"})
    store = store_with_run(tmp_path)
    workspace = store.workspace_path(1, 0)
    (workspace / "solution" / "data").symlink_to(outside, target_is_directory=True)
    (workspace / "logs" / "train.csv").symlink_to(outside / "train.csv")
    ref = archive(store, verified_outcome())
    archived = sorted(str(p.relative_to(ref.path)) for p in ref.path.rglob("*"))
    assert "solution/data" not in archived and "logs/train.csv" not in archived
    assert (ref.path / "solution/model.py").read_text() == "m"
    assert not any(p.is_symlink() for p in ref.path.rglob("*"))
    # unlinking a moved link leaves its target as it was
    assert tree(outside) == {"sub": None, "sub/more.csv": b"y", "train.csv": b"x" * 4096}

    seed = AgentSeed(Op.CONTINUE, 0, (ref,), {"iteration": 2})
    copied = materialize_seed(seed, tmp_path / "ws") / "Previous Experiments/parent_0"
    assert (copied / "solution/model.py").exists()
    assert not (copied / "solution/data").exists()
    assert not (copied / "logs/train.csv").exists()


def test_archive_run_skips_linked_solution_dir(tmp_path):
    outside = build_tree(tmp_path / "elsewhere", {"big.bin": "z"})
    store = store_with_run(tmp_path, {"logs/run.log": "log line"})
    (store.workspace_path(1, 0) / "solution").symlink_to(outside, target_is_directory=True)
    ref = archive(store, verified_outcome())
    assert list((ref.path / "solution").iterdir()) == []
    assert (ref.path / "logs/run.log").read_text() == "log line"


def test_archive_creates_empty_dirs_when_workspace_lacks_them(tmp_path):
    ref = archive(store_with_run(tmp_path, files={}), verified_outcome())
    assert (ref.path / "solution").is_dir()
    assert (ref.path / "logs").is_dir()
    assert list((ref.path / "solution").iterdir()) == []


def test_archive_rejects_unverified_outcome(tmp_path):
    bad = RunOutcome.failure(reason="no results")
    with pytest.raises(ArchiveError):
        archive(store_with_run(tmp_path), bad)


def test_archive_rejects_verified_without_experiments(tmp_path):
    # RunOutcome itself refuses this shape; the archive guard is the
    # backstop for outcome-like objects from other sources
    with pytest.raises(ValueError):
        RunOutcome(score=0.5, experiments=(), verified=True)
    from types import SimpleNamespace

    bad = SimpleNamespace(score=0.5, experiments=(), verified=True, diagnostics={})
    with pytest.raises(ArchiveError):
        archive(store_with_run(tmp_path), bad)


def test_archive_twice_from_same_workspace_fails(tmp_path):
    # the workspace and the archive derive from one (iteration, slot) key
    store = store_with_run(tmp_path)
    archive(store, verified_outcome())
    with pytest.raises(ArchiveError, match="collision"):
        archive(store, verified_outcome(0.9))
    manifest = json.loads((store.archives_dir / "it0001_slot00" / "manifest.json").read_text())
    assert manifest["score"] == 0.8


def test_archive_dir_collision_fails(tmp_path):
    store = store_with_run(tmp_path)
    (store.archives_dir / "it0001_slot00").mkdir()
    with pytest.raises(ArchiveError):
        archive(store, verified_outcome())


def test_archive_rejects_duplicate_experiment_names(tmp_path):
    records = (
        ExperimentRecord(run_name="run_1", score=0.5),
        ExperimentRecord(run_name="run_1", score=0.6),
    )
    bad = RunOutcome(score=0.6, experiments=records, verified=True)
    with pytest.raises(ArchiveError):
        archive(store_with_run(tmp_path), bad)


# -- checkpoints -----------------------------------------------------


def sample_checkpoint() -> dict:
    return {"event_log_offset": 512, "schema_version": 4}


def test_checkpoint_round_trip(tmp_path):
    path = tmp_path / "checkpoint.json"
    save_checkpoint(path, 512)
    assert load_checkpoint(path) == 512
    assert json.loads(path.read_text()) == sample_checkpoint()


def test_checkpoint_missing_file_is_none(tmp_path):
    assert load_checkpoint(tmp_path / "checkpoint.json") is None


def test_checkpoint_corrupt_json(tmp_path):
    path = tmp_path / "checkpoint.json"
    path.write_text("{not json")
    with pytest.raises(CorruptStateError):
        load_checkpoint(path)


def test_checkpoint_missing_field_is_named(tmp_path):
    path = tmp_path / "checkpoint.json"
    raw = sample_checkpoint()
    del raw["event_log_offset"]
    path.write_text(json.dumps(raw))
    with pytest.raises(CorruptStateError, match="event_log_offset"):
        load_checkpoint(path)


@pytest.mark.parametrize("field,value", [
    ("event_log_offset", 1.5),
    ("event_log_offset", -1),
])
def test_checkpoint_field_of_wrong_type(tmp_path, field, value):
    path = tmp_path / "checkpoint.json"
    raw = sample_checkpoint()
    raw[field] = value
    path.write_text(json.dumps(raw))
    with pytest.raises(CorruptStateError, match=f"checkpoint field {field}:"):
        load_checkpoint(path)


def test_checkpoint_wrong_schema_version(tmp_path):
    path = tmp_path / "checkpoint.json"
    raw = sample_checkpoint()
    raw["schema_version"] = 99
    path.write_text(json.dumps(raw))
    with pytest.raises(CorruptStateError, match="schema_version"):
        load_checkpoint(path)


def test_checkpoint_save_failure_preserves_previous(tmp_path, monkeypatch):
    path = tmp_path / "checkpoint.json"
    save_checkpoint(path, 100)

    real_replace = os.replace

    def failing_replace(src, dst):
        if str(dst).endswith("checkpoint.json"):
            raise OSError("disk pulled")
        return real_replace(src, dst)

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError):
        save_checkpoint(path, 200)
    monkeypatch.undo()
    assert load_checkpoint(path) == 100


# -- run store -------------------------------------------------------


def test_store_create_then_reuse_is_rejected(tmp_path):
    store = RunStore.create(tmp_path / "run")
    store.write_config({"population_size": 5})
    with pytest.raises(MaterializationError):
        RunStore.create(tmp_path / "run")


def test_store_open_requires_existing_run(tmp_path):
    (tmp_path / "empty").mkdir()
    with pytest.raises(CorruptStateError):
        RunStore.open(tmp_path / "empty")


def test_store_path_formats(tmp_path):
    store = RunStore(tmp_path / "run")
    assert store.workspace_path(3, 1) == tmp_path / "run/workspaces/iter_0003/slot_01"
    assert RunStore.archive_id(2, 0) == "it0002_slot00"
    assert RunStore.archive_id(12, 11) == "it0012_slot11"


def test_store_archive_and_resolve_round_trip(tmp_path):
    store = RunStore.create(tmp_path / "run")
    ref = store.archive_run(verified_outcome(0.7), Op.INITIAL, [], 1, 0)
    assert ref.id == "it0001_slot00"
    resolved = store.resolve_archive("it0001_slot00")
    assert resolved == ref
    with pytest.raises(CorruptStateError):
        store.resolve_archive("it9999_slot00")


def test_store_resolve_rejects_unknown_operator(tmp_path):
    store = RunStore.create(tmp_path / "run")
    ref = store.archive_run(verified_outcome(), Op.INITIAL, [], 1, 0)
    manifest = json.loads((ref.path / "manifest.json").read_text())
    for bad in ("bogus", None):
        manifest["operator"] = bad
        (ref.path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(CorruptStateError, match="manifest"):
            store.resolve_archive(ref.id)


@pytest.mark.parametrize("field,value", [
    ("score", "0.57"),
    ("score", float("nan")),
    ("score", None),
    ("iteration", "1"),
    ("slot", True),
    ("id", 7),
    ("parent_ids", "it0000_slot00"),
])
def test_store_resolve_rejects_manifest_field_of_wrong_type(tmp_path, field, value):
    store = RunStore.create(tmp_path / "run")
    ref = store.archive_run(verified_outcome(), Op.INITIAL, [], 1, 0)
    manifest = json.loads((ref.path / "manifest.json").read_text())
    (ref.path / "manifest.json").write_text(json.dumps({**manifest, field: value}))
    with pytest.raises(CorruptStateError, match=f"field {field}: "):
        store.resolve_archive(ref.id)


def test_store_resolve_detects_deleted_archive(tmp_path):
    import shutil

    store = RunStore.create(tmp_path / "run")
    ref = store.archive_run(verified_outcome(), Op.INITIAL, [], 1, 0)
    shutil.rmtree(ref.path)
    with pytest.raises(CorruptStateError):
        store.resolve_archive(ref.id)


def test_store_prune_removes_later_iterations_only(tmp_path):
    store = RunStore.create(tmp_path / "run")
    for iteration in (1, 2, 3):
        store.archive_run(verified_outcome(), Op.INITIAL, [], iteration, 0)
        store.workspace_path(iteration, 0).mkdir(parents=True)
    store.prune_after_iteration(1)
    assert store.resolve_archive("it0001_slot00")
    for gone in ("it0002_slot00", "it0003_slot00"):
        with pytest.raises(CorruptStateError):
            store.resolve_archive(gone)
        assert not (store.archives_dir / gone).exists()
    assert store.workspace_path(1, 0).exists()
    assert not (store.workspaces_dir / "iter_0002").exists()
    assert not (store.workspaces_dir / "iter_0003").exists()


def test_store_prune_leaves_unparsable_entries(tmp_path):
    store = RunStore.create(tmp_path / "run")
    store.archive_run(verified_outcome(), Op.INITIAL, [], 2, 0)
    strays = [store.workspaces_dir / "iter_notes", store.archives_dir / "notes"]
    for stray in strays:
        build_tree(stray, {"keep.txt": "keep"})
    store.prune_after_iteration(1)
    assert not (store.archives_dir / "it0002_slot00").exists()
    for stray in strays:
        assert (stray / "keep.txt").read_text() == "keep"


def test_store_resolve_reads_manifest_not_stored_path(tmp_path):
    store = RunStore.create(tmp_path / "run")
    store.archive_run(verified_outcome(0.7), Op.INITIAL, [], 1, 0)
    moved = RunStore((tmp_path / "run").rename(tmp_path / "moved"))
    assert moved.resolve_archive("it0001_slot00").path == moved.archives_dir / "it0001_slot00"
    (moved.archives_dir / "it0001_slot00" / "manifest.json").write_text("{mangled")
    with pytest.raises(CorruptStateError, match="manifest.json"):
        moved.resolve_archive("it0001_slot00")
