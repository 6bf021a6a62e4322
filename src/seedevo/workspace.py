"""Run isolation, archive store, and checkpoint persistence.

Every run gets a fresh workspace directory seeded with curated copies
of its parent archives under "Previous Experiments/parent_i".  A
verified run's solution/ and logs/ move into its immutable archive, so
each byte is stored once; an invalid run's workspace keeps them.
Archives are what later generations inherit.  All state lives under
one output root:

    output_root/
        run_config.json     effective config; the one record of run settings
        events.jsonl        append-only event log
        checkpoint.json     the event log's commit offset, saved atomically
        archives/<id>/      manifest.json, experiments/, solution/, logs/
        workspaces/iter_NNNN/slot_NN/   solution/ and logs/ until archived

The checkpoint (version 4) holds only the event log's commit offset:
the events before it are the one record of run state.  Resume settles
each committed iteration again from run_config.json and the archives
that iteration left, and the committed log must be exactly what that
writes.  Checkpoints of versions 1 to 3, which also carried copies of
that state, load the same way: only their offset is read.

Archive ids are it{iteration:04d}_slot{slot:02d}.  Each archive's
manifest is the only record of it, and paths are derived from the
output root, so a root can be moved or resumed from any directory.
"""

from __future__ import annotations

import json
import os
import re
import shutil
from dataclasses import dataclass
from fnmatch import fnmatch
from pathlib import Path

from .config import DEFAULT_MAX_FILE_BYTES, conforms
from .errors import ArchiveError, ConfigurationError, CorruptStateError, MaterializationError
from .operators import Operator

#: Version of archive and seed manifests.
SCHEMA_VERSION = 1

#: Version of checkpoint.json this code writes.  Versions 1 to 3 also
#: copied the run state the event log records; load_checkpoint reads
#: the offset of all four.
CHECKPOINT_VERSION = 4

#: Where a workspace receives its parents.  A directory of this name is
#: never copied into a curated parent, so inherited archives do not nest
#: their own inherited archives.
PARENT_DIR_NAME = "Previous Experiments"


#: The archive manifest fields an ArchiveRef is read from, with their types.
MANIFEST_TYPES = {"id": str, "score": float, "operator": str, "iteration": int, "slot": int,
                  "parent_ids": list[str]}


@dataclass(frozen=True)
class ArchiveRef:
    """An archived run as its manifest records it: the elite of a slot,
    or a parent a seed inherits."""

    id: str
    path: Path
    score: float
    origin_operator: Operator
    origin_iteration: int
    slot: int
    parent_ids: tuple[str, ...] = ()

    @classmethod
    def from_manifest(cls, path: Path, manifest: dict) -> "ArchiveRef":
        return cls(
            id=manifest["id"],
            path=path,
            score=manifest["score"],
            origin_operator=Operator(manifest["operator"]),
            origin_iteration=manifest["iteration"],
            slot=manifest["slot"],
            parent_ids=tuple(manifest["parent_ids"]),
        )


@dataclass(frozen=True)
class AgentSeed:
    """Everything one run starts from: a task operator, the parent
    archives it may build on, and task-template parameters."""

    operator: Operator
    slot: int
    parents: tuple[ArchiveRef, ...]
    context_params: dict

    def __post_init__(self):
        if self.operator is Operator.INITIAL and self.parents:
            raise ConfigurationError("parents", "initial seeds take no parents")
        if self.operator is Operator.MERGE and len(self.parents) != 2:
            raise ConfigurationError("parents", f"merge needs 2 parents, got {len(self.parents)}")
        if self.operator not in (Operator.INITIAL, Operator.MERGE) and len(self.parents) < 1:
            raise ConfigurationError("parents", f"{self.operator} needs at least one parent")


@dataclass(frozen=True)
class CurationRules:
    """What a curated parent copy leaves out, besides PARENT_DIR_NAME."""

    excluded_globs: tuple[str, ...] = ()
    max_file_bytes: int = DEFAULT_MAX_FILE_BYTES


def curate_parent_archive(source: Path, dest: Path, rules: CurationRules) -> list[str]:
    """Copy one archive into dest, curated, and return the warnings.

    Walks the source tree in name order, dropping PARENT_DIR_NAME
    directories at any depth, glob-matched relative paths, and files
    over the byte cap; an entry that cannot be inspected becomes a
    warning.  dest is created, and under it a directory only for the
    files copied into it.
    """
    source, dest = Path(source), Path(dest)
    if not source.is_dir():
        raise ArchiveError(f"parent archive not found: {source}")
    dest.mkdir(parents=True)
    warnings: list[str] = []

    def walk(rel: str) -> None:
        try:
            with os.scandir(source / rel) as it:
                children = sorted(it, key=lambda entry: entry.name)
        except OSError as exc:
            warnings.append(f"unreadable directory {rel or '.'}: {exc}")
            return
        made = False
        for entry in children:
            child_rel = f"{rel}/{entry.name}" if rel else entry.name
            if entry.is_dir(follow_symlinks=False):
                if entry.name != PARENT_DIR_NAME:
                    walk(child_rel)
                continue
            if any(fnmatch(child_rel, pat) for pat in rules.excluded_globs):
                continue
            try:
                size = entry.stat().st_size
            except OSError as exc:
                warnings.append(f"unreadable entry {child_rel}: {exc}")
                continue
            if size > rules.max_file_bytes:
                continue
            if not made:
                (dest / rel).mkdir(parents=True, exist_ok=True)
                made = True
            shutil.copyfile(entry.path, dest / child_rel)

    walk("")
    return warnings


def materialize_seed(
    seed: AgentSeed,
    workspace: Path,
    data_source: Path | None = None,
    provisioning: str = "link",
    rules: CurationRules | None = None,
) -> Path:
    """Prepare a fresh workspace for one run.

    Creates the directory (collision is an error, never reuse), wires
    in task data by copy or symlink, lays curated parent copies under
    "Previous Experiments/parent_i" in parent order, and writes the
    seed manifest the run reads its task from.
    """
    workspace = Path(workspace)
    if workspace.exists():
        raise MaterializationError(f"workspace already exists: {workspace}")
    rules = rules or CurationRules()
    workspace.mkdir(parents=True)

    if data_source is not None:
        data_source = Path(data_source)
        if not data_source.exists():
            raise MaterializationError(f"data source missing: {data_source}")
        dest = workspace / "data"
        if provisioning == "copy":
            shutil.copytree(data_source, dest)
        elif provisioning == "link":
            dest.symlink_to(data_source.resolve(), target_is_directory=data_source.is_dir())
        else:
            raise MaterializationError(f"unknown data provisioning mode {provisioning!r}")

    warnings: list[str] = []
    for i, parent in enumerate(seed.parents):
        dest = workspace / PARENT_DIR_NAME / f"parent_{i}"
        warnings.extend(curate_parent_archive(parent.path, dest, rules))

    manifest = {
        "schema_version": SCHEMA_VERSION,
        "operator": seed.operator.value,
        "slot": seed.slot,
        "context_params": dict(seed.context_params),
        "parents": [
            {"id": p.id, "score": p.score, "path": f"{PARENT_DIR_NAME}/parent_{i}"}
            for i, p in enumerate(seed.parents)
        ],
        "curation_warnings": warnings,
    }
    _atomic_write_json(workspace / "seed_manifest.json", manifest)
    return workspace


# -- checkpointing ----------------------------------------------------


def save_checkpoint(path: Path, event_log_offset: int) -> None:
    """Commit the event log up to the offset: the events before it are
    durable and make up the run state.  Written atomically, so a crash
    mid-save leaves the previous commit point intact."""
    _atomic_write_json(Path(path), {"event_log_offset": event_log_offset,
                                    "schema_version": CHECKPOINT_VERSION})


def load_checkpoint(path: Path) -> int | None:
    """The committed event log offset, or None when nothing was ever
    saved; CorruptStateError when a file exists but cannot be trusted,
    naming the failing field."""
    path = Path(path)
    if not path.exists():
        return None
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise CorruptStateError(f"checkpoint unreadable: {exc}") from exc
    if not conforms(raw, dict):
        raise CorruptStateError("checkpoint: top level must be an object")
    for key in ("event_log_offset", "schema_version"):
        if key not in raw:
            raise CorruptStateError(f"checkpoint field missing: {key}")
    if raw["schema_version"] not in range(1, CHECKPOINT_VERSION + 1):
        raise CorruptStateError(f"checkpoint schema_version: {raw['schema_version']!r}")
    value = raw["event_log_offset"]
    if not conforms(value, int) or value < 0:
        raise CorruptStateError(f"checkpoint field event_log_offset: {value!r}")
    return value


def _atomic_write_json(path: Path, payload: dict) -> None:
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


# -- run store --------------------------------------------------------


class RunStore:
    """Filesystem layout of one output root."""

    def __init__(self, root: Path):
        self.root = Path(root)

    # paths
    @property
    def config_path(self) -> Path:
        return self.root / "run_config.json"

    @property
    def events_path(self) -> Path:
        return self.root / "events.jsonl"

    @property
    def checkpoint_path(self) -> Path:
        return self.root / "checkpoint.json"

    @property
    def archives_dir(self) -> Path:
        return self.root / "archives"

    @property
    def workspaces_dir(self) -> Path:
        return self.root / "workspaces"

    @classmethod
    def create(cls, root: Path) -> "RunStore":
        store = cls(root)
        if store.config_path.exists():
            raise MaterializationError(f"output root already holds a run: {root}")
        store.root.mkdir(parents=True, exist_ok=True)
        store.archives_dir.mkdir(exist_ok=True)
        store.workspaces_dir.mkdir(exist_ok=True)
        return store

    @classmethod
    def open(cls, root: Path) -> "RunStore":
        store = cls(root)
        if not store.config_path.exists():
            raise CorruptStateError(f"not a run directory (no run_config.json): {root}")
        return store

    def write_config(self, config: dict) -> None:
        _atomic_write_json(self.config_path, config)

    def read_config(self) -> dict:
        try:
            return json.loads(self.config_path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise CorruptStateError(f"run_config.json unreadable: {exc}") from exc

    def workspace_path(self, iteration: int, slot: int) -> Path:
        return self.workspaces_dir / f"iter_{iteration:04d}" / f"slot_{slot:02d}"

    @staticmethod
    def archive_id(iteration: int, slot: int) -> str:
        # deterministic ids double as resume bookkeeping: the iteration
        # is recoverable from the id when pruning replayed work
        return f"it{iteration:04d}_slot{slot:02d}"

    def archive_run(
        self,
        outcome,
        operator: Operator,
        parent_ids: list[str],
        iteration: int,
        slot: int,
    ) -> ArchiveRef:
        """Freeze the verified RunOutcome of one (iteration, slot) into
        its immutable archive directory.

        Writes the per-experiment records and a manifest tying scores
        to lineage, and moves the workspace's solution/ and logs/ trees
        in when present, then unlinks every symlink in them (a target
        may lie anywhere or nowhere).  Unverifiable outcomes are
        rejected.  The workspace and the archive both derive from the
        (iteration, slot) key, so the collision check refuses a second
        archive of a workspace.
        """
        if not outcome.verified:
            raise ArchiveError("refusing to archive an unverified outcome")
        if not outcome.experiments:
            raise ArchiveError("verified outcome carries no experiment records")
        workspace = self.workspace_path(iteration, slot)
        archive_id = self.archive_id(iteration, slot)
        archive_dir = self.archives_dir / archive_id
        if archive_dir.exists():
            raise ArchiveError(f"archive collision: {archive_dir}")

        exp_dir = archive_dir / "experiments"
        exp_dir.mkdir(parents=True)
        names = set()
        for record in outcome.experiments:
            if record.run_name in names:
                raise ArchiveError(f"duplicate experiment run name {record.run_name!r}")
            names.add(record.run_name)
            _atomic_write_json(exp_dir / f"{record.run_name}.json", record.to_dict())

        for sub in ("solution", "logs"):
            src = workspace / sub
            dest = archive_dir / sub
            if src.is_dir() and not src.is_symlink():
                src.rename(dest)
                for path in dest.rglob("*"):
                    if path.is_symlink():
                        path.unlink()
            else:
                dest.mkdir()

        manifest = {
            "schema_version": SCHEMA_VERSION,
            "id": archive_id,
            "iteration": iteration,
            "slot": slot,
            "score": outcome.score,
            "operator": operator.value,
            "parent_ids": list(parent_ids),
            "experiments": [r.run_name for r in outcome.experiments],
            "diagnostics": dict(outcome.diagnostics),
        }
        _atomic_write_json(archive_dir / "manifest.json", manifest)
        return ArchiveRef.from_manifest(archive_dir, manifest)

    def archived(self, iteration: int, slot: int) -> ArchiveRef | None:
        """The archive of one (iteration, slot), or None when that run
        left none: it produced nothing verified."""
        name = self.archive_id(iteration, slot)
        return self.resolve_archive(name) if (self.archives_dir / name).is_dir() else None

    def resolve_archive(self, archive_id: str) -> ArchiveRef:
        """Rebuild a reference from the archive's own manifest, each field
        of its MANIFEST_TYPES type, naming the id and the (iteration,
        slot) it derives from; the path is always this root's
        archives/<id>, never a stored string."""
        path = self.archives_dir / archive_id
        manifest_path = path / "manifest.json"
        try:
            manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
            if not conforms(manifest, dict):
                raise ValueError("top level must be an object")
            for key, hint in MANIFEST_TYPES.items():
                if not conforms(manifest.get(key), hint):
                    raise ValueError(f"field {key}: {manifest.get(key)!r}")
            ref = ArchiveRef.from_manifest(path, manifest)
        except (OSError, ValueError) as exc:
            raise CorruptStateError(f"archive manifest unreadable: {manifest_path}: {exc}") from exc
        if not archive_id == ref.id == self.archive_id(ref.origin_iteration, ref.slot):
            raise CorruptStateError(f"archive manifest {manifest_path} names id {ref.id!r}, "
                                    f"iteration {ref.origin_iteration}, slot {ref.slot}")
        return ref

    def prune_after_iteration(self, iteration: int) -> None:
        """Remove workspaces and archives produced after the given
        iteration.  Resume replays that work; stale directories would
        collide with the deterministic names.  The iteration is read
        from each directory's name; entries whose names carry none are
        left alone."""
        # directory names as workspace_path and archive_id build them
        named = ((self.workspaces_dir, r"iter_(\d+)"), (self.archives_dir, r"it(\d+)_slot\d+"))
        for directory, pattern in named:
            if not directory.is_dir():
                continue
            for entry in directory.iterdir():
                match = re.fullmatch(pattern, entry.name)
                if match and int(match.group(1)) > iteration and entry.is_dir():
                    shutil.rmtree(entry)
