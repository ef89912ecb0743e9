"""Content-addressed on-disk cache of completed runs.

Layout (one entry per :class:`~repro.exec.spec.RunSpec` key)::

    <root>/v1/<key[:2]>/<key>.pkl    pickled RunResult
    <root>/v1/<key[:2]>/<key>.json   spec + creation metadata (debuggable)

Alongside run results the cache stores **index builds** — whole
constructed workload objects (tree + memory image + query stream) under
``<root>/builds/``.  Build entries are keyed by :func:`build_key`: the
tree-construction parameters plus a *dataset fingerprint* (the
generator source that turns those parameters into keys/points/windows),
**not** a full RunSpec — platform, GPU config, and the simulator
fingerprint play no part in how a tree is built, so a resident-index
server (:mod:`repro.serve`) can reuse a build across platforms and
engine revisions.  The fingerprint folds the source of ``repro.trees``
and ``repro.workloads``: any change to dataset generation or tree
construction changes every key, so a stale-keyed entry can never be
written, let alone served.

The pickle is the payload; the JSON sidecar exists so ``repro cache
stats`` and humans can see *what* an entry is without unpickling it,
and it carries the payload's SHA-256 so reads are validated.  Writes
are atomic (tempfile + ``os.replace``) so a killed sweep never leaves a
truncated entry behind; a corrupt entry (checksum mismatch, truncated
pickle, unreadable sidecar payload) is *quarantined* — moved to
``<root>/corrupt/`` for post-mortem instead of silently deleted — and
reported as a miss, so the point is recomputed rather than poisoning
the sweep.

The root defaults to ``$REPRO_CACHE_DIR`` or ``~/.cache/repro``.
Because the engine is deterministic, a cache hit is byte-identical to
re-running the simulation (``tests/test_exec.py`` asserts this), so
resuming an interrupted sweep only executes the missing points.
"""

import contextlib
import hashlib
import json
import os
import pathlib
import pickle
import shutil
import sys
import time
from typing import Any, Dict, Optional, Tuple

from repro.exec.spec import RunSpec

CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: On-disk format version: bump when the entry layout/serialization
#: changes.  Distinct from the spec schema, which governs *keys*.
FORMAT = "v1"

#: Modules whose source defines dataset generation and tree
#: construction; their hash is the "dataset fingerprint" component of
#: every build key.  ``geometry`` belongs here because builds bake SoA
#: views and bounds computed by its kernels into the pickled workload.
_BUILD_SOURCE_PACKAGES = ("trees", "workloads", "geometry")

_build_fingerprint_memo: Optional[str] = None


def build_fingerprint(root: Optional[pathlib.Path] = None) -> str:
    """Hash of every source file that shapes a built index.

    Covers ``repro.trees`` (node layouts, bulk-load algorithms),
    ``repro.workloads`` (dataset generators, buffer placement), and
    ``repro.geometry`` (the scalar and batch kernels whose numerics the
    built structures embed).  A build entry written under one
    fingerprint is invisible under any other, so construction-code
    drift invalidates builds wholesale.

    ``root`` overrides the package root (memoization skipped), letting
    tests copy the tree, edit one file, and prove the key moves.
    """
    global _build_fingerprint_memo
    if root is None and _build_fingerprint_memo is not None:
        return _build_fingerprint_memo
    base = root if root is not None \
        else pathlib.Path(__file__).resolve().parent.parent
    digest = hashlib.sha256()
    for package in _BUILD_SOURCE_PACKAGES:
        for path in sorted((base / package).glob("*.py")):
            digest.update(path.name.encode())
            digest.update(path.read_bytes())
    fingerprint = digest.hexdigest()[:12]
    if root is None:
        _build_fingerprint_memo = fingerprint
    return fingerprint


def build_key(kind: str, params: Dict[str, Any]) -> str:
    """Content address of one index build.

    Keyed on the workload family, its construction parameters (which,
    with the seed, fully determine the dataset), and
    :func:`build_fingerprint` — and on nothing else: no platform, no
    GPU config, no scheduler fingerprint.  Those belong to *runs*, not
    builds, and folding them in would make resident-index reuse
    spuriously miss.
    """
    canonical = json.dumps(
        {"kind": kind, "params": params, "build": build_fingerprint()},
        sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def default_cache_dir() -> pathlib.Path:
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return pathlib.Path(env)
    return pathlib.Path.home() / ".cache" / "repro"


class ResultCache:
    """Filesystem-backed, content-addressed RunResult store."""

    def __init__(self, root: Optional[pathlib.Path] = None) -> None:
        self.base = pathlib.Path(root) if root is not None \
            else default_cache_dir()
        self.root = self.base / FORMAT

    # -- paths ----------------------------------------------------------------
    def _paths(self, key: str) -> Tuple[pathlib.Path, pathlib.Path]:
        shard = self.root / key[:2]
        return shard / f"{key}.pkl", shard / f"{key}.json"

    def metrics_path(self, key: str) -> pathlib.Path:
        """Flat ``repro.obs`` metrics sidecar for entry ``key``.

        Written at :meth:`put` time when the result carries a non-empty
        metrics snapshot, so dashboards and humans can read a run's
        metric values without unpickling the RunResult.
        """
        shard = self.root / key[:2]
        return shard / f"{key}.metrics.json"

    # -- read -----------------------------------------------------------------
    def contains(self, spec: RunSpec) -> bool:
        return self._paths(spec.key)[0].exists()

    def get(self, spec: RunSpec) -> Optional[Any]:
        """Return the cached RunResult for ``spec``, or None on a miss.

        A corrupt or unreadable entry (interrupted write from an older,
        pre-atomic layout, disk fault, unpicklable class drift, payload
        not matching the sidecar's SHA-256) is quarantined into
        ``<root>/corrupt/`` and reported as a miss rather than
        poisoning the run.
        """
        pkl, meta = self._paths(spec.key)
        try:
            with open(pkl, "rb") as fh:
                payload = fh.read()
            expected = self._expected_sha(meta)
            if expected is not None and \
                    hashlib.sha256(payload).hexdigest() != expected:
                raise ValueError(f"cache entry {spec.key} fails its checksum")
            return pickle.loads(payload)
        except FileNotFoundError:
            return None
        except Exception:
            self.quarantine(spec.key)
            return None

    @staticmethod
    def _expected_sha(meta: pathlib.Path) -> Optional[str]:
        """The payload checksum recorded at put() time, if any.

        Entries written before checksums existed (or with a damaged
        sidecar) validate by unpickling alone.
        """
        try:
            with open(meta, "r") as fh:
                return json.load(fh).get("sha256")
        except Exception:
            return None

    def quarantine(self, key: str) -> None:
        """Move a damaged entry to ``<root>/corrupt/`` (delete as a
        last resort), so it reads as a miss but survives post-mortem."""
        pkl, meta = self._paths(key)
        corrupt_dir = self.base / "corrupt"
        try:
            corrupt_dir.mkdir(parents=True, exist_ok=True)
        except OSError:
            corrupt_dir = None
        for path in (pkl, meta, self.metrics_path(key)):
            moved = False
            if corrupt_dir is not None:
                try:
                    os.replace(path, corrupt_dir / path.name)
                    moved = True
                except OSError:
                    pass
            if not moved:
                try:
                    path.unlink()
                except OSError:
                    pass

    # -- write ----------------------------------------------------------------
    def put(self, spec: RunSpec, result: Any,
            seconds: Optional[float] = None) -> None:
        pkl, meta = self._paths(spec.key)
        pkl.parent.mkdir(parents=True, exist_ok=True)
        payload = pickle.dumps(result, protocol=4)
        self._atomic_write(pkl, payload)
        sidecar = {
            "spec": spec.canonical(),
            "label": spec.label,
            "created": time.time(),
            "sha256": hashlib.sha256(payload).hexdigest(),
        }
        if seconds is not None:
            sidecar["seconds"] = seconds
        self._atomic_write(meta, json.dumps(sidecar, indent=1).encode())
        self.put_metrics(spec, result)

    def put_metrics(self, spec: RunSpec, result: Any) -> bool:
        """Write the flat metrics sidecar for ``spec``; True if written.

        Called by :meth:`put`, so every cached result has its metrics
        next to it.  A guard-quarantined point produces no result and
        so no sidecar; its diagnostic bundle lives under
        ``quarantine/`` instead.
        """
        snapshot = getattr(getattr(result, "stats", None), "metrics", None)
        if not snapshot:
            return False
        doc = {"spec": spec.canonical(), "label": spec.label,
               "metrics": snapshot.as_dict()}
        path = self.metrics_path(spec.key)
        path.parent.mkdir(parents=True, exist_ok=True)
        self._atomic_write(path,
                           json.dumps(doc, indent=1, default=str).encode())
        return True

    def result_sha(self, key: str) -> Optional[str]:
        """The SHA-256 of entry ``key``'s payload, from its sidecar.

        None on a miss (or a pre-checksum entry) — campaign manifests
        use this to fingerprint per-point results without unpickling.
        """
        return self._expected_sha(self._paths(key)[1])

    @staticmethod
    def _atomic_write(path: pathlib.Path, payload: bytes) -> None:
        tmp = path.with_suffix(path.suffix + f".tmp{os.getpid()}")
        with open(tmp, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)

    # -- index builds -----------------------------------------------------------
    #: Pickling a tree follows its node links recursively; a large
    #: B-Tree's leaf chain runs thousands of nodes deep, far past the
    #: default limit of 1000 (the large-scale serve preset needs ~70k).
    _BUILD_RECURSION_LIMIT = 200_000

    @contextlib.contextmanager
    def _deep_pickle(self):
        previous = sys.getrecursionlimit()
        sys.setrecursionlimit(max(previous, self._BUILD_RECURSION_LIMIT))
        try:
            yield
        finally:
            sys.setrecursionlimit(previous)

    def _build_paths(self, key: str) -> Tuple[pathlib.Path, pathlib.Path]:
        shard = self.base / "builds" / key[:2]
        return shard / f"{key}.pkl", shard / f"{key}.json"

    def get_build(self, key: str) -> Optional[Any]:
        """Return the cached workload build for ``key``, or None.

        Validation mirrors :meth:`get`: the payload must match the
        sidecar's SHA-256 and unpickle cleanly; anything else is
        quarantined and reported as a miss.
        """
        pkl, meta = self._build_paths(key)
        try:
            with open(pkl, "rb") as fh:
                payload = fh.read()
            expected = self._expected_sha(meta)
            if expected is not None and \
                    hashlib.sha256(payload).hexdigest() != expected:
                raise ValueError(f"build entry {key} fails its checksum")
            with self._deep_pickle():
                return pickle.loads(payload)
        except FileNotFoundError:
            return None
        except Exception:
            self._quarantine_build(key)
            return None

    def put_build(self, key: str, workload: Any,
                  kind: Optional[str] = None,
                  params: Optional[Dict[str, Any]] = None,
                  seconds: Optional[float] = None) -> bool:
        """Store one built workload; returns False if it won't pickle.

        An unpicklable workload is a soft miss — the caller keeps its
        in-memory object and the next process rebuilds — never an
        error on the serving path.

        A *mutated* workload is refused outright: ``build_key`` folds
        construction parameters and the dataset fingerprint only, so an
        entry must always be the pristine epoch-0 build those inputs
        deterministically produce.  Writing a churned tree under that
        key would resurrect the mutations into every later process —
        the cache-staleness bug the mutation-epoch version exists to
        prevent (``tests/test_mutation.py`` proves the refusal).
        """
        if self._mutation_epoch(workload) != 0:
            return False
        pkl, meta = self._build_paths(key)
        try:
            with self._deep_pickle():
                payload = pickle.dumps(workload, protocol=4)
        except Exception:
            return False
        pkl.parent.mkdir(parents=True, exist_ok=True)
        self._atomic_write(pkl, payload)
        sidecar = {
            "kind": kind,
            "params": params,
            "build_fingerprint": build_fingerprint(),
            "created": time.time(),
            "sha256": hashlib.sha256(payload).hexdigest(),
        }
        if seconds is not None:
            sidecar["seconds"] = seconds
        self._atomic_write(meta, json.dumps(sidecar, indent=1).encode())
        return True

    @staticmethod
    def _mutation_epoch(workload: Any) -> int:
        """The workload's mutation epoch, looking through to its tree.

        Workloads built before the mutation layer (or plain test stubs)
        carry neither attribute and read as epoch 0 — cacheable, as
        before.
        """
        epoch = getattr(workload, "mutation_epoch", 0) or 0
        for attr in ("tree", "bvh"):
            tree = getattr(workload, attr, None)
            if tree is not None:
                epoch = max(epoch, getattr(tree, "mutation_epoch", 0) or 0)
        return epoch

    def _quarantine_build(self, key: str) -> None:
        corrupt_dir = self.base / "corrupt"
        try:
            corrupt_dir.mkdir(parents=True, exist_ok=True)
        except OSError:
            corrupt_dir = None
        for path in self._build_paths(key):
            moved = False
            if corrupt_dir is not None:
                try:
                    os.replace(path, corrupt_dir / path.name)
                    moved = True
                except OSError:
                    pass
            if not moved:
                try:
                    path.unlink()
                except OSError:
                    pass

    # -- campaigns (repro.campaign coordination substrate) ----------------------
    #: Leases older than this are considered stale by :meth:`stats` and
    #: :meth:`prune_stale_leases` when the lease file itself does not
    #: carry a ``ttl_s``; matches the campaign scheduler's default.
    DEFAULT_LEASE_TTL_S = 300.0

    @property
    def campaigns_dir(self) -> pathlib.Path:
        return self.base / "campaigns"

    def _lease_files(self):
        root = self.campaigns_dir
        if not root.is_dir():
            return
        yield from root.glob("*/leases/*.json")

    def _lease_stale(self, path: pathlib.Path) -> bool:
        """A lease is stale once its writer-declared TTL has elapsed.

        Self-contained re-statement of the campaign scheduler's expiry
        rule (``repro.campaign`` imports ``repro.exec``, so the cache
        cannot call back into it) minus the local-pid fast path — a
        maintenance sweep only needs "old", not "stealable right now".
        """
        ttl = self.DEFAULT_LEASE_TTL_S
        acquired = None
        try:
            lease = json.loads(path.read_text())
            ttl = float(lease.get("ttl_s", ttl))
            acquired = float(lease.get("acquired", 0.0))
        except (OSError, ValueError):
            pass
        try:
            mtime = path.stat().st_mtime
        except OSError:
            return False
        newest = mtime if acquired is None else max(mtime, acquired)
        return time.time() - newest > ttl

    def lease_stats(self) -> Dict[str, int]:
        total = stale = 0
        for path in self._lease_files():
            total += 1
            if self._lease_stale(path):
                stale += 1
        return {"total": total, "stale": stale}

    def prune_stale_leases(self) -> int:
        """Unlink expired campaign leases; returns how many went.

        Safe against live sweeps by construction: a worker that was
        merely slow re-acquires through the same atomic claim/steal
        protocol, and double execution of a deterministic point is
        byte-identical.
        """
        removed = 0
        for path in list(self._lease_files()):
            if not self._lease_stale(path):
                continue
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def prune_quarantine(self) -> int:
        """Drop post-mortem artifacts: guard bundles and corrupt entries."""
        removed = 0
        for directory in (self.base / "quarantine", self.base / "corrupt"):
            if not directory.is_dir():
                continue
            for path in directory.iterdir():
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
        return removed

    # -- maintenance -----------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        entries = 0
        size = 0
        if self.root.is_dir():
            for path in self.root.rglob("*.pkl"):
                entries += 1
                try:
                    size += path.stat().st_size
                except OSError:
                    pass
        corrupt = 0
        corrupt_dir = self.base / "corrupt"
        if corrupt_dir.is_dir():
            corrupt = sum(1 for _ in corrupt_dir.glob("*.pkl"))
        builds = 0
        builds_dir = self.base / "builds"
        if builds_dir.is_dir():
            for path in builds_dir.rglob("*.pkl"):
                builds += 1
                try:
                    size += path.stat().st_size
                except OSError:
                    pass
        campaigns = 0
        if self.campaigns_dir.is_dir():
            campaigns = sum(1 for p in self.campaigns_dir.iterdir()
                            if p.is_dir())
        quarantine = 0
        quarantine_dir = self.base / "quarantine"
        if quarantine_dir.is_dir():
            quarantine = sum(1 for _ in quarantine_dir.glob("*.json"))
        leases = self.lease_stats()
        return {"root": str(self.base), "format": FORMAT,
                "entries": entries, "builds": builds, "bytes": size,
                "corrupt": corrupt, "campaigns": campaigns,
                "leases": leases["total"], "stale_leases": leases["stale"],
                "quarantine": quarantine}

    def clear(self) -> int:
        """Delete every entry (runs and builds); returns how many."""
        stats = self.stats()
        removed = stats["entries"] + stats["builds"]
        if self.root.is_dir():
            shutil.rmtree(self.root, ignore_errors=True)
        builds_dir = self.base / "builds"
        if builds_dir.is_dir():
            shutil.rmtree(builds_dir, ignore_errors=True)
        return removed
