"""Declarative run specifications: the unit of work of the exec service.

A :class:`RunSpec` describes one simulation data point — *which*
workload (family + generator parameters), *where* it runs (platform),
*how* the GPU is configured (a config **policy**, not a concrete
:class:`~repro.gpu.config.GPUConfig`, so that workload-size-dependent
cache scaling happens next to the workload, inside the worker), and any
extra runner keyword arguments.  Specs are plain JSON-serializable
data, which makes them:

* **dispatchable** — a spec can be shipped to a worker process and
  executed there without pickling live workload objects;
* **content-addressable** — :attr:`RunSpec.key` is the SHA-256 of the
  canonical JSON form plus a code-version fingerprint, so a completed
  run can be memoized on disk and found again by any later process.

Config policies (the ``config`` mapping):

==============  ==============================================================
``scaled``      derive the config with
                :func:`~repro.harness.runner.scaled_config_for` from the
                built workload's footprint; optional ``pressure`` float.
``default``     start from :data:`~repro.gpu.config.DEFAULT_CONFIG`.
==============  ==============================================================

Either policy accepts an ``overrides`` mapping applied last via
``GPUConfig.with_overrides``.  ``config=None`` means "whatever the
runner's own default is" (which is the scaled policy for every CUDA
workload runner).
"""

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro import __version__
from repro.errors import ConfigurationError
from repro.sim import scheduler_fingerprint

#: Bump when the meaning of a spec field changes: old cache entries
#: must not satisfy new specs.
SPEC_SCHEMA = 1

#: Workload families the execution service knows how to build and run.
KINDS = ("btree", "nbody", "rtnn", "wknd", "lumi", "rtree", "knn")


def code_fingerprint() -> str:
    """Version string folded into every spec key.

    A new repro release (or spec-schema bump) invalidates the cache
    wholesale — the engine is deterministic *per version*, not across
    arbitrary code changes.  The scheduler fingerprint (a hash of the
    engine and timing-model sources) is folded in as well:
    results produced by different scheduler models must never satisfy
    each other's specs, even within one release.
    """
    return f"{__version__}+schema{SPEC_SCHEMA}+sim{scheduler_fingerprint()}"


def _check_jsonable(name: str, value: Any) -> None:
    try:
        json.dumps(value, sort_keys=True)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(
            f"RunSpec.{name} must be JSON-serializable data: {exc}"
        ) from None


@dataclass(frozen=True, eq=False)
class RunSpec:
    """One (workload, platform, config) simulation point, as pure data."""

    kind: str
    workload: Dict[str, Any]
    platform: str
    config: Optional[Dict[str, Any]] = None
    run_kwargs: Dict[str, Any] = field(default_factory=dict)
    version: str = field(default_factory=code_fingerprint)

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ConfigurationError(
                f"unknown workload kind {self.kind!r}; pick from {KINDS}"
            )
        _check_jsonable("workload", self.workload)
        _check_jsonable("config", self.config)
        _check_jsonable("run_kwargs", self.run_kwargs)

    # -- canonical form ------------------------------------------------------
    def canonical(self) -> str:
        """Deterministic JSON: sorted keys, no whitespace."""
        return json.dumps(
            {
                "kind": self.kind,
                "workload": self.workload,
                "platform": self.platform,
                "config": self.config,
                "run_kwargs": self.run_kwargs,
                "version": self.version,
            },
            sort_keys=True,
            separators=(",", ":"),
        )

    @property
    def key(self) -> str:
        """Content address: SHA-256 hex of the canonical form."""
        return hashlib.sha256(self.canonical().encode("utf-8")).hexdigest()

    @property
    def label(self) -> str:
        """Short human-readable tag for progress lines and manifests."""
        parts = [f"{k}={v}" for k, v in sorted(self.workload.items())
                 if k != "seed"]
        return f"{self.kind}[{','.join(parts)}]@{self.platform}"

    # -- serialization -------------------------------------------------------
    def to_json(self) -> str:
        return self.canonical()

    @classmethod
    def from_json(cls, text: str) -> "RunSpec":
        data = json.loads(text)
        return cls(
            kind=data["kind"],
            workload=data["workload"],
            platform=data["platform"],
            config=data.get("config"),
            run_kwargs=data.get("run_kwargs") or {},
            version=data.get("version") or code_fingerprint(),
        )

    # -- identity ------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RunSpec):
            return NotImplemented
        return self.canonical() == other.canonical()

    def __hash__(self) -> int:
        return hash(self.canonical())

    def __repr__(self) -> str:
        return f"RunSpec({self.label}, key={self.key[:12]})"


def make_spec(kind: str, workload: Dict[str, Any], platform: str,
              config: Optional[Dict[str, Any]] = None,
              run_kwargs: Optional[Dict[str, Any]] = None,
              version: Optional[str] = None) -> RunSpec:
    """Convenience constructor; drops run kwargs left at ``None``."""
    run_kwargs = {k: v for k, v in (run_kwargs or {}).items()
                  if v is not None}
    return RunSpec(kind=kind, workload=dict(workload), platform=platform,
                   config=dict(config) if config is not None else None,
                   run_kwargs=run_kwargs,
                   version=version or code_fingerprint())
