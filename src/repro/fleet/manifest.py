"""Cache keys and gem5-style result manifests.

The deterministic result cache is content-addressed on the triple the
gem5 reproducibility workflow (PAPERS.md) standardizes artifacts around:

* **config hash** — SHA-256 over the job's canonical identity (model,
  resolution, frames, memory config, fault probabilities — everything
  that shapes the simulation except the seed);
* **seed** — the RNG seed, kept out of the config hash so a seed sweep
  reads as siblings of one configuration;
* **code version** — SHA-256 over every source file of the ``repro``
  package, so results computed by different code never alias.  (A git
  commit would be the natural version, but hashing the sources works in
  exported tarballs and dirty trees alike.)

Every cache entry carries a ``MANIFEST.json`` describing what produced
it: the full spec, the key components, the artifact list, and run
provenance (attempt count, resume points).  Manifests are validated on
read — a cache entry whose manifest is damaged or disagrees with its
address is treated as a miss, never trusted.
"""

from __future__ import annotations

import hashlib
import os
from typing import Optional

from repro.fleet.job import JobSpec
from repro.gl.trace import canonical_json

#: Manifest / result payload schema identifiers (bump on format change).
MANIFEST_SCHEMA = "repro-fleet-manifest/1"
RESULT_SCHEMA = "repro-fleet-result/1"

MANIFEST_NAME = "MANIFEST.json"
RESULT_NAME = "result.json"


class ManifestError(ValueError):
    """A manifest document failed validation."""


_code_version_cache: Optional[str] = None


def code_version() -> str:
    """Digest of every ``repro`` source file (path + contents)."""
    global _code_version_cache
    if _code_version_cache is None:
        import repro
        root = os.path.dirname(os.path.abspath(repro.__file__))
        digest = hashlib.sha256()
        sources = []
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for filename in sorted(filenames):
                if filename.endswith(".py"):
                    sources.append(os.path.join(dirpath, filename))
        for path in sources:
            digest.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
        _code_version_cache = digest.hexdigest()[:16]
    return _code_version_cache


def config_hash(spec: JobSpec) -> str:
    """Digest of the spec's identity with the seed factored out."""
    identity = spec.identity()
    del identity["seed"]
    return hashlib.sha256(canonical_json(identity).encode()).hexdigest()[:16]


def cache_key(spec: JobSpec) -> str:
    """The content address: (config hash, seed, code version)."""
    material = f"{config_hash(spec)}:{spec.seed}:{code_version()}"
    return hashlib.sha256(material.encode()).hexdigest()[:32]


def build_manifest(spec: JobSpec, key: str, *, outcome: str,
                   provenance: Optional[dict] = None) -> dict:
    """The document stored beside a cached result."""
    return {
        "schema": MANIFEST_SCHEMA,
        "key": key,
        "inputs": {
            "config_hash": config_hash(spec),
            "seed": spec.seed,
            "code_version": code_version(),
        },
        "job": spec.to_dict(),
        "outcome": outcome,
        "artifacts": {"result": RESULT_NAME},
        "provenance": provenance or {},
    }


def validate_manifest(doc, *, key: Optional[str] = None) -> dict:
    """Check a manifest's shape (and, when given, its address).

    Raises :class:`ManifestError` naming what is wrong; the cache treats
    any such entry as a miss.
    """
    if not isinstance(doc, dict):
        raise ManifestError(
            f"manifest must be an object, got {type(doc).__name__}")
    if doc.get("schema") != MANIFEST_SCHEMA:
        raise ManifestError(
            f"unsupported manifest schema {doc.get('schema')!r}")
    for required in ("key", "inputs", "job", "outcome", "artifacts"):
        if required not in doc:
            raise ManifestError(f"manifest missing {required!r}")
    inputs = doc["inputs"]
    if not isinstance(inputs, dict):
        raise ManifestError("manifest 'inputs' must be an object")
    for component in ("config_hash", "seed", "code_version"):
        if component not in inputs:
            raise ManifestError(f"manifest inputs missing {component!r}")
    if key is not None and doc["key"] != key:
        raise ManifestError(
            f"manifest key {doc['key']!r} disagrees with its cache "
            f"address {key!r}")
    return doc


def result_payload(spec: JobSpec, fb_crc: int,
                   metrics: Optional[dict] = None) -> dict:
    """The deterministic result of a job — the bytes the cache stores.

    Only resume-invariant facts belong here: the framebuffer CRC is
    bit-identical between a fault-free serial run and a crashed-and-
    resumed one (the recovery acceptance tests pin this), so a cached
    payload compares bit-for-bit no matter how bumpy the road was.
    Volatile telemetry (attempt counts, end tick, wall time) lives in the
    manifest's provenance instead.

    ``metrics`` (DSE runs, ``spec.collect_metrics``) is a nested block of
    derived measurements — FPS, DRAM bandwidth, energy.  DSE jobs run
    fault-free and uninterrupted, where every metric is a deterministic
    function of the spec, so the payload stays content-addressable.
    """
    payload = {
        "schema": RESULT_SCHEMA,
        **spec.identity(),
        "fb_crc": f"0x{fb_crc:08x}",
    }
    if metrics is not None:
        payload["metrics"] = dict(metrics)
    return payload


def payload_bytes(payload: dict) -> bytes:
    """Canonical on-disk encoding of a result payload."""
    return (canonical_json(payload) + "\n").encode()
