"""Plan persistence: serialize compiled ExecutionPlans across restarts.

The TASD decomposition of static weights is input-independent, so its cost
should be paid once per *model*, not once per process (SparseRT pays its
specialisation cost ahead of time; S2TA keeps exactly this compressed form
resident).  This module makes the compiled artifact durable: a single
``.npz`` file carrying every layer's :class:`CompressedNM` term arrays,
shapes, series configurations and chosen kernel backend, plus a JSON
manifest that keys the whole artifact by the weight digests
``compile_plan`` records on every layer (gather tables are index
arithmetic over the stored terms, rederived bit-identically at load).

Loading rebuilds a fully working :class:`ExecutionPlan` without touching
``tasder`` or ``pruning``: no decomposition, no compression — the arrays
deserialize straight into :class:`CompiledOperand` storage, each
:class:`LayerPlan` builds its backend's prepared state as it is
constructed (so pool workers forked afterwards share it), and every layer
keeps the weight digest it was saved with.

Integrity is enforced on two axes:

- **artifact integrity** — the manifest carries a checksum of its own
  bytes plus a content digest per stored array; corruption or tampering
  raises :class:`PlanFormatError` instead of loading garbage;
- **model identity** — the manifest records each layer's weight digest and
  a whole-model fingerprint; loading against a model whose weights have
  drifted (retrained, re-pruned, differently seeded) raises
  :class:`PlanDigestError` naming the stale layers.

Process-pool workers never load an artifact: they are forked with their
pool's plan in memory, and a hot swap forks a new pool with the loaded
plan.

Usage::

    plan = compile_plan(model, transform, backend="dense-emulation")
    plan.save("plan.npz")                      # pay the compile once
    ...                                        # process restart
    plan = load_plan("plan.npz", model)        # milliseconds, same plan
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
import tokenize
import zipfile
import zlib
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro.core.patterns import NMPattern
from repro.core.series import TASDConfig
from repro.core.sparse_ops import CompressedNM, nm_gather_tables

from .cache import CompiledOperand, tensor_digest

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.nn.module import Module

    from .plan import ExecutionPlan

__all__ = [
    "PLAN_FORMAT",
    "PLAN_FORMAT_VERSION",
    "PlanFormatError",
    "PlanDigestError",
    "model_fingerprint",
    "plan_fingerprint",
    "save_plan",
    "load_plan",
]

PLAN_FORMAT = "repro-execution-plan"
PLAN_FORMAT_VERSION = 1

_MANIFEST_KEY = "__manifest__"
_CHECKSUM_KEY = "__checksum__"


class PlanFormatError(ValueError):
    """The artifact is not a readable plan (wrong format, corrupt, tampered)."""


class PlanDigestError(ValueError):
    """The artifact is a valid plan, but for different weights than the model's."""


# What reading a damaged artifact can raise: a zip CRC or header mismatch
# (BadZipFile), a truncated or garbled stream (EOFError, OSError,
# zlib.error), an unparsable ``.npy`` header (ValueError, SyntaxError,
# tokenize.TokenError), or zip flags the reader does not support
# (NotImplementedError).  Each becomes a PlanFormatError at the read.
_READ_ERRORS = (
    zipfile.BadZipFile,
    EOFError,
    OSError,
    zlib.error,
    ValueError,
    SyntaxError,
    tokenize.TokenError,
    NotImplementedError,
)


# ---------------------------------------------------------------------- #
# Digests
# ---------------------------------------------------------------------- #
def _fingerprint_of_digests(layer_digests: dict[str, str]) -> str:
    """Whole-model fingerprint over per-layer weight digests (order-free)."""
    h = hashlib.blake2b(digest_size=20)
    for name in sorted(layer_digests):
        h.update(f"{name}={layer_digests[name]}\n".encode())
    return h.hexdigest()


def model_fingerprint(model: "Module") -> str:
    """Content fingerprint of a model's GEMM-layer weights.

    This is the identity a persisted plan is keyed by: two models with the
    same fingerprint have bit-identical GEMM weights, so a plan compiled
    from one serves the other exactly.
    """
    from repro.pruning.targets import gemm_layers

    digests = {
        name: tensor_digest(layer.weight_matrix())
        for name, layer in gemm_layers(model, include_head=True)
    }
    return _fingerprint_of_digests(digests)


def plan_fingerprint(plan: "ExecutionPlan") -> str:
    """Content fingerprint of the weights a compiled plan was built from.

    Computed over the same per-layer weight digests that guard persisted
    artifacts, so it equals :func:`model_fingerprint` of the source model.
    A hot plan-swap compares the live and candidate plans' fingerprints
    before any worker is touched: equal fingerprints mean the new plan
    serves the *same* weights (another backend or re-layout), and a
    mismatch is a wrong-artifact deploy rejected up front.
    """
    digests = {
        name: _layer_weight_digest(layer_plan)
        for name, layer_plan in plan.layers.items()
    }
    return _fingerprint_of_digests(digests)


def _manifest_checksum(manifest_bytes: bytes) -> str:
    return hashlib.blake2b(manifest_bytes, digest_size=20).hexdigest()


# ---------------------------------------------------------------------- #
# Save
# ---------------------------------------------------------------------- #
def _layer_weight_digest(layer_plan) -> str:
    """Digest of the weight a layer plan was compiled from.

    ``compile_plan`` and :func:`load_plan` record it on every :class:`LayerPlan`.  A hand-built plan without it still works
    for dense / per-call layers, whose dense weight is at hand; a compiled
    layer holds only the compressed *approximation*, so its source digest
    is unrecoverable and the plan is refused.
    """
    if layer_plan.weight_digest is not None:
        return layer_plan.weight_digest
    if layer_plan.dense_weight is not None:
        return tensor_digest(layer_plan.dense_weight)
    raise PlanFormatError(
        f"cannot persist layer {layer_plan.name!r}: it records no weight "
        f"digest, and its compressed operand cannot recover the source "
        f"weight's; recompile the plan"
    )


def _collect_entries(plan: "ExecutionPlan", put) -> tuple[list[dict], dict[str, str]]:
    """Build the per-layer manifest entries, registering arrays via ``put``.

    ``put(key, array) -> key`` stores one array and records its digest for
    verification at load.  Returns (layer entries, per-layer weight
    digests).
    """
    layer_entries: list[dict] = []
    layer_digests: dict[str, str] = {}
    for i, (name, lp) in enumerate(plan.layers.items()):
        weight_digest = _layer_weight_digest(lp)
        layer_digests[name] = weight_digest
        entry: dict = {
            "name": name,
            "kind": lp.kind,
            "mode": lp.mode,
            "weight_config": str(lp.weight_config),
            "activation_config": str(lp.activation_config),
            "activation_axis": lp.activation_axis,
            "backend": lp.backend,
            "weight_digest": weight_digest,
        }
        if lp.operand is not None:
            op = lp.operand
            entry["original_shape"] = list(op.original_shape)
            entry["padded_shape"] = list(op.padded_shape)
            entry["terms"] = [
                {
                    "pattern": str(term.pattern),
                    "values": put(f"L{i}.t{t}.values", term.values),
                    "indices": put(f"L{i}.t{t}.indices", term.indices),
                }
                for t, term in enumerate(op.terms)
            ]
        if lp.dense_weight is not None:
            entry["dense_weight"] = put(f"L{i}.dense", lp.dense_weight)
        layer_entries.append(entry)
    return layer_entries, layer_digests


def save_plan(plan: "ExecutionPlan", path: str | Path) -> Path:
    """Serialize ``plan`` to a single ``.npz`` + JSON-manifest artifact.

    The artifact stores, per layer, the :class:`CompressedNM` term arrays
    (``values``/``indices``), the dense weight (dense / per-call layers),
    the padded/original shapes, the series configuration strings and the
    chosen backend — everything :func:`load_plan` needs to rebuild the
    plan without re-decomposing (the gather tables are pure index
    arithmetic over the stored terms and are rederived at load).  Returns
    the written path.
    """
    path = Path(path)
    arrays: dict[str, np.ndarray] = {}
    array_digests: dict[str, str] = {}

    def put(key: str, a: np.ndarray) -> str:
        arrays[key] = a
        array_digests[key] = tensor_digest(a)
        return key

    layer_entries, layer_digests = _collect_entries(plan, put)

    manifest = {
        "format": PLAN_FORMAT,
        "version": PLAN_FORMAT_VERSION,
        "model_fingerprint": _fingerprint_of_digests(layer_digests),
        "mode": plan.mode,
        "build_time": plan.build_time,
        "layers": layer_entries,
        "array_digests": array_digests,
    }
    manifest_bytes = json.dumps(manifest, sort_keys=True).encode()
    arrays[_MANIFEST_KEY] = np.frombuffer(manifest_bytes, dtype=np.uint8)
    arrays[_CHECKSUM_KEY] = np.frombuffer(
        _manifest_checksum(manifest_bytes).encode(), dtype=np.uint8
    )
    # Atomic replace: a crash or full disk mid-write must never destroy an
    # existing good artifact at this path — that artifact is exactly what a
    # restarted server needs.  The temp name is unique per process *and*
    # thread, so concurrent savers to one path each complete a whole
    # artifact and the last os.replace wins.
    tmp = path.with_name(f".{path.name}.tmp-{os.getpid()}-{threading.get_ident()}")
    try:
        # Stored, not deflated: zlib dominated load time, and load_plan
        # reads both this and the older compressed artifacts.
        with open(tmp, "wb") as f:
            np.savez(f, **arrays)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    return path


# ---------------------------------------------------------------------- #
# Load
# ---------------------------------------------------------------------- #
def _member(data, key: str) -> np.ndarray:
    """Read one stored array; a damaged member raises PlanFormatError."""
    try:
        return data[key]
    except _READ_ERRORS as exc:
        raise PlanFormatError(
            f"plan artifact entry {key!r} is unreadable ({type(exc).__name__}: "
            f"{exc}); the artifact was modified or corrupted"
        ) from exc


def _read_manifest(data) -> dict:
    if _MANIFEST_KEY not in data or _CHECKSUM_KEY not in data:
        raise PlanFormatError(
            "not a persisted execution plan: missing manifest/checksum entries"
        )
    manifest_bytes = bytes(_member(data, _MANIFEST_KEY))
    stored_checksum = bytes(_member(data, _CHECKSUM_KEY)).decode(errors="replace")
    if _manifest_checksum(manifest_bytes) != stored_checksum:
        raise PlanFormatError(
            "plan manifest checksum mismatch: the artifact was modified or corrupted"
        )
    try:
        manifest = json.loads(manifest_bytes.decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise PlanFormatError(f"plan manifest is not valid JSON: {exc}") from None
    if manifest.get("format") != PLAN_FORMAT:
        raise PlanFormatError(
            f"not a persisted execution plan (format={manifest.get('format')!r})"
        )
    if manifest.get("version") != PLAN_FORMAT_VERSION:
        raise PlanFormatError(
            f"unsupported plan format version {manifest.get('version')!r}; "
            f"this runtime reads version {PLAN_FORMAT_VERSION}"
        )
    return manifest


def _array(data, manifest: dict, key: str) -> np.ndarray:
    if key not in data:
        raise PlanFormatError(f"plan artifact is missing array {key!r}")
    a = _member(data, key)
    expected = manifest["array_digests"].get(key)
    if expected is None:
        raise PlanFormatError(f"plan manifest lacks a digest for array {key!r}")
    if tensor_digest(a) != expected:
        raise PlanFormatError(
            f"plan array {key!r} digest mismatch: the artifact was modified "
            f"or corrupted"
        )
    return a


def _verify_model(manifest: dict, model: "Module") -> None:
    from repro.pruning.targets import gemm_layers

    layers = dict(gemm_layers(model, include_head=True))
    missing = [e["name"] for e in manifest["layers"] if e["name"] not in layers]
    if missing:
        raise PlanDigestError(
            f"plan names GEMM layers the model lacks: {sorted(missing)}"
        )
    # One digest pass over the model's full GEMM set serves both checks —
    # full-weight hashing dominates warm-restart cost, so never pay it twice.
    current = {
        name: tensor_digest(layer.weight_matrix()) for name, layer in layers.items()
    }
    stale = [
        e["name"] for e in manifest["layers"] if current[e["name"]] != e["weight_digest"]
    ]
    if stale:
        raise PlanDigestError(
            f"plan was compiled for different weights: digest mismatch on "
            f"{len(stale)}/{len(manifest['layers'])} layers "
            f"({', '.join(sorted(stale)[:5])}{', ...' if len(stale) > 5 else ''}); "
            f"recompile the plan for this model"
        )
    # The fingerprint spans the model's *full* GEMM layer set, so it also
    # catches layers the plan has never heard of: a model that gained a
    # GEMM layer since the save would otherwise load fine and serve that
    # layer silently unplanned.
    if _fingerprint_of_digests(current) != manifest["model_fingerprint"]:
        extra = sorted(set(layers) - {e["name"] for e in manifest["layers"]})
        raise PlanDigestError(
            f"plan was compiled for a model without GEMM layers "
            f"{extra or '(unknown)'}; recompile the plan for this model"
        )


def _rebuild_operand(data, manifest: dict, entry: dict, config: TASDConfig) -> CompiledOperand:
    padded_shape = tuple(entry["padded_shape"])
    terms = []
    flat_values = []
    flat_rows = []
    for term_entry in entry["terms"]:
        term = CompressedNM(
            pattern=NMPattern.parse(term_entry["pattern"]),
            values=_array(data, manifest, term_entry["values"]),
            indices=_array(data, manifest, term_entry["indices"]),
            shape=padded_shape,
        )
        terms.append(term)
        # Gather tables are pure index arithmetic over the compressed term
        # (the same derivation compile time uses) — rederive them instead
        # of persisting, digesting, and verifying derived data.
        vals, rows = nm_gather_tables(term)
        flat_values.append(vals)
        flat_rows.append(rows)
    return CompiledOperand(
        config=config,
        original_shape=tuple(entry["original_shape"]),
        padded_shape=padded_shape,
        terms=tuple(terms),
        flat_values=tuple(flat_values),
        flat_rows=tuple(flat_rows),
    )


def load_plan(path: str | Path, model: "Module") -> "ExecutionPlan":
    """Deserialize a plan saved by :func:`save_plan` back into a working one.

    Verifies artifact integrity (manifest checksum + per-array digests) and
    model identity (per-layer weight digests + whole-model fingerprint)
    before rebuilding anything: a stale or tampered artifact raises
    :class:`PlanDigestError` / :class:`PlanFormatError` instead of serving
    wrong results.  Every layer keeps the weight digest it was saved with
    and builds its backend's prepared state — load time is file I/O,
    digest checks and dense-emulation's decompress, never decomposition.
    """
    t0 = time.perf_counter()
    path = Path(path)
    try:
        data = np.load(path, allow_pickle=False)
    except FileNotFoundError:
        raise  # a missing path is the caller's error, not a bad artifact
    except _READ_ERRORS as exc:
        # Truncated zip, arbitrary bytes, numpy's "pickled data" refusal, ...
        raise PlanFormatError(
            f"cannot read plan artifact {path}: {exc}"
        ) from exc
    with data:
        manifest = _read_manifest(data)
        try:
            plan = _rebuild_plan(data, manifest, model)
        except (PlanFormatError, PlanDigestError):
            raise
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            # A forged manifest (checksum recomputed) with missing or
            # mistyped keys must still refuse cleanly, not crash raw.
            raise PlanFormatError(
                f"plan manifest is malformed ({type(exc).__name__}: {exc}); "
                f"the artifact was modified or written incompatibly"
            ) from None
    plan.build_time = time.perf_counter() - t0
    return plan


def _entry_configs(entry: dict) -> tuple[TASDConfig, TASDConfig]:
    """Parsed (weight, activation) configs with mode/backend validation.

    Raised problems surface as :class:`PlanFormatError` before
    ``LayerPlan.__post_init__`` turns them into raw KeyErrors.
    """
    from .backends import backend_names
    from .plan import MODES

    name = entry["name"]
    if entry["mode"] not in MODES:
        raise PlanFormatError(
            f"plan layer {name!r} has unknown mode {entry['mode']!r}; "
            f"options: {MODES}"
        )
    if entry["mode"] == "compiled" and entry["backend"] not in backend_names():
        raise PlanFormatError(
            f"plan layer {name!r} uses unknown GEMM backend "
            f"{entry['backend']!r} (known: {backend_names()}); "
            f"recompile the plan"
        )
    return (
        TASDConfig.parse(entry["weight_config"]),
        TASDConfig.parse(entry["activation_config"]),
    )


def _rebuild_plan(data, manifest: dict, model: "Module"):
    """Rebuild the ExecutionPlan a verified manifest describes.

    ``build_time`` is stamped by the caller (it covers the whole load).
    Keys that older version-1 writers recorded and this runtime no longer
    uses (row-partition schedules, the activation-cache flag, backend
    timing sweeps) are ignored; the manifest checksum still covers them.
    """
    from repro.tasder.transform import TASDTransform

    from .plan import ExecutionPlan, LayerPlan

    _verify_model(manifest, model)
    layers: dict = {}
    weight_configs: dict[str, TASDConfig] = {}
    activation_configs: dict[str, TASDConfig] = {}
    for entry in manifest["layers"]:
        name = entry["name"]
        weight_config, activation_config = _entry_configs(entry)
        if not weight_config.is_dense:
            weight_configs[name] = weight_config
        if not activation_config.is_dense:
            activation_configs[name] = activation_config
        operand = dense_weight = None
        if "terms" in entry:
            operand = _rebuild_operand(data, manifest, entry, weight_config)
        if "dense_weight" in entry:
            dense_weight = _array(data, manifest, entry["dense_weight"])
        layers[name] = LayerPlan(
            name=name,
            kind=entry["kind"],
            mode=entry["mode"],
            weight_config=weight_config,
            activation_config=activation_config,
            activation_axis=entry["activation_axis"],
            operand=operand,
            dense_weight=dense_weight,
            backend=entry["backend"],
            weight_digest=entry["weight_digest"],
        )
    return ExecutionPlan(
        layers=layers,
        transform=TASDTransform(
            weight_configs=weight_configs, activation_configs=activation_configs
        ),
        mode=manifest["mode"],
        build_time=0.0,
    )
