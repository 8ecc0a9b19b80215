"""Draw-call trace record/replay — the APITrace substitute (DESIGN.md §1).

Emerald's standalone mode replays API traces recorded with APITrace; here a
:class:`TraceRecorder` captures every draw call a :class:`GLContext` frame
contains into a JSON document, and :func:`replay` reconstructs frames
through a fresh context.  A region of interest (frame range, draw range)
can be selected at replay time, mirroring Emerald's frame/draw-call ROI
support (§4.1).

Format version 2 (written by :meth:`TraceRecorder.to_json`) interns
vertex/index buffers and texture images into content-addressed top-level
tables — draw calls reference them by digest id.  Real scenes bind the
same meshes and textures in every frame, so a v1 document grew linearly
in ``frames x draw calls x asset bytes`` while v2 grows linearly in the
*distinct* assets plus a few hundred bytes per draw call.  That is what
makes frequent checkpointing (and the fast-forward/sampling drivers that
snapshot at every mode switch) cheap.  :func:`replay` accepts both
versions; interned ids are content digests, so two captures of the same
command stream serialize byte-identically.

The recorder writes :func:`canonical_json` text, so checkpoints splice it
into their own encoding without parsing it (:mod:`repro.soc.checkpoint`).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.geometry.mesh import Mesh, PrimitiveMode
from repro.gl.context import DrawCall, Frame, GLContext
from repro.gl.state import (BlendFactor, CullMode, DepthFunc, GLState,
                            StencilOp)
from repro.gl.textures import Texture2D


class TraceDecodeError(ValueError):
    """A trace document failed decoding or validation.

    Raised for truncated/corrupt files and structurally invalid
    documents alike, with ``detail`` naming the offending location
    (dotted path) — the trace analog of
    :class:`repro.soc.checkpoint.CheckpointError`, so replay callers get
    one typed failure instead of a grab-bag of ``JSONDecodeError`` /
    ``KeyError`` / ``TypeError``.
    """

    def __init__(self, message: str, detail: str = "$") -> None:
        super().__init__(f"trace {detail}: {message}")
        self.detail = detail


#: Format version :class:`TraceRecorder` writes.  :func:`replay` accepts
#: every version in :data:`TRACE_VERSIONS`.
TRACE_VERSION = 2
TRACE_VERSIONS = (1, 2)


def canonical_json(value) -> str:
    """The one true serialization: sorted keys, no whitespace, ASCII.

    Hashes and bit-for-bit comparisons go through here — trace digests,
    checkpoint CRCs, fleet cache keys and payloads — so two processes
    serializing the same value produce the same bytes.  The encoding of a
    nested value is exactly its substring in the encoding of the enclosing
    document, which is what lets :class:`TraceRecorder` and checkpoints
    assemble documents from separately encoded pieces.
    """
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def trace_digest(trace_json: str) -> str:
    """Content digest of a trace document (format-independent).

    SHA-256 over the :func:`canonical_json` serialization, so two captures
    of the same command stream digest equal regardless of the formatting
    they were written with.  The replay-determinism tests pin capture ->
    replay -> re-capture to a fixed point of this digest.
    """
    return hashlib.sha256(
        canonical_json(_decode(trace_json)).encode()).hexdigest()


def _decode(trace_json: str) -> dict:
    """Parse + structurally validate a trace document (typed errors)."""
    try:
        doc = json.loads(trace_json)
    except json.JSONDecodeError as exc:
        raise TraceDecodeError(
            f"truncated or not JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise TraceDecodeError(
            f"expected an object, got {type(doc).__name__}")
    if doc.get("version") not in TRACE_VERSIONS:
        raise TraceDecodeError(
            f"unsupported version {doc.get('version')!r}", detail="version")
    if doc["version"] >= 2:
        for table in ("buffers", "textures"):
            if not isinstance(doc.get(table), dict):
                raise TraceDecodeError("missing or not an object",
                                       detail=table)
    frames = doc.get("frames")
    if not isinstance(frames, list):
        raise TraceDecodeError("missing or not a list", detail="frames")
    for index, frame_doc in enumerate(frames):
        if not isinstance(frame_doc, dict):
            raise TraceDecodeError(
                f"expected an object, got {type(frame_doc).__name__}",
                detail=f"frames[{index}]")
        for key in ("width", "height", "clear_color", "clear_depth",
                    "draw_calls"):
            if key not in frame_doc:
                raise TraceDecodeError(
                    "missing", detail=f"frames[{index}].{key}")
        if not isinstance(frame_doc["draw_calls"], list):
            raise TraceDecodeError(
                "not a list", detail=f"frames[{index}].draw_calls")
    return doc


def _state_to_dict(state: GLState) -> dict:
    return {
        "depth_test": state.depth_test,
        "depth_write": state.depth_write,
        "depth_func": state.depth_func.value,
        "blend": state.blend,
        "blend_src": state.blend_src.value,
        "blend_dst": state.blend_dst.value,
        "cull": state.cull.value,
        "stencil_test": state.stencil_test,
        "stencil_func": state.stencil_func.value,
        "stencil_ref": state.stencil_ref,
        "stencil_pass_op": state.stencil_pass_op.value,
        "clear_color": list(state.clear_color),
        "clear_depth": state.clear_depth,
        "clear_stencil": state.clear_stencil,
        "viewport": list(state.viewport),
    }


def _state_from_dict(d: dict) -> GLState:
    return GLState(
        depth_test=d["depth_test"],
        depth_write=d["depth_write"],
        depth_func=DepthFunc(d["depth_func"]),
        blend=d["blend"],
        blend_src=BlendFactor(d["blend_src"]),
        blend_dst=BlendFactor(d["blend_dst"]),
        cull=CullMode(d["cull"]),
        stencil_test=d.get("stencil_test", False),
        stencil_func=DepthFunc(d.get("stencil_func", "always")),
        stencil_ref=d.get("stencil_ref", 0),
        stencil_pass_op=StencilOp(d.get("stencil_pass_op", "keep")),
        clear_color=tuple(d["clear_color"]),
        clear_depth=d["clear_depth"],
        clear_stencil=d.get("clear_stencil", 0),
        viewport=tuple(d["viewport"]),
    )


class _InternTable:
    """Content-addressed side table (id -> canonical JSON text).

    Array entries are keyed by a digest of the raw bytes (dtype + shape +
    data) so the expensive ``tolist()`` materialization and its encoding
    happen once per *distinct* asset, not once per draw call per frame.
    Ids only need to be deterministic functions of content — both engines
    recording the same command stream intern identical tables.  A table
    lives on its :class:`TraceRecorder` and holds only the assets that
    recorder's frames reference.
    """

    def __init__(self) -> None:
        self.entries: dict[str, str] = {}

    def _array_key(self, prefix: bytes, array: np.ndarray) -> str:
        array = np.ascontiguousarray(array)
        digest = hashlib.sha256(
            prefix + str(array.dtype).encode() + repr(array.shape).encode()
            + array.tobytes())
        return digest.hexdigest()[:16]

    def intern_array(self, array: np.ndarray) -> str:
        key = self._array_key(b"buf:", array)
        if key not in self.entries:
            self.entries[key] = canonical_json(array.tolist())
        return key

    def intern_texture(self, texture: Texture2D) -> str:
        key = self._array_key(b"tex:" + texture.name.encode() + b"\0",
                              texture.data)
        if key not in self.entries:
            self.entries[key] = canonical_json(
                {"name": texture.name, "data": texture.data.tolist()})
        return key

    def to_json(self) -> str:
        # Ids are hex digests: they encode as themselves, quoted.
        return "{" + ",".join(f'"{key}":{self.entries[key]}'
                              for key in sorted(self.entries)) + "}"


def _draw_call_to_dict(call: DrawCall, buffers: _InternTable,
                       textures: _InternTable) -> dict:
    vbo = call.vbo
    mesh_arrays = {}
    for attr in vbo.attribute_names:
        offset, width = vbo.attribute_offset(attr)
        mesh_arrays[attr] = buffers.intern_array(
            vbo.data[:, offset:offset + width])
    return {
        "name": call.name,
        "mode": call.mode.value,
        "attributes": mesh_arrays,
        "indices": buffers.intern_array(call.ibo.indices),
        "vs_source": call.vs_source,
        "fs_source": call.fs_source,
        "uniforms": {k: np.asarray(v).tolist() for k, v in call.uniforms.items()},
        "textures": {
            k: textures.intern_texture(t) for k, t in call.textures.items()
        },
        "state": _state_to_dict(call.state),
    }


class TraceRecorder:
    """Accumulates frames and serializes them to a canonical JSON trace (v2).

    Recording is incremental: a frame is encoded when it is recorded and
    each distinct asset when a draw call first references it, so
    :meth:`to_json` only joins stored pieces — a recorder that grows by a
    frame per checkpoint pays for the new frame, not the whole history.
    """

    def __init__(self) -> None:
        self._buffers = _InternTable()
        self._textures = _InternTable()
        self._frames: list[str] = []

    def record_frame(self, frame: Frame) -> None:
        self._frames.append(canonical_json({
            "width": frame.width,
            "height": frame.height,
            "clear_color": list(frame.clear_color),
            "clear_depth": frame.clear_depth,
            "clear_stencil": frame.clear_stencil,
            "draw_calls": [
                _draw_call_to_dict(dc, self._buffers, self._textures)
                for dc in frame.draw_calls],
        }))

    def to_json(self) -> str:
        # canonical_json of the whole document, keys in sorted order.
        return (f'{{"buffers":{self._buffers.to_json()},'
                f'"frames":[{",".join(self._frames)}],'
                f'"textures":{self._textures.to_json()},'
                f'"version":{TRACE_VERSION}}}')

    def save(self, path: str) -> None:
        with open(path, "w") as handle:
            handle.write(self.to_json())


@dataclass
class RegionOfInterest:
    """Frame/draw-call window to replay (None bounds = unbounded)."""

    first_frame: int = 0
    last_frame: Optional[int] = None
    first_draw: int = 0
    last_draw: Optional[int] = None

    def includes_frame(self, index: int) -> bool:
        if index < self.first_frame:
            return False
        return self.last_frame is None or index <= self.last_frame

    def includes_draw(self, index: int) -> bool:
        if index < self.first_draw:
            return False
        return self.last_draw is None or index <= self.last_draw


def replay(trace_json: str, roi: Optional[RegionOfInterest] = None) -> list[Frame]:
    """Reconstruct frames from a JSON trace through a fresh GLContext.

    A truncated, corrupt, or structurally invalid document raises
    :class:`TraceDecodeError` before any state is rebuilt.
    """
    doc = _decode(trace_json)
    version = doc["version"]
    buffer_table = doc.get("buffers", {})
    texture_table = doc.get("textures", {})

    def resolve_buffer(ref, where: str):
        """v1 inlines the array; v2 references the intern table by id."""
        if version == 1:
            return ref
        if not isinstance(ref, str) or ref not in buffer_table:
            raise TraceDecodeError(f"unknown buffer {ref!r}", detail=where)
        return buffer_table[ref]

    def resolve_texture(ref, where: str) -> dict:
        if version == 1:
            return ref
        if not isinstance(ref, str) or ref not in texture_table:
            raise TraceDecodeError(f"unknown texture {ref!r}", detail=where)
        return texture_table[ref]

    roi = roi or RegionOfInterest()
    frames: list[Frame] = []
    context: Optional[GLContext] = None
    mesh_cache: dict[str, Mesh] = {}
    texture_cache: dict[str, Texture2D] = {}
    for frame_index, frame_doc in enumerate(doc["frames"]):
        if not roi.includes_frame(frame_index):
            continue
        if context is None:
            context = GLContext(frame_doc["width"], frame_doc["height"])
        for draw_index, call_doc in enumerate(frame_doc["draw_calls"]):
            if not roi.includes_draw(draw_index):
                continue
            where = f"frames[{frame_index}].draw_calls[{draw_index}]"
            if not isinstance(call_doc, dict) or "attributes" not in call_doc:
                raise TraceDecodeError("not a draw-call object", detail=where)
            attrs = {
                k: np.asarray(resolve_buffer(v, f"{where}.attributes.{k}"))
                for k, v in call_doc["attributes"].items()
            }
            indices = resolve_buffer(call_doc["indices"], f"{where}.indices")
            # Key on content (not call name) so repeated meshes share
            # buffers — and therefore addresses — across frames.  v2 refs
            # are content digests already, so the key stays content-true.
            mesh_key = json.dumps(
                {"i": call_doc["indices"], "m": call_doc["mode"],
                 "a": call_doc["attributes"]}, sort_keys=True)
            if mesh_key not in mesh_cache:
                mesh_cache[mesh_key] = Mesh(
                    positions=attrs["position"],
                    indices=np.asarray(indices, dtype=np.int64),
                    normals=attrs.get("normal"),
                    uvs=attrs.get("uv"),
                    colors=attrs.get("color"),
                    mode=PrimitiveMode(call_doc["mode"]),
                    name=call_doc["name"],
                )
            context.state = _state_from_dict(call_doc["state"])
            context.use_program(call_doc["vs_source"], call_doc["fs_source"])
            context._uniforms = {
                k: np.asarray(v) for k, v in call_doc["uniforms"].items()
            }
            for tex_name, tex_ref in call_doc["textures"].items():
                tex_doc = resolve_texture(tex_ref,
                                          f"{where}.textures.{tex_name}")
                if tex_doc["name"] not in texture_cache:
                    texture_cache[tex_doc["name"]] = Texture2D(
                        np.asarray(tex_doc["data"]), name=tex_doc["name"])
                context.bind_texture(tex_name, texture_cache[tex_doc["name"]])
            context.draw_mesh(mesh_cache[mesh_key], name=call_doc["name"])
        frame = context.end_frame()
        frame.clear_color = tuple(frame_doc["clear_color"])
        frame.clear_depth = frame_doc["clear_depth"]
        frame.clear_stencil = frame_doc.get("clear_stencil", 0)
        frames.append(frame)
    return frames


def load(path: str, roi: Optional[RegionOfInterest] = None) -> list[Frame]:
    with open(path) as handle:
        return replay(handle.read(), roi)
