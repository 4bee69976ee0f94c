"""Per-layer tracing from outside the program.

`Tracer.install()` replaces the dualgraph functions named in STAGES,
KERNELS and COUNTED with wrappers that record a span (name, start, end,
parent span, scene) or bump a counter, and `uninstall()` puts the
originals back. A function is
replaced under every module-level name bound to it, because modules import
kernels by name (`from .geometry import fit_affine`) and look them up in
their own globals. Spans stay in memory until the run ends.

A span's self time is its duration minus the durations of the spans it
directly caused; stage times are self times, so a stage excludes the
kernels inside it.
"""

from __future__ import annotations

from array import array
from collections import Counter
from time import perf_counter

import numpy as np

import dualgraph.belief
import dualgraph.geometry
import dualgraph.image
import dualgraph.model
import dualgraph.recognize
import dualgraph.scene

# (module, attribute) -> span name; stages first, then kernels
STAGES = {
    ("scene", "parse_scene"): "scene.parse",
    ("recognize", "recognize"): "recognize.loop",
    ("recognize", "seed_image_graph"): "recognize.seed",
    ("model", "build_midx"): "model.build_midx",
    ("recognize", "generate_hypotheses"): "recognize.hypothesize",
    ("recognize", "verify"): "recognize.verify",
    ("belief", "refresh_conditionals"): "belief.refresh",
    ("belief", "propagate"): "belief.propagate",
    ("belief", "relax_frames"): "belief.relax",
    ("belief", "prune"): "belief.prune",
    ("image", "ImageGraph.to_bytes"): "image.to_bytes",
}
KERNELS = {
    ("belief", "placement_strain"): "belief.placement_strain",
    ("belief", "contextual_relation_strain"): "belief.relation_strain",
    ("geometry", "angle_between"): "geometry.angle_between",
    ("geometry", "boundary_distance"): "geometry.boundary_distance",
    ("geometry", "fit_similarity"): "geometry.fit",
    ("geometry", "fit_affine"): "geometry.fit",
    ("geometry", "project"): "geometry.project",
}
# counted, not timed: called too often for a span to be cheap
COUNTED = {
    ("geometry", "Frame.__post_init__"): "geometry.frame_inits",
    ("image", "ImageGraph.links_to"): "image.link_scans",
    ("image", "ImageGraph.links_from"): "image.link_scans",
}

MODULES = {m.__name__.rsplit(".", 1)[1]: m for m in (
    dualgraph.belief, dualgraph.geometry, dualgraph.image, dualgraph.model,
    dualgraph.recognize, dualgraph.scene)}


def _resolve(module: str, attr: str):
    """(owner object, attribute name) that holds the function."""
    owner = MODULES[module]
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    """Spans and counters of one traced pass; see the module docstring."""

    def __init__(self):
        self.span_names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.scene = array("i")
        self.counts: Counter = Counter()
        self.scene_index = -1
        self._stack = [-1]
        self._undo: list = []

    # -- recording -------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.span_names)
            self.span_names.append(name)
        return self._name_ids[name]

    def _timed(self, name: str, fn):
        nid = self._name_id(name)
        start, end, names, parent, scene = self.start, self.end, self.name, self.parent, self.scene
        stack, counts = self._stack, self.counts
        calls = name + ".calls"
        observe = _OBSERVERS.get(name)

        def wrapper(*args, **kwargs):
            idx = len(start)
            names.append(nid)
            parent.append(stack[-1])
            scene.append(self.scene_index)
            stack.append(idx)
            t0 = perf_counter()
            start.append(t0)
            end.append(t0)
            try:
                out = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            counts[calls] += 1
            if observe is not None:
                observe(counts, out)
            return out

        return wrapper

    def _counted(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- patching --------------------------------------------------------------

    def _replace(self, module: str, attr: str, make):
        owner, name = _resolve(module, attr)
        original = getattr(owner, name)
        wrapped = make(original)
        if isinstance(owner, type):
            self._undo.append((owner, name, original))
            setattr(owner, name, wrapped)
            return
        for mod in MODULES.values():
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, key, original))
                    setattr(mod, key, wrapped)

    def install(self):
        for (module, attr), name in {**STAGES, **KERNELS}.items():
            self._replace(module, attr, lambda fn, name=name: self._timed(name, fn))
        for (module, attr), name in COUNTED.items():
            self._replace(module, attr, lambda fn, name=name: self._counted(name, fn))

    def uninstall(self):
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)

    # -- results ---------------------------------------------------------------

    def self_times(self) -> dict:
        """Total self time per span name, in seconds."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out = {name: 0.0 for name in self.span_names}
        for i in range(n):
            out[self.span_names[self.name[i]]] += self.end[i] - self.start[i] - child[i]
        return out

    def write_spans(self, path):
        """Every span as one row of parallel arrays in a compressed .npz:
        `name` indexes `names`, `parent` is a row (-1 at a root), `scene` a
        corpus position, `start` and `end` perf_counter seconds."""
        np.savez_compressed(
            path, names=np.array(self.span_names),
            name=np.frombuffer(self.name, np.int32), parent=np.frombuffer(self.parent, np.int32),
            scene=np.frombuffer(self.scene, np.int32),
            start=np.frombuffer(self.start, np.float64), end=np.frombuffer(self.end, np.float64))


def _observe_hypotheses(counts, out):
    counts["recognize.hypotheses"] += len(out)


def _observe_verify(counts, out):
    counts["recognize.verify_accepted"] += bool(out)


def _observe_prune(counts, out):
    pruned, removed = out
    counts["belief.pruned_nodes"] += len(pruned)
    counts["belief.removed_links"] += len(removed)


_OBSERVERS = {
    "recognize.hypothesize": _observe_hypotheses,
    "recognize.verify": _observe_verify,
    "belief.prune": _observe_prune,
}


def stage_names():
    return sorted(set(STAGES.values()))


def kernel_names():
    return sorted(set(KERNELS.values()))
