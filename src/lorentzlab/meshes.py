"""Simplicial meshes of the parameter manifold (circle and sphere).

Vertices are stored chart-free as unit vectors; simplices are index
tuples (segments for n=1, triangles for n=2). Every mesh above level 0
keeps the level below as its coarse level, numbered in the
nested-dissection order of its edge graph: the order a solve factors it
in. A mesh is complete when it is built: nothing writes to it
afterwards, so solves on it may run concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import UsageError

# parts of the nested-dissection ordering this small are not split further
ND_LEAF = 64

__all__ = [
    "ParamMesh",
    "nested_dissection_order",
    "build_circle_mesh",
    "build_icosphere_mesh",
]


@dataclass
class ParamMesh:
    vertices: np.ndarray
    simplices: np.ndarray
    level: int
    # the mesh one subdivision down, in nested-dissection order, and per
    # vertex the two coarse vertices it interpolates: (j, j) for a copy of
    # coarse vertex j, the edge ends for a midpoint
    coarse: ParamMesh | None = None
    parents: np.ndarray | None = None

    @property
    def n(self) -> int:
        return self.simplices.shape[1] - 1

    @property
    def num_vertices(self) -> int:
        return self.vertices.shape[0]


def nested_dissection_order(points: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Geometric nested-dissection ordering of mesh vertices (George 1973).

    Recursive coordinate bisection: every part is split at the median of
    its widest coordinate, and the left-side vertices joined to the right
    by one of the (e, 2) vertex pairs `edges` form its separator. The order
    is left, right, separator, recursively (post-order); parts of at most
    `ND_LEAF` vertices stay whole. All parts of one depth are split at
    once with array operations, and each vertex carries its path as
    base-3 digits (0 left, 1 right, 2 separator), so one sort of the paths
    gives the order. Only the set of joined pairs matters: a pair may come
    in either orientation, more than once or as a loop. Ties keep vertex
    order, so the result is deterministic.
    """
    k, d = points.shape
    rows, cols = edges[:, 0].astype(np.int64), edges[:, 1].astype(np.int64)
    # rank along each axis: an exact, tie-free sort key
    rank = np.empty((d, k), dtype=np.int64)
    for axis in range(d):
        rank[axis, np.argsort(points[:, axis], kind="stable")] = np.arange(k)
    part = np.zeros(k, dtype=np.int64)  # part to split; -1 once placed
    path = np.zeros(k, dtype=np.int64)
    live = np.arange(k)  # vertices still to place, grouped by part
    while True:
        live = live[part[live] >= 0]
        live = live[np.bincount(part[live])[part[live]] > ND_LEAF]
        if live.size == 0:
            break
        p = part[live]
        first = np.flatnonzero(np.r_[True, p[1:] != p[:-1]])
        counts = np.diff(np.r_[first, live.size])
        group = np.repeat(np.arange(first.size), counts)
        pts = points[live]
        extent = np.maximum.reduceat(pts, first) - np.minimum.reduceat(pts, first)
        widest = np.argmax(extent, axis=1)
        live = live[np.argsort(group * k + rank[widest[group], live])]
        right = np.zeros(k, dtype=bool)
        right[live] = np.arange(live.size) - first[group] >= (counts // 2)[group]
        child = np.full(k, -1, dtype=np.int64)
        child[live] = 2 * group + right[live]
        ci, cj = child[rows], child[cols]
        cross = (ci >= 0) & ((ci ^ 1) == cj)
        separator = np.zeros(k, dtype=bool)
        separator[np.where(right[rows[cross]], cols[cross], rows[cross])] = True
        path = 3 * path + right + 2 * separator
        child[separator] = -1
        part = child
        inside = (ci >= 0) & (ci == cj)
        rows, cols = rows[inside], cols[inside]
    return np.argsort(path, kind="stable")


def _nd_numbered(below: ParamMesh, parents: np.ndarray) -> tuple[ParamMesh, np.ndarray]:
    """The coarse level `below` with its vertices permuted into the
    nested-dissection order of its edge graph, and the (k, 2) `parents`,
    vertices of `below`, renumbered with its simplices."""
    # the midpoints' parents: the edges of `below`, each once
    order = nested_dissection_order(below.vertices, parents[parents[:, 0] != parents[:, 1]])
    number = np.empty_like(order)
    number[order] = np.arange(order.size)
    return ParamMesh(below.vertices[order], number[below.simplices], below.level), number[parents]


def build_circle_mesh(level: int) -> ParamMesh:
    """Uniform cyclic polyline of 16 * 2^level segments on the unit circle.

    Above level 0 the mesh keeps the level below as `coarse`: vertex 2j
    copies coarse vertex j, and vertex 2j + 1 is the midpoint of coarse
    vertices j and j + 1, as `parents` records.
    """
    if level < 0:
        raise UsageError("level must be nonnegative")
    segments = 16 * 2**level
    theta = 2.0 * math.pi * np.arange(segments) / segments
    vertices = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    idx = np.arange(segments)
    simplices = np.stack([idx, (idx + 1) % segments], axis=1)
    if level == 0:
        return ParamMesh(vertices, simplices, level)
    # vertex i interpolates coarse vertices i // 2 and (i + 1) // 2, so the
    # odd vertices' parents are the coarse segments; vertex 2j has the
    # angle of coarse vertex j, bit for bit
    parents = simplices // 2
    below = ParamMesh(vertices[::2], parents[1::2], level - 1)
    return ParamMesh(vertices, simplices, level, *_nd_numbered(below, parents))


_ICO_COORDS = None
_ICO_FACES = np.array(
    [
        [0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
        [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
        [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
        [4, 9, 5], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1],
    ]
)


def _icosahedron_vertices() -> np.ndarray:
    global _ICO_COORDS
    if _ICO_COORDS is None:
        r = (1.0 + math.sqrt(5.0)) / 2.0
        coords = np.array(
            [
                [-1.0, r, 0.0], [1.0, r, 0.0], [-1.0, -r, 0.0], [1.0, -r, 0.0],
                [0.0, -1.0, r], [0.0, 1.0, r], [0.0, -1.0, -r], [0.0, 1.0, -r],
                [r, 0.0, -1.0], [r, 0.0, 1.0], [-r, 0.0, -1.0], [-r, 0.0, 1.0],
            ]
        )
        _ICO_COORDS = coords / np.linalg.norm(coords, axis=1, keepdims=True)
    return _ICO_COORDS


def _subdivide(vertices: np.ndarray, faces: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each face split in four at its edge midpoints, projected to the
    sphere: the new vertices and faces, and per midpoint its edge's ends."""
    # edges in face order ab, bc, ca; each midpoint is numbered at the
    # first face that meets its edge
    edges = faces[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)
    key = np.minimum(edges[:, 0], edges[:, 1]) * len(vertices) + np.maximum(edges[:, 0], edges[:, 1])
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    order = np.argsort(first)
    number = np.empty_like(order)
    number[order] = len(vertices) + np.arange(order.size)
    ends = edges[first[order]]
    mid = vertices[ends[:, 0]] + vertices[ends[:, 1]]
    # the same ddot per row as np.linalg.norm, so vertices are bit-stable
    mid /= np.sqrt(mid[:, None, :] @ mid[:, :, None])[:, 0]
    a, b, c = faces.T
    ab, bc, ca = number[inverse.reshape(-1, 3)].T
    faces = np.stack([a, ab, ca, b, bc, ab, c, ca, bc, ab, bc, ca], axis=1).reshape(-1, 3)
    return np.concatenate([vertices, mid]), faces, ends


def build_icosphere_mesh(level: int) -> ParamMesh:
    """Icosahedron subdivided `level` times, vertices projected to the sphere.

    Vertex count is 10 * 4^level + 2; subdivision order is deterministic.
    Above level 0 the mesh keeps the level below as `coarse`: the first
    vertices copy it, and each midpoint records the ends of its edge in
    `parents`.
    """
    if level < 0:
        raise UsageError("level must be nonnegative")
    vertices = _icosahedron_vertices().copy()
    faces = _ICO_FACES.copy()
    if level == 0:
        return ParamMesh(vertices, faces, level)
    for step in range(level):
        below = ParamMesh(vertices, faces, step)
        vertices, faces, ends = _subdivide(vertices, faces)
    copies = np.arange(below.num_vertices)
    parents = np.concatenate([np.stack([copies, copies], axis=1), ends])
    return ParamMesh(vertices, faces, level, *_nd_numbered(below, parents))
