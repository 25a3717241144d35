"""Simplicial meshes of the parameter manifold (circle and sphere).

Vertices are stored chart-free as unit vectors; simplices are index
tuples (segments for n=1, triangles for n=2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import UsageError

__all__ = [
    "ParamMesh",
    "build_circle_mesh",
    "build_icosphere_mesh",
    "circle_segments_for_level",
]


@dataclass
class ParamMesh:
    vertices: np.ndarray
    simplices: np.ndarray
    level: int | None = None
    # nested-dissection order of the edge graph; the first solve that
    # factors on this mesh (its own, or one on the finer mesh above) fills it
    nd_order: np.ndarray | None = None
    # the mesh one subdivision down, and per vertex the two coarse vertices
    # it interpolates: (j, j) for a copy of coarse vertex j, the edge ends
    # for a midpoint
    coarse: ParamMesh | None = None
    parents: np.ndarray | None = None

    @property
    def n(self) -> int:
        return self.simplices.shape[1] - 1

    @property
    def num_vertices(self) -> int:
        return self.vertices.shape[0]


def circle_segments_for_level(level: int) -> int:
    return 16 * 2**level


def build_circle_mesh(segments: int, level: int | None = None) -> ParamMesh:
    """Uniform cyclic polyline on the unit circle."""
    if segments < 3:
        raise UsageError("need at least 3 segments")
    theta = 2.0 * math.pi * np.arange(segments) / segments
    vertices = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    idx = np.arange(segments)
    simplices = np.stack([idx, (idx + 1) % segments], axis=1)
    return ParamMesh(vertices, simplices, level=level)


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
    coarse = parents = None
    for step in range(level):
        # edges in face order ab, bc, ca; each midpoint is numbered at the
        # first face that meets its edge
        edges = faces[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)
        key = edges.min(axis=1) * len(vertices) + edges.max(axis=1)
        _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
        order = np.argsort(first)
        number = np.empty_like(order)
        number[order] = len(vertices) + np.arange(order.size)
        ends = edges[first[order]]
        mid = vertices[ends[:, 0]] + vertices[ends[:, 1]]
        # the same ddot per row as np.linalg.norm, so vertices are bit-stable
        mid /= np.sqrt(mid[:, None, :] @ mid[:, :, None])[:, 0]
        if step == level - 1:
            coarse = ParamMesh(vertices, faces, level=step)
            copies = np.arange(len(vertices))
            parents = np.concatenate([np.stack([copies, copies], axis=1), ends])
        vertices = np.concatenate([vertices, mid])
        a, b, c = faces.T
        ab, bc, ca = number[inverse.reshape(-1, 3)].T
        faces = np.stack(
            [a, ab, ca, b, bc, ab, c, ca, bc, ab, bc, ca], axis=1
        ).reshape(-1, 3)
    return ParamMesh(vertices, faces, level=level, coarse=coarse, parents=parents)
