"""Small shared helpers: disjoint sets and exact integer determinants."""

from __future__ import annotations


class DisjointSet:
    """Union-find over arbitrary hashable keys, path halving + union by size."""

    def __init__(self):
        self._parent = {}
        self._size = {}

    def find(self, x):
        parent = self._parent
        if x not in parent:
            parent[x] = x
            self._size[x] = 1
            return x
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, a, b) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self._size[ra] < self._size[rb]:
            ra, rb = rb, ra
        self._parent[rb] = ra
        self._size[ra] += self._size[rb]
        return True

    def copy(self) -> "DisjointSet":
        dup = DisjointSet()
        dup._parent = dict(self._parent)
        dup._size = dict(self._size)
        return dup

    def count(self) -> int:
        return sum(1 for x in self._parent if self._parent[x] == x)


def bareiss_det(rows: list[list[int]]) -> int:
    """Exact determinant of an integer matrix by fraction-free elimination.

    The 0x0 matrix has determinant 1 (empty product), which is what the
    Goeritz minor of a 1-region coloring needs.
    """
    n = len(rows)
    if n == 0:
        return 1
    m = [list(r) for r in rows]
    if any(len(r) != n for r in m):
        raise ValueError("matrix is not square")
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                # exact division is guaranteed by the Bareiss identity
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]
