"""Exact integer determinants, the integer union-find that the diagram
layer's piece count, the graph layer and the bracket's state-sum oracle
share, and the base of qalt's immutable records."""

from __future__ import annotations


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


def _root(parent: list, x: int) -> int:
    """Root of x in a union-find parent list, halving the path."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _join(parent: list, u: int, v: int) -> bool:
    """Merge the sets of u and v; whether they were apart."""
    ru, rv = _root(parent, u), _root(parent, v)
    if ru == rv:
        return False
    parent[ru] = rv
    return True


class _Record:
    """Base of qalt's immutable records. A record lists its fields in
    __slots__, in constructor order, and _Record gives it a constructor
    that takes them by position or by name and raises TypeError for a
    field that is missing, repeated or unknown. Budget and
    SignedPlanarGraph write their own, to validate, and so does
    HalfLaurent, immutable in the same way. Records of one type are
    equal when their fields are, and hash alike; a record never equals
    another type, a tuple included. The repr is Name(field=value, ...),
    assignment and deletion raise AttributeError, and copy and pickle
    rebuild a record through its constructor."""

    __slots__ = ()

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        for name in names[len(args):]:
            if name not in kwargs:
                raise TypeError("%s is missing field %r"
                                % (type(self).__name__, name))
            args += (kwargs.pop(name),)
        if kwargs:
            name = next(iter(kwargs))
            raise TypeError("%s got %s field %r" % (
                type(self).__name__,
                "a repeated" if name in names else "an unknown", name))
        if len(args) > len(names):
            raise TypeError("%s takes %d fields, got %d"
                            % (type(self).__name__, len(names), len(args)))
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(map(self.__getattribute__, self.__slots__))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            "%s=%r" % (name, getattr(self, name))
            for name in self.__slots__))

    def __setattr__(self, name, value):
        raise AttributeError("%s is immutable" % type(self).__name__)

    def __delattr__(self, name):
        raise AttributeError("%s is immutable" % type(self).__name__)

    def __reduce__(self):
        return type(self), self._values()
