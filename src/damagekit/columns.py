"""Tables passed between stages as numpy columns of one length, one array per
field, as in the Arrow columnar layout."""

from __future__ import annotations

from collections.abc import Sequence
from operator import attrgetter

import numpy as np


class Columns(Sequence):
    """A read-only table: a subclass names its row type in row, and its columns
    with their dtypes, in the constructor's order, in columns. An index builds
    a row from column.item(i), plain Python values; a slice is a collection.
    Collections compare by value, also with lists and tuples of rows."""

    row: type
    columns: dict  # column name -> dtype
    paths: dict = {}  # column name -> the row attribute holding it, where not the name

    def __init__(self, *columns, copy=True):  # copy=False: arrays made for it alone
        for (name, dtype), values in zip(self.columns.items(), columns, strict=True):
            column = (np.array if copy else np.asarray)(values, dtype=dtype)
            column.flags.writeable = False
            object.__setattr__(self, name, column)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is read-only")

    @classmethod
    def of(cls, rows):
        """rows if it is a collection of this kind, else one of its rows, column by column."""
        if isinstance(rows, cls):
            return rows
        return cls(*([*map(attrgetter(cls.paths.get(name, name)), rows)]
                     for name in cls.columns))

    def __len__(self):
        return len(getattr(self, next(iter(self.columns))))

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self.take(np.arange(len(self))[index])
        return self._row(range(len(self))[index])

    def _row(self, i):
        return self.row(*(getattr(self, name).item(i) for name in self.columns))

    def take(self, which):
        return type(self)(*(getattr(self, name)[which] for name in self.columns), copy=False)

    def __eq__(self, other):
        if isinstance(other, (list, tuple)) and all(isinstance(r, self.row) for r in other):
            other = self.of(other)
        if type(other) is not type(self):
            return NotImplemented
        return all(np.array_equal(getattr(self, name), getattr(other, name))
                   for name in self.columns)
