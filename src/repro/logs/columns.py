"""Column tables: one log stream held as numpy columns.

A :class:`ColumnTable` holds the rows of one log (proxy or MME) column by
column, in the field order of :mod:`repro.logs.records`:

* float fields (``timestamp``) as one float64 array;
* int fields (``bytes_up``, ``bytes_down``) as one int64 array;
* string fields as a :class:`Dictionary`: one int32 code per row plus
  the object array of distinct values the codes index.

Three producers fill a table.  :func:`repro.logs.binfmt.read_bin_table`
decodes a ``.bin`` log straight into columns through a
:class:`TableAssembler`, which recodes each block's string dictionary into
one dictionary per field.  :func:`assemble_records` feeds a record stream
(a CSV or lenient load) through the same assembler a chunk of rows at a
time.  :meth:`ColumnTable.from_records` wraps a row list and fills each
column from the rows the first time it is asked for, so a consumer that
reads three columns pays for three.

:meth:`ColumnTable.take` cuts rows out of a table, and
:meth:`ColumnTable.concat` joins tables into one (the service's replay
buffers are both).

Rows (:attr:`ColumnTable.records`) are built from the columns only for
edge callers (validation, writers, the benchmark, tests): the analysis
folds read columns.  Rows built from a decoded table share one string
object per dictionary entry and one int object per distinct byte count.

The group-by helpers at the end (:func:`first_seen`, :func:`distinct`,
:func:`runs`, :func:`group_sum`, :func:`add_counts`, :func:`group_ends`,
:func:`group_searchsorted`) are what the column folds of
:mod:`repro.core` are made of: integer group keys, integer accumulators,
and keys listed in the order of their first row, so a fold inserts dict
keys in the order a row-by-row loop would.
"""

from __future__ import annotations

import gc
from functools import lru_cache
from itertools import compress, count, islice
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from repro.logs.records import fields_for

#: Rows built per record-constructor call: bounds the per-column Python
#: lists alive while rows are built.
ROW_CHUNK = 8192

#: Column dtype per field type code (``s`` fields are dictionaries).
_DTYPES = {"f": np.float64, "i": np.int64}


class Dictionary(NamedTuple):
    """A dictionary-encoded string column."""

    #: int32 index into :attr:`values`, one per row.
    codes: np.ndarray
    #: Object array of distinct strings.
    values: np.ndarray


@lru_cache(maxsize=None)
def type_codes(record_type: type) -> tuple[str, ...]:
    """Column type codes in field order (``f``/``i``/``s``)."""
    from repro.logs.io import _field_types

    types = _field_types(record_type)
    return tuple(
        "f" if types[name] is float else "i" if types[name] is int else "s"
        for name in fields_for(record_type)
    )


def object_array(values: Sequence) -> np.ndarray:
    """A 1-D object array holding ``values`` (strings stay strings)."""
    array = np.empty(len(values), dtype=object)
    array[:] = values
    return array


def encode_strings(values: Sequence[str]) -> Dictionary:
    """Dictionary-encode a string sequence, values in first-occurrence order."""
    distinct = list(dict.fromkeys(values))
    index = {value: code for code, value in enumerate(distinct)}
    codes = np.fromiter(
        map(index.__getitem__, values), dtype=np.int32, count=len(values)
    )
    return Dictionary(codes, object_array(distinct))


_MAKERS: dict[type, Callable] = {}


def record_maker(record_type: type) -> Callable:
    """Columns-in, record-list-out constructor with the loop inlined.

    The columns come from validated data (a decoded block that passed
    its batch checks, or a table of such blocks), so the per-record
    ``__post_init__`` checks would only repeat work.  The records are
    frozen slotted dataclasses; binding each slot descriptor's
    ``__set__`` once beats ``object.__setattr__``, and inlining the loop
    into one generated function drops a per-record call as well.
    """
    maker = _MAKERS.get(record_type)
    if maker is not None:
        return maker
    names = fields_for(record_type)
    args = ", ".join(f"c_{name}" for name in names)
    row = ", ".join(names)
    namespace = {"_new": object.__new__, "_cls": record_type, "_zip": zip}
    lines = [
        f"def make_all({args}):",
        "    new = _new; cls = _cls",
        "    out = []",
        "    append = out.append",
    ]
    for name in names:
        namespace[f"_set_{name}"] = getattr(record_type, name).__set__
        lines.append(f"    set_{name} = _set_{name}")
    lines.append(f"    for {row} in _zip({args}):")
    lines.append("        r = new(cls)")
    for name in names:
        lines.append(f"        set_{name}(r, {name})")
    lines.append("        append(r)")
    lines.append("    return out")
    exec("\n".join(lines), namespace)  # noqa: S102 - static, local template
    maker = namespace["make_all"]
    _MAKERS[record_type] = maker
    return maker


class LazyRows(Sequence):
    """A read-only row sequence whose rows are built on first access;
    ``len`` alone builds nothing."""

    def __init__(self, size: int, build: Callable[[], list]) -> None:
        self._size = size
        self._build = build
        self._rows: list | None = None

    def _built(self) -> list:
        if self._rows is None:
            self._rows = self._build()
        return self._rows

    def __len__(self) -> int:
        return self._size

    def __getitem__(self, index):
        return self._built()[index]

    def __iter__(self) -> Iterator:
        return iter(self._built())


class ColumnTable:
    """One log stream's rows as columns, with rows built on demand."""

    def __init__(
        self,
        record_type: type,
        columns: dict[str, np.ndarray | Dictionary] | None = None,
        *,
        records: list | None = None,
    ) -> None:
        self.record_type = record_type
        self.fields = fields_for(record_type)
        self._codes = dict(zip(self.fields, type_codes(record_type)))
        self._columns: dict = dict(columns or {})
        self._records = records
        if records is not None:
            self._size = len(records)
        else:
            first = self._columns[self.fields[0]]
            self._size = len(first)

    @classmethod
    def from_records(cls, record_type: type, records: list) -> "ColumnTable":
        """A table over a row list; columns are filled when first read."""
        return cls(record_type, records=records)

    def __len__(self) -> int:
        return self._size

    def columns(self) -> dict[str, np.ndarray | Dictionary]:
        """Every field's column, by name (a table of them is
        ``ColumnTable(record_type, columns)``)."""
        return {name: self.column(name) for name in self.fields}

    def column(self, name: str) -> np.ndarray | Dictionary:
        """Field ``name``'s column: an array, or a :class:`Dictionary`."""
        column = self._columns.get(name)
        if column is None:
            get = getattr(self.record_type, name).__get__
            code = self._codes[name]
            if code == "s":
                column = encode_strings(list(map(get, self._records)))
            else:
                column = np.fromiter(
                    map(get, self._records), dtype=_DTYPES[code], count=self._size
                )
            self._columns[name] = column
        return column

    @property
    def records(self) -> list:
        """Every row as a record, built from the columns on first use.

        Building allocates nothing but acyclic records, so automatic
        garbage collection pauses meanwhile: each collection would only
        walk the growing heap again.
        """
        if self._records is None:
            records: list = []
            collecting = gc.isenabled()
            gc.disable()
            try:
                for chunk in self._record_chunks():
                    records.extend(chunk)
            finally:
                if collecting:
                    gc.enable()
            self._records = records
        return self._records

    def _record_chunks(self) -> Iterator[list]:
        make = record_maker(self.record_type)
        columns = [self._row_source(name) for name in self.fields]
        chunk = ROW_CHUNK
        for start in range(0, self._size, chunk):
            end = start + chunk
            yield make(
                *(
                    (
                        column.values[column.codes[start:end]]
                        if isinstance(column, Dictionary)
                        else column[start:end]
                    ).tolist()
                    for column in columns
                )
            )

    def _row_source(self, name: str) -> np.ndarray | Dictionary:
        """Field ``name`` as rows are built from it.

        Int fields are dictionary-encoded here too, values in
        first-occurrence order, so rows share one int object per distinct
        byte count as they share one string per dictionary entry (about
        a third fewer objects at the medium preset); first-occurrence
        order keeps the shared objects near the rows that use them.
        """
        column = self._columns[name]
        if self._codes[name] != "i":
            return column
        values, codes = first_seen(column)
        return Dictionary(codes, object_array(values.tolist()))

    def rows_where(self, mask: np.ndarray) -> list:
        """The records of the rows ``mask`` selects, in row order."""
        return list(compress(self.records, mask.tolist()))

    def take(self, rows: np.ndarray) -> "ColumnTable":
        """A table of the rows ``rows`` selects, a mask or an index array
        (dictionaries are kept whole)."""
        return ColumnTable(
            self.record_type,
            {
                name: (
                    Dictionary(column.codes[rows], column.values)
                    if isinstance(column, Dictionary)
                    else column[rows]
                )
                for name, column in self.columns().items()
            },
        )

    @classmethod
    def concat(
        cls, record_type: type, tables: Iterable["ColumnTable"]
    ) -> "ColumnTable":
        """The rows of ``tables``, one table after another.  Each string
        field gets one dictionary of the values its rows use, in
        first-row order: the dictionaries :meth:`from_records` would
        build over the same rows."""
        assembler = TableAssembler(record_type)
        for table in tables:
            assembler.add(
                [
                    (column.values, column.codes)
                    if isinstance(column, Dictionary)
                    else column
                    for column in table.columns().values()
                ]
            )
        table = assembler.table()
        table.renumber()
        return table

    def sort(self) -> None:
        """Put the rows in :func:`~repro.logs.records.record_sort_key`
        order, in place.

        One stable lexsort by timestamp, then each later field (a string
        field by its entry's rank in sorted value order), so the table
        equals :meth:`from_records` over the rows sorted by key: its
        dictionaries list their values in the sorted rows' first-row
        order.  Columns are permuted one at a time, each replacing the
        old one.
        """
        order = np.lexsort(
            [self._sort_key(name) for name in reversed(self.fields)]
        )
        for name in self.fields:
            column = self.column(name)
            if isinstance(column, Dictionary):
                column = Dictionary(column.codes[order], column.values)
            else:
                column = column[order]
            self._columns[name] = column
        self._records = None
        self.renumber()

    def renumber(self) -> None:
        """List each dictionary's values in the order of their first
        row, dropping values no row uses: the dictionaries
        :meth:`from_records` would build over the same rows."""
        for name in self.fields:
            column = self.column(name)
            if isinstance(column, Dictionary):
                first, codes = first_seen(column.codes)
                self._columns[name] = Dictionary(
                    codes.astype(np.int32), column.values[first]
                )

    def _sort_key(self, name: str) -> np.ndarray:
        column = self.column(name)
        if not isinstance(column, Dictionary):
            return column
        values = column.values
        rank = np.empty(len(values), dtype=np.int32)
        rank[sorted(range(len(values)), key=values.__getitem__)] = np.arange(
            len(values), dtype=np.int32
        )
        return rank[column.codes]

    def entry_mask(self, name: str, predicate: Callable[[str], bool]) -> np.ndarray:
        """Row mask of string field ``name``: ``predicate`` of each row's
        value, evaluated once per dictionary entry."""
        column = self.column(name)
        flags = np.fromiter(
            map(predicate, column.values), dtype=bool, count=len(column.values)
        )
        return flags[column.codes]

    def sort_keys(self, index: np.ndarray) -> list[tuple]:
        """:func:`~repro.logs.records.record_sort_key` of the rows at
        ``index``, without building the rows."""
        if self._records is not None:
            return [self._records[i].sort_key() for i in index.tolist()]
        values = []
        for name in self.fields:
            column = self.column(name)
            if isinstance(column, Dictionary):
                values.append(column.values[column.codes[index]].tolist())
            else:
                values.append(column[index].tolist())
        return list(zip(*values))

    def distinct(self, name: str, mask: np.ndarray) -> list[str]:
        """The values of string field ``name`` on the rows ``mask`` selects."""
        column = self.column(name)
        return column.values[np.unique(column.codes[mask])].tolist()


class TableAssembler:
    """Accumulates decoded blocks into one :class:`ColumnTable`.

    Each block's string dictionary is recoded into one dictionary per
    field as the block arrives: the first string object seen for a value
    stays the entry, and a block costs one dict probe per distinct value
    plus one array gather per row.
    """

    def __init__(self, record_type: type) -> None:
        self.record_type = record_type
        self.fields = fields_for(record_type)
        self._parts: dict[str, list[np.ndarray]] = {
            name: [] for name in self.fields
        }
        #: The table's dictionary of each string field: value -> code,
        #: in the order the values were first recoded.
        self.entries: dict[str, dict[str, int]] = {
            name: {}
            for name, code in zip(self.fields, type_codes(record_type))
            if code == "s"
        }

    def recode(
        self, name: str, values: Sequence[str], index: np.ndarray
    ) -> np.ndarray:
        """String field ``name`` of a block, ``values`` indexed by
        ``index``, as codes into the table's dictionary."""
        entries = self.entries[name]
        fresh = dict.fromkeys([value for value in values if value not in entries])
        entries.update(zip(fresh, count(len(entries))))
        recode = np.fromiter(
            map(entries.__getitem__, values), dtype=np.int32, count=len(values)
        )
        return recode[index]

    def add(self, columns: Sequence, keep: np.ndarray | None = None) -> None:
        """Append one block: numeric arrays, and string fields as
        ``(values, index)`` pairs or as codes from :meth:`recode`, in
        field order; ``keep`` selects rows (None = all)."""
        for name, column in zip(self.fields, columns):
            if isinstance(column, tuple):
                column = self.recode(name, *column)
            if keep is not None:
                column = column[keep]
            self._parts[name].append(column)

    def table(self) -> ColumnTable:
        columns: dict = {}
        for name, code in zip(self.fields, type_codes(self.record_type)):
            parts = self._parts[name]
            if code == "s":
                codes = (
                    np.concatenate(parts) if parts else np.empty(0, np.int32)
                )
                columns[name] = Dictionary(
                    codes, object_array(list(self.entries[name]))
                )
            else:
                columns[name] = (
                    np.concatenate(parts) if parts else np.empty(0, _DTYPES[code])
                )
        return ColumnTable(self.record_type, columns)


def record_columns(record_type: type, records: Iterable) -> Iterator[list]:
    """A record stream as columns, :data:`ROW_CHUNK` rows at a time, in
    :meth:`TableAssembler.add`'s block layout: numeric arrays, and
    ``(values, codes)`` pairs with values in first-row order.  Only one
    chunk of rows is alive at once."""
    getters = [
        (getattr(record_type, name).__get__, code)
        for name, code in zip(fields_for(record_type), type_codes(record_type))
    ]
    records = iter(records)
    while chunk := list(islice(records, ROW_CHUNK)):
        columns: list = []
        for get, code in getters:
            values = list(map(get, chunk))
            if code == "s":
                dictionary = encode_strings(values)
                columns.append((dictionary.values, dictionary.codes))
            else:
                columns.append(
                    np.fromiter(values, dtype=_DTYPES[code], count=len(values))
                )
        yield columns


def assemble_records(record_type: type, records: Iterable) -> ColumnTable:
    """A decoded table of a record stream (:func:`record_columns`); the
    dictionaries list their values in first-row order."""
    assembler = TableAssembler(record_type)
    for columns in record_columns(record_type, records):
        assembler.add(columns)
    return assembler.table()


# ------------------------------------------------------------ group-bys
def _dense(n: int, span: int) -> bool:
    """Whether a key range of ``span`` is small enough to index directly
    for ``n`` rows (cheaper than sorting them)."""
    return span <= 16 * n + (1 << 16)


def first_seen(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct integer ``keys`` in the order of their first row, and
    each row's position in that order."""
    n = len(keys)
    if not n:
        return keys[:0], np.empty(0, dtype=np.intp)
    if keys.min() >= 0 and _dense(n, int(keys.max()) + 1):
        # Small non-negative keys (codes, hours, days) index a table of
        # first rows directly.
        first = np.full(int(keys.max()) + 1, n, dtype=np.intp)
        np.minimum.at(first, keys, np.arange(n))
        present = np.flatnonzero(first < n)
        order = present[np.argsort(first[present])]
        rank = np.empty(len(first), dtype=np.intp)
        rank[order] = np.arange(len(order))
        return order.astype(keys.dtype), rank[keys]
    # Sparse keys (byte sizes): sort, then order the runs of equal keys
    # by the first row in each.
    order = np.argsort(keys)
    ordered = keys[order]
    starts = np.flatnonzero(
        np.concatenate(([True], ordered[1:] != ordered[:-1]))
    )
    by_first = np.argsort(np.minimum.reduceat(order, starts))
    rank = np.empty(len(starts), dtype=np.intp)
    rank[by_first] = np.arange(len(starts))
    group = np.empty(n, dtype=np.intp)
    group[order] = np.repeat(rank, np.diff(np.append(starts, n)))
    return ordered[starts][by_first], group


def distinct(*columns: np.ndarray) -> list[np.ndarray]:
    """The distinct tuples of integer columns, one int64 array per
    column, sorted lexicographically.

    The tuples are packed into one int64 key, so the product of the
    columns' ranges must stay below 2**63 (codes, days and hours do).
    """
    if not len(columns[0]):
        return [np.asarray(column, dtype=np.int64) for column in columns]
    lows = [int(column.min()) for column in columns]
    bounds = [int(column.max()) - low + 1 for column, low in zip(columns, lows)]
    key = np.zeros(len(columns[0]), dtype=np.int64)
    for column, low, bound in zip(columns, lows, bounds):
        key = key * bound + (column - low)
    span = int(np.prod(bounds, dtype=object))
    if _dense(len(key), span):
        seen = np.zeros(span, dtype=bool)
        seen[key] = True
        key = np.flatnonzero(seen)
    else:
        key = np.unique(key)
    out = []
    for low, bound in zip(reversed(lows), reversed(bounds)):
        out.append(key % bound + low)
        key = key // bound
    return out[::-1]


def runs(sorted_keys: np.ndarray) -> Iterator[tuple[int, int, int]]:
    """``(key, start, end)`` for each run of equal values in a sorted array."""
    if not len(sorted_keys):
        return
    starts = np.flatnonzero(
        np.concatenate(([True], sorted_keys[1:] != sorted_keys[:-1]))
    )
    ends = np.append(starts[1:], len(sorted_keys))
    yield from zip(sorted_keys[starts].tolist(), starts.tolist(), ends.tolist())


def group_sum(groups: np.ndarray, values: np.ndarray, n: int) -> np.ndarray:
    """int64 sum of ``values`` per group index (``np.bincount`` weights
    would sum in float64)."""
    out = np.zeros(n, dtype=np.int64)
    np.add.at(out, groups, values)
    return out


def add_counts(target: dict, keys: list, counts: np.ndarray) -> None:
    """``target[key] += count``, new keys inserted in ``keys`` order."""
    if not target:
        target.update(zip(keys, counts.tolist()))
        return
    for key, count in zip(keys, counts.tolist()):
        target[key] = target.get(key, 0) + count


def group_ends(groups: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The first and the last row of each of ``n`` groups (every group
    has a row)."""
    rows = np.arange(len(groups))
    first = np.full(n, len(groups), dtype=np.intp)
    np.minimum.at(first, groups, rows)
    last = np.full(n, -1, dtype=np.intp)
    np.maximum.at(last, groups, rows)
    return first, last


def group_searchsorted(
    groups: np.ndarray,
    times: np.ndarray,
    query_groups: np.ndarray,
    query_times: np.ndarray,
    side: str,
) -> np.ndarray:
    """``np.searchsorted`` of each query time within its group's times.

    ``groups`` and ``times`` are sorted by group, then time.  Each query
    is searched among the rows of its own group only, as ``bisect_left``
    (``side="left"``) or ``bisect_right`` over that group's times would,
    and the position is returned in the whole array: the group's rows
    start at a position whose row holds another group, or at 0.  Times
    are replaced by their rank among all times, which keeps order and
    equality, so one int64 key orders (group, time) exactly.
    """
    ranks = np.unique(np.concatenate((times, query_times)), return_inverse=True)[1]
    width = len(ranks) + 1
    keys = groups.astype(np.int64) * width + ranks[: len(times)]
    queries = query_groups.astype(np.int64) * width + ranks[len(times) :]
    return np.searchsorted(keys, queries, side=side)
