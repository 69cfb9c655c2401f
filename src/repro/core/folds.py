"""What the panel partials share: the state protocol and the fold helpers.

Each figure panel is one mergeable ``*Partial`` dataclass, defined in the
module of its result type, with ``consume`` (fold a dataset in),
``merge`` (fold another partial in) and ``finalize`` (produce the report
field); :data:`repro.core.parallel.PANELS` holds the one consume and
finalize call per panel.  This module holds what two or more of them
use:

* :class:`_PartialState`, the versioned ``to_state()``/``from_state()``
  over a partial's dataclass fields;
* the exact merges of keyed accumulators (:func:`_set_union`,
  :func:`_int_add`, :func:`_min_merge`, :func:`_disjoint_update`);
* the group-by folds into them (:func:`_add_members`,
  :func:`_keep_smallest`, :func:`_min_sort_keys`);
* the row masks several panels select with (:func:`_detailed`,
  :func:`_general`).
"""

from __future__ import annotations

from dataclasses import fields

import numpy as np

from repro.core.dataset import StudyDataset, StudyWindow
from repro.logs.columns import ColumnTable, runs
from repro.state import decode_value, encode_value


def _set_union(target: dict, other: dict) -> None:
    for key, values in other.items():
        existing = target.get(key)
        if existing is None:
            target[key] = set(values)
        else:
            existing |= values


def _int_add(target: dict, other: dict) -> None:
    for key, value in other.items():
        target[key] = target.get(key, 0) + value


def _min_merge(target: dict, other: dict) -> None:
    for key, value in other.items():
        mine = target.get(key)
        if mine is None or value < mine:
            target[key] = value


def _disjoint_update(target: dict, other: dict) -> None:
    target.update(other)


def _add_members(target: dict, keys: list, groups: np.ndarray, members: list) -> None:
    """``target[keys[g]] |= members``: ``groups`` is sorted and gives the
    key index of each member; new keys inserted in ``keys`` order."""
    for key in keys:
        target.setdefault(key, set())
    for group, start, end in runs(groups):
        target[keys[group]].update(members[start:end])


def _keep_smallest(target: dict, labels: list, groups: np.ndarray, keys: list) -> None:
    """``target[labels[g]] = min(target[labels[g]], keys of group g)``,
    new labels inserted in ``labels`` order (every group has a key)."""
    smallest: dict[int, tuple] = {}
    for index, key in zip(groups.tolist(), keys):
        mine = smallest.get(index)
        if mine is None or key < mine:
            smallest[index] = key
    for index, label in enumerate(labels):
        key = smallest[index]
        mine = target.get(label)
        if mine is None or key < mine:
            target[label] = key


def _min_sort_keys(
    target: dict, labels: list, groups: np.ndarray, table: ColumnTable, rows: np.ndarray
) -> None:
    """``target[labels[g]]``: the smallest canonical sort key of group
    ``g``'s ``rows``, kept when smaller than the present one.  The
    smallest key is among the rows at the group's earliest timestamp, so
    only those rows' keys are built."""
    timestamps = table.column("timestamp")[rows]
    earliest = np.full(len(labels), np.inf)
    np.minimum.at(earliest, groups, timestamps)
    tied = np.flatnonzero(timestamps == earliest[groups])
    _keep_smallest(target, labels, groups[tied], table.sort_keys(rows[tied]))


def _detailed(window: StudyWindow, timestamps: np.ndarray) -> np.ndarray:
    """Which ``timestamps`` :meth:`StudyWindow.in_detailed` admits."""
    return (timestamps >= window.detailed_start) & (timestamps < window.study_end)


def _general(dataset: StudyDataset, table: ColumnTable) -> np.ndarray:
    """Rows of subscribers outside every wearable-owner account."""
    owners = dataset.wearable_accounts
    directory = dataset.account_directory
    return table.entry_mask(
        "subscriber_id", lambda subscriber: directory.get(subscriber) not in owners
    )


class _PartialState:
    """Explicit ``to_state()``/``from_state()`` for the partials.

    State is the versioned, pickle-free JSON-safe encoding of
    :mod:`repro.state`; the round trip is *behaviour-preserving* —
    ``from_state(p.to_state())`` consumes, merges and finalises exactly
    like ``p`` (dict insertion order survives, so even the
    first-occurrence row ordering the batch comparison relies on is
    intact).  The :mod:`repro.serve` checkpoints are built from these,
    and the service also uses the round trip as its deep copy before a
    (mutating) merge-and-finalize pass.

    Fields holding stateful objects rather than plain containers are
    named in ``_STATE_OBJECTS`` and delegate to that object's own
    ``to_state``/``from_state``.
    """

    STATE_VERSION = 1
    _STATE_OBJECTS: dict = {}

    def to_state(self) -> dict:
        state: dict = {"v": self.STATE_VERSION}
        for spec in fields(self):
            value = getattr(self, spec.name)
            if spec.name in self._STATE_OBJECTS:
                state[spec.name] = value.to_state()
            else:
                state[spec.name] = encode_value(value)
        return state

    @classmethod
    def from_state(cls, state: dict):
        if state.get("v") != cls.STATE_VERSION:
            raise ValueError(
                f"unsupported {cls.__name__} state version: "
                f"{state.get('v')!r}"
            )
        kwargs = {}
        for spec in fields(cls):
            if spec.name in cls._STATE_OBJECTS:
                kwargs[spec.name] = cls._STATE_OBJECTS[spec.name].from_state(
                    state[spec.name]
                )
            else:
                kwargs[spec.name] = decode_value(state[spec.name])
        return cls(**kwargs)
