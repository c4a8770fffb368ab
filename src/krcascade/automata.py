"""Semiautomata, word actions, transition monoids, products, covering witnesses.

Covering direction is a single normal form everywhere: the witness's upper
automaton covers its lower one (B >= A), with phi a partial surjection from
upper states onto lower states and xi mapping lower symbols into upper ones.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from itertools import compress, count, islice, product, repeat
from operator import is_not
from typing import Optional

from . import _lawcheck
from .algebra import CLOSURE_CAP, Transformation, _integer, _integers, closure_generate, pair_labels
from .errors import InvalidInputError, WitnessError

# Table cells are C ints: 4 bytes each, holding state indices, so a table
# has at most _STATE_LIMIT states. Loops here iterate slices of the array,
# not the read-only memoryviews: before Python 3.12 a memoryview has no
# iterator of its own, and iterating one ends by raising IndexError, which
# costs more than reading a short column.
_CELL = "i"
_CELL_BYTES = array(_CELL).itemsize
_STATE_LIMIT = 2 ** (8 * _CELL_BYTES - 1)
# The fewest cells (lower symbols times upper states) of a witness whose
# law is checked by the passes, one per law pair: below it, the scan of
# every cell costs less than the pairs, the descent and a pass per pair.
# Wide witnesses of few states, such as two-state reset leaves over 1,440
# symbols, are far above it. BENCH_law_check.json times both per node
# witness of random-5 seeds 0-9 and random-6 seeds 0, 4 and 6: the check's
# total over them is lowest from 256 to 384 cells, and over the random-5
# ones 12% higher at 1 cell and 9% higher at 512; with the passes at every
# size, krbench's sweep3-replay verify_s nearly doubles (0.0034 to 0.0065
# s). Both paths are exact on any phi; it stays at most _FACTORED_STATES
# for speed, so that a tree node's composed phi takes the passes and is
# never expanded by the scan.
_SYMBOL_PASS_CELLS = 256
# The smallest product that records its factors for the law check. Timed
# over the node witnesses of random-5 seeds 0-9 and random-6 seeds 0, 4 and
# 6, the check's total is lowest from 128 to 512 states, and 20% higher at 32.
_FACTORED_STATES = 512
# The kinds of input in Semiautomaton._kinds. A one-state column is the
# identity; _CONSTANT and _PERMUTATION name the other constant maps and the
# other permutations.
_IDENTITY, _CONSTANT, _PERMUTATION, _OTHER = range(4)


def _unique_labels(candidates) -> tuple:
    """The candidates in order, each repeat renamed to the first name
    "<label>#k" not taken yet, counting k on from the label's last repeat."""
    candidates = tuple(candidates)
    if len(set(candidates)) == len(candidates):
        return candidates
    taken = set()
    last = {}
    out = []
    for lab in candidates:
        if lab in taken:
            k = last.get(lab, 0)
            name = lab
            while name in taken:
                k += 1
                name = "%s#%d" % (lab, k)
            last[lab] = k
            lab = name
        taken.add(lab)
        out.append(lab)
    return tuple(out)


def _rows(columns, n_states):
    """The rows of the table with per-symbol images columns[a][s]."""
    return zip(*columns) if columns else repeat((), n_states)


def _row_fault(rows, n_symbols, n_states):
    """Raise for the first malformed row or target, in row order."""
    for row in rows:
        if len(row) != n_symbols:
            raise InvalidInputError("transition row length differs from alphabet size")
        for x in row:
            x = _integer(x, "transition target")
            if not 0 <= x < n_states:
                raise InvalidInputError("transition target %d out of range" % x)


def _checked_labels(state_labels, symbol_labels):
    """The labels as strs, once there is a state and no label repeats: the one
    check of labels, where they enter (constructor, from_columns, unpickling)."""
    states, symbols = tuple(map(str, state_labels)), tuple(map(str, symbol_labels))
    if not states:
        raise InvalidInputError("need at least one state")
    if len(set(states)) != len(states):
        raise InvalidInputError("duplicate state label")
    if len(set(symbols)) != len(symbols):
        raise InvalidInputError("duplicate symbol label")
    return states, symbols


class _PairLabels:
    """The state labels of a product of A and B, rendered on first read."""

    def __init__(self, A, B):
        self.A, self.B = A, B

    def __len__(self):
        return self.A.n_states * self.B.n_states

    def render(self):
        return _unique_labels(pair_labels(product(self.A.state_labels, self.B.state_labels), "q"))

    def label(self, s):
        """Label s alone. _unique_labels renames a repeat only by the labels
        before it, so only the labels up to s are rendered, and of each
        factor whose labels are not rendered yet only those they read; none
        of them is kept."""
        return self._prefix(s + 1)[s]

    def _prefix(self, stop):
        nb = self.B.n_states
        a = _label_prefix(self.A, -(-stop // nb))
        b = _label_prefix(self.B, min(stop, nb))
        # b is short only where a has one label: a pair's position is its state
        return _unique_labels(pair_labels(islice(product(a, b), stop), "q"))


def _label_prefix(X, stop):
    """X's first stop state labels, rendered by _PairLabels._prefix when
    X's are not rendered yet."""
    labels = X._state_labels
    return X._pending_labels._prefix(stop) if labels is None else labels[:stop]


class TableRows:
    """Read-only rows of a column-major table: row s is the tuple of cells
    (s, 0), (s, 1), ..., as the table's tuple of row tuples would give it."""

    __slots__ = ("_table", "_n")

    def __init__(self, table, n_states):
        self._table = table
        self._n = n_states

    def __len__(self):
        return self._n

    def __getitem__(self, s):
        if isinstance(s, slice):
            return tuple(map(self.__getitem__, range(self._n)[s]))
        n = self._n
        if s < 0:
            s += n
        if not 0 <= s < n:
            raise IndexError("row index out of range")
        return tuple(self._table[s::n].tolist())

    def __iter__(self):
        t, n = self._table, self._n
        return _rows([t[k:k + n] for k in range(0, len(t), n)], n)

    def __eq__(self, other):
        if isinstance(other, TableRows):
            return self._n == other._n and self._table == other._table
        try:
            rows = tuple(map(tuple, other))
        except TypeError:
            return NotImplemented
        return tuple(self) == rows

    __hash__ = None

    def __repr__(self):
        return repr(tuple(self))


class Semiautomaton:
    """States, alphabet, and a total transition table.

    The table is one flat array of 4-byte cells in column-major order: the
    image of state s under symbol a is cell a * n_states + s. table is a
    read-only view of the whole array and column(a) a read-only slice of it,
    neither a copy. delta reads the same cells as rows: delta[s][a] is the
    image of s under a, and delta indexes, iterates, compares and prints like
    a tuple of row tuples. No other copy of the table is kept.

    Every column passed in is checked once for length and range, except a
    product's: each of its cells is b + t·|B| with b < |B| and t < |A|, so it
    is in range by construction and kept unchecked. Labels are checked where
    they enter (_checked_labels); a derived automaton keeps the tuples it is
    built with, and a product's state labels are a _PairLabels, rendered on
    their first read. A product of
    _FACTORED_STATES states or more is a _FactoredProduct: it records (A, B,
    connection) in _factors, for the law check (_lawcheck), and builds its
    table from the record only when something reads it. Like the range of
    its cells, the record is a fact of how _product makes the table, never
    confirmed against it; an automaton made any other way, unpickled
    included, records None.

    The column class of an input is the lowest input whose column has the
    same contents (_classes), and _firsts holds the first input of each
    class, in order. Anything that depends only on a column's contents, such
    as the input's kind, a quotient's column or a law pass, is the same for
    every input of a class, so it is computed once per class and shared.
    Every automaton gets its classes where it is built, and they are plain
    attributes from then on: a product from its factors (_product), any
    other by comparing the bytes of the distinct columns it is built from
    (_join). A derived one (a quotient, Yoeli's A*, a cover's C, a split's
    Pi and R, a substitution's U', a grouplike automaton) passes the columns
    its construction computes, one per key (_from_keys); one from outside,
    made by the constructor or from_columns, or parsed, passes each input's
    column as its own key; an unpickled one passes the columns of its
    classes.

    Values computed on first read (delta, state_labels of a product, the
    label indexes and the kinds) are kept in plain attributes
    that start as None. A cached_property would write through __dict__,
    which on CPython 3.11 moves the instance's inline attribute values into
    a dict, so that every later attribute read on the automaton takes the
    slower dict path; and a try/except around a missing attribute costs a
    raised AttributeError on every first read. A _FactoredProduct's _table
    and table are plain attributes too, missing until the first read of
    either, which its __getattr__ answers by setting both.
    """

    def __init__(self, state_labels, symbol_labels, delta):
        rows = tuple(map(tuple, delta))
        self._set_labels(*_checked_labels(state_labels, symbol_labels))
        n, m = self._n, len(self.symbol_labels)
        if len(rows) != n:
            raise InvalidInputError("need one transition row per state")
        if set(map(len, rows)) != {m}:
            _row_fault(rows, m, n)
        self._join(list(zip(*rows)), range(m))

    @classmethod
    def from_columns(cls, state_labels, symbol_labels, columns):
        """Build from per-symbol images: columns[j][s] = s under symbol j."""
        n = len(state_labels)
        columns = list(columns)
        # a short column is named before the labels are checked
        for col in columns:
            if len(col) != n:
                raise InvalidInputError("column length differs from state count")
        return cls._from_outside(state_labels, symbol_labels, columns, range(len(columns)))

    @classmethod
    def _from_keys(cls, state_labels, symbol_labels, columns, keys):
        """Build from the distinct columns of a construction: keys has one
        hashable key per input, and columns maps each key to its inputs'
        column (_join). The labels are kept as built: tuples of distinct
        strs, or a product's state labels as a _PairLabels."""
        self = cls.__new__(cls)
        self._set_labels(state_labels, symbol_labels)
        self._join(columns, keys)
        return self

    @classmethod
    def _from_outside(cls, state_labels, symbol_labels, columns, keys):
        """_from_keys on labels from outside (_checked_labels): from_columns
        keys every input by itself, and unpickling by its class."""
        return cls._from_keys(*_checked_labels(state_labels, symbol_labels), columns, keys)

    def _set_labels(self, state_labels, symbol_labels):
        if isinstance(state_labels, _PairLabels):
            self._pending_labels = state_labels
            self._state_labels = None
        else:
            self._state_labels = state_labels
        self.symbol_labels = symbol_labels
        self._n = len(state_labels)
        self._state_positions = self._symbol_positions = None

    def _join(self, columns, keys):
        """Set the table and the column classes of an automaton whose labels
        are set, from one key per input and the column of each key.

        The table is joined from one copy of its key's column per input, and
        the classes are set by comparing the bytes of the distinct columns
        only, each checked once for length and range, so they are exact even
        where two keys give one column. A wrong symbol count is named first,
        and a bad target as the row constructor names it, the first in row
        order. Per input there is no loop in Python: map(first.setdefault,
        ...) gives each input its key's first."""
        n, m = self._n, len(self.symbol_labels)
        first = {}
        inputs = list(map(first.setdefault, keys, count()))
        if len(inputs) != m:
            raise InvalidInputError("transition row length differs from alphabet size")
        cells, classes, merged = {}, {}, {}
        in_range = True
        for key, a in first.items():
            col = columns[key]
            if len(col) != n:
                raise InvalidInputError("column length differs from state count")
            try:
                col = array(_CELL, col)
            except (TypeError, OverflowError):
                in_range = False
                continue
            in_range = in_range and 0 <= min(col) and max(col) < n
            cells[a] = data = col.tobytes()
            c = classes.setdefault(data, a)
            if c != a:
                merged[a] = c
        if not in_range:
            key_of = dict(zip(first.values(), first))
            _row_fault(_rows([columns[key_of[a]] for a in inputs], n), m, n)
        # zero-filled at its final size, with no spare capacity
        table = array(_CELL, [0]) * (n * m)
        memoryview(table).cast("B")[:] = b"".join(map(cells.__getitem__, inputs))
        self._set_table(table)
        if merged:
            inputs = list(map(merged.get, inputs, inputs))
        self._classes = array(_CELL, inputs)
        self._firsts = tuple(classes.values())

    def _set_table(self, table):
        self._table = table
        self._rows = self._input_kinds = self._factors = None
        self.table = memoryview(table).toreadonly()

    @property
    def state_labels(self) -> tuple:
        labels = self._state_labels
        if labels is None:
            self._state_labels = labels = self._pending_labels.render()
            del self._pending_labels
        return labels

    @property
    def _state_index(self) -> dict:
        index = self._state_positions
        if index is None:
            self._state_positions = index = {lab: i for i, lab in enumerate(self.state_labels)}
        return index

    @property
    def _symbol_index(self) -> dict:
        index = self._symbol_positions
        if index is None:
            self._symbol_positions = index = {lab: j for j, lab in enumerate(self.symbol_labels)}
        return index

    @property
    def n_states(self) -> int:
        return self._n

    @property
    def n_symbols(self) -> int:
        return len(self.symbol_labels)

    @property
    def delta(self) -> TableRows:
        rows = self._rows
        if rows is None:
            self._rows = rows = TableRows(self._table, self._n)
        return rows

    @property
    def _kinds(self) -> bytes:
        """The kind of every input, one byte each, computed once per column
        class on the first read, then kept."""
        kinds = self._input_kinds
        if kinds is not None:
            return kinds
        n, table = self._n, self._table
        identity = array(_CELL, range(n))
        kind = {}
        for c in self._firsts:
            col = table[c * n:(c + 1) * n]
            images = len(set(col))
            kind[c] = (_IDENTITY if col == identity else _CONSTANT if images == 1
                       else _PERMUTATION if images == n else _OTHER)
        self._input_kinds = kinds = bytes(map(kind.__getitem__, self._classes))
        return kinds

    def column(self, a: int) -> memoryview:
        """The images of every state under symbol a, 0 <= a < n_symbols, as
        a read-only view. An int out of range raises IndexError, and a value
        that is not an integer InvalidInputError."""
        n = self._n
        try:
            if 0 <= a < len(self.symbol_labels):
                return self.table[a * n:(a + 1) * n]
        except TypeError:
            # converted only after the fault, so an int makes no call more
            return self.column(_integer(a, "symbol index"))
        raise IndexError("symbol index out of range")

    def state_index(self, label) -> int:
        try:
            return self._state_index[label]
        except KeyError:
            raise InvalidInputError("unknown state label %r" % (label,)) from None

    def symbol_index(self, label) -> int:
        try:
            return self._symbol_index[label]
        except KeyError:
            raise InvalidInputError("unknown symbol %r" % (label,)) from None

    def step(self, s: int, a: int) -> int:
        """The image of state s under symbol a; an int out of range raises
        IndexError, and a value that is not an integer InvalidInputError."""
        try:
            a = range(len(self.symbol_labels))[a]
            s = range(self._n)[s]
        except TypeError:
            return self.step(_integer(s, "state index"), _integer(a, "symbol index"))
        return self._table[a * self._n + s]

    def symbol_transformation(self, a: int) -> Transformation:
        return Transformation(self.column(a).tolist())

    def transformations(self):
        return [self.symbol_transformation(a) for a in range(self.n_symbols)]

    def word_indices(self, w):
        """Normalize a word to symbol indices: a str item is a symbol label (a
        str word is read per character), and anything else an index."""
        out = []
        for x in w:
            a = self.symbol_index(x) if isinstance(x, str) else _integer(x, "symbol index")
            if not 0 <= a < self.n_symbols:
                raise InvalidInputError("symbol index %d out of range" % a)
            out.append(a)
        return out

    def __eq__(self, other):
        if self is other:
            return True
        return (
            isinstance(other, Semiautomaton)
            and self.symbol_labels == other.symbol_labels
            and self._n == other._n
            and self._table == other._table
            and self.state_labels == other.state_labels
        )

    def __repr__(self):
        return "Semiautomaton(%d states, %d symbols)" % (self.n_states, self.n_symbols)

    def __reduce__(self):
        # the table view cannot be pickled: the distinct columns and the
        # class of every input rebuild the table, checked as any other is
        n, table = self._n, self._table
        columns = {c: table[c * n:(c + 1) * n] for c in self._firsts}
        return Semiautomaton._from_outside, (self.state_labels, self.symbol_labels, columns, self._classes)


def run(A: Semiautomaton, s: int, w) -> int:
    """delta*: the state reached from s after reading w."""
    s = _integer(s, "state index")
    if not 0 <= s < A.n_states:
        raise InvalidInputError("state index %d out of range" % s)
    table, n = A._table, A.n_states
    for a in A.word_indices(w):
        s = table[a * n + s]
    return s


def word_transformation(A: Semiautomaton, w) -> Transformation:
    """tau_w, composed letterwise left to right; tau of the empty word is id."""
    t = Transformation.identity(A.n_states)
    for a in A.word_indices(w):
        t = t.compose(A.symbol_transformation(a))
    return t


def transition_monoid(A: Semiautomaton, cap: int = CLOSURE_CAP):
    """T(A): the monoid generated by the per-symbol transformations.

    Only the first input of each column class is handed over as a generator.
    A later input of a class acts as its first one does, and the
    breadth-first closure tries it right after, so it never adds an element:
    the elements, their order, their words (read back as inputs of A) and
    their labels are those of the closure over every input.
    """
    firsts = A._firsts
    M = closure_generate(
        [A.symbol_transformation(a) for a in firsts],
        domain_size=A.n_states,
        cap=cap,
        symbol_labels=[A.symbol_labels[a] for a in firsts],
    )
    if len(firsts) < A.n_symbols:
        M.witnesses = tuple(tuple(map(firsts.__getitem__, w)) for w in M.witnesses)
    return M


class _FactoredProduct(Semiautomaton):
    """A product A∘B that records (A, B, connection) in _factors and builds
    its table from them on the first read of _table or table, by the same
    _product_table as any other product, then keeps it. Everything that
    reads cells builds it: delta, column, step, ==, _kinds and pickling,
    which gives an automaton that records no factors, and the law check of
    a witness with a flat phi. The law check of a composed phi (_lawcheck)
    reads the record, never this table, so a tree's recorded products hold
    no table until something else reads one."""

    def __init__(self, A: Semiautomaton, B: Semiautomaton, connection):
        self._set_labels(_PairLabels(A, B), A.symbol_labels)
        self._rows = self._input_kinds = None
        self._factors = (A, B, connection)

    def __getattr__(self, name):
        # called only for an attribute not set: _table and table until the
        # table is built, and any name Semiautomaton does not have
        if name != "_table" and name != "table":
            raise AttributeError("%r object has no attribute %r" % (type(self).__name__, name))
        self._table = table = _product_table(*self._factors, self._classes)
        self.table = view = memoryview(table).toreadonly()
        return table if name == "_table" else view


def _product(A: Semiautomaton, B: Semiautomaton, connection, keys=None) -> Semiautomaton:
    """A driving B, where A-state i under symbol a moves B by symbol
    connection[a][i].

    A product too large for a table is refused first. One of
    _FACTORED_STATES states or more is a _FactoredProduct, which builds its
    table only when something reads it; any other is built here, by
    _product_table.

    Either way the product's column classes are set here, from how it is
    built, with no table read. Input x maps state (u, v) to (u·x, v·k),
    k = connection[x][u], so two columns x and y of the product are equal
    iff A's columns x and y are equal and, at every state u of A, B's
    columns connection[x][u] and connection[y][u] are: the key (A's class of
    x, B's classes along connection[x]) has the same classes as the table's
    contents. The keys are built with no loop in Python; a direct product
    passes its own, (A's class of x, B's class of x).
    """
    na, nb = A.n_states, B.n_states
    if na * nb > _STATE_LIMIT:
        raise InvalidInputError(
            "a product of %d and %d states does not fit a table of at most %d states"
            % (na, nb, _STATE_LIMIT)
        )
    if keys is None:
        along = map(tuple, map(map, repeat(B._classes.__getitem__), connection))
        keys = zip(A._classes, along)
    first = {}
    classes = array(_CELL, map(first.setdefault, keys, count()))
    if na * nb >= _FACTORED_STATES:
        X = _FactoredProduct(A, B, connection)
    else:
        X = Semiautomaton.__new__(Semiautomaton)
        X._set_labels(_PairLabels(A, B), A.symbol_labels)
        X._set_table(_product_table(A, B, connection, classes))
    X._classes, X._firsts = classes, tuple(first.values())
    return X


def _product_table(A: Semiautomaton, B: Semiautomaton, connection, classes) -> array:
    """The table of the product of A driving B, whose column classes are
    classes, for _product and _FactoredProduct.

    Column a of the product is one block of |S^B| cells per A-state i: B's
    column connection[a][i] with t·|S^B| added to every cell, t the state A
    reaches from i. The addition runs on all cells of a block at once, as
    one sum of integers whose 4-byte lanes are the cells; no lane carries,
    since every cell stays below |S^A|·|S^B|, which must fit a cell. So every
    cell is a state of the product, and the table is kept without a range scan.

    Column a is built only when it is the first of its class, and otherwise
    copied from column classes[a]; B's columns are read once per class.
    """
    na, nb = A.n_states, B.n_states
    order = sys.byteorder
    b_table, a_table = B._table, A._table
    first = {c: int.from_bytes(b_table[c * nb:(c + 1) * nb], order) for c in B._firsts}
    blocks = list(map(first.__getitem__, B._classes))
    shift = int.from_bytes(array(_CELL, [nb]) * nb, order)
    width = nb * _CELL_BYTES
    span = na * width
    # zero-filled at its final size, with no spare capacity
    table = array(_CELL, [0]) * (na * nb * A.n_symbols)
    cells = memoryview(table).cast("B")
    pos = 0
    for a, conn in enumerate(connection):
        c = classes[a]
        if c != a:
            cells[pos:pos + span] = cells[c * span:(c + 1) * span]
            pos += span
            continue
        for t, k in zip(a_table[a * na:(a + 1) * na], conn):
            cells[pos:pos + width] = (blocks[k] + t * shift).to_bytes(width, order)
            pos += width
    cells.release()
    return table


def direct_product(A: Semiautomaton, B: Semiautomaton) -> Semiautomaton:
    """Parallel composition on a shared alphabet; state (i,j) flattens to i*|S^B|+j."""
    if A.symbol_labels != B.symbol_labels:
        raise InvalidInputError("direct product needs identical alphabets")
    na = A.n_states
    connection = [(a,) * na for a in range(A.n_symbols)]
    return _product(A, B, connection, zip(A._classes, B._classes))


def _check_omega(A: Semiautomaton, B: Semiautomaton, omega):
    """omega as a tuple of row tuples of ints, one row per state of A and one
    entry per symbol of A, each a symbol of B (_integer converts each): the
    one check of a connection, where it enters, which names the first fault."""
    try:
        omega = tuple(tuple(_integer(x, "connection mapping image") for x in row) for row in omega)
    except TypeError:
        raise InvalidInputError("connection mapping is not a sequence of rows") from None
    if len(omega) != A.n_states:
        raise InvalidInputError("connection mapping needs one row per first-factor state")
    for row in omega:
        if len(row) != A.n_symbols:
            raise InvalidInputError("connection mapping row length differs from alphabet")
        for x in row:
            if not 0 <= x < B.n_symbols:
                raise InvalidInputError(
                    "connection mapping image %d outside the second factor's alphabet" % x
                )
    return omega


def cascade_product(A: Semiautomaton, B: Semiautomaton, omega) -> Semiautomaton:
    """A driving B: (s,t)·a = (s·a, t·omega(s,a)), over A's alphabet; omega is checked."""
    return _product(A, B, list(zip(*_check_omega(A, B, omega))))


@dataclass
class VerificationResult:
    ok: bool
    reason: Optional[str] = None
    site: Optional[tuple] = None

    def __bool__(self) -> bool:
        return self.ok


class CoveringWitness:
    """Proof object for upper >= lower.

    phi: per upper state, a lower-state index or None (None = outside the domain).
    xi: per lower symbol, an upper symbol index.
    Construction normalizes phi and xi and checks phi's range, then the
    lengths of phi and xi and xi's range (_parts_fault); with check=True it
    then runs verify_covering, the one checker of a covering, and raises
    WitnessError with its reason when the witness does not verify.
    _from_parts makes a witness of parts the library derived, kept as they
    are, with only the second checks (_set, the body both share). Such a
    witness is verified only where the library relies on it: at a tree
    node, by a public wrapper or by compose_coverings.

    phi is kept as given in _phi, a tuple or a _lawcheck.Composed: a tree
    node's witness over a product that records its factors keeps the record
    of its composition (_substitute), which the law check follows down the
    product's record. Reading phi gives the tuple, which a Composed builds
    once. A part (upper, lower, phi or xi) set on a made witness is checked
    as it is set, and what does not fit, an entry of phi or xi that is not
    an integer included, is kept in _fault, which verify_covering reports
    and simulation_counterexample raises: every witness as it stands gets a
    verdict.

    dom, the upper states in the domain of phi in order, is computed on its
    first read and then kept; _descent keeps the descent of the first check
    by the passes (see _law_violation). Both are derived from the parts
    alone, and setting a part drops both. A witness pickles as its parts,
    phi as the tuple, and loads keeping neither _descent nor dom.
    """

    def __init__(self, upper: Semiautomaton, lower: Semiautomaton, phi, xi, check=True):
        phi = _phi_images(phi)
        _check_phi_range(set(phi), phi, lower.n_states)
        self._set(upper, lower, phi, tuple(_integer(x, "xi image") for x in xi))
        if check:
            result = verify_covering(self)
            if not result:
                raise WitnessError(result.reason)

    @classmethod
    def _from_parts(cls, upper: Semiautomaton, lower: Semiautomaton, phi, xi: tuple):
        self = cls.__new__(cls)
        self._set(upper, lower, phi, xi)
        return self

    def _set(self, upper, lower, phi, xi):
        parts = vars(self)
        parts.update(upper=upper, lower=lower, _phi=phi, xi=xi, _dom=None, _descent=None)
        fault = parts["_fault"] = _parts_fault(self)
        if fault is not None:
            raise WitnessError(fault)

    def __setattr__(self, name, value):
        # phi is kept in _phi as it is set. The entries of phi (unless
        # composed) and xi are converted as the constructor converts them,
        # and a part with an entry that is not an integer is kept as given,
        # its reason in _unconverted until the part is set again: that
        # reason, phi's before xi's, is the fault. A part set on a made
        # witness is checked here, once, so that a check reads only the
        # fault kept in _fault; dom and the descent, made from the parts,
        # are dropped
        name = "_phi" if name == "phi" else name
        if name not in _PARTS:
            object.__setattr__(self, name, value)
            return
        parts = vars(self)
        unconverted = dict(parts.get("_unconverted", ()))
        unconverted.pop(name, None)
        try:
            if name == "xi":
                value = _integers(value, "xi image")
            elif name == "_phi" and not isinstance(value, _lawcheck.Composed):
                value = _phi_images(value)
        except InvalidInputError as exc:
            unconverted[name] = str(exc)
        object.__setattr__(self, name, value)
        fault = unconverted.get("_phi") or unconverted.get("xi") or _parts_fault(self)
        parts.update(_unconverted=unconverted, _fault=fault, _dom=None, _descent=None)

    @property
    def phi(self) -> tuple:
        phi = self._phi
        return phi.expand() if isinstance(phi, _lawcheck.Composed) else phi

    @property
    def dom(self) -> tuple:
        dom = self._dom
        if dom is None:
            self._dom = dom = tuple(compress(range(len(self.phi)), map(is_not, self.phi, repeat(None))))
        return dom

    def __reduce__(self):
        # a witness pickles as its parts and loads with no kept descent or
        # dom, so a copy trusts nothing a pickle could have forged. The upper
        # pickles as a plain automaton, with no record of factors, so phi
        # pickles as the tuple.
        return CoveringWitness._from_parts, (self.upper, self.lower, self.phi, self.xi)

    def __repr__(self):
        # names no entry of phi, which a composed phi would build in full
        return "CoveringWitness(%d upper states onto %d lower states)" % (
            self.upper.n_states, self.lower.n_states)


def _phi_images(phi) -> tuple:
    """phi as a tuple of None or ints, each distinct entry converted once by
    _integer, which names one that is not an integer; 1.0 == 1, so types
    count."""
    phi = tuple(phi)
    keys = tuple(zip(phi, map(type, phi)))
    image = {k: None if k[0] is None else _integer(k[0], "phi image") for k in set(keys)}
    return tuple(map(image.__getitem__, keys))


def _check_phi_range(values, phi, n):
    """Raise WitnessError naming the first entry of phi, a tuple or a
    Composed, out of range(n), if values, phi's entries but None, hold one:
    only then is a Composed expanded."""
    bad = values.difference(range(n), (None,))
    if bad:
        phi = phi.expand() if isinstance(phi, _lawcheck.Composed) else phi
        raise WitnessError("phi image %d out of range" % next(v for v in phi if v in bad))


# The attributes of a CoveringWitness that _parts_fault reads.
_PARTS = frozenset(("upper", "lower", "_phi", "xi"))


def _parts_fault(w: CoveringWitness):
    """Why w's phi or xi does not fit its automata, or None: a wrong length,
    or an entry of xi out of range. Both constructors raise it, and a part
    set later keeps it in w._fault, which verify_covering reports and
    simulation_counterexample raises."""
    xi, upper = w.xi, w.upper
    if len(w._phi) != upper._n:
        return "phi needs one entry per upper state"
    if len(xi) != len(w.lower.symbol_labels):
        return "xi needs one entry per lower symbol"
    m = len(upper.symbol_labels)
    if xi and not (0 <= min(xi) and max(xi) < m):
        return "xi image %d out of range" % next(x for x in xi if not 0 <= x < m)
    return None


def _composed_witness(product, lower, keys, rows, w_v: CoveringWitness, xi) -> CoveringWitness:
    """The witness product >= lower, product = U∘V with V = w_v.upper, whose
    phi(u·|V| + v) is rows[keys[u]][phi_V(v)], None where keys[u], phi_V(v)
    or that entry is: composed where the product records its factors."""
    phi = _lawcheck.Composed(keys, rows, w_v._phi)
    return CoveringWitness._from_parts(
        product, lower, phi if product._factors else phi.expand(), xi)


class HomImageWitness:
    """Proof object for a homomorphic image: total phi and xi, both surjective.

    Construction checks the lengths and ranges of phi and xi; with
    check=True it then runs verify_hom_image and raises WitnessError with
    its reason when the witness does not verify."""

    def __init__(self, source: Semiautomaton, target: Semiautomaton, phi, xi, check=True):
        self.source = source
        self.target = target
        self.phi = tuple(_integer(v, "phi image") for v in phi)
        self.xi = tuple(_integer(x, "xi image") for x in xi)
        if len(self.phi) != source.n_states:
            raise WitnessError("phi needs one entry per source state")
        if len(self.xi) != source.n_symbols:
            raise WitnessError("xi needs one entry per source symbol")
        for v in self.phi:
            if not 0 <= v < target.n_states:
                raise WitnessError("phi image %d out of range" % v)
        for x in self.xi:
            if not 0 <= x < target.n_symbols:
                raise WitnessError("xi image %d out of range" % x)
        if check:
            result = verify_hom_image(self)
            if not result:
                raise WitnessError(result.reason)


def _law_violation(w: CoveringWitness):
    """The first (s, a), domain states in order and then lower symbols, where
    phi(s·xi(a)) != phi(s)·a; leaving the domain of phi counts. None if none.

    A witness of _SYMBOL_PASS_CELLS cells (lower symbols times upper states)
    or more is checked by the passes of _lawcheck on one descent, and
    scanned state by state only after a failure, to name the first site.
    There is one pass per pair of _law_pairs, and two symbols with the same
    pair compare cells of the same contents, so skipping the second is
    exact. Where phi is kept composed, the descent follows the upper's
    record as far as the two agree and a pass compares each distinct block
    of phi once, which is exact too; a flat phi takes one pass per pair over
    the upper's own table. Both paths are exact on any phi, and a tree
    node's phi is composed only over _FACTORED_STATES upper states or more,
    so it takes the passes and is expanded only to name a failing site.

    The descent is made on the witness's first check and kept on it in
    _descent. It is a function of xi, upper, lower and phi alone, and
    setting any of them drops it. Every check runs the passes in full: they
    read the table where the descent stopped and the lower's table afresh
    and compare every cell, so a repeat check gets the verdict, reason and
    site of the first.
    """
    if len(w.xi) * w.upper._n < _SYMBOL_PASS_CELLS:
        return _lawcheck.first_failure(w)
    descent = w._descent
    if descent is None:
        w._descent = descent = _lawcheck.descend(w.upper, w._phi, _law_pairs(w))
    if _lawcheck.passes(w.lower, descent):
        return None
    return _lawcheck.first_failure(w)


def _law_pairs(w: CoveringWitness) -> set:
    """The distinct pairs (column class of xi(a) in the upper automaton,
    column class of a in the lower), over the lower symbols a. A class is
    named by its lowest input, so each pair is itself an (x, a) whose
    columns are those of xi(a) and a.

    They are built with no loop in Python, once per kept descent: on a
    tree node of 4 states over 1,440 symbols they take about 0.18 ms (a
    loop over the symbols 0.29 ms), against 0.01 ms for the passes and
    0.6 ms for the scan they replace, and a tree node is checked three
    times."""
    return set(zip(map(w.upper._classes.__getitem__, w.xi), w.lower._classes))


def _state_label(X: Semiautomaton, s: int) -> str:
    """X's state label s. A product whose labels are not rendered yet
    renders the labels up to s only (_PairLabels.label), and keeps none of
    them, nor any of its factors'."""
    labels = X._state_labels
    return X._pending_labels.label(s) if labels is None else labels[s]


def verify_covering(w: CoveringWitness) -> VerificationResult:
    """Exhaustive check of surjectivity, domain closure, and the per-symbol
    law: the one checker of a covering witness, which CoveringWitness(...,
    check=True) runs too.

    A failure names, in this order: a part that does not fit (_parts_fault),
    an empty domain, a missed lower state, an entry of phi out of range, a
    law site. The states phi covers are read by _lawcheck.values, off the
    composition of phi where the witness keeps one, which reads no entry of
    phi, and off set(phi) otherwise; the law is _law_violation's. The first
    check of a witness makes the one descent of the law check
    (_lawcheck.descend) and keeps it on the witness; a check that follows,
    with the same parts, makes none and compares every cell again. A
    composed phi is expanded only to name a failure.
    """
    fault = w._fault
    if fault is not None:
        return VerificationResult(False, fault)
    upper, lower = w.upper, w.lower
    covered = _lawcheck.values(w._phi)
    if not covered:
        return VerificationResult(False, "phi has an empty domain")
    n = lower._n
    if len(covered) != n or not covered.issuperset(range(n)):
        missing = set(range(n)) - covered
        if missing:
            label = _state_label(lower, min(missing))
            return VerificationResult(False, "phi misses lower state %s" % label)
        # an entry out of range, which _from_parts and setting phi leave unchecked
        for v in w.phi:
            if v is not None and not 0 <= v < n:
                return VerificationResult(False, "phi image %d out of range" % v)
    site = _law_violation(w)
    if site is None:
        return VerificationResult(True)
    s, a = site
    if w.phi[upper.step(s, w.xi[a])] is None:
        return VerificationResult(
            False, "domain not closed under symbol %s" % lower.symbol_labels[a], site
        )
    label = _state_label(upper, s)
    reason = "covering law fails at state %s under symbol %s" % (label, lower.symbol_labels[a])
    return VerificationResult(False, reason, site)


def verify_hom_image(w: HomImageWitness) -> VerificationResult:
    src, tgt = w.source, w.target
    if set(w.phi) != set(range(tgt.n_states)):
        return VerificationResult(False, "phi is not surjective")
    if set(w.xi) != set(range(tgt.n_symbols)):
        return VerificationResult(False, "xi is not surjective")
    phi = w.phi
    columns = [(src.column(a), tgt.column(x)) for a, x in enumerate(w.xi)]
    for s in range(src.n_states):
        for a, (col, image) in enumerate(columns):
            if phi[col[s]] != image[phi[s]]:
                return VerificationResult(
                    False,
                    "homomorphism law fails at state %s under symbol %s"
                    % (src.state_labels[s], src.symbol_labels[a]),
                    (s, a),
                )
    return VerificationResult(True)


def identity_witness(A: Semiautomaton) -> CoveringWitness:
    return CoveringWitness._from_parts(A, A, tuple(range(A.n_states)), tuple(range(A.n_symbols)))


def compose_coverings(w1: CoveringWitness, w2: CoveringWitness) -> CoveringWitness:
    """From C >= B and B >= A, the transitive witness C >= A.

    Both inputs are verified first, so the result covers by transitivity.
    krohn_rhodes_decompose composes none: it reads each node's witness off
    its parts (_substitute) and verifies it once, where the node is made.
    """
    if w1.lower != w2.upper:
        raise WitnessError("middle automata of the two witnesses differ")
    r1, r2 = verify_covering(w1), verify_covering(w2)
    if not r1:
        raise WitnessError("first witness does not verify: %s" % r1.reason)
    if not r2:
        raise WitnessError("second witness does not verify: %s" % r2.reason)
    image = dict(enumerate(w2.phi))
    image[None] = None
    phi = tuple(map(image.__getitem__, w1.phi))
    xi = tuple(map(w1.xi.__getitem__, w2.xi))
    return CoveringWitness._from_parts(w1.upper, w2.lower, phi, xi)


def _nonnegative(name: str, length: int):
    if length < 0:
        raise InvalidInputError("%s of %d is negative" % (name, length))


def simulation_counterexample(w: CoveringWitness, max_len: int):
    """A pair (upper start state, word) violating phi(s·xi(x)) = phi(s)·x, or None.

    Breadth-first search over state pairs (upper state, lower state), started
    from every (s, phi(s)) with s in the domain of phi; a lower word x steps a
    pair (u, l) to (u·xi(x), l·x), and a pair with phi(u) != l, or with u
    outside the domain, is a violation. The law for a start state and a word
    depends only on the pair the word reaches, so the result is identical to
    testing every lower word of length 1..max_len from every domain state, and
    the word returned is a shortest one.

    The search closes after one level: a pair that keeps the law is (u, phi(u))
    with u in the domain, which is already a start pair. So the answer is the
    first (s, a), domain states in order and then symbols, where the one-symbol
    law or domain closure fails, with the one-letter word (a,); for
    max_len >= 1 the verdict does not depend on max_len. Cost is
    |dom| * |lower alphabet| steps, not |lower alphabet| ** max_len. A
    negative max_len raises InvalidInputError, and parts that do not fit
    raise WitnessError with _parts_fault's reason.
    """
    _nonnegative("max_len", max_len)
    fault = w._fault
    if fault is not None:
        raise WitnessError(fault)
    if max_len <= 0:
        return None
    site = _law_violation(w)
    if site is None:
        return None
    s, a = site
    return s, (a,)


@dataclass
class Substitution:
    u_prime: Semiautomaton
    product: Semiautomaton
    omega: tuple
    witness: CoveringWitness


def _substitute(
    A, C, omega, w_u: CoveringWitness, w_v: CoveringWitness, phi, xi, X: Semiautomaton
) -> Substitution:
    """substitute, composed with a cover A∘C >= X given by its parts, which
    never needs A∘C built: phi has one entry per state a·|C| + c of A∘C, and
    xi one entry per symbol of X. The Substitution's witness is U'∘V >= X.

    phi'(u, v) = phi(phi_U(u)·|C| + phi_V(v)), outside the domain when
    phi_U(u), phi_V(v) or that entry of phi is: phi's row phi_U(u), a row map
    of |C| entries, after phi_V. So phi' is kept as that composition of
    phi_U, the rows and phi_V (_composed_witness), and expanded at once only
    where the product records no factors. xi' is xi, since the product keeps
    A's alphabet. Nothing is checked (substitute checks input from outside):
    as in Ginzburg, the connection is composed from maps the caller built, so
    _product builds the product directly. Verify the witness once, or the
    tree node witness it becomes, as krohn_rhodes_decompose does.
    """
    nc = C.n_states
    U, V = w_u.upper, w_v.upper
    # U's columns at xi_U, keyed by U's classes
    through = list(map(U._classes.__getitem__, w_u.xi))
    nu, table = U.n_states, U._table
    columns = {c: table[c * nu:(c + 1) * nu] for c in set(through)}
    u_prime = Semiautomaton._from_keys(U.state_labels, A.symbol_labels, columns, through)
    keys = w_u.phi
    rows, maps = {}, {None: (None,) * nc}
    for pu in set(keys):
        rows[pu] = tuple(map(w_v.xi.__getitem__, omega[0 if pu is None else pu]))
        if pu is not None:
            maps[pu] = phi[pu * nc:(pu + 1) * nc]
    omega2 = tuple(map(rows.__getitem__, keys))
    product = _product(u_prime, V, list(zip(*omega2)))
    witness = _composed_witness(product, X, keys, maps, w_v, tuple(xi))
    return Substitution(u_prime, product, omega2, witness)


def substitute(
    product_ac, A, C, omega, w_u: CoveringWitness, w_v: CoveringWitness
) -> Substitution:
    """Replace both cascade factors: from U >= A and V >= C, build U'∘V >= A∘C.

    U' is U with its alphabet pulled back along xi_U, so the product keeps A's
    alphabet even when xi_U is not injective. The connection reads U's state
    through phi_U and routes through V's alphabet map:
    omega'(u,a) = xi_V(omega(phi_U(u),a)); rows outside dom(phi_U) are
    unreachable from the witness domain and reuse row 0. phi sends (u,v) to
    (phi_U(u), phi_V(v)), outside the domain when either part is.

    omega, the witnesses' lower automata and parts (the range of phi too,
    which _substitute reads as indices), and the size of product_ac are
    checked, then _substitute runs on the identity cover of
    A∘C. The witness is built unchecked: verify it once.
    """
    omega = _check_omega(A, C, omega)
    if w_u.lower != A:
        raise WitnessError("inner witness does not cover the first factor")
    if w_v.lower != C:
        raise WitnessError("inner witness does not cover the second factor")
    if w_u._fault or w_v._fault:
        raise WitnessError(w_u._fault or w_v._fault)
    # phi set on an inner witness after it was made is unchecked in range
    for w in (w_u, w_v):
        _check_phi_range(_lawcheck.values(w._phi), w._phi, w.lower._n)
    n, m = product_ac.n_states, product_ac.n_symbols
    if n != A.n_states * C.n_states:
        raise InvalidInputError("product automaton does not match the given factors")
    return _substitute(A, C, omega, w_u, w_v, range(n), range(m), product_ac)


def substitute_right(product_ac, A, C, omega, w_v: CoveringWitness) -> Substitution:
    """Replace the second cascade factor: from V >= C, build A∘V >= A∘C.

    substitute with the identity cover of A: the connection is
    omega'(s,a) = xi_V(omega(s,a)) and phi pairs (s,v) with (s, phi_V(v)).
    """
    return substitute(product_ac, A, C, omega, identity_witness(A), w_v)


def substitute_left(product_ac, A, C, omega, w_u: CoveringWitness) -> Substitution:
    """Replace the first cascade factor: from U >= A, build U'∘C >= A∘C.

    substitute with the identity cover of C: U' is U with its alphabet pulled
    back along xi_U and the connection reads U's state through phi_U.
    """
    return substitute(product_ac, A, C, omega, w_u, identity_witness(C))
