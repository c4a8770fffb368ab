"""Semiautomata, word actions, transition monoids, products, covering witnesses.

Covering direction is a single normal form everywhere: the witness's upper
automaton covers its lower one (B >= A), with phi a partial surjection from
upper states onto lower states and xi mapping lower symbols into upper ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain, compress, repeat
from operator import is_not, itemgetter, not_
from typing import Optional

from .algebra import CLOSURE_CAP, Transformation, clamp_label, closure_generate
from .errors import InvalidInputError, WitnessError


def _unique_labels(candidates):
    """The candidates in order, each repeat renamed to the first name
    "<label>#k" not taken yet, counting k on from the label's last repeat."""
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
    return out


def _rows(columns, n_states):
    """The rows of the table with per-symbol images columns[a][s]."""
    return zip(*columns) if columns else repeat((), n_states)


def _table_in_range(delta, n_symbols, n_states):
    """Whether every row has n_symbols entries, each a state below n_states."""
    if set(map(len, delta)) != {n_symbols}:
        return False
    cells = chain.from_iterable
    return not n_symbols or (0 <= min(cells(delta)) and max(cells(delta)) < n_states)


class _PairLabels:
    """The state labels of a product of A and B, rendered on first read."""

    def __init__(self, A, B):
        self.A, self.B = A, B

    def __len__(self):
        return self.A.n_states * self.B.n_states

    def render(self):
        return tuple(_pair_state_labels(self.A, self.B))


class Semiautomaton:
    """States, alphabet, and a total transition table delta[state][symbol].

    Products pass their state labels as a _PairLabels, which is unique by
    construction and rendered on the first read of state_labels.
    """

    def __init__(self, state_labels, symbol_labels, delta):
        lazy = isinstance(state_labels, _PairLabels)
        if lazy:
            self._pending_labels = state_labels
            n = len(state_labels)
        else:
            self.state_labels = tuple(map(str, state_labels))
            n = len(self.state_labels)
        self.symbol_labels = tuple(map(str, symbol_labels))
        self.delta = tuple(map(tuple, delta))
        m = len(self.symbol_labels)
        if n < 1:
            raise InvalidInputError("need at least one state")
        if not lazy and len(set(self.state_labels)) != n:
            raise InvalidInputError("duplicate state label")
        if len(set(self.symbol_labels)) != m:
            raise InvalidInputError("duplicate symbol label")
        if len(self.delta) != n:
            raise InvalidInputError("need one transition row per state")
        if not _table_in_range(self.delta, m, n):
            for row in self.delta:
                if len(row) != m:
                    raise InvalidInputError(
                        "transition row length differs from alphabet size"
                    )
                for x in row:
                    if not 0 <= x < n:
                        raise InvalidInputError("transition target %d out of range" % x)

    @cached_property
    def state_labels(self):
        labels = self._pending_labels.render()
        del self._pending_labels
        return labels

    @cached_property
    def _state_index(self):
        return {lab: i for i, lab in enumerate(self.state_labels)}

    @cached_property
    def _symbol_index(self):
        return {lab: j for j, lab in enumerate(self.symbol_labels)}

    @classmethod
    def from_columns(cls, state_labels, symbol_labels, columns):
        """Build from per-symbol images: columns[j][s] = s under symbol j."""
        n = len(state_labels)
        for col in columns:
            if len(col) != n:
                raise InvalidInputError("column length differs from state count")
        return cls(state_labels, symbol_labels, _rows(columns, n))

    @property
    def n_states(self) -> int:
        return len(self.delta)

    @property
    def n_symbols(self) -> int:
        return len(self.symbol_labels)

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
        return self.delta[s][a]

    def symbol_transformation(self, a: int) -> Transformation:
        return Transformation(map(itemgetter(a), self.delta))

    def transformations(self):
        return [self.symbol_transformation(a) for a in range(self.n_symbols)]

    def word_indices(self, w):
        """Normalize a word to symbol indices; strings are read per character."""
        if isinstance(w, str):
            return [self.symbol_index(ch) for ch in w]
        out = []
        for item in w:
            if isinstance(item, str):
                out.append(self.symbol_index(item))
            else:
                item = int(item)
                if not 0 <= item < self.n_symbols:
                    raise InvalidInputError("symbol index %d out of range" % item)
                out.append(item)
        return out

    def __eq__(self, other):
        if self is other:
            return True
        return (
            isinstance(other, Semiautomaton)
            and self.symbol_labels == other.symbol_labels
            and self.delta == other.delta
            and self.state_labels == other.state_labels
        )

    def __repr__(self):
        return "Semiautomaton(%d states, %d symbols)" % (self.n_states, self.n_symbols)


def run(A: Semiautomaton, s: int, w) -> int:
    """delta*: the state reached from s after reading w."""
    if not 0 <= s < A.n_states:
        raise InvalidInputError("state index %d out of range" % s)
    for a in A.word_indices(w):
        s = A.delta[s][a]
    return s


def word_transformation(A: Semiautomaton, w) -> Transformation:
    """tau_w, composed letterwise left to right; tau of the empty word is id."""
    t = Transformation.identity(A.n_states)
    for a in A.word_indices(w):
        t = t.compose(A.symbol_transformation(a))
    return t


def transition_monoid(A: Semiautomaton, cap: int = CLOSURE_CAP):
    """T(A): the monoid generated by the per-symbol transformations."""
    return closure_generate(
        A.transformations(),
        domain_size=A.n_states,
        cap=cap,
        symbol_labels=A.symbol_labels,
    )


def _pair_state_labels(A: Semiautomaton, B: Semiautomaton):
    nb = B.n_states
    return _unique_labels(
        clamp_label("(%s,%s)" % (la, lb), "q%d" % (i * nb + j))
        for i, la in enumerate(A.state_labels)
        for j, lb in enumerate(B.state_labels)
    )


def _product(A: Semiautomaton, B: Semiautomaton, connection) -> Semiautomaton:
    """A driving B, where A-state i under symbol a moves B by symbol
    connection[i][a]. Each A-state gives a block of |S^B| rows, read off B's
    columns with B's state offset by the A-state reached."""
    nb = B.n_states
    columns = list(zip(*B.delta))
    delta = []
    for row, conn in zip(A.delta, connection):
        delta.extend(
            _rows([map((t * nb).__add__, columns[c]) for t, c in zip(row, conn)], nb)
        )
    return Semiautomaton(_PairLabels(A, B), A.symbol_labels, delta)


def direct_product(A: Semiautomaton, B: Semiautomaton) -> Semiautomaton:
    """Parallel composition on a shared alphabet; state (i,j) flattens to i*|S^B|+j."""
    if A.symbol_labels != B.symbol_labels:
        raise InvalidInputError("direct product needs identical alphabets")
    return _product(A, B, repeat(range(A.n_symbols)))


def _check_omega(A: Semiautomaton, B: Semiautomaton, omega):
    omega = tuple(tuple(int(x) for x in row) for row in omega)
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
    """A driving B: (s,t)·a = (s·a, t·omega(s,a)), over A's alphabet."""
    return _product(A, B, _check_omega(A, B, omega))


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
    Construction rejects witnesses whose domain is empty, not surjective, or not
    closed under the xi-image transitions; the per-symbol law itself is checked
    by verify_covering. check=False skips these checks, for witnesses that are
    verified later anyway, as every tree node witness is.
    """

    def __init__(self, upper: Semiautomaton, lower: Semiautomaton, phi, xi, check=True):
        self.upper = upper
        self.lower = lower
        phi = tuple(phi)
        image = {v: None if v is None else int(v) for v in set(phi)}
        self.phi = tuple(map(image.__getitem__, phi))
        self.xi = tuple(map(int, xi))
        if len(self.phi) != upper.n_states:
            raise WitnessError("phi needs one entry per upper state")
        if len(self.xi) != lower.n_symbols:
            raise WitnessError("xi needs one entry per lower symbol")
        covered = set(image.values()) - {None}
        if covered and not (0 <= min(covered) and max(covered) < lower.n_states):
            for v in self.phi:
                if v is not None and not 0 <= v < lower.n_states:
                    raise WitnessError("phi image %d out of range" % v)
        if self.xi and not (0 <= min(self.xi) and max(self.xi) < upper.n_symbols):
            for x in self.xi:
                if not 0 <= x < upper.n_symbols:
                    raise WitnessError("xi image %d out of range" % x)
        self.dom = tuple(compress(range(len(self.phi)), map(is_not, self.phi, repeat(None))))
        if check:
            if not self.dom:
                raise WitnessError("phi has an empty domain")
            if covered != set(range(lower.n_states)):
                missing = min(set(range(lower.n_states)) - covered)
                raise WitnessError(
                    "phi is not surjective: lower state %s has no preimage"
                    % lower.state_labels[missing]
                )
            if not _domain_closed(self):
                for s in self.dom:
                    for a in range(lower.n_symbols):
                        if self.phi[upper.delta[s][self.xi[a]]] is None:
                            raise WitnessError(
                                "domain of phi is not closed: state %s leaves it under %s"
                                % (upper.state_labels[s], lower.symbol_labels[a])
                            )

    def __repr__(self):
        return "CoveringWitness(%d of %d upper states onto %d lower states)" % (
            len(self.dom),
            self.upper.n_states,
            self.lower.n_states,
        )


class HomImageWitness:
    """Proof object for a homomorphic image: total phi and xi, both surjective."""

    def __init__(self, source: Semiautomaton, target: Semiautomaton, phi, xi, check=True):
        self.source = source
        self.target = target
        self.phi = tuple(int(v) for v in phi)
        self.xi = tuple(int(x) for x in xi)
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
            if set(self.phi) != set(range(target.n_states)):
                raise WitnessError("phi is not surjective onto the target states")
            if set(self.xi) != set(range(target.n_symbols)):
                raise WitnessError("xi is not surjective onto the target alphabet")


def _domain_closed(w: CoveringWitness) -> bool:
    """Whether no domain state leaves the domain of phi under an image xi(a)."""
    inside = list(map(is_not, w.phi, repeat(None)))
    outside = set(compress(range(len(inside)), map(not_, inside)))
    return not outside or all(
        outside.isdisjoint(compress(map(itemgetter(x), w.upper.delta), inside))
        for x in set(w.xi)
    )


def _law_violation(w: CoveringWitness):
    """The first (s, a), domain states in order and then lower symbols, where
    phi(s·xi(a)) != phi(s)·a; leaving the domain of phi counts. None if none."""
    phi, xi, low_delta = w.phi, w.xi, w.lower.delta
    symbols = range(len(xi))
    for s, (row, v) in enumerate(zip(w.upper.delta, phi)):
        if v is not None:
            low = low_delta[v]
            for a in symbols:
                if phi[row[xi[a]]] != low[a]:
                    return s, a
    return None


def verify_covering(w: CoveringWitness) -> VerificationResult:
    """Exhaustive check of surjectivity, domain closure, and the per-symbol law."""
    upper, lower = w.upper, w.lower
    if not w.dom:
        return VerificationResult(False, "phi has an empty domain")
    covered = set(w.phi) - {None}
    if covered != set(range(lower.n_states)):
        missing = min(set(range(lower.n_states)) - covered)
        return VerificationResult(
            False, "phi misses lower state %s" % lower.state_labels[missing]
        )
    site = _law_violation(w)
    if site is None:
        return VerificationResult(True)
    s, a = site
    if w.phi[upper.delta[s][w.xi[a]]] is None:
        return VerificationResult(
            False, "domain not closed under symbol %s" % lower.symbol_labels[a], site
        )
    return VerificationResult(
        False,
        "covering law fails at state %s under symbol %s"
        % (upper.state_labels[s], lower.symbol_labels[a]),
        site,
    )


def verify_hom_image(w: HomImageWitness) -> VerificationResult:
    src, tgt = w.source, w.target
    if set(w.phi) != set(range(tgt.n_states)):
        return VerificationResult(False, "phi is not surjective")
    if set(w.xi) != set(range(tgt.n_symbols)):
        return VerificationResult(False, "xi is not surjective")
    for s in range(src.n_states):
        for a in range(src.n_symbols):
            if w.phi[src.delta[s][a]] != tgt.delta[w.phi[s]][w.xi[a]]:
                return VerificationResult(
                    False,
                    "homomorphism law fails at state %s under symbol %s"
                    % (src.state_labels[s], src.symbol_labels[a]),
                    (s, a),
                )
    return VerificationResult(True)


def identity_witness(A: Semiautomaton) -> CoveringWitness:
    return CoveringWitness(A, A, range(A.n_states), range(A.n_symbols))


def _compose(w1: CoveringWitness, w2: CoveringWitness) -> CoveringWitness:
    """From C >= B and B >= A, the transitive witness C >= A, with no checks."""
    image = dict(enumerate(w2.phi))
    image[None] = None
    phi = map(image.__getitem__, w1.phi)
    xi = map(w1.xi.__getitem__, w2.xi)
    return CoveringWitness(w1.upper, w2.lower, phi, xi, check=False)


def compose_coverings(w1: CoveringWitness, w2: CoveringWitness) -> CoveringWitness:
    """From C >= B and B >= A, the transitive witness C >= A.

    Both inputs are verified first, so the result covers by transitivity.
    Inside krohn_rhodes_decompose the unchecked _compose is used instead, and
    each witness is verified once, where the tree node that keeps it is made.
    """
    if w1.lower != w2.upper:
        raise WitnessError("middle automata of the two witnesses differ")
    r1, r2 = verify_covering(w1), verify_covering(w2)
    if not r1:
        raise WitnessError("first witness does not verify: %s" % r1.reason)
    if not r2:
        raise WitnessError("second witness does not verify: %s" % r2.reason)
    return _compose(w1, w2)


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
    |dom| * |lower alphabet| steps, not |lower alphabet| ** max_len.
    """
    if max_len <= 0:
        return None
    site = _law_violation(w)
    if site is None:
        return None
    s, a = site
    return s, (a,)


def covering_implies_simulation(w: CoveringWitness, max_len: int) -> bool:
    """Whether phi(s·xi(x)) = phi(s)·x holds for every domain state and word."""
    if not verify_covering(w):
        return False
    return simulation_counterexample(w, max_len) is None


@dataclass
class Substitution:
    u_prime: Semiautomaton
    product: Semiautomaton
    omega: tuple
    witness: CoveringWitness


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

    The witness is built unchecked: verify it once, or verify the tree node
    witness it is composed into, as krohn_rhodes_decompose does.
    """
    omega = _check_omega(A, C, omega)
    if w_u.lower != A:
        raise WitnessError("inner witness does not cover the first factor")
    if w_v.lower != C:
        raise WitnessError("inner witness does not cover the second factor")
    if product_ac.n_states != A.n_states * C.n_states:
        raise InvalidInputError("product automaton does not match the given factors")
    U, V = w_u.upper, w_v.upper
    u_prime = Semiautomaton(
        U.state_labels,
        A.symbol_labels,
        [tuple(map(row.__getitem__, w_u.xi)) for row in U.delta],
    )
    rows = {
        pu: tuple(map(w_v.xi.__getitem__, omega[0 if pu is None else pu]))
        for pu in set(w_u.phi)
    }
    omega2 = tuple(map(rows.__getitem__, w_u.phi))
    product = cascade_product(u_prime, V, omega2)
    nc = C.n_states
    phi = []
    for pu in w_u.phi:
        if pu is None:
            phi.extend(repeat(None, V.n_states))
        else:
            image = {pv: pu * nc + pv for pv in range(nc)}
            image[None] = None
            phi.extend(map(image.__getitem__, w_v.phi))
    witness = CoveringWitness(product, product_ac, phi, range(A.n_symbols), check=False)
    return Substitution(u_prime, product, omega2, witness)


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
