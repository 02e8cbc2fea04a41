"""Differential tests of the closed-form generator action and the fused scan.

The oracles are the generic paths the closed form replaced: `_apply_images`
(one gn_pow and one gn_mul per coordinate) for the action, the
letter-by-letter scan over GnElements below for the normal form, and the
retired per-letter loop over `apply_step` for the fused scan from arbitrary
start states.  The O(n) derivations of the tables keep their O(n^2) forms
here: an action step read off all n generator images and checked on every
unit, and the fold's beta indices by one dense beta per coordinate.  Mutants
of the derived tables (every field of an action step and of a fused scan
step) must be caught by the same comparisons.
"""

import functools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import tbraid
from tbraid import quotient
from tbraid.braid import (
    BraidWord,
    Perm,
    concat,
    conj_word,
    power_word,
    quadrangle_relator,
    random_word,
    transversal_commutator,
)
from tbraid.gn import (
    GnElement,
    _act_steps,
    _apply_images,
    act_generator,
    act_word,
    action_images,
    action_inverse_images,
    action_step,
    beta,
    format_element,
    gn_generator,
    gn_identity,
    gn_inv,
    gn_mul,
    gn_pow,
)
from tbraid.quotient import TbnNormalForm, c_word, normal_form, s2_table

ACTION_NS = range(3, 13)
SAMPLES_PER_ACTION = 40
COORDINATES = range(-9, 10)
SCAN_NS = range(4, 17)


@functools.lru_cache(maxsize=None)
def _images(n, i, sign):
    # The generator images are the oracle of many samples per letter, and gn
    # keeps no copy of them.
    return dict(enumerate(action_images(n, i) if sign > 0 else action_inverse_images(n, i)))


def apply_step(step, bit, vec):
    """Apply one action step (see gn.action_step) to nu^bit . vec, rewriting
    vec in place; return the new bit.  This is the per-letter loop that
    act_generator and act_word ran before they shared gn's loop over steps."""
    i, row, linear, diagonal, cross = step
    for k in linear:
        bit += vec[k]
    for k in diagonal:
        v = vec[k]
        bit += v * (v - 1) >> 1
    for k, l in cross:
        bit += vec[k] * vec[l]
    vec[i] = sum([c * vec[k] for k, c in row])
    return bit & 1


def _action_samples():
    """Seeded (n, i, sign, g) for every letter of G(3) .. G(12), coordinates
    in [-9, 9].  In the first four samples of each letter every coordinate
    has residue 0, 1, 2, 3 mod 4 in turn, so C(v, 2) takes both parities at
    every coordinate."""
    rng = random.Random(31)
    for n in ACTION_NS:
        for i in range(1, n):
            for sign in (1, -1):
                for j in range(SAMPLES_PER_ACTION):
                    values = [v for v in COORDINATES if j >= 4 or v % 4 == j]
                    vec = tuple(rng.choice(values) for _ in range(n))
                    yield n, i, sign, GnElement(n, rng.randint(0, 1), vec)


def _first_action_mismatch(step_for):
    """The first sample where the steps from step_for(n, letter) disagree
    with _apply_images, or None."""
    for n, i, sign, g in _action_samples():
        vec = list(g.vec)
        bit = apply_step(step_for(n, sign * i), g.bit, vec)
        if GnElement(n, bit, tuple(vec)) != _apply_images(_images(n, i, sign), g):
            return n, i, sign, g
    return None


def test_samples_cover_every_residue_mod_4():
    residues = {}
    for n, i, sign, g in _action_samples():
        for k, v in enumerate(g.vec):
            residues.setdefault((n, i, sign, k), set()).add(v % 4)
    assert all(r == {0, 1, 2, 3} for r in residues.values())


def test_closed_form_matches_apply_images():
    assert _first_action_mismatch(action_step) is None
    for n, i, sign, g in _action_samples():
        assert act_generator(g, i, sign) == _apply_images(_images(n, i, sign), g)


def _act_word_cases():
    """Seeded elements at n = 3..12 under seeded words of up to 300 letters
    and, from n = 4, the quadrangle relator, the transversal commutator and
    their conjugates."""
    rng = random.Random(83)
    for n in ACTION_NS:
        words = [random_word(n, length, rng, min_len=length) for length in (0, 1, 5, 40, 300)]
        if n >= 4:
            conj = random_word(n, 10, rng)
            for kernel in (quadrangle_relator(n), transversal_commutator(n)):
                words += [kernel, conj_word(kernel, conj)]
        for w in words:
            for _ in range(3):
                vec = tuple(rng.choice(COORDINATES) for _ in range(n))
                yield GnElement(n, rng.randint(0, 1), vec), w


def test_act_word_matches_apply_images():
    for g, w in _act_word_cases():
        expected = g
        for letter in w.letters:
            expected = _apply_images(_images(g.n, abs(letter), 1 if letter > 0 else -1), expected)
        assert act_word(g, w) == expected, (g, w)


# The fields of an action step (see gn.action_step) and, for each, a mutant
# of its value.
ACTION_FIELDS = ("i", "row", "linear", "diagonal", "cross")
ACTION_MUTANTS = {
    "i": lambda i: i - 1,
    "row": lambda row: ((row[0][0], row[0][1] + 1),) + row[1:],
    "linear": lambda linear: (),
    "diagonal": lambda diagonal: (),
    "cross": lambda cross: (),
}


@pytest.mark.parametrize("field", sorted(ACTION_MUTANTS))
def test_action_mutants_are_caught(field):
    k, mutate = ACTION_FIELDS.index(field), ACTION_MUTANTS[field]

    def mutant(n, letter):
        step = action_step(n, letter)
        return step[:k] + (mutate(step[k]),) + step[k + 1:]

    assert _first_action_mismatch(mutant) is not None


def full_action_step(n, letter):
    """The action step as it was read off all n generator images, with its
    self-check on every unit: O(n^2) per letter."""
    i, sign = abs(letter), (1 if letter > 0 else -1)
    images = action_images(n, i) if sign > 0 else action_inverse_images(n, i)
    units = [gn_generator(n, k) for k in range(n)]
    moved = [k for k in range(n) if images[k] != units[k]]
    vecs = [img.vec for img in images]
    cross = tuple((k, l) for k in range(n) for l in range(k + 1, n)
                  if (k in moved or l in moved) and beta(vecs[k], vecs[l], n))
    step = (i,
            tuple((k, vecs[k][i]) for k in sorted({i, *moved}) if vecs[k][i]),
            tuple(k for k in moved if images[k].bit),
            tuple(k for k in moved if beta(vecs[k], vecs[k], n)),
            cross)
    checks = units + [gn_pow(units[k], 2) for k in moved]
    checks += [gn_mul(units[k], units[l]) for k, l in cross]
    for g in checks:
        if _act_steps(g, (step,)) != _apply_images(dict(enumerate(images)), g):
            raise AssertionError(f"X_{i}^{sign} on G({n}) disagrees at {format_element(g)}")
    return step


def test_action_step_matches_the_full_derivation():
    for n in range(3, 21):
        for i in range(1, n):
            for letter in (i, -i):
                assert action_step(n, letter) == full_action_step(n, letter), (n, letter)


def test_closed_form_is_sparse():
    for n in (4, 16, 32):
        for i in range(1, n):
            for sign in (1, -1):
                j, row, linear, diagonal, cross = action_step(n, sign * i)
                moved = {i - 1, i, i + 1} | ({0} if i == 2 else set())
                assert j == i and {k for k, _ in row} <= moved
                assert set(linear) | set(diagonal) <= moved
                assert {k for pair in cross for k in pair} <= moved


def test_self_check_raises_under_python_O():
    # Steps that disagree with _apply_images must be refused, also when
    # python -O strips assert statements.
    src = str(Path(tbraid.__file__).resolve().parents[1])
    code = ("from tbraid import gn\n"
            "gn._act_steps = lambda g, steps: g\n"
            "gn.action_step(5, 2)\n")
    result = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                            text=True, env={**os.environ, "PYTHONPATH": src})
    assert result.returncode != 0
    assert "AssertionError: closed-form action of X_2^1 on G(5) disagrees" in result.stderr


# ---------------------------------------------------------------------------
# the scan


def reference_normal_form(w: BraidWord) -> TbnNormalForm:
    """The letter-by-letter scan over GnElements that normal_form replaced."""
    n = w.n
    table = s2_table(n)
    a = list(range(1, n + 1))
    pos = list(range(n + 1))
    g = gn_identity(n)
    for letter in w.letters:
        i = abs(letter)
        sign = 1 if letter > 0 else -1
        g = _apply_images(_images(n, i, sign), g)
        ascending = pos[i] < pos[i + 1]
        pi, pj = pos[i], pos[i + 1]
        a[pi - 1], a[pj - 1] = a[pj - 1], a[pi - 1]
        pos[i], pos[i + 1] = pj, pi
        if sign > 0 and not ascending:
            g = gn_mul(table[i - 1], g)
        elif sign < 0 and ascending:
            g = gn_mul(gn_inv(table[i - 1]), g)
    return TbnNormalForm(Perm(n, tuple(a)), g)


def _scan_words():
    """Seeded words for n = 4..16 of lengths 0..300, the central word c_word
    and kernel words (relators, commutators and their conjugates)."""
    rng = random.Random(47)
    for n in SCAN_NS:
        for length in (0, 1, 2, 7, 30, 300):
            yield random_word(n, length, rng, min_len=length)
        yield random_word(n, 300, rng)
        conj = random_word(n, 12, rng)
        c = c_word(n)
        yield c
        yield power_word(c, 3)
        yield conj_word(c, conj)
        for kernel in (quadrangle_relator(n), transversal_commutator(n)):
            yield kernel
            yield conj_word(kernel, conj)
            yield concat(random_word(n, 20, rng), kernel, random_word(n, 20, rng))


def test_normal_form_matches_reference_scan():
    for w in _scan_words():
        assert normal_form(w) == reference_normal_form(w), w


# The fields of a fused scan step (see quotient._scan_table): those of the
# action step gn.action_step, then the sign and the fold; and, for each, a
# mutant of its value.
STEP_FIELDS = ACTION_FIELDS + ("positive", "fold_bit", "fold_beta", "fold_vec")
STEP_MUTANTS = {
    **ACTION_MUTANTS,
    "fold_bit": lambda bit: 1 - bit,
    "fold_beta": lambda fold_beta: (),
    "fold_vec": lambda fold_vec: (),
}


@pytest.mark.parametrize("field", sorted(STEP_MUTANTS))
def test_scan_mutants_are_caught(field, monkeypatch):
    # _scan looks the table up on every call, so the uncached mutant below is
    # what it scans; a mutant that went unscanned would fail the assertion.
    real, k, mutate = quotient._scan_table, STEP_FIELDS.index(field), STEP_MUTANTS[field]

    def mutant(n):
        return {letter: step[:k] + (mutate(step[k]),) + step[k + 1:]
                for letter, step in real(n).items()}

    monkeypatch.setattr(quotient, "_scan_table", mutant)
    assert any(normal_form(w) != reference_normal_form(w) for w in _scan_words())


# The per-letter loop that the fused scan replaced: apply_step on the
# closed-form action, then the fold, with the one-line images kept alongside.
def _retired_step(n, letter):
    i, sign = abs(letter), (1 if letter > 0 else -1)
    s = s2_table(n)[i - 1]
    f = s if sign > 0 else gn_inv(s)
    odd = tuple(b for b in range(n) if beta(f.vec, [int(k == b) for k in range(n)], n))
    fold = (f.bit, odd, tuple((k, x) for k, x in enumerate(f.vec) if x))
    return action_step(n, letter), fold


def retired_scan(start: TbnNormalForm, letters) -> TbnNormalForm:
    n = start.n
    if n < 4:
        raise ValueError(f"the transversal quotient needs n >= 4, got {n}")
    steps = {letter: _retired_step(n, letter) for letter in set(letters)}
    a = list(start.perm.images)
    pos = [0] + sorted(range(1, n + 1), key=lambda k: a[k - 1])
    bit, vec = start.g.bit, list(start.g.vec)
    for letter in letters:
        i = abs(letter)
        action, (fold_bit, fold_beta, fold_vec) = steps[letter]
        bit = apply_step(action, bit, vec)
        ascending = pos[i] < pos[i + 1]
        pi, pj = pos[i], pos[i + 1]
        a[pi - 1], a[pj - 1] = a[pj - 1], a[pi - 1]
        pos[i], pos[i + 1] = pj, pi
        if (letter > 0) != ascending:
            bit += fold_bit + sum([vec[b] for b in fold_beta])
            for k, x in fold_vec:
                vec[k] += x
    return TbnNormalForm(Perm(n, tuple(a)), GnElement(n, bit & 1, tuple(vec)))


def test_scan_table_matches_the_retired_fold():
    # The fold's bit, beta indices and coordinates, against one dense beta
    # per coordinate, and the action fields against action_step.
    for n in range(4, 21):
        table = quotient._scan_table(n)
        assert sorted(table) == sorted({*range(1, n), *range(1 - n, 0)})
        for letter, step in table.items():
            action, fold = _retired_step(n, letter)
            assert step == action + (letter > 0,) + fold, (n, letter)


def test_fused_scan_matches_the_retired_loop():
    # Seeded non-identity start states at n = 4..20 and words of up to 2,000
    # letters, compared every 100 letters, each stretch resumed from the
    # oracle's state.  The states visited must leave [-4, 4] and take every
    # residue mod 4 at every n.
    rng = random.Random(67)
    for n in range(4, 21):
        values = set()
        for length in (1, 9, 100, 700, 2000):
            perm = Perm(n, tuple(rng.sample(range(1, n + 1), n)))
            vec = tuple(rng.randint(-3, 3) for _ in range(n))
            state = TbnNormalForm(perm, GnElement(n, rng.randint(0, 1), vec))
            if state == quotient._identity(n):
                state = TbnNormalForm(perm, gn_inv(s2_table(n)[0]))
            letters = random_word(n, length, rng, min_len=length).letters
            for cut in range(0, length, 100):
                stretch = letters[cut:cut + 100]
                expected = retired_scan(state, stretch)
                assert quotient._scan(state, stretch) == expected, (n, state, stretch)
                state = expected
                values.update(state.g.vec)
        assert {v % 4 for v in values} == {0, 1, 2, 3} and max(map(abs, values)) > 4, n
    three = TbnNormalForm(Perm(3, (2, 1, 3)), GnElement(3, 1, (1, 0, -1)))
    for scan in (quotient._scan, retired_scan):
        with pytest.raises(ValueError):
            scan(three, ())
    with pytest.raises(ValueError):
        quotient.tbn_mul(three, three)
    with pytest.raises(ValueError):
        quotient.tbn_inv(three)
