"""Differential tests of the closed-form generator action and the flat scan.

The oracles are the generic paths the closed form replaced: `_apply_images`
(one gn_pow and one gn_mul per coordinate) for the action, and the
letter-by-letter scan over GnElements below for the normal form.  Mutants of
the derived tables that drop the diagonal C(v, 2) terms or the cross terms
must be caught by the same comparisons.
"""

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
    _apply_images,
    act_generator,
    action_images,
    action_inverse_images,
    affine_action,
    apply_affine,
    gn_identity,
    gn_inv,
    gn_mul,
)
from tbraid.quotient import TbnNormalForm, c_word, normal_form, s2_table

ACTION_NS = range(3, 13)
SAMPLES_PER_ACTION = 40
COORDINATES = range(-9, 10)
SCAN_NS = range(4, 17)


def _images(n, i, sign):
    return action_images(n, i) if sign > 0 else action_inverse_images(n, i)


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


def _first_action_mismatch(action_for):
    """The first sample where the tables from action_for disagree with
    _apply_images, or None."""
    for n, i, sign, g in _action_samples():
        vec = list(g.vec)
        bit = apply_affine(action_for(n, i, sign), g.bit, vec)
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
    assert _first_action_mismatch(affine_action) is None
    for n, i, sign, g in _action_samples():
        assert act_generator(g, i, sign) == _apply_images(_images(n, i, sign), g)


@pytest.mark.parametrize("dropped", ["diagonal", "cross"])
def test_action_mutants_are_caught(dropped):
    def mutant(n, i, sign):
        return affine_action(n, i, sign)._replace(**{dropped: ()})

    assert _first_action_mismatch(mutant) is not None


def test_closed_form_is_sparse():
    for n in (4, 16, 32):
        for i in range(1, n):
            for sign in (1, -1):
                action = affine_action(n, i, sign)
                moved = {i - 1, i, i + 1} | ({0} if i == 2 else set())
                [(j, row)] = action.rows
                assert j == i and {k for k, _ in row} <= moved
                assert set(action.linear) | set(action.diagonal) <= moved
                assert {k for pair in action.cross for k in pair} <= moved


def test_self_check_raises_under_python_O():
    # Tables that disagree with _apply_images must be refused, also when
    # python -O strips assert statements.
    src = str(Path(tbraid.__file__).resolve().parents[1])
    code = ("from tbraid import gn\n"
            "gn.apply_affine = lambda action, bit, vec: bit\n"
            "gn.affine_action(5, 2, 1)\n")
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


@pytest.mark.parametrize("dropped", ["diagonal", "cross"])
def test_scan_mutants_are_caught(dropped, monkeypatch):
    real = quotient._scan_step

    def mutant(n, letter):
        action, fold = real(n, letter)
        return action._replace(**{dropped: ()}), fold

    monkeypatch.setattr(quotient, "_scan_step", mutant)
    assert any(normal_form(w) != reference_normal_form(w) for w in _scan_words())
