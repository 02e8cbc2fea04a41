import random

import pytest
from hypothesis import given, strategies as st

from tbraid.freegroup import FreeWord, fw_apply, fw_identity_images

letters = st.lists(st.sampled_from([k for k in range(-4, 5) if k]), max_size=24)


def fw_mul(a: FreeWord, b: FreeWord) -> FreeWord:
    """Product in the free group: concatenate, and let FreeWord reduce."""
    if a.n != b.n:
        raise ValueError(f"mismatched ranks {a.n} and {b.n}")
    return FreeWord(a.n, a.letters + b.letters)


def fw_inv(a: FreeWord) -> FreeWord:
    """Inverse: reverse the word and flip every sign."""
    return FreeWord(a.n, tuple([-letter for letter in reversed(a.letters)]))


def test_reduce_examples():
    assert FreeWord(4, (1, -1)).letters == ()
    assert FreeWord(4, (1, 2, -2, 1)).letters == (1, 1)
    assert FreeWord(4, (2, 1, -1, -2, 3)).letters == (3,)


def test_reduce_rejects_out_of_range():
    with pytest.raises(ValueError):
        FreeWord(4, (5,))
    with pytest.raises(ValueError):
        FreeWord(4, (0,))


@given(letters)
def test_reduce_idempotent(raw):
    once = FreeWord(4, tuple(raw))
    assert FreeWord(4, once.letters) == once


@given(letters)
def test_reduce_confluent(raw):
    # Cancelling adjacent inverse pairs in any order reaches the same word.
    rng = random.Random(12345)
    word = list(raw)
    while True:
        hits = [k for k in range(len(word) - 1) if word[k] == -word[k + 1]]
        if not hits:
            break
        k = rng.choice(hits)
        del word[k:k + 2]
    assert tuple(word) == FreeWord(4, tuple(raw)).letters


def test_mul_examples():
    assert fw_mul(FreeWord(4, (1,)), FreeWord(4, (-1,))).letters == ()
    assert fw_mul(FreeWord(4, (1, 2)), FreeWord(4, (-2, 3))).letters == (1, 3)
    w = FreeWord(4, (2, -3, 1))
    assert fw_mul(FreeWord(4, ()), w) == w


def test_mul_rejects_mismatched_rank():
    with pytest.raises(ValueError):
        fw_mul(FreeWord(3, (1,)), FreeWord(4, (1,)))


@given(letters, letters, letters)
def test_mul_associative(a, b, c):
    wa, wb, wc = (FreeWord(4, tuple(x)) for x in (a, b, c))
    assert fw_mul(fw_mul(wa, wb), wc) == fw_mul(wa, fw_mul(wb, wc))


@given(letters)
def test_mul_inverse_cancels(a):
    w = FreeWord(4, tuple(a))
    assert fw_mul(w, fw_inv(w)).letters == ()
    assert fw_mul(fw_inv(w), w).letters == ()


def test_inv_examples():
    assert fw_inv(FreeWord(4, (1, 2))).letters == (-2, -1)
    assert fw_inv(FreeWord(4, ())).letters == ()
    w = FreeWord(4, (1, -2, 3))
    assert fw_inv(fw_inv(w)) == w


def test_apply_identity_and_substitution():
    assert fw_apply(fw_identity_images(3), FreeWord(3, (1, 2))).letters == (1, 2)
    images = [FreeWord(3, (2,)), FreeWord(3, (2, 1, -2)), FreeWord(3, (3,))]
    assert fw_apply(images, FreeWord(3, (1,))).letters == (2,)
    assert fw_apply(images, FreeWord(3, (-1,))).letters == (-2,)


def test_apply_rejects_bad_image_count():
    with pytest.raises(ValueError):
        fw_apply([FreeWord(3, (1,))], FreeWord(3, (1,)))


@given(letters, letters)
def test_apply_multiplicative(a, b):
    images = [FreeWord(4, (2,)), FreeWord(4, (2, 1, -2)),
              FreeWord(4, (4, 3)), FreeWord(4, (-1,))]
    wa, wb = FreeWord(4, tuple(a)), FreeWord(4, tuple(b))
    assert fw_apply(images, fw_mul(wa, wb)) == fw_mul(
        fw_apply(images, wa), fw_apply(images, wb))
