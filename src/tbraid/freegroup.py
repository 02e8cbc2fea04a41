"""
Reduced words in a finitely generated free group.

A word over the free group F_n is a sequence of nonzero integer "letters" in
{-n, ..., -1, 1, ..., n}: the letter k > 0 is the k-th generator, -k its
inverse.  Words are stored freely reduced (no letter adjacent to its own
inverse) and reduction happens eagerly on construction, so equality of group
elements is plain equality of letter tuples.

The only nontrivial operation is fw_apply, the substitution homomorphism: it
sends each generator to a prescribed word and extends multiplicatively.  The
verify module's injectivity sample uses it.  The braid module realises braid
groups as automorphisms of F_n through FreeWord alone: its one-letter step
substitutes the letters itself and lets the constructor reduce them.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable, Sequence


def _reduce(letters: Iterable[int]) -> tuple[int, ...]:
    """Freely reduce a letter sequence with a stack; O(length)."""
    stack: list[int] = []
    for letter in letters:
        if stack and stack[-1] == -letter:
            stack.pop()
        else:
            stack.append(letter)
    return tuple(stack)


@dataclasses.dataclass(frozen=True)
class FreeWord:
    """A freely reduced word over the alphabet {±1, ..., ±n}.

    The constructor reduces its input, so any two FreeWords representing the
    same group element compare equal.

    >>> FreeWord(3, (1, 2, -2, 1)).letters
    (1, 1)
    >>> FreeWord(3, (2, 1, -1, -2, 3)).letters
    (3,)
    """

    n: int
    letters: tuple[int, ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"free group rank must be >= 1, got {self.n}")
        for letter in self.letters:
            if letter == 0 or abs(letter) > self.n:
                raise ValueError(f"letter {letter} out of range for rank {self.n}")
        object.__setattr__(self, "letters", _reduce(self.letters))

    def __len__(self) -> int:
        return len(self.letters)


def fw_apply(images: Sequence[FreeWord], w: FreeWord) -> FreeWord:
    """Apply the substitution homomorphism x_k -> images[k-1] to w.

    Negative letters map to the inverse of the corresponding image, so the
    extension is multiplicative: fw_apply(im, a*b) == fw_apply(im, a) *
    fw_apply(im, b).

    >>> im = [FreeWord(2, (2,)), FreeWord(2, (2, 1, -2))]
    >>> fw_apply(im, FreeWord(2, (1,))).letters
    (2,)
    """
    if len(images) != w.n:
        raise ValueError(f"need {w.n} generator images, got {len(images)}")
    m = images[0].n
    if any(img.n != m for img in images):
        raise ValueError("generator images must share one alphabet")
    subs: dict[int, tuple[int, ...]] = {}
    for k, img in enumerate(images, start=1):
        subs[k] = img.letters
        subs[-k] = tuple(-x for x in reversed(img.letters))
    # The constructor reduces the substituted letters once.
    return FreeWord(m, tuple([x for letter in w.letters for x in subs[letter]]))


def fw_identity_images(n: int) -> list[FreeWord]:
    """Generator images of the identity endomorphism of F_n."""
    return [FreeWord(n, (k,)) for k in range(1, n + 1)]
