"""Randomized PBW rewriting: the confluence oracle for the enveloping-algebra product.

`lie.UEnvElement` multiplies by rewriting the first descent of a word and
memoizing every word it meets.  This oracle rewrites a randomly chosen descent
at each step and memoizes nothing, so agreement with the product shows that the
rewriting is confluent on the words tried.
"""

from fractions import Fraction

from horocycle.lie import LieAlgebraDesc, UEnvElement


def random_pbw_normal_form(desc: LieAlgebraDesc, word, rng) -> UEnvElement:
    """Normal form of x_{word[0]} ... x_{word[-1]}, rewriting x_i x_j with i > j
    as x_j x_i + [x_i, x_j] at a descent picked by `rng`."""
    return UEnvElement(desc, _rewrite(desc, tuple(word), rng))


def _rewrite(desc: LieAlgebraDesc, word: tuple, rng) -> dict:
    descents = [k for k in range(len(word) - 1) if word[k] > word[k + 1]]
    if not descents:
        e = [0] * desc.dim
        for i in word:
            e[i] += 1
        return {tuple(e): Fraction(1)}
    k = rng.choice(descents)
    i, j = word[k], word[k + 1]
    out = _rewrite(desc, word[:k] + (j, i) + word[k + 2 :], rng)
    for m, coef in desc.bracket_vector(i, j).items():
        for e, c in _rewrite(desc, word[:k] + (m,) + word[k + 2 :], rng).items():
            out[e] = out.get(e, Fraction(0)) + coef * c
    return out


def word_product(desc: LieAlgebraDesc, word) -> UEnvElement:
    """x_{word[0]} ... x_{word[-1]} through the product under test."""
    out = UEnvElement.one(desc)
    for i in word:
        out = out * UEnvElement.generator(desc, i)
    return out
