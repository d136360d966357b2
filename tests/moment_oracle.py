"""The moment map as a chain of normal-ordered operator products: the oracle
for `action.moment_table`.

`moment_table` multiplies a table by one linear field with a closed-form rule
and rewrites each new monomial in the ring's normal form as it goes.  This
oracle multiplies the fields themselves with the product of `weyl.WeylOp`
along the PBW word, and rewrites only the finished operator.
"""

import functools

from horocycle.weyl import WeylOp


@functools.cache
def field_product(e, act) -> WeylOp:
    """The product of act's fields along the PBW word of the exponent e: the
    product for e minus its last generator, times that generator's field."""
    if not any(e):
        return WeylOp.one(act.ring.variables)
    i = max(k for k in range(len(e)) if e[k])
    prev = list(e)
    prev[i] -= 1
    return field_product(tuple(prev), act) * act.fields[i]


def reduced(op: WeylOp, ring) -> dict:
    """The coefficient table of op with each coefficient polynomial in ring's normal form."""
    return {
        (xe, de): c
        for de, poly in op.coefficient_polys().items()
        for xe, c in ring.normal_form(poly).terms.items()
    }
