"""The convergents of pi that the sign and cone tests draw near-cancelling
scalars p - q pi from."""

# Partial quotients of the continued fraction of pi up to depth 45.  The
# convergent of depth 44, whose q has 25 digits, is the first whose
# p - q pi the sign ladder cannot decide.
PI_CF = (3, 7, 15, 1, 292, 1, 1, 1, 2, 1, 3, 1, 14, 2, 1, 1, 2, 2, 2, 2, 1, 84, 2,
         1, 1, 15, 3, 13, 1, 4, 2, 6, 6, 99, 1, 2, 2, 6, 3, 5, 1, 1, 6, 8, 1, 7)


def _convergents(cf):
    h0, h1, k0, k1 = 1, cf[0], 0, 1
    out = [(h1, k1)]
    for a in cf[1:]:
        h0, h1 = h1, a * h1 + h0
        k0, k1 = k1, a * k1 + k0
        out.append((h1, k1))
    return tuple(out)


# (p, q) for the convergent p/q of pi of each depth 0..45.
CONVERGENTS = _convergents(PI_CF)
