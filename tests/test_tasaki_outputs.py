"""Pinned outputs of the Tasaki matrices: the JSON and pretty text of both
routes, the leading minors and the principal kinematic tensor for
0 <= k <= n <= 16, as SHA-256 prefixes per family."""

import hashlib
import json

from uval.kinematic import principal_kinematic, tasaki_matrix_closed, tasaki_matrix_oracle


def _digests():
    """Per output family, the first 16 hex digits of the SHA-256 of its
    lines."""
    hashes = {}

    def record(family, line):
        hashes.setdefault(family, hashlib.sha256()).update(f"{line}\n".encode())

    for n in range(1, 17):
        for k in range(n + 1):
            closed, oracle = tasaki_matrix_closed(n, k), tasaki_matrix_oracle(n, k)
            for route, m in (("closed", closed), ("oracle", oracle)):
                record(f"{route}_json", json.dumps(m.to_json(), sort_keys=True))
                record(f"{route}_pretty", m.pretty())
            record("minors", ";".join(str(d) for d in closed.leading_minor_dets()))
        record("principal", json.dumps(principal_kinematic(n).to_json(), sort_keys=True))
    return {f: h.hexdigest()[:16] for f, h in hashes.items()}


# computed from the same inputs while TasakiMatrix held Scalar entries only
# and read its integers back through a pi-block conversion
PINNED_DIGESTS = {
    "closed_json": "addab7cb65ab62d5",
    "oracle_json": "addab7cb65ab62d5",
    "closed_pretty": "01dfa017c87addd9",
    "oracle_pretty": "01dfa017c87addd9",
    "minors": "45342904a9f5f036",
    "principal": "d62272a51cae136a",
}


def test_tasaki_outputs_pinned():
    got = _digests()
    assert set(got) == set(PINNED_DIGESTS)
    for family, want in PINNED_DIGESTS.items():
        assert got[family] == want, f"{family} outputs differ from the pinned ones"
