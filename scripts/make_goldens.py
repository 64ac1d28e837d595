#!/usr/bin/env python3
"""Write the checked-in golden JSON tables from the frozen reference data.

The goldens are built from laxforge.tables (typed-in expansions), never from
engine output, so `laxforge --golden goldens/ ...` is a real comparison.
"""
from __future__ import annotations

import sys
from pathlib import Path

from laxforge import serialize
from laxforge import tables as T
from laxforge.matrices import PolyMatrix


def main(out_dir: str) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    order = 4
    w = [PolyMatrix.from_rows("scalar", [[0, e12], [e21, 0]])
         for e12, e21 in map(T.w_scalar, range(1, order + 1))]
    z = [PolyMatrix.from_rows("scalar", [[e11, 0], [0, e22]])
         for e11, e22 in map(T.z_scalar, range(1, order))]
    payload = {"command": "riccati", "order": order, "mode": "scalar",
               "w": [serialize.to_dict(m) for m in w],
               "z": [serialize.to_dict(m) for m in z]}
    (out / f"riccati-scalar-{order}.json").write_text(serialize.dumps(payload))

    for which in ("gamma", "gamma_hat"):
        payload = {"command": "riccati", "which": which, "order": 4,
                   "coeffs": [serialize.to_dict(T.gamma_matrix(k, which)) for k in range(1, 5)]}
        (out / f"riccati-{which}-4.json").write_text(serialize.dumps(payload))

    for n in range(1, 5):
        payload = {"command": "hierarchy-u", "route": "gen", "n": n,
                   "mode": "scalar",
                   "series": serialize.to_dict(T.u_gen_scalar(n))}
        (out / f"hierarchy-u-gen-{n}-scalar.json").write_text(serialize.dumps(payload))
        payload = {"command": "hierarchy-u", "route": "dress", "n": n,
                   "mode": "matrix",
                   "series": serialize.to_dict(T.u_dress_matrix(n))}
        (out / f"hierarchy-u-dress-{n}-matrix.json").write_text(serialize.dumps(payload))

    payload = {"command": "hierarchy-charges", "kind": "H", "max_k": 3,
               "densities": [serialize.to_dict(T.h_scalar(k)) for k in range(1, 4)]}
    (out / "charges-H-3.json").write_text(serialize.dumps(payload))
    payload = {"command": "hierarchy-charges", "kind": "I", "max_k": 3,
               "densities": [serialize.to_dict(T.i_matrix(k)) for k in range(1, 4)]}
    (out / "charges-I-3.json").write_text(serialize.dumps(payload))

    # open-chain lam^-2 charge: the typed values test_boundary.py and
    # acceptance criteria 7a-7c pin, in the printer's exact form
    payload = {"command": "boundary-charges", "order": 2,
               "bulk": "-u_t*uh - pi*pih + u*u*uh*uh",
               "plus": "(xi_p)/(ka_p)*u + ((-i)/(ka_p))*pih + 1/2*u*u",
               "minus": "(xi_m)/(ka_m)*uh + (i)/(ka_m)*pi - u*uh + 1/2*uh*uh",
               "plus_prefix": ["-ka_p", 1], "minus_prefix": ["ka_m", 1]}
    (out / "boundary-charges-2.json").write_text(serialize.dumps(payload))
    print(f"wrote goldens to {out}")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else
         str(Path(__file__).resolve().parent.parent / "goldens"))
