"""The draw of a chain law in one pass over the whole batch, as `simulate`
made it before its row-blocked `_draw`: the test oracle of the blocked one,
which must give the same numbers bit for bit."""

import numpy as np


def draw_whole(spec, phi, fixed, law, rng, z=None) -> dict:
    """One draw of `law` from each configuration of phi (sites last): the
    modes' noise from one block of normals (`z` if given, drawn from `rng`),
    then the outputs 'keys' given it from one more.  Returns a dict of 'phi'
    and the keys."""
    if z is None:
        z = rng.standard_normal(phi.shape[:-1] + law["sd"].shape)
    dev = spec.project(phi - fixed) * law["decay"] + law["shift"]
    out = {}
    if law["keys"]:
        beta = law["cross"] / law["sd"][:, None]    # covariances with the z_k
        # a square root of the residual covariance, safe where it is singular
        w, v = np.linalg.eigh(law["joint"] - beta.T @ beta)
        extra = z @ beta + law["mean"]
        extra += rng.standard_normal(extra.shape) @ (v * np.sqrt(np.maximum(w, 0.0))).T
        out = {key: extra[..., i] for i, key in enumerate(law["keys"])}
    z *= law["sd"]
    z += dev
    out["phi"] = spec.synthesize(z)
    out["phi"] += fixed
    return out
