"""Shared test helpers."""

from qfock import correlation, special

# The six module-level caches of the closed forms.
CACHES = (correlation._fbo_generic_cache, correlation._fbo_eval_cache,
          correlation._pair_block_cache, correlation._vacuum_cache,
          correlation._one_point_cache, special._theta_deriv_cache)


def clear_caches():
    """Empty every closed-form cache, so the next computation runs cold."""
    for c in CACHES:
        c.clear()
