"""Ordered map over table rows and Monte Carlo samples."""


def ordered_map(fn, items) -> list:
    """[fn(item) for item in items], evaluated sequentially in input order."""
    return [fn(item) for item in items]
