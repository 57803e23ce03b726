"""The tail-percentile rule the benchmark reports its tails by."""

# Candidate tail percentiles, highest first.  Coarse steps keep the chosen
# percentile the same across runs whose sample counts differ by up to ~2x.
TAIL_PERCENTILES = (99, 90, 75, 50)
MIN_BEYOND = 10


def nearest_rank(ordered, p):
    """(value, beyond): the nearest-rank p-th percentile of sorted values and
    how many samples rank above it."""
    n = len(ordered)
    if n == 0:
        raise ValueError("percentile of no samples")
    rank = max(1, -(-p * n // 100))         # ceil(p * n / 100), integer p
    return ordered[rank - 1], n - rank


def tail_percentile(values):
    """(p, value, n) for the highest candidate percentile that has at least
    MIN_BEYOND samples beyond it.  Needs 2 * MIN_BEYOND samples or more."""
    ordered = sorted(values)
    for p in TAIL_PERCENTILES:
        value, beyond = nearest_rank(ordered, p)
        if beyond >= MIN_BEYOND:
            return p, value, len(ordered)
    raise ValueError(f"{len(ordered)} samples: no percentile has "
                     f"{MIN_BEYOND} samples beyond it")


def min_samples_for(p):
    """Smallest sample count at which percentile p has MIN_BEYOND beyond it."""
    n = 1
    while nearest_rank(range(n), p)[1] < MIN_BEYOND:
        n += 1
    return n
