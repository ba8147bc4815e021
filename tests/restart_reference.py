"""Every start run to convergence, kept as the reference for ``vem.fit``.

``vem.fit`` stops a later start once it reaches the optimum of the first
start that finished, and such a start cannot win.  This copy runs every
start's EM loop to its own end, with no incumbent, and keeps the start with
the highest final lower bound, as ``fit`` did before the early stop;
``tests/test_vem.py`` checks ``fit`` against it.
"""

from mplnbicluster.errors import AllRestartsFailed, MplnError
from mplnbicluster.vem import fit_from_state, initialize


def fit_every_start(counts, offsets, G, k_spec, config):
    best = None
    failures = []
    for restart in range(config.n_starts if G > 1 else 1):
        try:
            state = initialize(counts, offsets, G, config.seed, restart)
            result = fit_from_state(counts, offsets, state, k_spec, config, restart=restart)
        except MplnError as exc:
            failures.append((restart, f"{type(exc).__name__}: {exc}"))
            continue
        if best is None or result.lower_bound > best.lower_bound:
            best = result
    if best is None:
        raise AllRestartsFailed(failures)
    return best
