"""The state of a run at given times, rebuilt from its event log."""

import numpy as np


def replayed_states(times, init, center, final_time, log):
    """Yield (t, positions, m) at each of the sorted `times` up to
    final_time, for a run from the positions `init` and centre `center` that
    logged (times, indices, lengths, centers): the positions after every
    event at or before t, and the centre logged with the last of them. The
    positions are one array, updated in place between states."""
    log_t, log_i, log_z, log_m = log
    pos, m, e = np.array(init, dtype=float), center, 0
    for t in times:
        if t > final_time:
            return
        while e < len(log_t) and log_t[e] <= t:
            pos[log_i[e]] += log_z[e]
            m, e = log_m[e], e + 1
        yield t, pos, m
