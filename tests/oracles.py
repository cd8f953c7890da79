"""Independent brute-force oracles shared by the unit and acceptance tests.

These deliberately avoid the library's own search routines: the h oracle
is a dense uniform grid scan with local refinement, nothing smarter, and
the compass oracle polls one point per objective call.
"""

import numpy as np

from kslab.thresholds import h_objective


def h_bruteforce(n, d1, d2, cells=2000, refine=2):
    """Dense-grid minimum of the threshold objective with local zoom.

    Scans cells x cells midpoints of (0, d1) x (0, d2), then re-grids a
    +/- 2 cell neighborhood of the argmin, `refine` times.
    """
    lo_e, hi_e, lo_g, hi_g = 0.0, d1, 0.0, d2
    best = (np.inf, None, None)
    for _ in range(refine + 1):
        de = (hi_e - lo_e) / cells
        dg = (hi_g - lo_g) / cells
        es = lo_e + (np.arange(cells) + 0.5) * de
        gs = lo_g + (np.arange(cells) + 0.5) * dg
        value_min, arg = np.inf, (0, 0)
        chunk = 250  # keep peak memory bounded
        for i0 in range(0, cells, chunk):
            ee, gg = np.meshgrid(es[i0 : i0 + chunk], gs, indexing="ij")
            vals = h_objective(n, d1, d2, ee, gg)
            k = int(np.argmin(vals))
            if vals.flat[k] < value_min:
                value_min = float(vals.flat[k])
                arg = (i0 + k // cells, k % cells)
        e_star, g_star = float(es[arg[0]]), float(gs[arg[1]])
        if value_min < best[0]:
            best = (value_min, e_star, g_star)
        lo_e, hi_e = max(0.0, e_star - 2 * de), min(d1, e_star + 2 * de)
        lo_g, hi_g = max(0.0, g_star - 2 * dg), min(d2, g_star + 2 * dg)
    return best


def compass_reference(f, d1, d2):
    """The grid-plus-compass search with one scalar objective call per poll.

    Same 64x64 logarithmic grid and compass rule as the library's search
    (4 polls per iteration around its starting point, steps (d1, d2)/8
    halved over 40 rounds, at most 200 iterations per round).  Returns
    ((value, eps, eta), number of iterations that moved).
    """
    grid_e = d1 * np.geomspace(1e-3, 0.999, 64)
    grid_g = d2 * np.geomspace(1e-3, 0.999, 64)
    ee, gg = np.meshgrid(grid_e, grid_g, indexing="ij")
    vals = f(ee, gg)
    k = int(np.argmin(vals))
    x, y, fx = float(ee.flat[k]), float(gg.flat[k]), float(vals.flat[k])
    sx, sy = d1 / 8.0, d2 / 8.0
    moved_iterations = 0
    for _ in range(40):
        moved = True
        polls = 0
        while moved and polls < 200:
            moved = False
            polls += 1
            for cx, cy in ((x + sx, y), (x - sx, y), (x, y + sy), (x, y - sy)):
                fc = float(f(cx, cy))
                if fc < fx:
                    x, y, fx = cx, cy, fc
                    moved = True
            moved_iterations += moved
        sx *= 0.5
        sy *= 0.5
    return (fx, x, y), moved_iterations
