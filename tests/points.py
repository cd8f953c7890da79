"""One-point stacks: solver.step, solver.compute_dt and
DiagnosticsSeries.sample take stacked fields only, so a test's single point
is a stack of one."""

import numpy as np

from kslab.params import Grid, State
from kslab.solver import _extremes, _face_gradient


def one_point(state: State) -> State:
    """state as a stack of one point: fields (1, *cells) and t an array."""
    return State(u=state.u[None], v=state.v[None], t=np.array([state.t]))


def extremes(state: State, grid: Grid):
    """compute_dt's face_extremes and u_extremes of a stacked state, as step
    gathers them."""
    faces, planes = np.empty(state.v.shape), (0, len(state.v) * grid.cells[0])
    return ([_extremes(_face_gradient(state.v, grid, axis, faces, planes))
             for axis in range(grid.dim)],
            _extremes(state.u))
