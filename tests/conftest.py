"""Shared independent oracles: plain element-loop assembly with closed-form
local matrices, deliberately separate from the library's vectorized paths,
and a finite-difference gradient over full forward solves, separate from
the discrete adjoint."""

import numpy as np

from anisoflow import cost, solve_state


def oracle_mass_matrix(grid):
    """Exact P1 mass matrix via the closed-form element matrices
    |e| (1 + delta_ij) / ((d+1)(d+2)), whose rows sum to |e|/(d+1)."""
    n, d = grid.n_nodes, grid.dim
    m = np.zeros((n, n))
    local = (1.0 + np.eye(d + 1)) / ((d + 1) * (d + 2))
    for conn, measure in zip(grid.elements, grid.measures):
        m[np.ix_(conn, conn)] += measure * local
    return m


def oracle_stiffness_matrix(grid):
    """P1 stiffness |e| G G^T by an element loop, with the basis gradients
    G of :func:`_oracle_basis_gradients`."""
    n = grid.n_nodes
    k = np.zeros((n, n))
    for conn, measure in zip(grid.elements, grid.measures):
        g = _oracle_basis_gradients(grid, conn)
        k[np.ix_(conn, conn)] += measure * g @ g.T
    return k


def _oracle_basis_gradients(grid, conn):
    """Basis gradients of one element from its vertex coordinates alone:
    the barycentric coordinates l of x solve sum_i l_i (1, p_i) = (1, x),
    so the gradient of l_i is column i of inv([1 p]) below its first row."""
    p = grid.nodes[conn]
    return np.linalg.inv(np.column_stack([np.ones(len(conn)), p]))[1:].T


def oracle_element_gradients(grid, values):
    """Gradient of a nodal field on every element, from the vertex formula."""
    return np.array([_oracle_basis_gradients(grid, conn).T @ values[conn]
                     for conn in grid.elements])


def oracle_weighted_stiffness(grid, tensors):
    """Dense K_ij = sum_e |e| grad phi_i^T M_e grad phi_j by an element loop."""
    n = grid.n_nodes
    k = np.zeros((n, n))
    for conn, measure, tensor in zip(grid.elements, grid.measures, tensors):
        g = _oracle_basis_gradients(grid, conn)
        k[np.ix_(conn, conn)] += measure * g @ tensor @ g.T
    return k


def fd_gradient(problem, control, eps=1e-6, guard=10_000):
    """Central-difference gradient oracle over full forward solves.

    Differences of the cost are converted to the same weighted-inner-product
    representative that :func:`reduced_gradient` returns (divide by
    tau_j w_i), so the two are directly comparable.  Guarded to small
    instances: n_nodes * N must not exceed ``guard``.
    """
    control = problem.check_control(control)
    n_steps, n = control.shape
    if n_steps * n > guard:
        raise ValueError(
            f"fd_gradient guard: {n_steps * n} unknowns > {guard}")

    def value(u):
        return cost(problem, solve_state(problem, u), u)

    taus = problem.partition.tau_steps
    w = problem.grid.weights
    out = np.zeros_like(control)
    for j in range(n_steps):
        for i in range(n):
            bump = np.zeros_like(control)
            bump[j, i] = eps
            out[j, i] = ((value(control + bump) - value(control - bump))
                         / (2.0 * eps * taus[j] * w[i]))
    return out
