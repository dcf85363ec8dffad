"""Uniform P1 finite element grids on boxes with lumped mass.

The domain is a box (0,L1) or (0,L1)x(0,L2) meshed uniformly: intervals in
1D, square cells split into two triangles in 2D.  Nodes are ordered
lexicographically with the x-index running fastest.  All assembly is built
on two facts that hold for P1 simplices:

* gradients of nodal basis functions are constant per element, so the
  element gradients of a nodal field are one sparse product y -> D y, with
  D the (n_elements*dim) x n_nodes gradient operator built once per grid;
  every divergence-form term (q, grad phi) with an element-constant flux q
  is then D^T (|e| q), and every matrix (stiffness, Newton, adjoint, Riesz)
  is a diagonal plus the element blocks |e| G_e M_e G_e^T (G_e the basis
  gradients), summed into one CSR pattern built once per grid, all exact;
* every element of a uniform grid is a translate of one of n_shapes
  element shapes (1 in 1D, 2 in 2D), so G_e and |e| are those of its
  shape, and the block is a fixed linear map of the dim^2 entries of M_e:
  one (dim^2, (dim+1)^2) matrix per shape, built once per grid, turns all
  tensors of a shape into their blocks in one product;
* the row sum of the exact P1 element mass matrix is |e|/(d+1), so mass
  lumping reduces every L2 pairing to a diagonal weight vector.

Fields are plain 1-D numpy arrays of nodal values; the grid travels
alongside them in function signatures.
"""

import copy
import csv
import functools
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from .linalg import conjugate_gradient, multigrid_vcycle, tridiagonal_ldlt

# reference-simplex basis gradients, per dimension
_REF_GRADS = {
    1: np.array([[-1.0], [1.0]]),
    2: np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]]),
}

# largest level solved densely at the bottom of a V-cycle.  The dense
# inverse is formed once per matrix: at 289 unknowns (a 17^2 level) it alone
# cost ~7.6 ms per Newton matrix, more than the V-cycle saved on 33^2 grids
_COARSEST_MAX = 100


class Grid:
    """Uniform simplicial P1 mesh of a 1D or 2D box.

    Attributes
    ----------
    dim : int
        Spatial dimension, 1 or 2.
    shape : tuple of int
        Nodes per axis (n1,) or (n1, n2).
    lengths : tuple of float
        Box side lengths; the domain is the product of (0, L_k).
    spacing : tuple of float
        h_k = L_k / (n_k - 1).
    nodes : ndarray, (n_nodes, dim)
        Node coordinates, lexicographic order, x fastest.
    elements : ndarray, (n_elements, dim+1)
        Node indices per element.
    measures : ndarray, (n_elements,)
        Element lengths/areas.
    n_shapes : int
        Number of element shapes: 1 in 1D; 2 in 2D, where the lower-left
        and upper-right triangles of the cells alternate.  Element e is a
        translate of element e % n_shapes.
    basis_gradients : ndarray, (n_shapes, dim+1, dim)
        Constant gradient of each local basis function on each shape.
    element_maps : ndarray, (n_shapes, dim*dim, (dim+1)**2)
        Per shape, the linear map from the dim*dim entries of an element
        tensor M_e to the element block |e| G M_e G^T (G the shape's
        basis gradients), both flattened row-major.
    weights : ndarray, (n_nodes,)
        Lumped mass (row sums of the exact P1 mass matrix).
    D : scipy.sparse.csr_matrix, (n_elements*dim, n_nodes)
        P1 gradient operator: row e*dim + k of D @ y is the k-th component
        of the gradient of y on element e.
    Dt : scipy.sparse.csr_matrix, (n_nodes, n_elements*dim)
        Its transpose: Dt @ (|e| q) assembles (q, grad phi_i) for
        element-constant fluxes q.

    Matrices are values filled into one CSR pattern per grid
    (:meth:`sparsity_pattern`), whose read-only index arrays they share:
    the blocks of each shape come from one product with its element map,
    and one ``bincount`` over the shape-major scatter map sums them.
    """

    def __init__(self, dim, nodes_per_axis, lengths):
        if dim not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got {dim}")
        counts = np.atleast_1d(nodes_per_axis).tolist()
        if not all(float(n).is_integer() for n in counts):
            raise ValueError(f"node counts must be integers, got {counts}")
        nodes_per_axis = tuple(int(n) for n in counts)
        lengths = tuple(float(L) for L in np.atleast_1d(lengths))
        if len(nodes_per_axis) != dim or len(lengths) != dim:
            raise ValueError(
                f"expected {dim} node counts and lengths, got "
                f"{nodes_per_axis} and {lengths}")
        if any(n < 2 for n in nodes_per_axis):
            raise ValueError(f"need at least 2 nodes per axis, got {nodes_per_axis}")
        if not all(0 < L < np.inf for L in lengths):
            raise ValueError(f"lengths must be positive and finite, got {lengths}")

        self.dim = dim
        self.shape = nodes_per_axis
        self.lengths = lengths
        self.spacing = tuple(L / (n - 1) for L, n in zip(lengths, nodes_per_axis))

        self.nodes = self._build_nodes()
        self.elements = self._build_elements()
        self._build_element_geometry()
        self.weights = self._lumped_weights()

        # block (l, m) of element e is sum_ij |e| g_li M_ij g_mj
        scaled = self.measures[:self.n_shapes, None, None] * self.basis_gradients
        self.element_maps = np.einsum(
            "kli,kmj->kijlm", scaled, self.basis_gradients).reshape(
                self.n_shapes, dim * dim, (dim + 1) ** 2)

        # D[e*dim + k, elements[e, l]] = g_lk of the shape of e; the zero
        # components (edges along an axis) are dropped to thin the products
        grads = np.tile(self.basis_gradients,
                        (self.n_elements // self.n_shapes, 1, 1))
        rows = np.arange(self.n_elements * dim).reshape(-1, 1, dim)
        self.D = sp.csr_matrix(
            (grads.ravel(),
             (np.broadcast_to(rows, grads.shape).ravel(),
              np.repeat(self.elements, dim, axis=1).ravel())),
            shape=(self.n_elements * dim, self.n_nodes))
        self.D.eliminate_zeros()
        self.Dt = self.D.T.tocsr()
        self._pattern = self._scatter = self._template = None
        self._eye = np.eye(dim)
        self._constant_data = {}
        self._prolongations = None
        self._riesz_solve = None

    @property
    def n_nodes(self):
        return self.nodes.shape[0]

    @property
    def n_elements(self):
        return self.elements.shape[0]

    def _build_nodes(self):
        axes = [np.linspace(0.0, L, n) for L, n in zip(self.lengths, self.shape)]
        if self.dim == 1:
            return axes[0][:, None]
        X, Y = np.meshgrid(axes[0], axes[1])  # X[i2, i1] = x-coordinate i1
        return np.column_stack([X.ravel(), Y.ravel()])

    def _build_elements(self):
        if self.dim == 1:
            n = self.shape[0]
            left = np.arange(n - 1)
            return np.column_stack([left, left + 1])
        n1, n2 = self.shape
        c1, c2 = np.meshgrid(np.arange(n1 - 1), np.arange(n2 - 1))
        v00 = (c2 * n1 + c1).ravel()
        v10, v01 = v00 + 1, v00 + n1
        v11 = v01 + 1
        # each cell -> lower-left and upper-right triangle, cell-major order
        elems = np.empty((2 * v00.size, 3), dtype=np.int64)
        elems[0::2] = np.column_stack([v00, v10, v01])
        elems[1::2] = np.column_stack([v11, v01, v10])
        return elems

    def _build_element_geometry(self):
        # every element is a translate of element e % n_shapes (in 2D the
        # lower-left and upper-right triangles of the cells alternate), so
        # the first n_shapes elements carry all the geometry
        self.n_shapes = 1 if self.dim == 1 else 2
        first = self.elements[:self.n_shapes]
        p0 = self.nodes[first[:, 0]]
        edges = np.stack(
            [self.nodes[first[:, i + 1]] - p0 for i in range(self.dim)],
            axis=-1)  # (n_shapes, dim, dim), Jacobian columns
        det = np.linalg.det(edges)
        if not np.all(det > 0):
            raise ValueError("degenerate element: nonpositive Jacobian determinant")
        self.measures = np.tile(det / (1.0 if self.dim == 1 else 2.0),
                                self.n_elements // self.n_shapes)
        # grad phi_l = J^{-T} gradref_l
        ref = _REF_GRADS[self.dim]
        rhs = np.broadcast_to(ref.T, (self.n_shapes,) + ref.T.shape)
        self.basis_gradients = np.swapaxes(
            np.linalg.solve(np.swapaxes(edges, 1, 2), rhs), 1, 2)

    def _lumped_weights(self):
        w = np.zeros(self.n_nodes)
        np.add.at(w, self.elements, (self.measures / (self.dim + 1))[:, None])
        return w

    def check_field(self, values, rows=None):
        """``values`` as a finite nodal field on this grid or, given ``rows``,
        a (rows, n_nodes) stack of them (one per time interval)."""
        values = np.asarray(values, dtype=float)
        shape = (self.n_nodes,) if rows is None else (rows, self.n_nodes)
        if values.shape != shape:
            raise ValueError(
                f"field has shape {values.shape}, expected {shape}")
        if not np.all(np.isfinite(values)):
            raise ValueError("field contains non-finite entries")
        return values

    def stiffness_matrix(self):
        """Sparse P1 stiffness matrix K_ij = sum_e |e| grad phi_i . grad phi_j."""
        return self.assemble_weighted_stiffness(None)

    def sparsity_pattern(self):
        """CSR pattern of all node pairs that share an element, built once:
        read-only int32 ``indptr`` and ``indices``, the scatter map and the
        position in ``indices`` of each diagonal entry.  The scatter map
        is shape-major, like the element blocks of
        :meth:`assemble_weighted_stiffness`: entry [k, c, l*(dim+1) + m]
        is the position of local pair (l, m) of element c*n_shapes + k.
        It is intp, which ``np.bincount`` would otherwise convert to on
        every call.  The positions are searched in the sorted keys
        row*n_nodes + column; an ``np.unique`` inverse would need about
        twice the peak memory."""
        if self._pattern is None:
            n = self.n_nodes
            keys = self.elements[:, :, None] * n + self.elements[:, None, :]
            pairs, self._template = _csr_template(keys, n)
            by_shape = keys.reshape(
                -1, self.n_shapes, (self.dim + 1) ** 2).swapaxes(0, 1)
            # np.bincount copies a read-only index array on every call, so
            # assembly reads the writeable array behind the read-only view
            self._scatter = np.searchsorted(pairs, by_shape)
            self._pattern = (
                self._template.indptr, self._template.indices,
                self._scatter.view(),
                np.searchsorted(pairs, np.arange(n) * (n + 1)).astype(np.int32))
            for a in self._pattern:
                a.flags.writeable = False
        return self._pattern

    def assemble_weighted_stiffness(self, tensors, diagonal=None):
        """Assemble sum_e |e| grad phi_i^T M_e grad phi_j + diag(diagonal)
        into the grid's :meth:`sparsity_pattern`, as a CSR matrix.

        ``tensors`` is an (n_elements, dim, dim) array of per-element
        matrices M_e, one (dim, dim) matrix M_e = M for every element, or
        None for the identity (plain stiffness); ``diagonal`` an optional
        (n_nodes,) vector.  The element blocks of each shape are one
        product of the (n, dim^2) entries of its tensors with the shape's
        element map (:attr:`element_maps`).  The values of a constant M
        are filled once per grid and per distinct M, and copied on each
        call, so every matrix, :meth:`stiffness_matrix` too, owns its
        ``data``.
        """
        diagonal_at = self.sparsity_pattern()[3]
        tensors = self._eye if tensors is None else np.asarray(tensors, float)
        if tensors.ndim == 2:
            key = tensors.tobytes()
            if key not in self._constant_data:
                self._constant_data[key] = self._fill(np.broadcast_to(
                    tensors, (self.n_elements, self.dim, self.dim)))
            data = self._constant_data[key].copy()
        else:
            data = self._fill(tensors)
        if diagonal is not None:
            data[diagonal_at] += diagonal
        # a shallow copy of the template with its own values: the CSR
        # constructor would check the index arrays again on every call,
        # which costs more than the arithmetic on 1D grids
        mat = copy.copy(self._template)
        mat.data = data
        return mat

    def _fill(self, tensors):
        """Pattern values of sum_e |e| grad phi_i^T M_e grad phi_j."""
        maps = self.element_maps
        blocks = np.reshape(tensors, (-1,) + maps.shape[:2]).swapaxes(0, 1) @ maps
        return np.bincount(self._scatter.ravel(), weights=blocks.ravel(),
                           minlength=self._pattern[1].size)

    def solver(self, mat):
        """``rhs, rtol -> x`` for an SPD matrix this grid assembled: CG
        (:func:`conjugate_gradient`) with the grid's :meth:`preconditioner`.
        Every linear solve of the library goes through here."""
        return functools.partial(conjugate_gradient, mat,
                                 precondition=self.preconditioner(mat))

    def preconditioner(self, mat):
        """Preconditioner for an SPD matrix this grid assembled.

        On 1D grids P1 matrices are tridiagonal, so this is the exact LDL^T
        solve (:func:`tridiagonal_ldlt`), read at the pattern positions of
        the diagonal.  On 2D grids of every shape it is a multigrid V-cycle
        over the grid's coarsening hierarchy (:func:`multigrid_vcycle`).
        Both read the values by position, so ``mat`` must share the index
        arrays of the grid's :meth:`sparsity_pattern`, as every matrix from
        :meth:`assemble_weighted_stiffness` does; any other matrix raises
        ValueError.  It is None when the factorization meets a non-positive
        pivot, when a row of a 2D matrix is zero, or when the coarsest
        matrix is not positive definite; CG then runs plain.
        """
        self.sparsity_pattern()
        if getattr(mat, "indices", None) is not self._template.indices:
            raise ValueError(
                "matrix was not assembled on the grid's sparsity pattern")
        if self.dim == 1:
            return tridiagonal_ldlt(mat.data, self._pattern[3])
        return multigrid_vcycle(mat, self.prolongations())

    def prolongations(self):
        """The 2D coarsening hierarchy, finest first, as :class:`CoarseLevel`
        records.  Built once; empty on 1D grids.

        Each level halves the axes whose spacing is within a factor 2 of
        the finest axis with more than one node, while the others wait
        (semi-coarsening), until the first level of at most
        ``_COARSEST_MAX`` nodes, which the V-cycle solves densely.  A
        halved axis keeps every other node and its last one; a 2-node axis
        merges into one node.  A fine node takes the mean of its two
        parents, the coarse nodes at the ends of the coarse edge it lies on
        (both are the node itself where it is a coarse node); cell centres
        lie on the cell diagonal from v10 to v01.  Where both axes halve
        from odd counts this is the exact P1 interpolation, so P^T K P is
        the coarse grid's stiffness matrix; elsewhere P is still a valid
        Galerkin prolongation.  To keep the hierarchy small, only the
        coarse patterns are kept, no coarse grids, and the Galerkin maps
        are int32: about 2.5 MB on a 129^2 grid.  ``np.bincount`` converts
        them to intp on each call, which costs some 5% of a V-cycle build
        at 33^2.
        """
        if self._prolongations is None:
            shape, spacing = np.array(self.shape), np.array(self.spacing)
            self.sparsity_pattern()
            chain, template = [], self._template
            while self.dim == 2 and shape.prod() > _COARSEST_MAX:
                halve = (shape > 1) & (spacing <= 2 * spacing[shape > 1].min())
                coarse = np.where(halve, shape // 2 + (shape > 2), shape)
                chain.append(_coarse_level(shape, coarse, template))
                template = chain[-1].template
                shape, spacing = coarse, np.where(halve, 2 * spacing, spacing)
            self._prolongations = tuple(chain)
        return self._prolongations

    def _riesz_solver(self):
        """The :meth:`solver` of the Riesz matrix K + diag(W), built once."""
        if self._riesz_solve is None:
            self._riesz_solve = self.solver(
                self.assemble_weighted_stiffness(None, self.weights))
        return self._riesz_solve


class CoarseLevel(NamedTuple):
    """One level of the 2D coarsening hierarchy (:meth:`Grid.prolongations`).

    ``p`` interpolates from this level to the finer one and ``pt`` is its
    transpose.  ``template`` is a CSR matrix with zero values on the
    pattern of P^T A P, which is this level's P1 pattern where both axes
    halved and both counts were odd.  ``galerkin`` is a (4, nnz) array
    over the values of the finer pattern: row 2s + t sends value (i, j) to
    the position of (parent_s(i), parent_t(j)) in ``template``
    (:func:`~anisoflow.linalg.galerkin_operator`).
    """
    p: object
    pt: object
    galerkin: np.ndarray
    template: object


def _csr_template(keys, n):
    """Sorted distinct ``keys`` row*n + column, and int32 CSR zeros on them."""
    # sort and mask: np.unique hashes int64 keys, several times slower
    pairs = np.sort(keys, axis=None)
    pairs = pairs[np.concatenate(([True], pairs[1:] != pairs[:-1]))]
    return pairs, sp.csr_matrix(
        (np.zeros(pairs.size), (pairs % n).astype(np.int32),
         np.searchsorted(pairs, np.arange(n + 1) * n).astype(np.int32)),
        shape=(n, n))


def _coarse_level(shape, coarse, template):
    """The :class:`CoarseLevel` from the 2D grid ``shape``, whose CSR
    pattern is that of ``template``, to the grid ``coarse``."""
    axes = []
    for n, m in zip(shape, coarse):
        # node i of a halved axis lies between coarse nodes i//2 and
        # (i+1)//2; its last node is coarse (node 0 where 2 nodes merge)
        i = np.arange(n)
        low, high = (i, i) if m == n else (i // 2, np.minimum((i + 1) // 2, m - 1))
        low[-1] = high[-1]
        axes.append((low, high))
    (low1, high1), (low2, high2) = axes
    m1, m = int(coarse[0]), int(coarse.prod())
    parents = np.stack([(low2[:, None] * m1 + high1).ravel(),
                        (high2[:, None] * m1 + low1).ravel()])
    fine = parents.shape[1]
    # duplicate entries are summed, so a coarse node gets 0.5 + 0.5
    p = sp.csr_matrix(
        (np.full(parents.size, 0.5), (np.tile(np.arange(fine), 2),
                                      parents.ravel())),
        shape=(fine, m))
    rows = np.repeat(np.arange(fine), np.diff(template.indptr))
    keys = (parents[:, None, rows] * m
            + parents[None, :, template.indices]).reshape(4, -1)
    pairs, coarse_template = _csr_template(keys, m)
    galerkin = np.searchsorted(pairs, keys).astype(np.int32)
    return CoarseLevel(p, p.T.tocsr(), galerkin, coarse_template)


def build_grid(dim, nodes_per_axis, lengths):
    """Build a uniform P1 grid of the box prod_k (0, L_k).

    Parameters
    ----------
    dim : int
        1 or 2.
    nodes_per_axis : sequence of int
        Node counts n_k >= 2 per axis.
    lengths : sequence of float
        Positive box side lengths L_k.
    """
    return Grid(dim, nodes_per_axis, lengths)


def element_gradients(grid, values):
    """Constant gradient of the P1 interpolant on every element.

    Exact for nodal data sampled from an affine function.  Returns an
    (n_elements, dim) array.
    """
    return (grid.D @ values).reshape(grid.n_elements, grid.dim)


def assemble_flux_divergence(grid, fluxes):
    """Assemble the nodal vector b_i = sum_e |e| q_e . grad phi_i|_e.

    This is the exact Galerkin divergence-form term for any element-constant
    flux q (both q and grad phi_i are constant per element).  Row sums vanish
    because the basis gradients sum to zero on each element.
    """
    fluxes = np.asarray(fluxes, dtype=float)
    if fluxes.shape != (grid.n_elements, grid.dim):
        raise ValueError(
            f"fluxes have shape {fluxes.shape}, expected "
            f"({grid.n_elements}, {grid.dim})")
    return grid.Dt @ (grid.measures[:, None] * fluxes).ravel()


class FieldNorms(NamedTuple):
    l2: float
    h1_semi: float


def norms(grid, values):
    """Lumped L2 norm and H1 seminorm of a nodal field."""
    values = np.asarray(values, dtype=float)
    l2 = float(np.sqrt(np.sum(grid.weights * values**2)))
    grads = element_gradients(grid, values)
    h1_semi = float(np.sqrt(np.sum(grid.measures * np.sum(grads**2, axis=1))))
    return FieldNorms(l2, h1_semi)


def dual_norm(grid, values):
    """Discrete dual norm of a field viewed as a functional on H1.

    Solves the Riesz problem (grad z, grad phi) + (z, phi) = (f, phi) for
    all nodal phi (the grid's :meth:`Grid.solver`, relative residual <=
    1e-6: exact in one step on 1D grids, multigrid-preconditioned CG in 2D)
    and returns sqrt((f, z)).  (f, z) is the energy of the Riesz problem at
    its solution, so its error is quadratic in the CG residual: at rtol =
    1e-6 it is within 1e-13 relative of a 1e-14 solve, in 10 V-cycles where
    1e-10 took 16, on 33^2 and 129^2 grids.  For f constant the
    representative is z = f, so the value is |f| sqrt(volume); for any f it
    is bounded by the lumped L2 norm.
    """
    values = np.asarray(values, dtype=float)
    rhs = grid.weights * values
    z = grid._riesz_solver()(rhs, rtol=1e-6)
    return float(np.sqrt(max(rhs @ z, 0.0)))


# -- field snapshot files ----------------------------------------------------
#
# Line 1:  # anisoflow-field v1 dim=<d> n=<n1[,n2]> L=<L1[,L2]>
# then one nodal value per line in node order, 17 significant digits.

_FIELD_MAGIC = "# anisoflow-field v1"


def write_field(path, grid, values):
    """Write a nodal field to a snapshot file (round-trips bit-exactly)."""
    values = grid.check_field(values)
    n = ",".join(str(k) for k in grid.shape)
    L = ",".join(f"{x:.17g}" for x in grid.lengths)
    with open(path, "w") as f:
        f.write(f"{_FIELD_MAGIC} dim={grid.dim} n={n} L={L}\n")
        f.write("".join(f"{v:.17g}\n" for v in values.tolist()))


def write_csv(path, header, rows):
    """Write a CSV file: the ``header`` row, then one line per entry of
    ``rows``.  Floats are written with 17 significant digits, which
    round-trips them exactly, and every other value with ``str``."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        writer.writerows([f"{v:.17g}" if isinstance(v, float) else str(v)
                          for v in row] for row in rows)


def load_field(path, grid):
    """Read a snapshot file and check it against ``grid``: the header must
    name the grid's dimension, node counts and lengths, and the file must
    hold one finite value per node."""
    with open(path) as f:
        first = f.readline().rstrip("\n")
        if not first.startswith(_FIELD_MAGIC):
            raise ValueError(f"{path}: not a field snapshot file")
        header = {}
        for token in first[len(_FIELD_MAGIC):].split():
            key, _, val = token.partition("=")
            header[key] = val
        try:
            meta = {
                "dim": int(header["dim"]),
                "shape": tuple(int(s) for s in header["n"].split(",")),
                "lengths": tuple(float(s) for s in header["L"].split(",")),
            }
        except (KeyError, ValueError) as exc:
            raise ValueError(f"{path}: malformed snapshot header") from exc
        # one string per line, so a line holding two numbers fails to parse
        values = np.array([line for line in f if line.strip()], dtype=float)
    expected = int(np.prod(meta["shape"]))
    if values.size != expected:
        raise ValueError(
            f"{path}: {values.size} values, header promises {expected}")
    if (meta["dim"] != grid.dim or meta["shape"] != grid.shape
            or not np.allclose(meta["lengths"], grid.lengths)):
        raise ValueError(
            f"{path}: snapshot grid {meta} does not match "
            f"dim={grid.dim} n={grid.shape} L={grid.lengths}")
    return grid.check_field(values)
