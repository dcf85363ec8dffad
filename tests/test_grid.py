import numpy as np
import pytest

from conftest import (_oracle_basis_gradients, oracle_mass_matrix,
                      oracle_stiffness_matrix, oracle_weighted_stiffness)

from anisoflow import (ControlProblem, DoubleWell, FinalTimeTarget,
                       MatrixFamilyAnisotropy, TimePartition,
                       adjoint_solve, assemble_flux_divergence, build_grid,
                       dual_norm, element_gradients, load_field,
                       norms, solve_state, step, write_field)


# -- construction -------------------------------------------------------------

def test_build_1d_counts():
    g = build_grid(1, [5], [1.0])
    assert g.n_nodes == 5
    assert g.n_elements == 4
    assert g.spacing == (0.25,)
    assert np.allclose(g.nodes[:, 0], [0.0, 0.25, 0.5, 0.75, 1.0])


def test_build_2d_counts():
    g = build_grid(2, [3, 3], [1.0, 1.0])
    assert g.n_nodes == 9
    assert g.n_elements == 8
    assert np.all(g.measures > 0)
    # every node belongs to at least one element
    assert set(g.elements.ravel()) == set(range(9))


@pytest.mark.parametrize("args", [
    (1, [1], [1.0]),           # too few nodes
    (1, [5], [-1.0]),          # nonpositive length
    (3, [3, 3, 3], [1.0] * 3), # unsupported dimension
    (2, [3], [1.0, 1.0]),      # axis count mismatch
])
def test_build_rejects_invalid(args):
    with pytest.raises(ValueError):
        build_grid(*args)


@pytest.mark.parametrize("nodes", [[3.7], [5, 4.5], [float("nan")]])
def test_build_rejects_non_integer_node_counts(nodes):
    # int() used to truncate 3.7 nodes to a 3-node grid without a word
    with pytest.raises(ValueError, match=r"node counts must be integers, got"):
        build_grid(len(nodes), nodes, [1.0] * len(nodes))
    assert build_grid(1, [3.0], [1.0]).shape == (3,)


def test_node_ordering_is_x_fastest():
    g = build_grid(2, [3, 2], [2.0, 1.0])
    # node 1 is the x-neighbor of node 0, node 3 starts the second row
    assert np.allclose(g.nodes[1], [1.0, 0.0])
    assert np.allclose(g.nodes[3], [0.0, 1.0])


@pytest.mark.parametrize("dim,nodes,lengths", [
    (1, [7], [1.3]),
    (2, [4, 5], [1.0, 2.0]),
    (2, [6, 3], [0.7, 0.3]),
])
def test_every_element_has_its_shapes_geometry(dim, nodes, lengths):
    g = build_grid(dim, nodes, lengths)
    assert g.basis_gradients.shape == (g.n_shapes, dim + 1, dim)
    for e, conn in enumerate(g.elements):
        expected = _oracle_basis_gradients(g, conn)
        got = g.basis_gradients[e % g.n_shapes]
        assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))
        area = abs(np.linalg.det(np.diff(g.nodes[conn], axis=0)[:, :dim]))
        if dim == 2:
            area /= 2.0
        assert abs(g.measures[e] - area) <= 1e-12 * area


# -- lumped mass --------------------------------------------------------------

def test_lumped_mass_1d_five_nodes():
    g = build_grid(1, [5], [1.0])
    assert np.allclose(g.weights, [0.125, 0.25, 0.25, 0.25, 0.125])


@pytest.mark.parametrize("dim,nodes,lengths", [
    (1, [5], [1.0]),
    (1, [17], [2.5]),
    (2, [3, 3], [1.0, 1.0]),
    (2, [5, 4], [2.0, 3.0]),
])
def test_lumped_mass_is_mass_row_sum(dim, nodes, lengths):
    g = build_grid(dim, nodes, lengths)
    row_sums = oracle_mass_matrix(g).sum(axis=1)
    assert np.allclose(g.weights, row_sums, rtol=1e-12, atol=1e-14)
    volume = np.prod(lengths)
    assert abs(g.weights.sum() - volume) <= 1e-12 * volume
    assert np.all(g.weights > 0)


# -- element gradients --------------------------------------------------------

def test_gradients_vanish_on_constants():
    g = build_grid(2, [4, 5], [1.0, 2.0])
    assert np.allclose(element_gradients(g, np.full(g.n_nodes, 3.7)), 0.0)


def test_gradients_exact_on_coordinates():
    g = build_grid(1, [9], [2.0])
    grads = element_gradients(g, g.nodes[:, 0])
    assert np.allclose(grads, 1.0, rtol=0, atol=1e-13)


def test_gradients_exact_on_affine_2d():
    g = build_grid(2, [6, 4], [1.5, 1.0])
    field = 2.0 * g.nodes[:, 0] + 3.0 * g.nodes[:, 1]
    grads = element_gradients(g, field)
    assert np.allclose(grads, [2.0, 3.0], rtol=0, atol=1e-12)


# -- flux divergence assembly -------------------------------------------------

def test_flux_divergence_zero_flux():
    g = build_grid(2, [4, 4], [1.0, 1.0])
    out = assemble_flux_divergence(g, np.zeros((g.n_elements, 2)))
    assert np.allclose(out, 0.0)


def test_flux_divergence_rows_sum_to_zero():
    g = build_grid(2, [5, 5], [1.0, 2.0])
    rng = np.random.default_rng(0)
    q = rng.standard_normal((g.n_elements, 2))
    assert abs(assemble_flux_divergence(g, q).sum()) <= 1e-12


@pytest.mark.parametrize("dim,nodes,lengths", [
    (1, [7], [1.0]),
    (2, [4, 5], [1.0, 2.0]),
])
def test_identity_flux_equals_stiffness_action(dim, nodes, lengths):
    g = build_grid(dim, nodes, lengths)
    rng = np.random.default_rng(1)
    y = rng.standard_normal(g.n_nodes)
    via_flux = assemble_flux_divergence(g, element_gradients(g, y))
    via_matrix = oracle_stiffness_matrix(g) @ y
    assert np.max(np.abs(via_flux - via_matrix)) <= 1e-12 * max(
        1.0, np.max(np.abs(via_matrix)))


@pytest.mark.parametrize("dim,nodes,lengths", [
    (1, [7], [1.3]),
    (2, [4, 5], [1.0, 2.0]),
])
def test_weighted_stiffness_matches_element_loop(dim, nodes, lengths):
    g = build_grid(dim, nodes, lengths)
    rng = np.random.default_rng(2)
    # non-symmetric tensors: a transposed block would change K
    tensors = rng.standard_normal((g.n_elements, dim, dim))
    oracle = oracle_weighted_stiffness(g, tensors)
    if dim == 2:
        assert np.max(np.abs(oracle - oracle.T)) > 1e-2 * np.max(np.abs(oracle))
    assembled = g.assemble_weighted_stiffness(tensors).toarray()
    assert np.max(np.abs(assembled - oracle)) <= 1e-12 * np.max(np.abs(oracle))
    identity = np.broadcast_to(np.eye(dim), tensors.shape)
    assert np.allclose(g.assemble_weighted_stiffness(None).toarray(),
                       oracle_weighted_stiffness(g, identity),
                       rtol=0, atol=1e-12 * np.max(np.abs(oracle)))


@pytest.mark.parametrize("dim,nodes,lengths", [
    (1, [7], [1.3]),
    (2, [4, 5], [1.0, 2.0]),
    (2, [5, 4], [1.0, 2.0]),
])
def test_weighted_stiffness_adds_the_diagonal(dim, nodes, lengths):
    g = build_grid(dim, nodes, lengths)
    rng = np.random.default_rng(3)
    tensors = rng.standard_normal((g.n_elements, dim, dim))
    diagonal = rng.uniform(0.5, 2.0, g.n_nodes)
    expected = oracle_weighted_stiffness(g, tensors) + np.diag(diagonal)
    assembled = g.assemble_weighted_stiffness(tensors, diagonal).toarray()
    assert np.max(np.abs(assembled - expected)) <= 1e-12 * np.max(np.abs(expected))


@pytest.mark.parametrize("dim,nodes", [(1, [65]), (2, [5, 4])])
def test_isotropic_matrices_from_the_cached_identity_values(dim, nodes):
    g = build_grid(dim, nodes, [1.0] * dim)
    diagonal = np.random.default_rng(5).uniform(0.5, 2.0, g.n_nodes)
    identity = np.broadcast_to(np.eye(dim), (g.n_elements, dim, dim))
    first = g.assemble_weighted_stiffness(None, diagonal)
    # the same arithmetic as the identity passed as explicit tensors
    assert np.array_equal(
        first.data, g.assemble_weighted_stiffness(identity, diagonal).data)
    expected = oracle_weighted_stiffness(g, identity) + np.diag(diagonal)
    assert np.max(np.abs(first.toarray() - expected)) <= (
        1e-12 * np.max(np.abs(expected)))
    second = g.assemble_weighted_stiffness(None, diagonal)
    assert not np.shares_memory(first.data, second.data)
    # editing K in place leaves later assemblies alone
    g.stiffness_matrix().data[:] = np.nan
    assert np.array_equal(g.assemble_weighted_stiffness(None, diagonal).data,
                          first.data)


@pytest.mark.parametrize("dim,nodes", [(1, [9]), (2, [5, 4])])
def test_constant_tensor_fills_once_per_value(dim, nodes):
    g = build_grid(dim, nodes, [1.0, 0.7][:dim])
    diagonal = np.random.default_rng(6).uniform(0.5, 2.0, g.n_nodes)
    tilted = np.array([[1.0, 0.3], [0.3, 0.2]])[:dim, :dim]
    stretched = np.diag([0.04, 1.0])[:dim, :dim]
    # one grid, two constants in turn: each call gives its own matrix
    for tensor in (tilted, stretched, tilted, stretched):
        per_element = np.broadcast_to(tensor, (g.n_elements, dim, dim)).copy()
        got = g.assemble_weighted_stiffness(tensor, diagonal)
        # the same arithmetic as the tensor given per element
        assert np.array_equal(
            got.data, g.assemble_weighted_stiffness(per_element, diagonal).data)
        expected = oracle_weighted_stiffness(g, per_element) + np.diag(diagonal)
        assert np.max(np.abs(got.toarray() - expected)) <= (
            1e-12 * np.max(np.abs(expected)))
        # editing a matrix in place leaves the stored values alone
        got.data[:] = np.nan
    assert not np.array_equal(
        g.assemble_weighted_stiffness(tilted).data,
        g.assemble_weighted_stiffness(stretched).data)


def test_stiffness_matrix_is_owned_by_the_caller():
    g = build_grid(1, [5], [1.0])
    g.stiffness_matrix().data[:] = 0.0
    identity = np.broadcast_to(np.eye(1), (g.n_elements, 1, 1))
    assert np.max(np.abs(g.stiffness_matrix().toarray()
                         - oracle_weighted_stiffness(g, identity))) <= 1e-12


def test_matrices_share_the_pattern_not_the_values():
    g = build_grid(2, [4, 5], [1.0, 2.0])
    tensors = np.random.default_rng(4).standard_normal((g.n_elements, 2, 2))
    first = g.assemble_weighted_stiffness(tensors)
    second = g.assemble_weighted_stiffness(tensors, g.weights)
    assert not np.shares_memory(first.data, second.data)
    assert first.indices is second.indices
    indptr, indices = g.sparsity_pattern()[:2]
    assert np.shares_memory(first.indices, indices)
    assert np.shares_memory(first.indptr, indptr)


def test_pattern_is_read_only_and_survives_solves():
    g = build_grid(2, [17, 17], [1.0, 1.0])
    pattern = g.sparsity_pattern()
    saved = [a.copy() for a in pattern]
    assert not any(a.flags.writeable for a in pattern)
    fam = MatrixFamilyAnisotropy(
        [np.array([[1.0, 0.3], [0.3, 0.5]]), np.diag([0.04, 1.0])], delta=1e-2)
    dw = DoubleWell()
    rng = np.random.default_rng(5)
    y0, u = rng.uniform(-0.8, 0.8, (2, g.n_nodes))
    y = step(g, fam, dw, y0, u, 0.1)
    prob = ControlProblem(g, TimePartition.uniform(0.2, 2), y0,
                          FinalTimeTarget(y), 1e-2, fam, dw)
    adjoint_solve(prob, solve_state(prob, rng.uniform(-1, 1, (2, g.n_nodes))))
    dual_norm(g, y)
    assert g.sparsity_pattern() is pattern
    for array, copy in zip(pattern, saved):
        assert np.array_equal(array, copy)


def test_flux_divergence_shape_mismatch():
    g = build_grid(1, [5], [1.0])
    with pytest.raises(ValueError):
        assemble_flux_divergence(g, np.zeros((3, 1)))


# -- norms ---------------------------------------------------------------------

def test_norms_constant_on_unit_domain():
    g = build_grid(2, [5, 5], [1.0, 1.0])
    n = norms(g, np.full(g.n_nodes, -2.0))
    assert abs(n.l2 - 2.0) <= 1e-12
    assert n.h1_semi <= 1e-12


def test_norms_zero_field():
    g = build_grid(1, [5], [1.0])
    assert norms(g, np.zeros(5)) == (0.0, 0.0)


def test_l2_of_linear_profile_matches_integral():
    # lumped quadrature of x^2 on (0,1) vs the exact integral 1/3
    g = build_grid(1, [1025], [1.0])
    n = norms(g, g.nodes[:, 0])
    assert abs(n.l2 - 1.0 / np.sqrt(3.0)) <= 1e-3
    assert abs(n.h1_semi - 1.0) <= 1e-12


# -- dual norm ----------------------------------------------------------------

@pytest.mark.parametrize("dim,nodes,lengths", [
    (1, [33], [1.0]),
    (2, [7, 7], [1.0, 2.0]),
])
def test_dual_norm_of_constant(dim, nodes, lengths):
    g = build_grid(dim, nodes, lengths)
    c = 1.7
    expected = c * np.sqrt(np.prod(lengths))
    assert abs(dual_norm(g, np.full(g.n_nodes, c)) - expected) <= 1e-9


def test_dual_norm_zero():
    g = build_grid(1, [9], [1.0])
    assert dual_norm(g, np.zeros(9)) == 0.0


def test_dual_norm_bounded_by_l2():
    g = build_grid(1, [65], [1.0])
    rng = np.random.default_rng(7)
    for _ in range(100):
        f = rng.standard_normal(g.n_nodes)
        assert dual_norm(g, f) <= norms(g, f).l2 * (1.0 + 1e-10)


# -- snapshot files -----------------------------------------------------------

def test_field_roundtrip_bit_exact(tmp_path):
    g = build_grid(2, [4, 3], [1.0, 2.0])
    rng = np.random.default_rng(11)
    values = rng.standard_normal(g.n_nodes) * 1e3
    path = tmp_path / "field.txt"
    write_field(path, g, values)
    assert path.read_text().startswith(
        "# anisoflow-field v1 dim=2 n=4,3 L=1,2\n")
    assert np.array_equal(load_field(path, g), values)


def test_field_file_bytes_and_extreme_values(tmp_path):
    g = build_grid(1, [9], [1.0])
    tiny = np.nextafter(0.0, 1.0)
    values = np.array([0.0, -0.0, tiny, -tiny, 2.2250738585072014e-308,
                       1e308, -1e308, 1.0 / 3.0, -123456.789])
    path = tmp_path / "field.txt"
    write_field(path, g, values)
    # the reference format, built value by value
    golden = "# anisoflow-field v1 dim=1 n=9 L=1\n"
    for v in values:
        golden += f"{v:.17g}\n"
    assert path.read_bytes() == golden.encode()
    back = load_field(path, g)
    assert np.array_equal(back.view(np.uint64), values.view(np.uint64))


def test_read_field_rejects_malformed_values(tmp_path):
    g = build_grid(1, [3], [1.0])
    header = "# anisoflow-field v1 dim=1 n=3 L=1\n"
    two = tmp_path / "two.txt"
    two.write_text(header + "0.5\n1 2\n0.25\n")
    with pytest.raises(ValueError, match="could not convert"):
        load_field(two, g)
    short = tmp_path / "short.txt"
    short.write_text(header + "0.5\n\n0.25\n")
    with pytest.raises(ValueError, match="2 values, header promises 3"):
        load_field(short, g)


def test_field_header_checked(tmp_path):
    g = build_grid(1, [5], [1.0])
    other = build_grid(1, [7], [1.0])
    path = tmp_path / "field.txt"
    write_field(path, g, np.zeros(5))
    with pytest.raises(ValueError):
        load_field(path, other)
    bad = tmp_path / "bad.txt"
    bad.write_text("not a snapshot\n1.0\n")
    with pytest.raises(ValueError):
        load_field(bad, g)


def test_field_header_without_node_counts_is_malformed(tmp_path):
    g = build_grid(1, [3], [1.0])
    path = tmp_path / "field.txt"
    path.write_text("# anisoflow-field v1 dim=1 L=1\n0.5\n1\n0.25\n")
    with pytest.raises(ValueError, match="malformed snapshot header"):
        load_field(path, g)


def test_write_rejects_bad_fields(tmp_path):
    g = build_grid(1, [5], [1.0])
    with pytest.raises(ValueError):
        write_field(tmp_path / "x.txt", g, np.zeros(4))
    with pytest.raises(ValueError):
        write_field(tmp_path / "x.txt", g, np.array([0, 1, np.nan, 0, 0.0]))
