import numpy as np
import pytest

from diagsim import PauliTerm, gen_benchmark, pauli_to_diagmatrix, to_dense
from diagsim.errors import DomainError
from diagsim.hamiltonians import heisenberg_chain, maxcut_ising, term, tfim_chain

from conftest import same_bits
from pauli_oracle import pauli_oracle

I2 = np.eye(2, dtype=complex)
PAULI = {
    "I": I2,
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def kron_oracle(terms, n):
    """Dense Kronecker-product reference, qubit 0 least significant."""
    acc = np.zeros((2 ** n, 2 ** n), dtype=complex)
    for t in terms:
        mat = np.array([[1]], dtype=complex)
        for q in reversed(range(n)):
            mat = np.kron(mat, PAULI[t.axes[q]])
        acc += t.coefficient * mat
    return acc


class TestPauliToDiagMatrix:
    def test_single_z(self):
        m = pauli_to_diagmatrix([PauliTerm(1.0, ("Z",))], 1)
        assert m.offsets == (0,)
        assert np.array_equal(m.values, [1, -1])

    def test_single_x(self):
        m = pauli_to_diagmatrix([PauliTerm(1.0, ("X",))], 1)
        assert m.offsets == (-1, 1)
        assert np.array_equal(m.values, [1, 1])

    def test_x_on_qubit_k_offsets(self):
        for n in range(1, 7):
            for k in range(n):
                t = term(1.0, n, **{f"q{k}": "X"})
                m = pauli_to_diagmatrix([t], n)
                assert m.offsets == (-(2 ** k), 2 ** k)
                assert np.array_equal(to_dense(m), kron_oracle([t], n))

    def test_random_terms_match_kron_oracle(self):
        rng = np.random.default_rng(67)
        axes = np.array(list("IXYZ"))
        for _ in range(30):
            n = int(rng.integers(1, 6))
            terms = [
                PauliTerm(complex(rng.standard_normal(), rng.standard_normal()),
                          tuple(rng.choice(axes, size=n)))
                for _ in range(int(rng.integers(1, 5)))
            ]
            m = pauli_to_diagmatrix(terms, n)
            assert np.allclose(to_dense(m), kron_oracle(terms, n), atol=1e-12)

    def test_hermitian_for_real_coefficients(self):
        rng = np.random.default_rng(71)
        axes = np.array(list("IXYZ"))
        for _ in range(20):
            n = int(rng.integers(1, 6))
            terms = []
            for _ in range(int(rng.integers(1, 5))):
                ax = tuple(rng.choice(axes, size=n))
                terms.append(PauliTerm(float(rng.standard_normal()), ax))
            m = pauli_to_diagmatrix(terms, n)
            assert m.offsets == tuple(-d for d in reversed(m.offsets))
            dense = to_dense(m)
            assert np.allclose(dense, dense.conj().T)

    def test_qubit_cap(self):
        with pytest.raises(DomainError):
            pauli_to_diagmatrix([PauliTerm(1.0, tuple("I" * 17))], 17)

    def test_axis_count_mismatch(self):
        with pytest.raises(DomainError):
            pauli_to_diagmatrix([PauliTerm(1.0, ("Z",))], 2)


MODELS = {
    "heisenberg": lambda n: heisenberg_chain(n),
    "heisenberg-anisotropic": lambda n: heisenberg_chain(n, jx=0.7, jy=-1.3, jz=0.0),
    "tfim": lambda n: tfim_chain(n),
    "tfim-field": lambda n: tfim_chain(n, g=-0.35),
    "maxcut": lambda n: maxcut_ising(n),
    "maxcut-seeded": lambda n: maxcut_ising(n, seed=n),
}


@pytest.mark.parametrize("model", MODELS)
def test_models_match_term_by_term_oracle_bit_for_bit(model):
    for n in range(2 if model.startswith("maxcut") else 1, 17):
        terms = MODELS[model](n)
        assert same_bits(pauli_to_diagmatrix(terms, n), pauli_oracle(terms, n)), n


def test_random_terms_match_term_by_term_oracle_bit_for_bit():
    # few distinct axis strings, so masks repeat and terms cancel; signed-zero
    # and complex coefficients check that each position sums from +0.0 in term order
    rng = np.random.default_rng(11)
    coefficients = [0.0, -0.0, complex(-0.0, 1.5), complex(2.0, -0.0), complex(-0.0, -0.0),
                    -1.0, 1.0, 0.25 - 3j]
    for _ in range(300):
        n = int(rng.integers(1, 7))
        pool = [tuple(rng.choice(list("IXYZ"), size=n)) for _ in range(3)]
        terms = [PauliTerm(coefficients[rng.integers(len(coefficients))]
                           if rng.random() < 0.6 else complex(*rng.standard_normal(2)),
                           pool[rng.integers(len(pool))])
                 for _ in range(int(rng.integers(0, 9)))]
        assert same_bits(pauli_to_diagmatrix(terms, n), pauli_oracle(terms, n)), terms


class TestChainModels:
    def test_heisenberg_reference_counts(self):
        m = gen_benchmark("heisenberg", 10)
        assert m.dim == 1024
        assert m.nnzd == 19
        assert m.nnze == 5632

    def test_heisenberg_small_vs_oracle(self):
        for n in (2, 3, 4):
            m = gen_benchmark("heisenberg", n)
            assert np.allclose(to_dense(m), kron_oracle(heisenberg_chain(n), n))

    def test_crossed_xx_yy_diagonals_cancel(self):
        # XX and YY on one bond cancel on the distant pair of diagonals,
        # leaving only the nearest-neighbor hop offsets
        m = pauli_to_diagmatrix(heisenberg_chain(2, jz=0.0), 2)
        assert m.offsets == (-1, 1)

    def test_tfim_reference_counts(self):
        m = gen_benchmark("tfim", 8)
        assert m.dim == 256
        assert m.nnzd == 17
        m10 = gen_benchmark("tfim", 10)
        assert m10.nnzd == 21

    def test_tfim_small_vs_oracle(self):
        m = gen_benchmark("tfim", 3, g=0.7)
        assert np.allclose(to_dense(m), kron_oracle(tfim_chain(3, g=0.7), 3))

    def test_maxcut_is_single_diagonal(self):
        m = gen_benchmark("maxcut", 10)
        assert m.dim == 1024
        assert m.offsets == (0,)
        assert m.storage_scalars == 1024

    def test_maxcut_counts_cut_edges(self):
        m = gen_benchmark("maxcut", 3)
        assert m.offsets == (0,)
        vals = m.values
        # ring of 3: any non-uniform assignment cuts exactly 2 edges
        assert vals[0] == 0 and vals[7] == 0
        assert all(v == 2 for v in vals[1:7])

    def test_maxcut_random_graph_seeded(self):
        m1 = gen_benchmark("maxcut", 6, seed=5)
        m2 = gen_benchmark("maxcut", 6, seed=5)
        assert m1.offsets == m2.offsets == (0,)
        assert np.array_equal(m1.values, m2.values)

    def test_unknown_model(self):
        with pytest.raises(DomainError):
            gen_benchmark("ising-3d", 4)

    def test_maxcut_two_qubits_cut_their_one_edge(self):
        dm = pauli_to_diagmatrix(maxcut_ising(2), 2)
        assert dm.offsets == (0,)
        assert np.array_equal(dm.values, [0, 1, 1, 0])
