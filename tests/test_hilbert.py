import pickle

import numpy as np
import pytest
from pytest import approx

from dense_oracle import annihilation, basis_state, number_electron, parity, transition
from electrolum import build_system, pipeline
from electrolum.hilbert import ELECTRONIC_LABELS, ModelSpace, SystemParams


class TestModelSpace:
    def test_dimensions(self):
        assert ModelSpace(1).dim == 6
        assert ModelSpace(8).dim == 27

    def test_rejects_no_photon_level(self):
        with pytest.raises(ValueError):
            ModelSpace(0)

    def test_index_round_trip(self):
        space = ModelSpace(4)
        seen = set()
        for label in ELECTRONIC_LABELS:
            for n in range(space.n_photon):
                k = space.index(label, n)
                assert divmod(k, space.n_photon) == (ELECTRONIC_LABELS.index(label), n)
                seen.add(k)
        assert seen == set(range(space.dim))

    def test_index_bounds(self):
        space = ModelSpace(2)
        with pytest.raises(ValueError):
            space.index("q", 0)
        with pytest.raises(ValueError):
            space.index("g", 3)

    def test_chain_sites_partition_the_occupied_states(self):
        # site k of chain p holds k photons on |g> or |e>, with excitation
        # parity (-1)^(k + [e]) = (-1)^p; the chains cover every |g,n>, |e,n>
        space = ModelSpace(5)
        sites = []
        for p in (0, 1):
            for k, flat in enumerate(space.chain_sites(p)):
                el, n = divmod(int(flat), space.n_photon)
                label = ELECTRONIC_LABELS[el]
                assert label in ("g", "e") and n == k
                assert (n + (label == "e")) % 2 == p
                sites.append(int(flat))
        assert sorted(sites) == [space.index(label, n) for label in ("g", "e")
                                 for n in range(space.n_photon)]


class TestOperators:
    def test_annihilation_ladder(self):
        space = ModelSpace(3)
        a = annihilation(space)
        bra = basis_state(space, "g", 0)
        ket = basis_state(space, "g", 1)
        assert bra.conj() @ a @ ket == approx(1.0)
        assert basis_state(space, "e", 1).conj() @ a @ basis_state(space, "e", 2) \
            == approx(np.sqrt(2))
        for label in ELECTRONIC_LABELS:
            assert np.linalg.norm(a @ basis_state(space, label, 0)) == approx(0.0)

    def test_commutator_below_cutoff(self):
        space = ModelSpace(5)
        a = annihilation(space)
        comm = a @ a.conj().T - a.conj().T @ a
        for label in ELECTRONIC_LABELS:
            for n in range(space.n_max):  # top Fock row excluded
                v = basis_state(space, label, n)
                assert v.conj() @ comm @ v == approx(1.0)

    def test_transition_action(self):
        space = ModelSpace(4)
        t_ge = transition(space, "g", "e")
        assert np.allclose(t_ge @ basis_state(space, "g", 3), basis_state(space, "e", 3))
        assert np.linalg.norm(t_ge @ basis_state(space, "s", 2)) == approx(0.0)

    def test_transition_projector_trace(self):
        space = ModelSpace(4)
        proj = transition(space, "e", "e")
        assert np.trace(proj) == approx(space.n_max + 1)
        assert np.allclose(proj @ proj, proj)

    def test_unknown_label_rejected(self):
        with pytest.raises(ValueError):
            transition(ModelSpace(2), "g", "x")

    def test_electron_number(self):
        space = ModelSpace(3)
        n_el = number_electron(space)
        assert basis_state(space, "s", 2).conj() @ n_el @ basis_state(space, "s", 2) \
            == approx(0.0)
        assert basis_state(space, "e", 0).conj() @ n_el @ basis_state(space, "e", 0) \
            == approx(1.0)
        assert np.trace(n_el) == approx(2 * (space.n_max + 1))

    def test_parity_diagonal_values(self):
        space = ModelSpace(2)
        pi = parity(space)
        assert basis_state(space, "g", 1).conj() @ pi @ basis_state(space, "g", 1) \
            == approx(-1.0)
        assert basis_state(space, "e", 1).conj() @ pi @ basis_state(space, "e", 1) \
            == approx(1.0)


class TestSystemParams:
    def test_eta_is_the_only_coupling_name(self):
        assert SystemParams(eta=0.1).eta == 0.1
        assert SystemParams(0.1) == SystemParams(eta=0.1)
        with pytest.raises(TypeError, match="rabi"):
            SystemParams(rabi=0.1)
        assert not hasattr(SystemParams, "from_eta")

    @pytest.mark.parametrize("field", ["eta", "omega_e", "omega_s",
                                       "gamma_in", "gamma_out", "gamma_cav"])
    def test_negative_rates_rejected(self, field):
        kwargs = {"eta": 0.1, field: -1.0}
        with pytest.raises(ValueError, match=field):
            SystemParams(**kwargs)

    def test_negative_mu_allowed(self):
        # the dressed ground energy is negative, so the bias must be
        # allowed to follow it
        assert SystemParams(eta=0.1, mu=-0.05).mu == approx(-0.05)

    def test_fields_cannot_be_assigned(self):
        params = SystemParams(eta=0.1)
        with pytest.raises(AttributeError):
            params.eta = 0.2
        with pytest.raises(AttributeError):
            params.extra = 1.0
        assert params.eta == 0.1

    def test_replaced_copy_is_checked(self):
        params = SystemParams(eta=0.1)
        assert params._replace(mu=-0.05) == SystemParams(eta=0.1, mu=-0.05)
        assert type(params._replace(mu=-0.05)) is SystemParams
        with pytest.raises(ValueError, match="gamma_cav"):
            params._replace(gamma_cav=-1.0)
        with pytest.raises(ValueError, match="mu"):
            params._replace(mu=float("nan"))

    def test_build_system_checks_the_resolved_mu(self, monkeypatch):
        monkeypatch.setattr(pipeline, "resolve_mu", lambda *args, **kwargs: float("inf"))
        with pytest.raises(ValueError, match="mu must be finite"):
            build_system(SystemParams(eta=0.1), n_max=2, mu_mode="omega_G")

    def test_pickle_round_trip(self):
        params = SystemParams(eta=0.3, gamma_cav=1e-3, mu=-0.02)
        copy = pickle.loads(pickle.dumps(params))
        assert copy == params and type(copy) is SystemParams
        assert pickle.loads(pickle.dumps(ModelSpace(4))) == ModelSpace(4)
