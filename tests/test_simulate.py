import numpy as np
import pytest

import greymatch as gm
from greymatch import simulate


def scenario(sim_system, **overrides):
    a_true, eta_true = sim_system
    defaults = dict(a_matrix=a_true, initial_state=eta_true, snr=5.0,
                    replications=4, seed=4)
    defaults.update(overrides)
    return gm.SimulationScenario(**defaults)


class TestScenario:
    def test_sample_count(self, sim_system):
        sc = scenario(sim_system, step=0.25)
        assert sc.n == 21
        assert len(sc.times()) == 31

    def test_step_must_divide_span(self, sim_system):
        with pytest.raises(ValueError):
            scenario(sim_system, step=0.3)

    def test_textbook_sigma_convention(self, sim_system):
        # with exponent 1/2 and unit variance, snr=4 gives sigma = 0.5
        sc = scenario(sim_system, snr=4.0, noise_exponent=0.5, noise_scale=1.0)
        clean = np.array([[0.0, 0.0], [np.sqrt(2.0), np.sqrt(2.0)]])
        assert np.allclose(simulate.noise_sigmas(sc, clean), [0.5, 0.5])


class TestGenerateTrajectory:
    def test_zero_noise_scale_reproduces_clean(self, sim_system):
        sc = scenario(sim_system, noise_scale=0.0)
        clean, noisy = gm.generate_trajectory(sc)
        assert np.array_equal(noisy.values, clean.values[:sc.n])

    def test_out_of_sample_is_noise_free_by_construction(self, sim_system):
        sc = scenario(sim_system)
        clean, noisy = gm.generate_trajectory(sc)
        assert clean.n == sc.n + sc.horizon
        assert noisy.n == sc.n
        clean2, _ = gm.generate_trajectory(sc, replication=1)
        assert np.array_equal(clean.values, clean2.values)

    def test_noise_scaling_shares_unit_normals(self, sim_system):
        # exponent 1/2: doubling snr scales the injected noise by 1/sqrt(2)
        sc1 = scenario(sim_system, snr=2.0, noise_exponent=0.5)
        sc2 = scenario(sim_system, snr=4.0, noise_exponent=0.5)
        clean, noisy1 = gm.generate_trajectory(sc1, replication=3)
        _, noisy2 = gm.generate_trajectory(sc2, replication=3)
        e1 = noisy1.values - clean.values[:sc1.n]
        e2 = noisy2.values - clean.values[:sc2.n]
        assert np.allclose(e2, e1 / np.sqrt(2.0), rtol=1e-12, atol=1e-15)

    def test_replications_use_distinct_streams(self, sim_system):
        sc = scenario(sim_system)
        _, noisy0 = gm.generate_trajectory(sc, replication=0)
        _, noisy1 = gm.generate_trajectory(sc, replication=1)
        assert not np.array_equal(noisy0.values, noisy1.values)


class TestRunMonteCarlo:
    def test_noiseless_single_replication(self, sim_system):
        a_true, eta_true = sim_system
        sc = scenario(sim_system, replications=1, step=0.05, noise_scale=0.0)
        summary = gm.run_monte_carlo(sc)
        assert summary.failure_count == 0
        assert np.abs(summary.parameter_means["matching_A"].reshape(2, 2)
                      - a_true).max() < 1e-2
        assert np.abs(summary.parameter_means["matching_eta"] - eta_true).max() < 1e-2
        assert summary.quartiles["matching_fit"][2].max() < 0.5
        assert summary.quartiles["matching_step10"][2].max() < 0.5

    def test_deterministic_across_runs(self, sim_system):
        sc = scenario(sim_system, replications=6)
        s1 = gm.run_monte_carlo(sc)
        s2 = gm.run_monte_carlo(sc)
        for key, arr in s1.per_replication.items():
            assert np.array_equal(arr, s2.per_replication[key]), key

    def test_replications_fit_the_series_generate_trajectory_draws(self, sim_system):
        sc = scenario(sim_system, replications=3)
        summary = gm.run_monte_carlo(sc)
        for k in range(sc.replications):
            _, noisy = gm.generate_trajectory(sc, replication=k)
            model = gm.fit_matching(noisy, sc.forcing, sc.include_constant)
            assert np.array_equal(summary.per_replication["matching_A"][k],
                                  model.A.reshape(-1))

    def test_structural_estimates_identical_per_replication(self, sim_system):
        sc = scenario(sim_system, replications=10)
        summary = gm.run_monte_carlo(sc)
        assert summary.max_structural_gap < 1e-9

    def test_failures_counted_and_excluded(self):
        # constant two-component trajectories make the grey design singular
        sc = gm.SimulationScenario(a_matrix=np.zeros((2, 2)),
                                   initial_state=np.array([1.0, 1.0]),
                                   snr=5.0, replications=3, seed=0,
                                   noise_scale=0.0)
        summary = gm.run_monte_carlo(sc)
        assert summary.failure_count == 3
        assert summary.completed == 0

    def test_horizon_bound_enforced(self, sim_system):
        sc = scenario(sim_system, horizon=5)
        with pytest.raises(ValueError):
            gm.run_monte_carlo(sc, horizons=(10,))

    def test_tidy_rows_shape(self, sim_system):
        sc = scenario(sim_system, replications=3)
        summary = gm.run_monte_carlo(sc, horizons=(2,))
        rows = simulate.tidy_rows(summary)
        # 3 reps x 2 components x (A:4-wide counts once per entry...) just
        # check invariants: every row well-formed, replication ids complete
        assert {r["replication"] for r in rows} == {0, 1, 2}
        assert {r["estimator"] for r in rows} == {"grey", "matching"}
        keys = {(r["estimator"], r["metric"]) for r in rows}
        assert ("matching", "step2") in keys
        assert all(np.isfinite(r["value"]) for r in rows)

    def test_summary_dict_is_json_ready(self, sim_system):
        import json

        sc = scenario(sim_system, replications=2)
        payload = simulate.summary_to_dict(gm.run_monte_carlo(sc))
        json.dumps(payload)
        assert payload["completed"] == 2
