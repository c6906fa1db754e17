import dataclasses
import json
import tracemalloc

import numpy as np
import pytest

import greymatch as gm
from greymatch import cli, repro, simulate
from greymatch.errors import OverflowGuardError, ZeroValueError


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

    @pytest.mark.parametrize("seed", [-1, 2.5, True, "4"])
    def test_seed_must_be_a_non_negative_integer(self, sim_system, seed):
        with pytest.raises(ValueError, match="seed"):
            scenario(sim_system, seed=seed)

    def test_numpy_integer_seed_is_a_python_int(self, sim_system):
        sc = scenario(sim_system, seed=np.int64(4), replications=1)
        assert type(sc.seed) is int
        json.dumps(simulate.summary_to_dict(gm.run_monte_carlo(sc)))

    @pytest.mark.parametrize("field, value", [
        ("a_matrix", -0.25),
        ("a_matrix", np.zeros((0, 0))),
        ("a_matrix", np.zeros((2, 3))),
        ("a_matrix", None),
        ("initial_state", 1.2),
        ("initial_state", [1.0, 2.0, 3.0]),
        ("initial_state", None),
        ("b_matrix", [[1.0]]),
        ("b_matrix", [1.0, 1.0]),
        ("constant", [1.0]),
        ("constant", 1.0),
    ])
    def test_array_shapes_are_checked(self, sim_system, field, value):
        with pytest.raises(ValueError, match=field):
            scenario(sim_system, forcing=gm.PolynomialForcing(1), **{field: value})

    def test_scalar_system_is_refused_before_its_length_is_taken(self):
        with pytest.raises(ValueError, match="a_matrix"):
            gm.SimulationScenario(a_matrix=-0.25, initial_state=1.2, snr=5.0,
                                  replications=2, seed=0)

    def test_well_shaped_arrays_pass(self, sim_system):
        sc = scenario(sim_system, forcing=gm.PolynomialForcing(1),
                      b_matrix=[[1.0], [0.5]], constant=[0.2, 0.1])
        assert sc.b_matrix.shape == (2, 1) and sc.constant.shape == (2,)
        assert scenario(sim_system, b_matrix=np.zeros((2, 0))).d == 2

    @pytest.mark.parametrize("field, value", [
        ("step", 0.0),
        ("step", -0.25),
        ("step", np.nan),
        ("t_span", (5.0, 0.0)),
        ("t_span", (0.0, 0.0)),
        ("t_span", (0.0, np.inf)),
        ("t_span", (np.nan, 5.0)),
        ("snr", 0.0),
        ("snr", np.nan),
        ("snr", np.inf),
        ("noise_exponent", np.nan),
        ("noise_exponent", -np.inf),
        ("noise_scale", -1.1),
        ("noise_scale", np.nan),
        ("noise_scale", np.inf),
        ("horizon", -1),
        ("horizon", 2.5),
        ("horizon", True),
        ("replications", 0),
        ("replications", 2.5),
        ("replications", True),
        ("snr", True),
        ("snr", "5"),
        ("step", True),
        ("noise_scale", False),
        ("t_span", (0.0, "5")),
        ("t_span", 5.0),
        ("a_matrix", [["-0.25", "0.7"], ["0.75", "-0.25"]]),
        ("initial_state", [True, False]),
        ("a_matrix", [[-0.25, True], [0.75, -0.25]]),
        ("a_matrix", [[-0.25, 0.7], [0.75]]),
        ("include_constant", "false"),
        ("include_constant", 0),
        ("forcing", {"kind": "zero"}),
        ("step", 1e-320),
        pytest.param("snr", 10 ** 400, id="snr-10**400"),
        ("snr", 1e200),
        ("snr", 1e-200),
        ("forcing", gm.PolynomialForcing(18)),
    ])
    def test_values_out_of_range_are_named(self, sim_system, field, value):
        with pytest.raises(ValueError, match=f"^{field!r} must be"):
            scenario(sim_system, **{field: value})

    @pytest.mark.parametrize("horizons", [(-1, 0), (2, 0), (2.5,), (True,)])
    def test_requested_horizons_must_be_counts(self, sim_system, horizons):
        with pytest.raises(ValueError, match="^'horizons' must hold integers >= 1"):
            gm.run_monte_carlo(scenario(sim_system, replications=1), horizons)

    @pytest.mark.parametrize("overrides", [
        {"step": 1e-320},
        {"step": 1e-9},
        {"horizon": simulate.MAX_SAMPLES - 20},
        {"horizon": 2 ** 70},
    ])
    def test_sample_count_refused_before_allocating(self, sim_system, overrides):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="^'step' must be"):
                scenario(sim_system, **overrides)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6

    def test_sample_cap_is_inclusive(self, sim_system):
        sc = scenario(sim_system, horizon=simulate.MAX_SAMPLES - 21)
        assert sc.n + sc.horizon == simulate.MAX_SAMPLES

    def test_reals_are_kept_as_python_floats(self, sim_system):
        sc = scenario(sim_system, snr=5, step=np.float64(0.5), t_span=[0, 5],
                      noise_exponent=2, noise_scale=np.int64(1),
                      include_constant=np.bool_(True))
        assert (sc.snr, sc.step, sc.t_span) == (5.0, 0.5, (0.0, 5.0))
        assert {type(v) for v in (sc.snr, sc.step, *sc.t_span, sc.noise_exponent,
                                  sc.noise_scale)} == {float}
        assert sc.include_constant is True

    def test_edge_values_pass(self, sim_system):
        sc = scenario(sim_system, horizon=0, noise_scale=0.0, noise_exponent=-1.0)
        assert len(sc.times()) == sc.n

    def test_step_must_divide_span(self, sim_system):
        with pytest.raises(ValueError):
            scenario(sim_system, step=0.3)

    def test_textbook_sigma_convention(self, sim_system):
        # with exponent 1/2 and unit variance, snr=4 gives sigma = 0.5
        sc = scenario(sim_system, snr=4.0, noise_exponent=0.5, noise_scale=1.0)
        clean = np.array([[0.0, 0.0], [np.sqrt(2.0), np.sqrt(2.0)]])
        assert np.allclose(simulate.noise_sigmas(sc, clean), [0.5, 0.5])

    def test_sigma_that_overflows_is_refused(self, sim_system):
        # the spread of values near 1e300 overflows, and is refused by name
        clean = np.array([[1e300, 1.0], [-1e300, 2.0], [1e300, 3.0]])
        with pytest.raises(OverflowGuardError, match="noise standard deviations"):
            simulate.noise_sigmas(scenario(sim_system), clean)


class TestUndefinedPercentageErrors:
    # 1 / 5e-308 is finite, but an error of 0.1 against it overflows
    @pytest.mark.parametrize("state", [[0.0, 0.35], [1.2, 5e-324], [1.2, 5e-308]])
    def test_clean_value_without_a_finite_reciprocal_is_refused(self, sim_system, state):
        with pytest.raises(ZeroValueError, match="percentage errors"):
            gm.run_monte_carlo(scenario(sim_system, initial_state=state))


class TestScenarioFromConfig:
    def test_file_keys_and_defaults(self, sim_system):
        a_true, eta_true = sim_system
        sc = simulate.scenario_from_config({
            "A": a_true.tolist(), "initial_state": eta_true.tolist(), "snr": 5,
            "B": [[1.0], [0.5]], "forcing": {"kind": "polynomial", "degree": 1},
            "unknown": "ignored"})
        want = gm.SimulationScenario(
            a_true, eta_true, 5.0, 200, 0, forcing=gm.PolynomialForcing(1),
            b_matrix=np.array([[1.0], [0.5]]))
        for item in dataclasses.fields(sc):
            got, expected = getattr(sc, item.name), getattr(want, item.name)
            assert type(got) is type(expected)
            assert np.array_equal(got, expected) if isinstance(got, np.ndarray) \
                else got == expected

    @pytest.mark.parametrize("key", ["A", "initial_state", "snr"])
    def test_missing_required_key_is_named(self, sim_system, key):
        a_true, eta_true = sim_system
        config = {"A": a_true.tolist(), "initial_state": eta_true.tolist(), "snr": 5}
        del config[key]
        with pytest.raises(KeyError, match=key):
            simulate.scenario_from_config(config)

    @pytest.mark.parametrize("key, name", [("A", "a_matrix"), ("B", "b_matrix")])
    def test_refusal_names_the_field_and_its_file_key(self, sim_system, key, name):
        a_true, eta_true = sim_system
        config = {"A": a_true.tolist(), "initial_state": eta_true.tolist(),
                  "snr": 5, key: [["1", 0.0], [0.0, 1.0]]}
        with pytest.raises(ValueError, match=f"^'{name}' must be .*file key '{key}'"):
            simulate.scenario_from_config(config)


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


SEEDS = [0, 1, 2**32 - 1, 2**32, 2**140 + 77]


def seed_sequence(seed, replication):
    return np.random.SeedSequence(entropy=seed, spawn_key=(replication,))


class TestNoiseStreams:
    # 2**140 + 77 has five entropy words, one beyond numpy's pool of four
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("replications", [range(300), range(50, 150)])
    def test_keys_are_the_spawned_seed_sequence_keys(self, seed, replications):
        keys = simulate._philox_keys(seed, replications)
        want = np.array([seed_sequence(seed, r).generate_state(2, np.uint64)
                         for r in replications])
        assert keys.dtype == np.uint64
        assert np.array_equal(keys, want)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_rows_are_the_spawned_philox_draws(self, sim_system, seed):
        sc = scenario(sim_system, seed=seed)
        clean = simulate._clean_trajectory(sc)
        sigma = np.ones(sc.d)
        replications = range(95, 105)
        noisy = simulate._noisy_series(sc, clean, sigma, replications)
        for row, r in zip(noisy.values, replications):
            draw = np.random.Generator(np.random.Philox(seed_sequence(seed, r))
                                       ).standard_normal((sc.n, sc.d))
            assert np.array_equal(row, clean.values[:sc.n] + draw), r

    def test_replication_beyond_one_word_is_refused(self):
        with pytest.raises(OverflowError):
            simulate._philox_keys(0, [2**32])


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
        # every metric of both pipelines, bit for bit, from a fit of the one
        # series generate_trajectory draws
        sc = scenario(sim_system, replications=3)
        horizons = (2, 5, 10)
        summary = gm.run_monte_carlo(sc, horizons)
        assert set(summary.per_replication) == {
            f"{name}_{metric}" for name in ("grey", "matching")
            for metric in ("A", "eta", "fit", *(f"step{k}" for k in horizons))}
        n = sc.n
        for k in range(sc.replications):
            clean, noisy = gm.generate_trajectory(sc, replication=k)
            models = {"grey": gm.fit_grey(noisy, sc.forcing,
                                          strategy="reduced_consistent"),
                      "matching": gm.fit_matching(noisy, sc.forcing,
                                                  sc.include_constant)}
            for name, model in models.items():
                pred = gm.predict_on_grid(model, clean.grid).values
                ape = np.abs((pred - clean.values) / clean.values) * 100.0
                want = {"A": model.A.reshape(-1), "eta": model.eta,
                        "fit": ape[:n].mean(axis=0),
                        **{f"step{h}": ape[n - 1 + h] for h in horizons}}
                for metric, value in want.items():
                    got = summary.per_replication[f"{name}_{metric}"][k]
                    assert np.array_equal(got, value), (k, name, metric)

    @pytest.mark.parametrize("short", [7, simulate.REPLICATION_BLOCK + 10])
    def test_fewer_replications_give_the_leading_rows(self, sim_system, short):
        # the short runs cross no block boundary and one, the full run two
        block = simulate.REPLICATION_BLOCK
        size = 2 * block + 20
        assert [(reps - 1) // block for reps in (7, block + 10, size)] == [0, 1, 2]
        full = gm.run_monte_carlo(scenario(sim_system, replications=size, seed=9))
        part = gm.run_monte_carlo(scenario(sim_system, replications=short, seed=9))
        assert full.per_replication.keys() == part.per_replication.keys()
        for key, arr in full.per_replication.items():
            assert np.array_equal(arr[:short], part.per_replication[key]), key

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
        assert summary.failure_reasons == {"SingularDesignError": 3}
        assert simulate.summary_to_dict(summary)["failure_reasons"] == {
            "SingularDesignError": 3}

    def test_parameter_table_note_names_failure_classes(self, monkeypatch):
        sc = gm.SimulationScenario(a_matrix=np.zeros((2, 2)),
                                   initial_state=np.array([1.0, 1.0]),
                                   snr=5.0, replications=3, seed=0,
                                   noise_scale=0.0)
        failing = gm.run_monte_carlo(sc, horizons=())
        monkeypatch.setattr(repro._simulate, "run_monte_carlo",
                            lambda *args, **kwargs: failing)
        report = repro.reproduce_parameter_table(reps=3, cells=[(21, 5.0)])
        assert ("cell (21,5.0): 3 failed fits (SingularDesignError 3)"
                in report.notes)

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


class TestStructuralGapRow:
    """The grey-vs-matching row of the parameter-table reproduction."""

    @staticmethod
    def printed(capsys, gap):
        row = repro._structural_gap_row("n=21 snr=5.0", gap)
        cli._print_report(repro.ReproductionReport("t", [row]), True)
        return capsys.readouterr().out

    def test_round_off_does_not_change_the_row_text(self, capsys):
        texts = {self.printed(capsys, gap) for gap in (0.0, 1.77e-14, 9.81e-14, 4e-13)}
        assert len(texts) == 1
        assert "diff 0.00e+00 (tol 1.00e-09)" in texts.pop()

    @pytest.mark.parametrize("gap", [1.0000001e-9, 3e-9, float("nan")])
    def test_gap_above_tolerance_fails(self, capsys, gap):
        assert not repro._structural_gap_row("n=21 snr=5.0", gap)["passed"]
        assert "[FAIL]" in self.printed(capsys, gap)

    def test_gap_at_tolerance_passes(self):
        assert repro._structural_gap_row("n=21 snr=5.0", 1e-9)["passed"]

    def test_summary_keeps_the_unrounded_gap(self, sim_system):
        summary = gm.run_monte_carlo(scenario(sim_system, snr=2.5, replications=10,
                                              seed=0))
        per_rep = summary.per_replication
        gap = float(np.abs(per_rep["grey_A"] - per_rep["matching_A"]).max())
        assert 0.0 < gap < 1e-12
        assert simulate.summary_to_dict(summary)["max_structural_gap"] == gap
