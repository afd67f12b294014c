"""Config loading, presets, and the command-line verbs end to end."""

import json
import math
import os
import re

import pytest
import yaml

from diffrelay.analysis import PepTermsConfig, SnrPoint, pep_exact, ser_nearest_neighbor
from diffrelay.cli import (
    CSV_COLUMNS,
    ConfigError,
    cmd_calibrate,
    cmd_sweep,
    complexity_table,
    load_config,
    main,
    read_rows,
    write_rows,
)
from diffrelay.channel import calibration_stream, make_stream
from diffrelay.constellation import make_psk
from diffrelay.relay import load_epsilon_table

QPSK = make_psk(4)

# Every preset's expansion as the preset code gave it before presets became
# config fragments: labels in order, each job's analysis overlays, the
# comparisons, and the plan hashes at default settings and under
# PRESET_OVERRIDES.
PRESET_OVERRIDES = {"grid_db": [6.0, 9.0], "seed": 7, "frame_len": 32,
                    "trials": {"min_errors": 50, "max_trials": 10000}}
PRESET_EXPANSIONS = {
    "fig4_psk": (
        ["psk4_ml", "psk4_pl", "psk16_ml", "psk16_pl", "psk32_ml", "psk32_pl"],
        (),
        (("psk4_pl", "psk4_ml", "horizontal_db"), ("psk16_pl", "psk16_ml", "horizontal_db"),
         ("psk32_pl", "psk32_ml", "horizontal_db")),
        ["24c60af4f7583189", "0ceb96872188580e", "797778569e5f25d7", "79c60b268fbebce6",
         "07a6d33f05ff9b3e", "c305de7bc6b506c7"],
        ["084a648092c1f1fa", "7b7ff4b91eba0aaa", "2fa96f77490dd779", "cb63c8c2f5479024",
         "0a02e817e4bad6cd", "12868b4f99b11417"],
    ),
    "fig4_qam": (
        ["qam8_ml", "qam8_pl", "qam8_genie_reference", "qam16_ml", "qam16_pl",
         "qam16_genie_reference", "qam32_ml", "qam32_pl", "qam32_genie_reference",
         "qam64_ml", "qam64_pl", "qam64_genie_reference"],
        (),
        (("qam8_ml", "qam8_genie_reference", "horizontal_db"),
         ("qam16_ml", "qam16_genie_reference", "horizontal_db"),
         ("qam32_ml", "qam32_genie_reference", "horizontal_db"),
         ("qam64_ml", "qam64_genie_reference", "horizontal_db")),
        ["b8d58a6ce805ce0e", "7607bc88edad669d", "fdaa138d071a1611", "e8de31685ab62a8d",
         "d5051b3778ca7c24", "a5e42e5def81606f", "da046793aa46c70d", "836e84de3d2879e1",
         "65d454ac6e8e1ab8", "0f278c71eb2e31ca", "55b785fb1f7c739d", "127df16368597ed6"],
        ["91419d6222d941ec", "5ea6d7e01e1caaa5", "48fc59a875edef9c", "5699ffbfb567cbd0",
         "12825488f4e48443", "606d49b20e58ee7b", "18e0d75ec4bd2416", "d3d28a488399a2de",
         "6e6ce695c47758d4", "05d70085bd5ec611", "4fcc3395e0b956e3", "c691de6cbe372a84"],
    ),
    "fig5": (
        ["psk8_pl", "psk8_naive_eps0"],
        (),
        (("psk8_pl", "psk8_naive_eps0", "horizontal_db"),),
        ["8a5e1d550313c561", "a4d818d50d836c61"],
        ["4df4d9215583bc93", "9e52e48bb538f46d"],
    ),
    "fig6": (
        ["psk4_pl", "psk16_pl", "psk32_pl"],
        ("closed_form", "quadrature"),
        (),
        ["0ceb96872188580e", "79c60b268fbebce6", "c305de7bc6b506c7"],
        ["7b7ff4b91eba0aaa", "cb63c8c2f5479024", "12868b4f99b11417"],
    ),
    "fig7": (
        ["psk4_pl_n2", "psk4_pl_n3"],
        ("asymptotic",),
        (),
        ["8950576b57e3030f", "6ab2344f931662ae"],
        ["699f9bbc1e05ac78", "cebf7be84662209b"],
    ),
}


def write_yaml(path, doc):
    with open(path, "w") as fh:
        yaml.safe_dump(doc, fh)
    return str(path)


def minimal_doc(**overrides):
    doc = {
        "version": 1,
        "constellation": {"kind": "psk", "M": 4},
        "decoder": {"kind": "pl"},
        "grid_db": [10.0, 14.0],
    }
    doc.update(overrides)
    return doc


def assert_refused_at_load(tmp_path, capsys, key, value, message):
    """A config with ``key`` (dotted) set to ``value`` is refused at load with
    ``message``, and calibrate and sweep exit 2 without writing a file."""
    doc = minimal_doc(decoder={"kind": "pl", "epsilons": [0.01]}, n_relays=1,
                      tying="custom", sr_offsets_db=[0.0], rd_offsets_db=[0.0])
    doc["calibration"] = {"path": str(tmp_path / "eps.csv"), "grid_db": [10.0],
                          "method": "monte_carlo", "trials": 1000}
    doc["output"] = {"dir": str(tmp_path), "basename": "run"}
    section, _, name = key.rpartition(".")
    (doc[section] if section else doc)[name] = value
    path = write_yaml(tmp_path / "c.yaml", doc)
    with pytest.raises(ConfigError, match=re.escape(message)):
        load_config(path)
    for verb in ("calibrate", "sweep"):
        assert main([verb, path]) == 2
        assert message in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["c.yaml"]


def assert_closed_form_rows_exact(csv_path, eps_path, grid_db):
    """Every closed_form row equals the exact-law SER at its calibrated epsilon."""
    eps = {key: est.value for key, est in load_epsilon_table(str(eps_path)).items()}
    rows = [r for r in read_rows(str(csv_path)) if r["source"] == "closed_form"]
    assert sorted({r["snr_db"] for r in rows}) == list(grid_db)
    for row in rows:
        db = row["snr_db"]
        cfg = PepTermsConfig(SnrPoint.from_db(db, db, db), eps[("psk", row["M"], db)], row["M"])
        assert row["ser"] == ser_nearest_neighbor(make_psk(row["M"]), pep_exact, cfg).value


@pytest.fixture(scope="module")
def sweep_outputs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("sweep")
    doc = minimal_doc(seed=3)
    doc["trials"] = {"min_errors": 120, "max_trials": 2_000_000}
    doc["analysis"] = {"closed_form": True, "quadrature": True}
    doc["calibration"] = {"path": str(tmp / "eps.csv"),
                          "grid_db": [10.0, 14.0]}
    doc["output"] = {"dir": str(tmp), "basename": "run"}
    doc["compare"] = [{"a": "psk4_pl", "b": "psk4_pl", "mode": "ratio"}]
    path = write_yaml(tmp / "c.yaml", doc)
    assert main(["calibrate", path]) == 0
    code = main(["sweep", path, "--workers", "4"])
    return tmp, code


@pytest.fixture(scope="module")
def two_curves_csv(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cmp")
    base = {"snr_db": 10.0, "errors": 50, "trials": 1000, "seed": 0,
            "kind": "psk", "M": 4, "N_relays": 1}
    rows = []
    for decoder, scale in (("pl", 1.0), ("ml", 0.5)):
        for db, ser in ((10.0, 2e-2), (14.0, 4e-3)):
            rows.append(dict(base, source="mc", decoder=decoder, snr_db=db,
                             ser=ser * scale, ci_low=ser * scale * 0.8,
                             ci_high=ser * scale * 1.2))
    path = tmp / "curves.csv"
    write_rows(str(path), rows)
    return str(path)


class TestConfigValidation:
    def test_version_required(self, tmp_path):
        path = write_yaml(tmp_path / "c.yaml", {"grid_db": [1.0]})
        with pytest.raises(ConfigError, match="version must be 1"):
            load_config(path)

    @pytest.mark.parametrize(
        "mutate, where",
        [
            (lambda d: d.update(bogus=1), "config has"),
            (lambda d: d["constellation"].update(extra=1), "config.constellation"),
            (lambda d: d["decoder"].update(extra=1), "config.decoder"),
            (lambda d: d.update(trials={"min_errors": 5, "x": 1}), "config.trials"),
            (lambda d: d.update(analysis={"closed_form": True, "x": 1}),
             "config.analysis"),
            (lambda d: d.update(output={"dir": ".", "x": 1}), "config.output"),
            (lambda d: d.update(calibration={"path": "t.csv", "x": 1}),
             "config.calibration"),
        ],
    )
    def test_unknown_keys_rejected_with_path(self, tmp_path, mutate, where):
        doc = minimal_doc()
        mutate(doc)
        path = write_yaml(tmp_path / "c.yaml", doc)
        with pytest.raises(ConfigError, match=where):
            load_config(path)

    def test_version_refuses_a_bool(self, tmp_path):
        # True == 1, so version: true used to load and sweep
        path = write_yaml(tmp_path / "c.yaml", minimal_doc(version=True))
        with pytest.raises(ConfigError, match="config.version must be 1, got True"):
            load_config(path)
        assert main(["sweep", path]) == 2

    def test_empty_grid_rejected(self, tmp_path):
        path = write_yaml(tmp_path / "c.yaml", minimal_doc(grid_db=[]))
        with pytest.raises(ConfigError, match="grid_db must not be empty"):
            load_config(path)

    def test_empty_grid_via_main_writes_nothing(self, tmp_path):
        doc = minimal_doc(grid_db=[])
        doc["output"] = {"dir": str(tmp_path), "basename": "out"}
        path = write_yaml(tmp_path / "c.yaml", doc)
        assert main(["sweep", path]) == 2
        assert not (tmp_path / "out.csv").exists()
        assert not (tmp_path / "out.json").exists()

    @pytest.mark.parametrize("key", ["sr_offsets_db", "rd_offsets_db"])
    def test_scalar_link_offsets_rejected(self, tmp_path, key):
        doc = minimal_doc(tying="custom", sr_offsets_db=[0.0], rd_offsets_db=[0.0])
        doc[key] = 3.0
        path = write_yaml(tmp_path / "c.yaml", doc)
        with pytest.raises(ConfigError, match=f"config.{key} must be a list"):
            load_config(path)
        assert main(["sweep", path]) == 2

    @pytest.mark.parametrize("mutate, where", [
        (lambda d: d.update(grid_db=[10.0, None]), r"config.grid_db\[1\]"),
        (lambda d: d.update(grid_db={"start": 0, "stop": None, "step": 3}),
         "config.grid_db.stop"),
        (lambda d: d["decoder"].update(epsilons=[None]), r"config.decoder.epsilons\[0\]"),
    ])
    def test_null_numbers_rejected(self, tmp_path, mutate, where):
        doc = minimal_doc()
        mutate(doc)
        path = write_yaml(tmp_path / "c.yaml", doc)
        with pytest.raises(ConfigError, match=f"{where} must be a number, got None"):
            load_config(path)
        assert main(["sweep", path]) == 2

    @pytest.mark.parametrize("mutate, where", [
        (lambda d: d.update(n_relays=1.7), "config.n_relays"),
        (lambda d: d.update(frame_len=63.5), "config.frame_len"),
        (lambda d: d.update(seed=2.5), "config.seed"),
        (lambda d: d.update(trials={"min_errors": 99.9}), "config.trials.min_errors"),
        (lambda d: d.update(trials={"max_trials": 1e5 + 0.5}), "config.trials.max_trials"),
        (lambda d: d.update(calibration={"path": "e.csv", "trials": 1000.5}),
         "config.calibration.trials"),
    ])
    def test_fractional_integers_rejected(self, tmp_path, mutate, where):
        # n_relays: 1.7 used to run one relay without a word
        doc = minimal_doc()
        mutate(doc)
        path = write_yaml(tmp_path / "c.yaml", doc)
        with pytest.raises(ConfigError, match=f"{where} must be an integer"):
            load_config(path)
        assert main(["sweep", path]) == 2
        doc = minimal_doc(n_relays=2.0, seed=4.0)  # whole floats stay accepted
        plan = load_config(write_yaml(tmp_path / "d.yaml", doc)).jobs[0].plan
        assert (plan.n_relays, plan.seed) == (2, 4)

    @pytest.mark.parametrize("value", ["off", "no", 0, 1])
    @pytest.mark.parametrize("mutate, where", [
        (lambda d, v: d.update(zero_noise=v), "config.zero_noise"),
        (lambda d, v: d.update(analysis={"closed_form": v}), "config.analysis.closed_form"),
        (lambda d, v: d.update(analysis={"asymptotic": v}), "config.analysis.asymptotic"),
    ])
    def test_flags_take_only_yaml_booleans(self, tmp_path, mutate, where, value):
        # zero_noise: "off" used to run a noiseless simulation, and
        # closed_form: "no" to turn the rows on
        doc = minimal_doc()
        mutate(doc, value)
        path = write_yaml(tmp_path / "c.yaml", doc)
        with pytest.raises(ConfigError, match=f"{where} must be true or false"):
            load_config(path)
        assert main(["sweep", path]) == 2
        mutate(doc, False)
        plan = load_config(write_yaml(tmp_path / "d.yaml", doc)).jobs[0].plan
        assert plan.zero_noise is False

    def test_constellation_size_follows_the_integer_rule(self, tmp_path):
        # M takes the rule of every integer field: a whole float loads,
        # a fraction or a bool is refused
        doc = minimal_doc(constellation={"kind": "psk", "M": 16.0})
        assert load_config(write_yaml(tmp_path / "c.yaml", doc)).jobs[0].plan.spec.M == 16
        for m in (16.5, True):
            doc = minimal_doc(constellation={"kind": "psk", "M": m})
            with pytest.raises(ConfigError, match=r"config\.constellation\.M must be an integer"):
                load_config(write_yaml(tmp_path / "c.yaml", doc))

    def test_grid_range_expands_inclusively(self, tmp_path):
        doc = minimal_doc(grid_db={"start": 0, "stop": 36, "step": 3})
        cfg = load_config(write_yaml(tmp_path / "c.yaml", doc))
        grid = cfg.jobs[0].plan.snr_grid_db
        assert len(grid) == 13
        assert grid[0] == 0.0 and grid[-1] == 36.0 and grid[4] == 12.0

    @pytest.mark.parametrize("rng, expected", [
        ({"start": 0, "stop": 11, "step": 4}, (0.0, 4.0, 8.0)),
        ({"start": 0, "stop": 36, "step": 1}, tuple(float(v) for v in range(37))),
        ({"start": 0, "stop": 1, "step": 0.1}, tuple(round(0.1 * i, 9) for i in range(11))),
    ])
    def test_grid_range_never_passes_stop(self, tmp_path, rng, expected):
        doc = minimal_doc(grid_db=rng)
        grid = load_config(write_yaml(tmp_path / "c.yaml", doc)).jobs[0].plan.snr_grid_db
        assert grid == expected

    def test_missing_required_sections(self, tmp_path):
        path = write_yaml(tmp_path / "c.yaml", {"version": 1, "grid_db": [1.0]})
        with pytest.raises(ConfigError, match="constellation is required"):
            load_config(path)

    def test_bad_constellation_values(self, tmp_path):
        doc = minimal_doc(constellation={"kind": "pam", "M": 4})
        with pytest.raises(ConfigError, match="kind must be 'psk' or 'qam'"):
            load_config(write_yaml(tmp_path / "c.yaml", doc))

    def test_plan_validation_surfaces_as_config_error(self, tmp_path):
        doc = minimal_doc(n_relays=-1)
        with pytest.raises(ConfigError, match="n_relays"):
            load_config(write_yaml(tmp_path / "c.yaml", doc))

    def test_budget_below_one_frame_is_config_error(self, tmp_path):
        doc = minimal_doc(trials={"min_errors": 5, "max_trials": 10}, frame_len=64)
        with pytest.raises(ConfigError, match="one frame of frame_len"):
            load_config(write_yaml(tmp_path / "c.yaml", doc))

    def test_preset_rejects_conflicting_keys(self, tmp_path):
        doc = {"version": 1, "preset": "fig6",
               "decoder": {"kind": "pl"}}
        with pytest.raises(ConfigError, match="already defines: decoder"):
            load_config(write_yaml(tmp_path / "c.yaml", doc))

    def test_unknown_preset(self, tmp_path):
        doc = {"version": 1, "preset": "fig99"}
        with pytest.raises(ConfigError, match="preset must be one of"):
            load_config(write_yaml(tmp_path / "c.yaml", doc))

    def test_closed_form_needs_single_relay_psk(self, tmp_path):
        doc = minimal_doc(analysis={"closed_form": True}, n_relays=2)
        with pytest.raises(ConfigError, match="one erroneous relay"):
            load_config(write_yaml(tmp_path / "c.yaml", doc))
        doc = minimal_doc(constellation={"kind": "qam", "M": 16},
                          analysis={"quadrature": True})
        with pytest.raises(ConfigError, match="PSK alphabet"):
            load_config(write_yaml(tmp_path / "c.yaml", doc))

    @pytest.mark.parametrize("overrides", [
        {"tying": "sr_infinite"},
        {"tying": "sr_infinite", "sr_eps": "vanishing"},
        {"decoder": {"kind": "naive_eps0"}},
    ])
    def test_closed_form_refuses_relays_it_cannot_model(self, tmp_path, overrides):
        for source in ("closed_form", "quadrature"):
            doc = minimal_doc(analysis={source: True}, **overrides)
            with pytest.raises(ConfigError, match="calibrated epsilon"):
                load_config(write_yaml(tmp_path / "c.yaml", doc))

    def test_asymptotic_needs_psk(self, tmp_path):
        doc = minimal_doc(constellation={"kind": "qam", "M": 16},
                          analysis={"asymptotic": True})
        with pytest.raises(ConfigError, match="PSK alphabet"):
            load_config(write_yaml(tmp_path / "c.yaml", doc))

    @pytest.mark.parametrize("method", [None, "analytic_approx"])
    def test_qam_calibration_needs_monte_carlo(self, tmp_path, capsys, method):
        # the default method used to load, and calibrate then stopped on the
        # first qam spec before writing any epsilon
        cal = {"path": str(tmp_path / "eps.csv"), "grid_db": [10.0]}
        if method:
            cal["method"] = method
        path = write_yaml(tmp_path / "c.yaml", {
            "version": 1, "preset": "fig4_qam", "calibration": cal,
            "output": {"dir": str(tmp_path), "basename": "run"}})
        for verb in ("calibrate", "sweep"):
            assert main([verb, path]) == 2
            assert "config.calibration.method" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["c.yaml"]
        cal["method"] = "monte_carlo"
        path = write_yaml(tmp_path / "c.yaml", {
            "version": 1, "preset": "fig4_qam", "calibration": cal})
        assert load_config(path).calibration.method == "monte_carlo"

    @pytest.mark.parametrize("key, value, message", [
        # trials: 0 used to load, and calibrate then stopped with an error
        # that did not name the key
        ("trials", 0, "config.calibration.trials must be >= 1, got 0"),
        # a negative target used to mark every row above target, exit 1
        ("target_std_err", -1, "config.calibration.target_std_err must be > 0"),
        ("target_std_err", 0.0, "config.calibration.target_std_err must be > 0"),
    ])
    def test_calibration_budget_refused_at_load(self, tmp_path, capsys, key, value,
                                                message):
        doc = minimal_doc()
        doc["calibration"] = {"path": str(tmp_path / "eps.csv"), "grid_db": [10.0],
                              "method": "monte_carlo", "trials": 1000, key: value}
        doc["output"] = {"dir": str(tmp_path), "basename": "run"}
        path = write_yaml(tmp_path / "c.yaml", doc)
        with pytest.raises(ConfigError, match=message):
            load_config(path)
        for verb in ("calibrate", "sweep"):
            assert main([verb, path]) == 2
            assert message in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["c.yaml"]

    @pytest.mark.parametrize("key, value, message", [
        # nan used to load, and the sweep then stopped after its finite
        # points with "noise_var must be > 0, got nan", writing nothing
        ("grid_db", [0.0, math.nan], "config.grid_db[1] must be finite, got nan"),
        ("grid_db", [0.0, math.inf], "config.grid_db[1] must be finite, got inf"),
        # an infinite stop used to raise an uncaught OverflowError
        ("grid_db", {"start": 0, "stop": math.inf, "step": 3},
         "config.grid_db.stop must be finite, got inf"),
        # an integer past float range used to raise an uncaught OverflowError
        ("grid_db", [10 ** 400], "config.grid_db[0] must be finite, got 1000"),
        ("sr_offsets_db", [-math.inf], "config.sr_offsets_db[0] must be finite, got -inf"),
        ("rd_offsets_db", [math.nan], "config.rd_offsets_db[0] must be finite, got nan"),
        ("calibration.grid_db", [10.0, math.nan],
         "config.calibration.grid_db[1] must be finite, got nan"),
        ("calibration.target_std_err", math.nan,
         "config.calibration.target_std_err must be finite, got nan"),
    ])
    def test_non_finite_numbers_refused_at_load(self, tmp_path, capsys, key, value, message):
        assert_refused_at_load(tmp_path, capsys, key, value, message)

    @pytest.mark.parametrize("key, value, message", [
        # seeds outside 64 bits used to run on the streams of seed mod 2**64
        ("seed", 2**64, "config.seed must lie in [0, 2**64), got 18446744073709551616"),
        ("seed", -1, "config.seed must lie in [0, 2**64), got -1"),
        # a list or mapping used to end in an uncaught TypeError
        ("preset", ["fig6"], "config.preset must be a string, got ['fig6']"),
        ("preset", {"fig6": 1}, "config.preset must be a string, got {'fig6': 1}"),
        # these used to write ['x'].csv, write into ./5 and read the path 5
        ("output.basename", ["x"], "config.output.basename must be a string, got ['x']"),
        ("output.dir", 5, "config.output.dir must be a string, got 5"),
        ("calibration.path", 5, "config.calibration.path must be a string, got 5"),
        # an infinite point count used to raise an uncaught OverflowError, and
        # 10**12 points would have been built one by one
        ("grid_db", {"start": 0, "stop": 1e300, "step": 1e-300},
         "config.grid_db range must have at most 10000 points"),
        ("grid_db", {"start": 0, "stop": 1e12, "step": 1},
         "config.grid_db range must have at most 10000 points"),
        ("calibration.grid_db", {"start": 0, "stop": 1e4, "step": 1},
         "config.calibration.grid_db range must have at most 10000 points"),
    ])
    def test_bad_values_refused_at_load(self, tmp_path, capsys, key, value, message):
        assert_refused_at_load(tmp_path, capsys, key, value, message)

    def test_seed_flag_outside_64_bits_refused(self, tmp_path, capsys):
        doc = minimal_doc(decoder={"kind": "pl", "epsilons": [0.01]})
        doc["output"] = {"dir": str(tmp_path), "basename": "run"}
        path = write_yaml(tmp_path / "c.yaml", doc)
        assert main(["sweep", path, "--seed", str(2**64)]) == 2
        assert "config.seed must lie in [0, 2**64)" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["c.yaml"]
        assert load_config(path, seed=2**64 - 1).jobs[0].plan.seed == 2**64 - 1

    def test_asymptotic_needs_a_relay(self, tmp_path):
        # n_relays: 0 used to load, and every asymptotic row then failed
        # after the Monte Carlo
        doc = minimal_doc(n_relays=0, analysis={"asymptotic": True})
        with pytest.raises(ConfigError, match="asymptotic analysis needs at least one relay"):
            load_config(write_yaml(tmp_path / "c.yaml", doc))

    def test_asymptotic_refuses_relay_destination_offsets(self, tmp_path):
        # the law takes one mean SNR for the direct and every relay-destination
        # link, so offset relay-destination links would print the equal-SNR value
        doc = minimal_doc(n_relays=2, tying="custom", sr_offsets_db=[0.0, 0.0],
                          rd_offsets_db=[10.0, 10.0], analysis={"asymptotic": True})
        with pytest.raises(ConfigError, match="rd_offsets_db"):
            load_config(write_yaml(tmp_path / "c.yaml", doc))

    def test_asymptotic_accepts_source_relay_offsets(self, tmp_path):
        # error-free relays: the source-relay links do not enter the law
        doc = minimal_doc(n_relays=2, tying="custom", sr_offsets_db=[10.0, 10.0],
                          rd_offsets_db=[0.0, 0.0], analysis={"asymptotic": True})
        job = load_config(write_yaml(tmp_path / "c.yaml", doc)).jobs[0]
        assert job.analysis == ("asymptotic",)
        assert job.plan.sr_offsets_db == (10.0, 10.0)

    def test_compare_must_name_job_labels(self, tmp_path):
        doc = minimal_doc(compare=[{"a": "psk4_pl", "b": "nope"}])
        with pytest.raises(ConfigError, match=r"compare\[0\].b"):
            load_config(write_yaml(tmp_path / "c.yaml", doc))

    def test_compare_mode_checked_at_load(self, tmp_path):
        # an unknown mode used to surface only after the sweep, as a JSON error
        doc = minimal_doc(compare=[{"a": "psk4_pl", "b": "psk4_pl", "mode": "sideways"}])
        doc["output"] = {"dir": str(tmp_path), "basename": "run"}
        path = write_yaml(tmp_path / "c.yaml", doc)
        with pytest.raises(ConfigError, match=r"config\.compare\[0\]\.mode must be one of"):
            load_config(path)
        assert main(["sweep", path]) == 2
        assert not (tmp_path / "run.json").exists()

    @pytest.mark.parametrize("overrides", [
        {},
        {"tying": "custom", "sr_offsets_db": [3.0], "rd_offsets_db": [0.0]},
    ])
    def test_vanishing_epsilons_need_sr_infinite(self, tmp_path, overrides):
        doc = minimal_doc(sr_eps="vanishing", **overrides)
        with pytest.raises(ConfigError, match="only meaningful with sr_infinite"):
            load_config(write_yaml(tmp_path / "c.yaml", doc))

    def test_seed_and_output_overrides_win(self, tmp_path, monkeypatch):
        doc = minimal_doc(seed=9)
        doc["output"] = {"dir": "from_file"}
        path = write_yaml(tmp_path / "c.yaml", doc)
        cfg = load_config(path, seed=3, output_dir="from_flag")
        assert cfg.seed == 3
        assert cfg.jobs[0].plan.seed == 3
        assert cfg.output_dir == "from_flag"
        monkeypatch.setenv("DIFFRELAY_OUTPUT_DIR", "from_env")
        doc.pop("output")
        path2 = write_yaml(tmp_path / "c2.yaml", doc)
        assert load_config(path2).output_dir == "from_env"
        monkeypatch.delenv("DIFFRELAY_OUTPUT_DIR")
        assert load_config(path2).output_dir == "."

    def test_basename_defaults_to_config_stem(self, tmp_path):
        path = write_yaml(tmp_path / "myrun.yaml", minimal_doc())
        assert load_config(path).basename == "myrun"


class TestPresets:
    @pytest.mark.parametrize("overridden", [False, True])
    @pytest.mark.parametrize("preset", sorted(PRESET_EXPANSIONS))
    def test_expansion_is_pinned(self, tmp_path, preset, overridden):
        labels, analysis, compare, hashes, override_hashes = PRESET_EXPANSIONS[preset]
        doc = {"version": 1, "preset": preset, **(PRESET_OVERRIDES if overridden else {})}
        cfg = load_config(write_yaml(tmp_path / "c.yaml", doc))
        assert [job.label for job in cfg.jobs] == labels
        assert all(job.analysis == analysis for job in cfg.jobs)
        assert cfg.compare == compare
        assert [job.plan.plan_hash() for job in cfg.jobs] == (
            override_hashes if overridden else hashes)

    def test_fig6_expands_to_three_analysis_jobs(self, tmp_path):
        path = write_yaml(tmp_path / "c.yaml", {"version": 1, "preset": "fig6"})
        cfg = load_config(path)
        assert [j.label for j in cfg.jobs] == ["psk4_pl", "psk16_pl", "psk32_pl"]
        for job in cfg.jobs:
            assert job.analysis == ("closed_form", "quadrature")
            assert job.plan.decoder.kind == "pl"
            assert len(job.plan.snr_grid_db) == 13
            assert job.plan.n_relays == 1

    def test_fig7_expands_to_multirelay_asymptotic(self, tmp_path):
        path = write_yaml(tmp_path / "c.yaml", {"version": 1, "preset": "fig7"})
        cfg = load_config(path)
        assert [(j.label, j.plan.n_relays) for j in cfg.jobs] == [
            ("psk4_pl_n2", 2), ("psk4_pl_n3", 3)]
        for job in cfg.jobs:
            assert job.analysis == ("asymptotic",)
            assert job.plan.spec.M == 4
            assert job.plan.tying == "all_equal"

    def test_fig4_psk_pairs_and_comparisons(self, tmp_path):
        path = write_yaml(tmp_path / "c.yaml", {"version": 1, "preset": "fig4_psk"})
        cfg = load_config(path)
        assert len(cfg.jobs) == 6
        assert {j.plan.spec.M for j in cfg.jobs} == {4, 16, 32}
        assert cfg.compare == (
            ("psk4_pl", "psk4_ml", "horizontal_db"),
            ("psk16_pl", "psk16_ml", "horizontal_db"),
            ("psk32_pl", "psk32_ml", "horizontal_db"),
        )

    def test_fig4_qam_includes_genie_reference(self, tmp_path):
        path = write_yaml(tmp_path / "c.yaml", {"version": 1, "preset": "fig4_qam"})
        cfg = load_config(path)
        kinds = {j.plan.decoder.kind for j in cfg.jobs}
        assert kinds == {"ml", "pl", "genie_reference"}
        assert {j.plan.spec.M for j in cfg.jobs} == {8, 16, 32, 64}

    def test_fig5_pairs_pl_with_naive(self, tmp_path):
        path = write_yaml(tmp_path / "c.yaml", {"version": 1, "preset": "fig5"})
        cfg = load_config(path)
        assert [j.label for j in cfg.jobs] == ["psk8_pl", "psk8_naive_eps0"]
        assert cfg.compare == (("psk8_pl", "psk8_naive_eps0", "horizontal_db"),)

    def test_preset_overrides_apply_to_every_job(self, tmp_path):
        doc = {"version": 1, "preset": "fig6", "grid_db": [6.0, 9.0],
               "seed": 7, "frame_len": 32,
               "trials": {"min_errors": 50, "max_trials": 10000}}
        cfg = load_config(write_yaml(tmp_path / "c.yaml", doc))
        for job in cfg.jobs:
            assert job.plan.snr_grid_db == (6.0, 9.0)
            assert job.plan.seed == 7
            assert job.plan.frame_len == 32
            assert job.plan.trials.min_errors == 50


class TestCalibrateCommand:
    def test_thirteen_rows_and_determinism(self, tmp_path):
        doc = minimal_doc()
        doc["calibration"] = {
            "path": str(tmp_path / "eps.csv"),
            "grid_db": {"start": 0, "stop": 36, "step": 3},
        }
        path = write_yaml(tmp_path / "c.yaml", doc)
        assert main(["calibrate", path]) == 0
        table = load_epsilon_table(str(tmp_path / "eps.csv"))
        assert len(table) == 13
        assert all(key[0] == "psk" and key[1] == 4 for key in table)
        first = (tmp_path / "eps.csv").read_bytes()
        assert main(["calibrate", path]) == 0
        assert (tmp_path / "eps.csv").read_bytes() == first

    def test_high_snr_epsilon_halves_per_3db(self, tmp_path):
        doc = minimal_doc()
        doc["calibration"] = {
            "path": str(tmp_path / "eps.csv"),
            "grid_db": [30.0, 33.0],
        }
        assert cmd_calibrate(load_config(write_yaml(tmp_path / "c.yaml", doc))) == 0
        table = load_epsilon_table(str(tmp_path / "eps.csv"))
        ratio = table[("psk", 4, 30.0)].value / table[("psk", 4, 33.0)].value
        assert 2.0 * 0.7 < ratio < 2.0 * 1.3

    def test_monte_carlo_budget_violation_exits_nonzero(self, tmp_path, capsys):
        doc = minimal_doc()
        doc["calibration"] = {
            "path": str(tmp_path / "eps.csv"),
            "grid_db": [10.0],
            "method": "monte_carlo",
            "trials": 2000,
            "target_std_err": 1e-6,
        }
        cfg = load_config(write_yaml(tmp_path / "c.yaml", doc))
        assert cmd_calibrate(cfg) == 1
        (line,) = [row for row in capsys.readouterr().out.splitlines() if "10 dB" in row]
        assert line.startswith("psk-4 10 dB: eps=") and line.endswith("(std_err above target)")
        est = load_epsilon_table(str(tmp_path / "eps.csv"))[("psk", 4, 10.0)]
        assert est.std_err > 1e-6
        assert est.trials >= 2000

    def test_requires_calibration_section(self, tmp_path):
        path = write_yaml(tmp_path / "c.yaml", minimal_doc())
        assert main(["calibrate", path]) == 2

    def test_monte_carlo_epsilon_is_keyed_by_its_snr(self, tmp_path):
        # a grid point's stream used to follow its position in the grid, so
        # adding 0 dB in front changed the 10 dB epsilon
        lines = []
        for grid in ([10.0], [0.0, 10.0]):
            doc = minimal_doc()
            doc["calibration"] = {"path": str(tmp_path / f"eps{len(grid)}.csv"),
                                  "grid_db": grid, "method": "monte_carlo",
                                  "trials": 20_000}
            assert cmd_calibrate(load_config(write_yaml(tmp_path / "c.yaml", doc))) == 0
            with open(doc["calibration"]["path"]) as fh:
                lines.append([row for row in fh if ",10.0," in row])
        assert len(lines[0]) == 1 and lines[0] == lines[1]

    def test_calibration_streams_tell_kind_and_sign_apart(self):
        def first(*address):
            return calibration_stream(7, *address).random(4).tobytes()

        draws = {first("psk", 16, 10.0), first("qam", 16, 10.0), first("psk", 16, -10.0),
                 first("psk", 16, 10.000001), first("psk", 8, 10.0)}
        assert len(draws) == 5
        assert first("psk", 16, 10.0) == first("psk", 16, 10.0)
        simulation = make_stream(7, 0, 16, round(10.0 * 1e6))
        assert simulation.random(4).tobytes() != first("psk", 16, 10.0)


class TestSweepCommand:
    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_workers_below_one_refused(self, tmp_path, capsys, workers):
        # these used to run one worker without a word
        doc = minimal_doc()
        doc["output"] = {"dir": str(tmp_path), "basename": "run"}
        path = write_yaml(tmp_path / "c.yaml", doc)
        with pytest.raises(SystemExit) as exc:
            main(["sweep", path, "--workers", workers])
        assert exc.value.code == 2
        assert "--workers: must be an integer >= 1" in capsys.readouterr().err
        assert not (tmp_path / "run.csv").exists()

    def test_exit_zero_and_files_exist(self, sweep_outputs):
        tmp, code = sweep_outputs
        assert code == 0
        assert (tmp / "run.csv").exists() and (tmp / "run.json").exists()

    def test_csv_schema_and_sources(self, sweep_outputs):
        tmp, _ = sweep_outputs
        with open(tmp / "run.csv") as fh:
            header = fh.readline().strip()
        assert header == ",".join(CSV_COLUMNS)
        rows = read_rows(str(tmp / "run.csv"))
        by_source = {}
        for row in rows:
            by_source.setdefault(row["source"], []).append(row)
        assert sorted(by_source) == ["closed_form", "mc", "quadrature"]
        assert [r["snr_db"] for r in by_source["mc"]] == [10.0, 14.0]
        for row in by_source["closed_form"] + by_source["quadrature"]:
            assert row["errors"] == 0 and row["trials"] == 0
            assert row["ci_low"] == row["ser"] == row["ci_high"]
            assert row["decoder"] == "pl"
        for row in by_source["mc"]:
            assert row["ci_low"] < row["ser"] < row["ci_high"]
            assert row["errors"] >= 120
            assert row["seed"] == 3

    def test_json_points_say_why_they_stopped(self, sweep_outputs):
        tmp, _ = sweep_outputs
        (curve,) = json.loads((tmp / "run.json").read_text())["curves"]
        for point in curve["points"]:
            assert point["stop_reason"] == "min_errors"  # 120 errors, 2M-trial budget
            assert point["errors"] >= 120
            assert 1 <= point["rounds"] and point["trials"] <= point["rounds"] * 8 * 8192

    def test_analysis_tracks_simulation(self, sweep_outputs):
        tmp, _ = sweep_outputs
        rows = read_rows(str(tmp / "run.csv"))
        mc = {r["snr_db"]: r for r in rows if r["source"] == "mc"}
        for source in ("closed_form", "quadrature"):
            for row in (r for r in rows if r["source"] == source):
                assert 0.7 < row["ser"] / mc[row["snr_db"]]["ser"] < 1.6

    def test_closed_form_rows_are_the_exact_law(self, sweep_outputs):
        tmp, _ = sweep_outputs
        assert_closed_form_rows_exact(tmp / "run.csv", tmp / "eps.csv", [10.0, 14.0])

    def test_fig6_preset_closed_form_at_high_snr(self, tmp_path):
        # psk-32 at 23 dB once overflowed the series engine's convergence
        # check, so the sweep died with a traceback and wrote no output
        doc = {
            "version": 1, "preset": "fig6", "grid_db": [23.0], "seed": 7,
            "trials": {"min_errors": 10, "max_trials": 20_000},
            "calibration": {"path": str(tmp_path / "eps.csv"), "grid_db": [23.0]},
            "output": {"dir": str(tmp_path), "basename": "run"},
        }
        path = write_yaml(tmp_path / "c.yaml", doc)
        assert main(["calibrate", path]) == 0
        assert main(["sweep", path]) == 0
        rows = read_rows(str(tmp_path / "run.csv"))
        assert sorted(r["M"] for r in rows if r["source"] == "closed_form") == [4, 16, 32]
        assert_closed_form_rows_exact(tmp_path / "run.csv", tmp_path / "eps.csv", [23.0])

    def test_rows_at_the_plans_own_links(self, tmp_path):
        # one relay 10 dB stronger on its source link than the grid point:
        # the rows take (sd, rd, sr) = (12, 12, 22) dB and epsilon at 22 dB
        doc = minimal_doc(
            seed=3, grid_db=[12.0], tying="custom", sr_offsets_db=[10.0],
            rd_offsets_db=[0.0], analysis={"closed_form": True, "quadrature": True},
            trials={"min_errors": 2000, "max_trials": 2_000_000},
            calibration={"path": str(tmp_path / "eps.csv"), "grid_db": [12.0, 22.0]},
            output={"dir": str(tmp_path), "basename": "run"},
        )
        path = write_yaml(tmp_path / "c.yaml", doc)
        assert main(["calibrate", path]) == 0
        assert main(["sweep", path]) == 0
        rows = {r["source"]: r for r in read_rows(str(tmp_path / "run.csv"))}
        eps = {key: est.value for key, est in load_epsilon_table(str(tmp_path / "eps.csv")).items()}
        at_links = PepTermsConfig(SnrPoint.from_db(12.0, 12.0, 22.0), eps[("psk", 4, 22.0)], 4)
        equal = PepTermsConfig(SnrPoint.from_db(12.0, 12.0, 12.0), eps[("psk", 4, 12.0)], 4)
        assert rows["closed_form"]["ser"] == ser_nearest_neighbor(QPSK, pep_exact, at_links).value
        equal_row = ser_nearest_neighbor(QPSK, pep_exact, equal).value
        assert equal_row == pytest.approx(0.04450, rel=1e-3)
        assert rows["closed_form"]["ser"] < 0.6 * equal_row
        mc = rows["mc"]
        sigma = (mc["ci_high"] - mc["ci_low"]) / (2.0 * 1.96)
        assert mc["errors"] >= 2000
        assert abs(rows["closed_form"]["ser"] - mc["ser"]) < 3.0 * sigma
        assert abs(rows["quadrature"]["ser"] - mc["ser"]) < 3.0 * sigma

    def test_rows_use_explicit_decoder_epsilons(self, tmp_path):
        doc = minimal_doc(
            seed=3, grid_db=[12.0], decoder={"kind": "pl", "epsilons": [0.01]},
            analysis={"closed_form": True},
            trials={"min_errors": 20, "max_trials": 100_000},
            output={"dir": str(tmp_path), "basename": "run"},
        )
        assert main(["sweep", write_yaml(tmp_path / "c.yaml", doc)]) == 0
        (row,) = [r for r in read_rows(str(tmp_path / "run.csv")) if r["source"] == "closed_form"]
        cfg = PepTermsConfig(SnrPoint.from_db(12.0, 12.0, 12.0), 0.01, 4)
        assert row["ser"] == ser_nearest_neighbor(QPSK, pep_exact, cfg).value

    def test_csv_round_trips_byte_identically(self, sweep_outputs, tmp_path):
        tmp, _ = sweep_outputs
        rows = read_rows(str(tmp / "run.csv"))
        copy = tmp_path / "copy.csv"
        write_rows(str(copy), rows)
        assert copy.read_bytes() == (tmp / "run.csv").read_bytes()

    def test_json_summary_contents(self, sweep_outputs):
        tmp, _ = sweep_outputs
        summary = json.loads((tmp / "run.json").read_text())
        assert summary["all_points_ok"] is True
        (curve,) = summary["curves"]
        assert curve["label"] == "psk4_pl"
        assert curve["points_ok"] == 2
        rows = [r for r in read_rows(str(tmp / "run.csv")) if r["source"] == "mc"]
        assert [sorted(p) for p in curve["points"]] == [
            ["deff", "errors", "fallbacks", "rounds", "snr_db", "stop_reason", "trials",
             "wall_s"]] * 2
        assert all(p["wall_s"] > 0.0 for p in curve["points"])
        assert [(p["snr_db"], p["errors"], p["trials"]) for p in curve["points"]] == [
            (r["snr_db"], r["errors"], r["trials"]) for r in rows]
        assert all(isinstance(p["fallbacks"], int) and p["fallbacks"] >= 0
                   for p in curve["points"])
        assert curve["failures"] == []
        assert "error" in curve["slope_fit"]
        (comp,) = summary["comparisons"]
        assert comp["mode"] == "ratio"
        assert [r["value"] for r in comp["rows"]] == [1.0, 1.0]

    def test_missing_calibration_fails_points(self, tmp_path):
        doc = minimal_doc(seed=3)
        doc["trials"] = {"min_errors": 40, "max_trials": 100_000}
        doc["analysis"] = {"quadrature": True}
        doc["output"] = {"dir": str(tmp_path), "basename": "run"}
        path = write_yaml(tmp_path / "c.yaml", doc)
        assert main(["sweep", path]) == 1
        summary = json.loads((tmp_path / "run.json").read_text())
        assert summary["all_points_ok"] is False
        reasons = [f["reason"] for f in summary["curves"][0]["failures"]]
        assert any("quadrature" in r and "calibrate" in r for r in reasons)
        rows = read_rows(str(tmp_path / "run.csv"))
        assert all(r["source"] == "mc" for r in rows)

    def test_asymptotic_rows_for_multirelay(self, tmp_path):
        doc = {
            "version": 1,
            "constellation": {"kind": "psk", "M": 4},
            "decoder": {"kind": "pl"},
            "grid_db": [18.0, 21.0],
            "n_relays": 2,
            "sr_eps": "vanishing",
            "tying": "sr_infinite",
            "trials": {"min_errors": 60, "max_trials": 400_000},
            "analysis": {"asymptotic": True},
            "output": {"dir": str(tmp_path), "basename": "asym"},
        }
        path = write_yaml(tmp_path / "c.yaml", doc)
        assert main(["sweep", path, "--workers", "4"]) == 0
        rows = read_rows(str(tmp_path / "asym.csv"))
        asym = {r["snr_db"]: r["ser"] for r in rows if r["source"] == "asymptotic"}
        assert set(asym) == {18.0, 21.0}
        # three-branch diversity: 3 dB of SNR is about 0.9 decades of SER
        assert 6.0 < asym[18.0] / asym[21.0] < 9.0
        mc = {r["snr_db"]: r for r in rows if r["source"] == "mc"}
        assert mc[18.0]["ser"] > asym[18.0]


class TestComplexityCommand:
    def test_table_matches_direct_counts(self):
        rows = complexity_table((2, 16, 32))
        by_m = {row["M"]: row for row in rows}
        assert by_m[2]["ml_measured"] == 100
        assert by_m[2]["pl_measured"] == 33
        assert by_m[16]["ml_measured"] == 4160
        assert by_m[16]["pl_measured"] == 495
        assert by_m[32]["ml_measured"] == 16000
        assert by_m[32]["pl_measured"] == 1023
        assert all(row["ml_equal"] and row["pl_equal"] for row in rows)

    def test_ml_over_pl_ratio_grows_with_m(self):
        rows = complexity_table((2, 4, 8, 16, 32, 64))
        ratios = [row["ml_measured"] / row["pl_measured"] for row in rows]
        assert all(a < b for a, b in zip(ratios, ratios[1:]))

    def test_exit_zero_and_optional_csv(self, tmp_path, capsys):
        out = tmp_path / "ops.csv"
        assert main(["complexity", "--sizes", "2", "8", "--output", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("M,ml_measured,ml_formula")
        captured = capsys.readouterr().out
        assert "ml_measured" in captured


class TestCompareCommand:
    def test_ratio_between_selected_curves(self, two_curves_csv, capsys):
        code = main(["compare", two_curves_csv, two_curves_csv,
                     "--select-a", "decoder=pl", "--select-b", "decoder=ml"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["mode"] == "ratio"
        assert [round(r["value"], 12) for r in payload["rows"]] == [2.0, 2.0]

    def test_ambiguous_selection_is_an_error(self, two_curves_csv, capsys):
        assert main(["compare", two_curves_csv, two_curves_csv]) == 2
        assert "ambiguous" in capsys.readouterr().err

    def test_bad_selector_key(self, two_curves_csv, capsys):
        code = main(["compare", two_curves_csv, two_curves_csv,
                     "--select-a", "color=red", "--select-b", "decoder=ml"])
        assert code == 2
        assert "cannot select on" in capsys.readouterr().err

    def test_wrong_columns_rejected(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2\n")
        assert main(["compare", str(bad), str(bad)]) == 2
        assert "expected columns" in capsys.readouterr().err
