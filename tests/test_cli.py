"""CLI tests: subcommands, exit codes, deterministic output."""
import importlib
import json

import pytest

from egdeg import cli as cli_mod
from egdeg.cli import main
from egdeg.factory import catalog, catalog_names

theta_mod = importlib.import_module("egdeg.theta")  # the package exports theta()
FINITE_ENTRIES = [n for n in catalog_names() if catalog(n).row_label is None]


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


@pytest.fixture
def d3_config(tmp_path):
    return write_config(tmp_path, "d3.json", {
        "schema": "egdeg/1",
        "group": {"kind": "dihedral", "n": 3},
        "domain": {"kind": "punctured"},
        "numerics": {"grid_h": 0.1, "bbox": 2.0},
    })


@pytest.fixture
def line_config(tmp_path):
    return write_config(tmp_path, "line.json", {
        "group": {"kind": "antipodal", "dim": 1},
        "domain": {"kind": "full"},
        "potential": {"kind": "catalog", "name": "z2_line_min"},
        "numerics": {"grid_h": 0.1, "bbox": 2.0},
    })


def run_cli(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


class TestStrata:
    def test_d3_tables(self, capsys, d3_config):
        code, out = run_cli(capsys, "strata", d3_config)
        assert code == 0
        data = json.loads(out)
        assert data["linear_order"] == ["(H2a)", "(e)"]
        rows = {r["orbit_type"]: r for r in data["orbit_types"]}
        assert len(rows["(H2a)"]["components"]) == 2
        assert rows["(H2a)"]["quotient_labels"] == ["q0", "q1"]
        assert len(rows["(e)"]["components"]) == 6
        assert rows["(e)"]["quotient_labels"] == ["q0"]

    def test_empty_domain(self, capsys, tmp_path):
        cfg = write_config(tmp_path, "empty.json", {
            "group": {"kind": "antipodal", "dim": 1},
            "domain": {"kind": "ball", "r": 0.0},
            "numerics": {"grid_h": 0.1, "bbox": 2.0},
        })
        with pytest.warns(UserWarning):
            code, out = run_cli(capsys, "strata", cfg)
        assert code == 0
        assert json.loads(out)["orbit_types"] == []

    def test_refinement_check_key_rejected(self, capsys, tmp_path):
        cfg = write_config(tmp_path, "knob.json", {
            "group": {"kind": "dihedral", "n": 3},
            "domain": {"kind": "punctured"},
            "numerics": {"grid_h": 0.1, "bbox": 2.0, "refinement_check": True},
        })
        assert main(["strata", cfg]) == 2
        assert "unknown numerics keys" in capsys.readouterr().err

    @pytest.mark.parametrize("knob", [{"zero_thresh": 1e-8}, {"max_halvings": 20},
                                      {"newton_tol": 1e-10}])
    def test_tube_selection_key_rejected(self, capsys, tmp_path, knob):
        # the zero threshold and the halving count are constants of perturb,
        # the Newton target one of degree
        cfg = write_config(tmp_path, "knob.json", {
            "group": {"kind": "dihedral", "n": 3},
            "domain": {"kind": "punctured"},
            "numerics": {"grid_h": 0.1, "bbox": 2.0, **knob},
        })
        assert main(["strata", cfg]) == 2
        assert "unknown numerics keys" in capsys.readouterr().err

    def test_punctured_line_two_components(self, capsys, tmp_path):
        cfg = write_config(tmp_path, "line.json", {
            "group": {"kind": "trivial", "dim": 1},
            "domain": {"kind": "punctured"},
            "numerics": {"grid_h": 0.1, "bbox": 2.0},
        })
        code, out = run_cli(capsys, "strata", cfg)
        assert code == 0
        (row,) = json.loads(out)["orbit_types"]
        assert [c["label"] for c in row["components"]] == ["c-20", "c0"]
        assert row["quotient_labels"] == ["q0", "q1"]

    def test_catalog_config_lists_the_entry_strata(self, capsys, tmp_path):
        # the group block says the line; the entry is D3 on the plane
        cfg = write_config(tmp_path, "cat.json", {
            "group": {"kind": "antipodal", "dim": 1},
            "potential": {"kind": "catalog", "name": "d3_axis_orbit_normal"}})
        code, out = run_cli(capsys, "strata", cfg)
        assert code == 0
        data = json.loads(out)
        assert data["linear_order"] == ["(H2a)", "(e)"]
        rows = {r["orbit_type"]: r for r in data["orbit_types"]}
        assert rows["(H2a)"]["subgroup_order"] == 2
        assert rows["(H2a)"]["quotient_labels"] == ["q0", "q1"]
        code, out = run_cli(capsys, "theta", cfg)
        assert code == 0
        computed = {row["orbit_type"] for row in json.loads(out)["computed_rows"]}
        assert computed == set(rows)

    def test_circle_catalog_entry_names_the_free_row(self, capsys, tmp_path):
        cfg = write_config(tmp_path, "dancer.json", {
            "group": {"kind": "antipodal", "dim": 1},
            "potential": {"kind": "catalog", "name": "s1_dancer_minus"},
            "numerics": {"grid_h": 0.1, "bbox": 2.0}})
        code, out = run_cli(capsys, "strata", cfg)
        assert code == 0
        assert json.loads(out)["linear_order"] == ["(G)", "(Z1)"]

    def test_non_invariant_domain_rejected(self, capsys, tmp_path):
        # an asymmetric difference of balls is not invariant under D3
        cfg = write_config(tmp_path, "bad.json", {
            "group": {"kind": "dihedral", "n": 3},
            "domain": {"kind": "difference",
                       "left": {"kind": "full"},
                       "right": {"kind": "ball", "r": 1.0}},
            "numerics": {"grid_h": 0.1, "bbox": 2.0},
        })
        code, _ = run_cli(capsys, "strata", cfg)
        assert code == 0  # origin-centered difference stays invariant
        cfg2 = write_config(tmp_path, "bad2.json", {
            "group": {"kind": "dihedral", "n": 3},
            "domain": {"kind": "full"},
            "potential": {"kind": "expr", "expr": "x1"},
            "numerics": {"grid_h": 0.1, "bbox": 2.0},
        })
        code, _ = run_cli(capsys, "theta", cfg2)
        assert code == 2


class TestTheta:
    def test_line_min_json(self, capsys, line_config):
        code, out = run_cli(capsys, "theta", line_config)
        assert code == 0
        data = json.loads(out)
        assert data["schema"] == "egdeg/1"
        assert data["theta11"] == 1
        assert data["entries"] == []
        assert data["computed_rows"] == [
            {"orbit_type": "(e)", "component": "q0", "value": 0}]

    def test_catalog_orbit_normal(self, capsys, tmp_path):
        cfg = write_config(tmp_path, "d3on.json", {
            "group": {"kind": "dihedral", "n": 3},
            "potential": {"kind": "catalog", "name": "d3_axis_orbit_normal"},
            "numerics": {"grid_h": 0.1, "bbox": 2.0},
        })
        code, out = run_cli(capsys, "theta", cfg)
        assert code == 0
        data = json.loads(out)
        assert data["entries"] == [
            {"orbit_type": "(H2a)", "component": "q1", "value": 1}]

    @pytest.mark.parametrize("radius,expr", [
        (0.25, "(x1^2 + x2^2)^2 - x1^2 - x2^2"),
        (0.19, "(x1^2+x2^2)^2 - 0.02*(x1^2+x2^2)")])
    def test_ball_too_small_for_grid_exit_3(self, capsys, tmp_path, radius,
                                            expr):
        # at r = 0.25 the (e) stratum keeps no cell, at r = 0.19 it has no
        # witness; either way no (e) row may be dropped or crash the run
        cfg = write_config(tmp_path, "ball.json", {
            "group": {"kind": "dihedral", "n": 3},
            "domain": {"kind": "ball", "r": radius},
            "potential": {"kind": "expr", "expr": expr},
            "numerics": {"grid_h": 0.1, "bbox": 2.0},
        })
        assert main(["theta", cfg]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "ResolutionTooCoarse" in captured.err

    def test_broken_config_exit_2(self, capsys, tmp_path):
        cfg = write_config(tmp_path, "broken.json", {
            "group": {"kind": "dihedral", "n": 3}, "bogus": 1})
        assert main(["theta", cfg]) == 2

    def test_deterministic_output(self, capsys, line_config):
        _, out1 = run_cli(capsys, "theta", line_config)
        _, out2 = run_cli(capsys, "theta", line_config)
        assert out1 == out2

    def test_circle_config(self, capsys, tmp_path):
        cfg = write_config(tmp_path, "s1.json", {
            "group": {"kind": "circle", "weights": [2]},
            "domain": {"kind": "full"},
            "potential": {"kind": "radial_r2", "coeffs": {"1": -0.5}},
            "numerics": {"grid_h": 0.1, "bbox": 2.0},
        })
        code, out = run_cli(capsys, "theta", cfg)
        assert code == 0
        data = json.loads(out)
        assert data["theta11"] == 1
        assert data["entries"] == [
            {"orbit_type": "(Z2)", "component": "q0", "value": -1}]


def _renamed(payload, label):
    """A theta payload with the orbit type (e) renamed ``label`` in its
    entries, computed rows and trace steps."""
    def rows(items):
        return [dict(r, orbit_type=label) if r["orbit_type"] == "(e)" else r
                for r in items]
    return dict(payload, entries=rows(payload["entries"]),
                computed_rows=rows(payload["computed_rows"]),
                trace={"steps": rows(payload["trace"]["steps"])})


CIRCLE_DOMAINS = {
    "full": {"kind": "full"},
    "punctured": {"kind": "punctured"},
    "ball": {"kind": "ball", "r": 1.0},
    "annulus": {"kind": "annulus", "r1": 1.5, "r2": 1.9},
    "ball_and_annulus": {"kind": "union", "left": {"kind": "ball", "r": 0.5},
                         "right": {"kind": "annulus", "r1": 1.2, "r2": 1.9}},
}


class TestCircleRoute:
    """A circle group with one weight k is its antipodal line surrogate
    with the free row (e) named (Zk), on every radial domain."""

    @pytest.mark.parametrize("coeffs", [
        {"1": -0.5}, {"1": 0.5}, {"2": 0.25, "1": -0.5, "0": 0.25}],
        ids=["max", "min", "hat"])
    @pytest.mark.parametrize("domain", list(CIRCLE_DOMAINS))
    def test_circle_equals_line(self, capsys, tmp_path, domain, coeffs):
        def run(group):
            cfg = write_config(tmp_path, "cfg.json", {
                "group": group, "domain": CIRCLE_DOMAINS[domain],
                "potential": {"kind": "radial_r2", "coeffs": coeffs},
                "numerics": {"grid_h": 0.1, "bbox": 2.0}})
            code, out = run_cli(capsys, "theta", cfg)
            assert code == 0
            return json.loads(out)
        line = run({"kind": "antipodal", "dim": 1})
        circle = run({"kind": "circle", "weights": [3]})
        assert circle == _renamed(line, "(Z3)")
        # one name for the free row across the whole payload
        labels = {r["orbit_type"] for key in ("entries", "computed_rows")
                  for r in circle[key]}
        labels |= {s["orbit_type"] for s in circle["trace"]["steps"]}
        assert labels - {"(G)"} == {"(Z3)"}

    def test_annulus_has_no_rows(self, capsys, tmp_path):
        # the annulus holds no zero of -r^2/2 and not the origin
        cfg = write_config(tmp_path, "ann.json", {
            "group": {"kind": "circle", "weights": [1]},
            "domain": CIRCLE_DOMAINS["annulus"],
            "potential": {"kind": "radial_r2", "coeffs": {"1": -0.5}},
            "numerics": {"grid_h": 0.1, "bbox": 2.0}})
        code, out = run_cli(capsys, "theta", cfg)
        assert code == 0
        data = json.loads(out)
        assert data["theta11"] is None and data["entries"] == []

    @pytest.mark.parametrize("name", ["s1_dancer_plus", "s1_dancer_minus"])
    def test_catalog_entry_labels(self, capsys, tmp_path, name):
        cfg = write_config(tmp_path, "s1.json", {
            "group": {"kind": "circle", "weights": [1]},
            "potential": {"kind": "catalog", "name": name},
            "numerics": {"grid_h": 0.1, "bbox": 2.0}})
        code, out = run_cli(capsys, "theta", cfg)
        assert code == 0
        data = json.loads(out)
        assert data["theta11"] == catalog(name).expected_theta11
        assert [(e["orbit_type"], e["component"], e["value"])
                for e in data["entries"]] == [
            (t, q, v) for (t, q), v in catalog(name).expected_entries]
        assert {s["orbit_type"] for s in data["trace"]["steps"]} == {"(G)", "(Z1)"}
        assert {r["orbit_type"] for r in data["computed_rows"]} == {"(Z1)"}


EXIT_CONFIGS = {
    "finite": {
        "group": {"kind": "dihedral", "n": 3},
        "domain": {"kind": "punctured"},
        "potential": {"kind": "expr",
                      "expr": "(x1^2 + x2^2)^2 - x1^2 - x2^2"},
        "numerics": {"grid_h": 0.1, "bbox": 2.0},
        "degree": {"box_lo": [-2, -2], "box_hi": [2, 2]}},
    "circle": {
        "group": {"kind": "circle", "weights": [1]},
        "potential": {"kind": "radial_r2", "coeffs": {"1": -0.5}},
        "numerics": {"grid_h": 0.1, "bbox": 2.0},
        "degree": {"box_lo": [-1, -1], "box_hi": [1, 1]}},
    "catalog": {
        "group": {"kind": "antipodal", "dim": 1},
        "potential": {"kind": "catalog", "name": "s1_dancer_minus"},
        "numerics": {"grid_h": 0.1, "bbox": 2.0}},
}
# strata needs a finite group; degree needs a field, which a catalog
# potential does not give
EXIT_EXPECTED = {("circle", "strata"): 2, ("catalog", "degree"): 2}


class TestExitCodes:
    @pytest.mark.parametrize("command", ["theta", "perturb-trace", "strata", "degree"])
    @pytest.mark.parametrize("kind", list(EXIT_CONFIGS))
    def test_every_command_exits_with_a_documented_code(self, capsys, tmp_path,
                                                         kind, command):
        cfg = write_config(tmp_path, "cfg.json", EXIT_CONFIGS[kind])
        extra = ["--samples", "100"] if command == "perturb-trace" else []
        assert main([command, *extra, cfg]) == EXIT_EXPECTED.get((kind, command), 0)

    @pytest.mark.parametrize("command", ["theta", "perturb-trace"])
    @pytest.mark.parametrize("group,potential", [
        ({"kind": "circle", "weights": [1]},
         {"kind": "expr", "expr": "0.5*x1^2 + 0.5*x2^2"}),
        ({"kind": "circle", "weights": [1]}, {}),
        ({"kind": "circle", "weights": [1, 2]},
         {"kind": "radial_r2", "coeffs": {"1": 0.5}}),
        ({"kind": "circle", "weights": [1], "trivial_dim": 1},
         {"kind": "radial_r2", "coeffs": {"1": 0.5}})],
        ids=["expr", "no_potential", "two_weights", "trivial_block"])
    def test_unsupported_circle_input_exits_2(self, capsys, tmp_path, command,
                                              group, potential):
        cfg = write_config(tmp_path, "cfg.json", {
            "group": group, "potential": potential,
            "numerics": {"grid_h": 0.1, "bbox": 2.0}})
        assert main([command, cfg]) == 2
        assert capsys.readouterr().err.startswith("validation error:")


class TestDegree:
    def test_intersection_mode(self, capsys, tmp_path):
        cfg = write_config(tmp_path, "deg.json", {
            "group": {"kind": "antipodal", "dim": 2},
            "potential": {"kind": "expr", "expr": "(x1^2-1)^2 + x2^2"},
            "numerics": {"grid_h": 0.15, "bbox": 3.0},
            "degree": {"box_lo": [-3, -3], "box_hi": [3, 3],
                       "mode": "intersection"},
        })
        code, out = run_cli(capsys, "degree", cfg)
        assert code == 0
        data = json.loads(out)
        assert data["degree"] == 1
        assert len(data["diagnostics"]["zeros"]) == 3
        # the zero rows are find_zeros' list form, printed as plain JSON
        # numbers; these are the exact bytes of this config
        zeros = [(1, [-1.00000000001, 0.0]), (-1, [-1.17259182236e-13, 0.0]),
                 (1, [1.0, 0.0])]
        assert out == json.dumps({
            "degree": 1, "schema": "egdeg/1",
            "diagnostics": {"mode": "intersection",
                            "zeros": [{"index": i, "point": p} for i, p in zeros]}},
            indent=1, sort_keys=True) + "\n"

    def test_kronecker_mode(self, capsys, tmp_path):
        cfg = write_config(tmp_path, "kron.json", {
            "group": {"kind": "antipodal", "dim": 2},
            "potential": {"kind": "expr", "expr": "0.5*(x1^2 + x2^2)"},
            "numerics": {"grid_h": 0.15, "bbox": 2.0},
            "degree": {"box_lo": [-1, -1], "box_hi": [1, 1],
                       "mode": "kronecker"},
        })
        code, out = run_cli(capsys, "degree", cfg)
        assert code == 0
        assert json.loads(out)["degree"] == 1

    def test_grid_h_key_rejected(self, capsys, tmp_path):
        # the seed grid of the intersection route is numerics.grid_h
        cfg = write_config(tmp_path, "deg.json", {
            "group": {"kind": "antipodal", "dim": 2},
            "potential": {"kind": "expr", "expr": "(x1^2-1)^2 + x2^2"},
            "numerics": {"grid_h": 0.15, "bbox": 3.0},
            "degree": {"box_lo": [-3, -3], "box_hi": [3, 3],
                       "mode": "intersection", "grid_h": 0.1},
        })
        assert main(["degree", cfg]) == 2
        assert "unknown keys in degree" in capsys.readouterr().err


class TestPerturbTrace:
    def test_layers_reported(self, capsys, tmp_path):
        cfg = write_config(tmp_path, "trace.json", {
            "group": {"kind": "antipodal", "dim": 1},
            "potential": {"kind": "catalog", "name": "z2_line_max"},
            "numerics": {"grid_h": 0.1, "bbox": 2.0},
        })
        code, out = run_cli(capsys, "perturb-trace", "--samples", "300", cfg)
        assert code == 0
        data = json.loads(out)
        assert len(data["layers"]) == 1
        layer = data["layers"][0]
        assert layer["orbit_type"] == "(G)"
        assert layer["epsilon"] > 0
        assert layer["regions"]["violations"] == 0
        assert layer["regions"]["margin_C"] > 0

    @pytest.mark.parametrize("name", FINITE_ENTRIES)
    def test_layers_are_theta_tubes(self, capsys, tmp_path, name):
        # one recursion: perturb-trace lists exactly the tubes theta builds,
        # so a single orbit type (trivial_identity) gets no layer
        cfg = write_config(tmp_path, "entry.json", {
            "group": {"kind": "antipodal", "dim": 1},
            "potential": {"kind": "catalog", "name": name},
            "numerics": {"grid_h": 0.1, "bbox": 2.0},
        })
        code, out = run_cli(capsys, "theta", cfg)
        assert code == 0
        tubes = [(s["orbit_type"], s["tube"]["centers"], s["tube"]["rho"],
                  s["tube"]["epsilon"])
                 for s in json.loads(out)["trace"]["steps"] if "tube" in s]
        code, out = run_cli(capsys, "perturb-trace", "--samples", "100", cfg)
        assert code == 0
        layers = [(lay["orbit_type"], len(lay["centers"]), lay["rho"],
                   lay["epsilon"])
                  for lay in json.loads(out)["layers"]]
        assert layers == tubes

    def test_last_zero_pass_skipped(self, capsys, monkeypatch, tmp_path):
        # the last orbit type gets no tube, so perturb-trace has nothing to
        # report from its zero pass; the bytes must equal those of a run
        # through the full recursion
        cfg = write_config(tmp_path, "d3.json", {
            "group": {"kind": "dihedral", "n": 3},
            "domain": {"kind": "punctured"},
            "potential": {"kind": "expr",
                          "expr": "(x1^2 + x2^2)^2 - x1^2 - x2^2"},
            "numerics": {"grid_h": 0.1, "bbox": 2.0},
        })
        calls = []
        zero_pass = theta_mod._stratum_zero_pass

        def counted(*args):
            calls.append(args)
            return zero_pass(*args)
        monkeypatch.setattr(theta_mod, "_stratum_zero_pass", counted)
        code, out = run_cli(capsys, "perturb-trace", "--samples", "100", cfg)
        assert code == 0 and len(calls) == 1

        def full_recursion(*args, tubes_only=False):
            return (s for s in theta_mod.recursion(*args) if s.tube is not None)
        monkeypatch.setattr(cli_mod, "recursion", full_recursion)
        code, full = run_cli(capsys, "perturb-trace", "--samples", "100", cfg)
        assert code == 0 and len(calls) == 3
        assert out == full


class TestOutputFile:
    def test_output_written(self, capsys, tmp_path, line_config):
        target = tmp_path / "out.json"
        code, out = run_cli(capsys, "theta", line_config, "--output",
                            str(target))
        assert code == 0
        assert target.read_text(encoding="utf-8") == out
