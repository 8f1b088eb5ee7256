import json
import tracemalloc

import numpy as np
import pytest

from lipkit import activations, matcore
from lipkit.cli import build_parser, load_network_json, main
from lipkit.matcore import DenseMatrix, load_matrix_csv, save_matrix_csv


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# the one wording of a float64 overflow, after the quantity it names
_OVERFLOW = "%s: overflow in its float64 arithmetic"


@pytest.fixture
def chain_net(tmp_path):
    net = {
        "nodes": [
            {"id": "in", "kind": "input"},
            {"id": "l1", "kind": "linear", "weight_ref": "w1"},
            {"id": "act", "kind": "activation", "activation": "relu"},
            {"id": "l2", "kind": "linear", "weight_ref": "w2"},
        ],
        "edges": [["in", "l1"], ["l1", "act"], ["act", "l2"]],
        "matrices": {
            "w1": {"rows": 2, "cols": 2, "data": [3, 0, 0, 1]},
            "w2": {"rows": 2, "cols": 2, "data": [2, 0, 0, 2]},
        },
        "source": "in",
        "sink": "l2",
    }
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(net))
    return str(path)


@pytest.fixture
def figure_net(tmp_path):
    nodes = [{"id": "s", "kind": "input"}]
    nodes += [{"id": nid, "kind": "scalar_lip", "lip": 1.0} for nid in ("u1", "u2", "u3", "v", "t")]
    edges = [["s", "u1"], ["s", "u2"], ["s", "u3"], ["u1", "v"], ["u2", "v"], ["u3", "v"], ["v", "t"], ["s", "t"]]
    path = tmp_path / "figure.json"
    path.write_text(json.dumps({"nodes": nodes, "edges": edges, "source": "s", "sink": "t"}))
    return str(path)


class TestBound:
    def test_chain_product_equals_dag(self, capsys, chain_net):
        code, out, _ = run(capsys, "bound", "--net", chain_net, "--method", "product")
        assert code == 0
        product = float(out.splitlines()[0].split("=")[1])
        code, out, _ = run(capsys, "bound", "--net", chain_net, "--method", "dag")
        dag = float(out.splitlines()[0].split("=")[1])
        assert product == dag == 6.0

    def test_figure_bound_is_four(self, capsys, figure_net):
        code, out, _ = run(capsys, "bound", "--net", figure_net, "--method", "dag")
        assert code == 0
        assert float(out.splitlines()[0].split("=")[1]) == 4.0

    def test_product_refuses_a_residual_block(self, capsys, tmp_path):
        # in -> a -> m with the skip edge in -> m: for identity modules the
        # true constant of x -> m(a(x) + x) is 2, which dag and articulation
        # print; the product of the chain, 1, is not a bound
        nodes = [{"id": "in", "kind": "input"}] + [
            {"id": nid, "kind": "scalar_lip", "lip": 1} for nid in ("a", "m", "out")]
        edges = [["in", "a"], ["a", "m"], ["in", "m"], ["m", "out"]]
        argv = _network(tmp_path, {"nodes": nodes, "edges": edges})
        out_path = tmp_path / "lips.csv"
        code, out, err = run(capsys, *argv, "--method", "product", "--out", str(out_path))
        assert (code, out) == (3, "") and not out_path.exists()
        assert err == ("graph error: edge ('in' -> 'm') does not join consecutive chain nodes\n")
        for method in ("dag", "articulation"):
            code, out, _ = run(capsys, *argv, "--method", method)
            assert code == 0 and "bound = 2\n" in out

    @pytest.mark.parametrize("node, edges, text", [
        ({"id": "a", "kind": "activation", "activation": "elu", "alpha": 3}, None,
         "node 'a': kind 'activation' does not read 'alpha'"),
        ({"id": "a", "kind": "activation", "activation": {"name": "elu", "alpha": 3, "beta": 2}},
         None, "node 'a': activation 'elu' does not read 'beta'"),
        ({"id": "a", "kind": "linear", "weight_ref": "w", "lip": 2}, None,
         "node 'a': kind 'linear' does not read 'lip'"),
        ({"id": "a", "kind": "scalar_lip", "lip": 1}, [["in", "a"], ["in", "a"], ["a", "out"]],
         "edge ('in', 'a') is repeated"),
    ], ids=["node-alpha", "activation-beta", "linear-lip", "repeated-edge"])
    def test_unread_key_or_repeated_edge_exits_2(self, capsys, tmp_path, node, edges, text):
        # each printed a bound with exit 0 that ignored the key or the second
        # edge: elu with alpha 3 has constant 3, and a(in + in) constant 2
        doc = _net_with(node)
        doc["edges"] = edges or doc["edges"]
        out_path = tmp_path / "lips.csv"
        code, out, err = run(capsys, *_network(tmp_path, doc), "--out", str(out_path))
        assert (code, out, err) == (2, "", f"error: {text}\n") and not out_path.exists()

    def test_negative_zero_constant_gives_bound_zero(self, capsys, tmp_path):
        # the path sum adds the one predecessor's S to 0, so -0.0 becomes 0
        argv = _network(tmp_path, _net_with({"id": "a", "kind": "scalar_lip", "lip": -0.0}))
        for method in ("product", "dag"):
            code, out, _ = run(capsys, *argv, "--method", method)
            assert code == 0 and out.startswith("bound = 0\n")

    def test_articulation_method(self, capsys, figure_net):
        code, out, _ = run(capsys, "bound", "--net", figure_net, "--method", "articulation")
        assert code == 0
        assert "cut_vertices" in out

    def test_out_csv(self, capsys, chain_net, tmp_path):
        out_path = tmp_path / "lips.csv"
        code, _, _ = run(capsys, "bound", "--net", chain_net, "--out", str(out_path))
        assert code == 0
        lines = out_path.read_text().strip().splitlines()
        assert lines[0] == "node,lip,provenance,S"
        assert len(lines) == 5

    def test_malformed_json_names_problem(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"nodes": [}')
        code, _, err = run(capsys, "bound", "--net", str(bad))
        assert code == 2
        assert "line" in err

    def test_deeply_nested_json_exits_2(self, capsys, tmp_path):
        deep = tmp_path / "deep.json"
        deep.write_text('{"nodes": ' + "[" * 10**5 + "]" * 10**5 + "}")
        code, out, err = run(capsys, "bound", "--net", str(deep))
        assert (code, out, err) == (2, "", f"error: {deep}: nested too deeply\n")

    def test_missing_field_diagnostic(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"nodes": [{"id": "s"}], "edges": []}))
        code, _, err = run(capsys, "bound", "--net", str(bad))
        assert code == 2
        assert "kind" in err

    def test_cycle_exit_code(self, capsys, tmp_path):
        doc = {
            "nodes": [
                {"id": "s", "kind": "input"},
                {"id": "a", "kind": "scalar_lip", "lip": 1.0},
                {"id": "b", "kind": "scalar_lip", "lip": 1.0},
                {"id": "t", "kind": "scalar_lip", "lip": 1.0},
            ],
            "edges": [["s", "a"], ["a", "b"], ["b", "a"], ["a", "t"]],
        }
        path = tmp_path / "cyc.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "bound", "--net", str(path))
        assert code == 3

    def test_power_spectral_deterministic(self, capsys, chain_net):
        args = ("bound", "--net", chain_net, "--spectral", "power", "--iters", "200", "--seed", "11")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2
        assert "power_iteration" in out1


class TestSvdDeriv:
    def test_order_one_jacobian_csv(self, capsys, tmp_path):
        mat_path = tmp_path / "m.csv"
        save_matrix_csv(mat_path, DenseMatrix(np.diag([3.0, 1.0])))
        out_path = tmp_path / "jac.csv"
        code, out, _ = run(
            capsys, "svd-deriv", "--matrix", str(mat_path), "--k", "1", "--order", "1",
            "--out", str(out_path),
        )
        assert code == 0
        jac = load_matrix_csv(out_path)
        np.testing.assert_array_equal(jac.array, [[1.0, 0.0], [0.0, 0.0]])

    def test_order_two_check_fd(self, capsys, tmp_path):
        rng = np.random.default_rng(1)
        mat_path = tmp_path / "m.csv"
        save_matrix_csv(mat_path, DenseMatrix(rng.standard_normal((3, 4))))
        code, out, _ = run(
            capsys, "svd-deriv", "--matrix", str(mat_path), "--k", "1", "--order", "2",
            "--check-fd",
        )
        assert code == 0
        dev = float(out.splitlines()[-1].split("=")[1])
        assert dev <= 1e-6

    @pytest.mark.parametrize("order", ["1", "2"])
    def test_stdout_rows_equal_out_file(self, capsys, tmp_path, order):
        rng = np.random.default_rng(3)
        mat_path = tmp_path / "m.csv"
        save_matrix_csv(mat_path, DenseMatrix(rng.standard_normal((3, 4))))
        out_path = tmp_path / "d.csv"
        code, out, _ = run(
            capsys, "svd-deriv", "--matrix", str(mat_path), "--k", "1", "--order", order,
            "--check-fd", "--out", str(out_path),
        )
        assert code == 0
        rows, dev_line = out.rsplit("\n", 2)[:2]
        assert dev_line.startswith("max_abs_deviation = ")
        assert (rows + "\n").encode() == out_path.read_bytes()
        assert len(rows.splitlines()) == (3 if order == "1" else 12)

    def test_oversized_hessian_refused_before_allocation(self, capsys, tmp_path, monkeypatch):
        from lipkit import cli, svdcalc

        def forbidden(*args, **kwargs):
            raise AssertionError("allocated for an oversized Hessian")

        monkeypatch.setattr(cli, "full_svd", forbidden)
        monkeypatch.setattr(svdcalc, "sv_hessian", forbidden)
        side = int(np.sqrt(np.sqrt(svdcalc.MAX_HESSIAN_BYTES / 8))) + 1
        mat_path = tmp_path / "big.csv"
        save_matrix_csv(mat_path, DenseMatrix(np.ones((side, side))))
        code, out, err = run(
            capsys, "svd-deriv", "--matrix", str(mat_path), "--k", "1", "--order", "2",
        )
        assert code == 2
        assert out == ""
        assert "byte limit" in err

    def test_bumped_crossing_exits_four_without_output(self, capsys, tmp_path):
        mat_path = tmp_path / "close.csv"
        save_matrix_csv(mat_path, DenseMatrix(np.diag([1.0 + 1e-5, 1.0])))
        out_path = tmp_path / "h.csv"
        code, out, err = run(
            capsys, "svd-deriv", "--matrix", str(mat_path), "--k", "1", "--order", "2",
            "--check-fd", "--step", "1e-5", "--out", str(out_path),
        )
        assert code == 4
        assert "gap" in err
        assert out == ""
        assert not out_path.exists()

    @pytest.mark.parametrize("order, step, spaced", [
        pytest.param(order, step, False, id=order if step == "0" else f"{step}-{order}")
        for step in ("0", "nan", "inf", "-inf") for order in ("1", "2")
    ] + [
        # a negative value after a space is a value, in any spelling
        pytest.param(order, step, True, id=f"spaced{step}-{order}")
        for step in ("-inf", "-Infinity", "-NaN") for order in ("1", "2")
    ])
    def test_zero_step_exits_2(self, capsys, tmp_path, order, step, spaced):
        mat_path = tmp_path / "m.csv"
        save_matrix_csv(mat_path, DenseMatrix(np.diag([2.0, 1.0])))
        code, out, err = run(
            capsys, "svd-deriv", "--matrix", str(mat_path), "--k", "1", "--order", order,
            "--check-fd", *(["--step", step] if spaced else [f"--step={step}"]),
        )
        assert code == 2
        assert out == ""
        assert err == f"error: step must be positive and finite, got {float(step)}\n"

    @pytest.mark.parametrize("k", ["0", "-1"])
    def test_k_below_one_exits_2_before_the_matrix_is_read(self, capsys, tmp_path, k):
        code, out, err = run(capsys, "svd-deriv", "--matrix", str(tmp_path / "missing.csv"),
                             "--k", k, "--order", "1")
        assert (code, out, err) == (2, "", f"error: --k must be at least 1, got {k}\n")

    def test_step_without_check_fd_exits_2(self, capsys, tmp_path):
        mat_path = tmp_path / "m.csv"
        save_matrix_csv(mat_path, DenseMatrix(np.diag([2.0, 1.0])))
        code, out, err = run(
            capsys, "svd-deriv", "--matrix", str(mat_path), "--k", "1", "--order", "1",
            "--step", "1e-4",
        )
        assert (code, out, err) == (2, "", "error: --step needs --check-fd\n")

    def test_degenerate_exits_four_with_gap(self, capsys, tmp_path):
        mat_path = tmp_path / "eye.csv"
        save_matrix_csv(mat_path, DenseMatrix(np.eye(3)))
        code, _, err = run(capsys, "svd-deriv", "--matrix", str(mat_path), "--k", "1", "--order", "1")
        assert code == 4
        assert "gap" in err

    def test_emitted_csv_round_trips(self, capsys, tmp_path):
        rng = np.random.default_rng(2)
        mat_path = tmp_path / "m.csv"
        m = DenseMatrix(rng.standard_normal((4, 3)))
        save_matrix_csv(mat_path, m)
        out_path = tmp_path / "jac.csv"
        run(capsys, "svd-deriv", "--matrix", str(mat_path), "--k", "2", "--order", "1",
            "--out", str(out_path))
        from lipkit.matcore import full_svd
        from lipkit.svdcalc import sv_jacobian

        expect = sv_jacobian(full_svd(m), 2)
        assert load_matrix_csv(out_path) == expect  # 17 digits: bit-identical


class TestActivation:
    def test_gelu_value(self, capsys):
        code, out, _ = run(capsys, "activation", "--name", "gelu")
        assert code == 0
        assert abs(float(out.split()[1]) - 1.128904145) <= 1e-8

    def test_numeric_flag(self, capsys):
        code, out, _ = run(capsys, "activation", "--name", "softplus", "--numeric")
        assert code == 0
        assert "attained=False" in out

    def test_huge_leaky_relu_slope_prints_no_warning(self, capsys):
        expect = "leaky_relu 1e+308\nnumeric 1e+308 attained=True\n"
        assert run(capsys, "activation", "--name", "leaky_relu", "--alpha", "1e308",
                   "--numeric") == (0, expect, "")

    def test_unknown_activation(self, capsys):
        code, _, err = run(capsys, "activation", "--name", "selu")
        assert code == 2

    @pytest.mark.parametrize(
        "flags, text",
        [
            (["--name", "gelu", "--numeric", "--restarts", "3"], "--restarts does not apply to gelu"),
            # least rows come first: a count below its least value is named
            # even for an activation that does not read the flag
            (["--name", "gelu", "--numeric", "--restarts", "0", "--dim", "1"],
             "--restarts must be at least 1, got 0"),
            (["--name", "tanh", "--dim", "3"], "--dim does not apply to tanh"),
            (["--name", "softmax", "--dim", "3", "--numeric", "--grid", "8", "--domain", "5", "1"],
             "--grid does not apply to softmax"),
            (["--name", "softmax", "--numeric", "--domain", "-5", "5"],
             "--domain does not apply to softmax"),
            (["--name", "relu", "--grid", "10"], "--grid needs --numeric"),
            (["--name", "relu", "--alpha", "5"], "--alpha does not apply to relu"),
            (["--name", "softmax", "--alpha", "3"], "--alpha does not apply to softmax"),
            (["--name", "gelu", "--numeric", "--seed", "7"], "--seed does not apply to gelu"),
            # the flag is refused before the spec is built, which would refuse the NaN
            (["--name", "relu", "--alpha", "nan"], "--alpha does not apply to relu"),
        ],
        ids=["restarts-gelu", "restarts-zero-gelu", "dim-tanh", "grid-softmax", "domain-softmax",
             "grid-without-numeric", "alpha-relu", "alpha-softmax", "seed-gelu", "nan-alpha-relu"],
    )
    def test_flag_of_the_other_maximizer_exits_2(self, capsys, flags, text):
        assert run(capsys, "activation", *flags) == (2, "", f"error: {text}\n")

    @pytest.mark.parametrize(
        "name, defaults",
        [("softmax", ["--restarts", "10", "--seed", "0"]),
         ("tanh", ["--grid", "2048", "--domain", "-20", "20"]),
         ("elu", ["--alpha", "1"])],
    )
    def test_maximizer_flags_not_given_take_the_library_defaults(self, capsys, name, defaults):
        expect = run(capsys, "activation", "--name", name, "--numeric", *defaults)
        assert expect[0] == 0
        assert run(capsys, "activation", "--name", name, "--numeric") == expect


class TestFourier:
    @pytest.fixture
    def gauss_csv(self, tmp_path):
        from lipkit.fourlip import SpectralSignal, save_signal_csv

        n = 128
        h = 16.0 / n
        coords = -8.0 + h * np.arange(n)
        x, y = np.meshgrid(coords, coords, indexing="ij")
        path = tmp_path / "gauss.csv"
        save_signal_csv(path, SpectralSignal(np.exp(-(x**2 + y**2)), (h, h)))
        return str(path)

    def test_bound_report(self, capsys, gauss_csv):
        code, out, _ = run(capsys, "fourier", "--signal", gauss_csv, "--bound")
        assert code == 0
        bound = float(out.splitlines()[0].split("=")[1])
        sup = float(out.splitlines()[1].split("=")[1])
        assert bound == pytest.approx(np.sqrt(np.pi), rel=0.02)
        assert sup <= bound

    def test_band_report(self, capsys, gauss_csv):
        code, out, _ = run(
            capsys, "fourier", "--signal", gauss_csv,
            "--band-center", "1,0", "--band-radius", "0.1",
        )
        assert code == 0
        assert "band_bound" in out and "eps" in out

    def test_esd_csv(self, capsys, gauss_csv, tmp_path):
        out_path = tmp_path / "esd.csv"
        code, out, _ = run(
            capsys, "fourier", "--signal", gauss_csv, "--esd", "4", "--out", str(out_path)
        )
        assert code == 0
        lines = out_path.read_text().strip().splitlines()
        assert lines[0] == "ring_index,value"
        assert len(lines) == 5

    def test_no_action_is_parse_error(self, capsys, gauss_csv):
        code, _, err = run(capsys, "fourier", "--signal", gauss_csv)
        assert code == 2

    def test_wide_band_warning_is_one_stderr_line(self, capsys, gauss_csv):
        code, out, err = run(
            capsys, "fourier", "--signal", gauss_csv, "--band-center", "-2,1", "--band-radius", "1",
        )
        assert code == 0
        assert "band_bound = " in out
        assert err == (
            "warning: ball radius 1 >= 0.5642; the small-band derivation no longer applies\n"
        )

    @pytest.mark.parametrize(
        "flags, text",
        [
            (("--direction", "nan,0", "--t", "0,1"), "direction must be finite, got [nan, 0.0]"),
            (("--direction", "1,0", "--t", "nan,inf"), "t must be finite, got nan"),
            (("--direction", "1,0", "--t", "0,-inf"), "t must be finite, got -inf"),
            (("--band-center", "1,0", "--band-radius", "nan"),
             "radius must be positive and finite, got nan"),
            (("--band-center", "1,0", "--band-radius", "inf"),
             "radius must be positive and finite, got inf"),
            (("--band-center", "1,0", "--band-radius", "-0.5"),
             "radius must be positive and finite, got -0.5"),
            (("--band-center", "nan,0", "--band-radius", "0.1"),
             "center must be finite, got [nan, 0.0]"),
        ],
        ids=["direction-nan", "t-nan", "t-inf", "radius-nan", "radius-inf", "radius-negative",
             "center-nan"],
    )
    def test_non_finite_line_or_ball_exits_2(self, capsys, gauss_csv, flags, text):
        # also after --bound, whose lines must not be printed either
        for bound in ((), ("--bound",)):
            code, out, err = run(capsys, "fourier", "--signal", gauss_csv, *bound, *flags)
            assert code == 2
            assert out == ""
            assert err == f"error: {text}\n"

    @pytest.mark.parametrize(
        "flags, text",
        [
            (("--t", "0,1"), "--t needs --direction"),
            (("--band-radius", "0.1"), "--band-radius needs --band-center"),
            (("--band-center", "1,0"), "--band-center needs --band-radius"),
            (("--snr", "missing.csv"), "--snr needs --esd"),
        ],
        ids=["t", "band-radius", "band-center", "snr"],
    )
    def test_flag_without_its_companion_exits_2(self, capsys, gauss_csv, flags, text):
        # --bound would print first, so an empty stdout shows the check runs before it
        code, out, err = run(capsys, "fourier", "--signal", gauss_csv, "--bound", *flags)
        assert code == 2
        assert out == ""
        assert err == f"error: {text}\n"

    @pytest.mark.parametrize(
        "flags",
        [
            ("--band-center", "-2,1", "--band-radius", "0.1"),
            ("--direction", "-0.6,0.8", "--t", "-1,0,1"),
        ],
        ids=["band-center", "direction-t"],
    )
    def test_negative_vector_after_a_space(self, capsys, gauss_csv, flags):
        eq_form = [f"{flag}={value}" for flag, value in zip(flags[::2], flags[1::2])]
        expect = run(capsys, "fourier", "--signal", gauss_csv, *eq_form)
        assert expect[0] == 0
        assert run(capsys, "fourier", "--signal", gauss_csv, *flags) == expect

    @pytest.mark.parametrize(
        "flags",
        [
            ["--direction", "1,1"],
            ["--esd", "2", "--snr", "line.csv"],
            ["--band-center", "100,100", "--band-radius", "0.01"],
        ],
        ids=["non-unit-direction", "snr-of-a-1d-signal", "empty-band"],
    )
    def test_refusal_after_bound_prints_nothing(self, capsys, tmp_path, flags):
        (tmp_path / "line.csv").write_text("# dx=1\n" + "1\n" * 16)
        flags = [str(tmp_path / f) if f.endswith(".csv") else f for f in flags]
        code, out, err = run(capsys, "fourier", "--signal", _signal(tmp_path, "s.csv", 16),
                             "--bound", *flags)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    HUGE = "# dx=1 dy=1\n1e308,-1e308\n-1e308,1e308\n"  # its spectrum overflows

    @pytest.mark.parametrize(
        "text, flags, quantity",
        [
            (HUGE, ["--bound"], "spectral_bound"),
            (HUGE, ["--esd", "2"], "esd"),
            (HUGE, ["--direction", "0.6,0.8", "--t", "0,1"], "directional transform"),
            (HUGE, ["--band-center", "0,0", "--band-radius", "0.5"], "band removal"),
            # the spectrum is finite, the norm of the removed part is not
            ("# dx=0.5 dy=2\n1.3407807929942597e+154\n",
             ["--band-center", "0,0", "--band-radius", "0.5"], "band removal"),
        ],
        ids=["bound", "esd", "direction", "band-spectrum", "band-eps"],
    )
    def test_overflow_exits_5_naming_the_quantity(self, capsys, tmp_path, text, flags, quantity):
        path = tmp_path / "huge.csv"
        path.write_text(text)
        code, out, err = run(capsys, "fourier", "--signal", str(path), *flags)
        message = f"numeric error: {quantity}: overflow in its float64 arithmetic\n"
        assert (code, out, err) == (5, "", message)

    @pytest.mark.parametrize("huge", ["signal", "noise"])
    def test_snr_overflow_names_the_input(self, capsys, tmp_path, huge):
        paths = {name: tmp_path / f"{name}.csv" for name in ("signal", "noise")}
        for name, path in paths.items():
            path.write_text(self.HUGE if name == huge else "# dx=1 dy=1\n1,-1\n-1,1\n")
        code, out, err = run(capsys, "fourier", "--signal", str(paths["signal"]),
                             "--esd", "2", "--snr", str(paths["noise"]))
        assert (code, out, err) == (5, "", f"numeric error: {_OVERFLOW % (huge + ' esd')}\n")

    def test_one_sample_bound_exits_2(self, capsys, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text("# dx=1\n1\n")
        code, out, err = run(capsys, "fourier", "--signal", str(path), "--bound")
        assert (code, out) == (2, "")
        assert err == "error: grid gradient needs at least 2 samples per axis, got grid (1,)\n"


class TestDynamics:
    def test_forces_and_trajectory(self, capsys, tmp_path):
        rng = np.random.default_rng(3)
        from conftest import random_matrix_with_spectrum

        theta = DenseMatrix(random_matrix_with_spectrum(rng, 3, 3, [2.0, 1.0, 0.5]))
        save_matrix_csv(tmp_path / "theta.csv", theta)
        save_matrix_csv(tmp_path / "grad.csv", DenseMatrix(np.zeros((3, 3))))
        save_matrix_csv(tmp_path / "cov.csv", DenseMatrix(np.eye(9)))
        traj_path = tmp_path / "traj.csv"
        code, out, _ = run(
            capsys, "dynamics",
            "--matrix", str(tmp_path / "theta.csv"),
            "--grad", str(tmp_path / "grad.csv"),
            "--cov", str(tmp_path / "cov.csv"),
            "--eta", "1e-4", "--dt", "0.01", "--steps", "10",
            "--store-every", "5", "--traj-out", str(traj_path),
        )
        assert code == 0
        assert "kappa" in out
        lines = traj_path.read_text().strip().splitlines()
        assert lines[0] == "step,sigma1,Z,mu,kappa,lambda_norm"
        assert len(lines) == 4  # steps 0, 5, 10 plus header

    def test_shape_mismatch_is_parse_error(self, capsys, tmp_path):
        save_matrix_csv(tmp_path / "theta.csv", DenseMatrix(np.diag([2.0, 1.0])))
        save_matrix_csv(tmp_path / "grad.csv", DenseMatrix(np.zeros((3, 3))))
        save_matrix_csv(tmp_path / "cov.csv", DenseMatrix(np.eye(4)))
        code, _, _ = run(
            capsys, "dynamics",
            "--matrix", str(tmp_path / "theta.csv"),
            "--grad", str(tmp_path / "grad.csv"),
            "--cov", str(tmp_path / "cov.csv"),
            "--eta", "0.1",
        )
        assert code == 2


class TestShapley:
    def test_additive_game(self, capsys, tmp_path):
        from lipkit.specgame import CoalitionGame, save_game_csv

        game = CoalitionGame.from_callback(lambda m: float(bin(m).count("1")), 3)
        path = tmp_path / "game.csv"
        save_game_csv(path, game)
        code, out, _ = run(capsys, "shapley", "--game", str(path), "--score")
        assert code == 0
        psi_lines = [l for l in out.splitlines() if l.startswith("psi")]
        assert [float(l.split("=")[1]) for l in psi_lines] == [1.0, 1.0, 1.0]
        assert "score = 0" in out

    def test_mc_mode_reports_bound(self, capsys, tmp_path):
        from lipkit.specgame import CoalitionGame, save_game_csv

        rng = np.random.default_rng(6)
        save_game_csv(tmp_path / "g.csv", CoalitionGame(3, rng.standard_normal(8)))
        code, out, _ = run(
            capsys, "shapley", "--game", str(tmp_path / "g.csv"),
            "--mc-perms", "200", "--seed", "1",
        )
        assert code == 0
        assert "err_bound" in out

    def test_mc_mode_reads_the_table_without_unique(self, capsys, tmp_path, monkeypatch):
        from lipkit.specgame import CoalitionGame, save_game_csv

        calls = []
        unique = np.unique

        def counting_unique(*args, **kwargs):
            calls.append(1)
            return unique(*args, **kwargs)

        save_game_csv(tmp_path / "g.csv", CoalitionGame(5, np.arange(32.0) ** 1.5))
        monkeypatch.setattr(np, "unique", counting_unique)
        code, out, _ = run(
            capsys, "shapley", "--game", str(tmp_path / "g.csv"),
            "--mc-perms", "500", "--seed", "2",
        )
        assert code == 0
        assert "err_bound" in out
        assert calls == []

    def test_one_permutation_bound_is_inf(self, capsys, tmp_path):
        # the exact values are (2, 3); one permutation gives (1, 4) or
        # (2, 3) and can say nothing about its own error
        code, out, _ = run(capsys, *_game(tmp_path, "0,0\n1,1\n2,2\n3,5\n"), "--mc-perms", "1")
        assert code == 0
        assert out.splitlines()[0] == "err_bound = inf"

    @pytest.mark.parametrize("flags, psi", [
        # exact: (7/3, 10/3, 13/3) as the weighted sums round them
        ([], ["2.333333333333333", "3.333333333333333", "4.333333333333333"]),
        # five sampled orders give (12/5, 16/5, 22/5)
        (["--mc-perms", "5", "--seed", "3"],
         ["2.3999999999999999", "3.2000000000000002", "4.4000000000000004"]),
    ], ids=["exact", "mc"])
    def test_out_file_bytes(self, capsys, tmp_path, flags, psi):
        out_path = tmp_path / "psi.csv"
        argv = _game(tmp_path, "0,0\n1,1\n2,2\n3,4\n4,3\n5,5\n6,6\n7,10\n")
        code, out, _ = run(capsys, *argv, *flags, "--out", str(out_path))
        assert code == 0
        assert out_path.read_bytes() == b"player,psi\n" + b"".join(
            f"{i},{val}\n".encode() for i, val in enumerate(psi)
        )
        assert [f"psi[{i}] = {val}" for i, val in enumerate(psi)] == [
            line for line in out.splitlines() if line.startswith("psi")
        ]

    @pytest.mark.parametrize(
        "beta, text",
        [
            ("1,2", "beta must have length 3"),
            ("1,2,nan", "beta weights must be finite, got [1.0, 2.0, nan]"),
            ("1,2,inf", "beta weights must be finite, got [1.0, 2.0, inf]"),
            ("-inf,1,1", "beta weights must be nonnegative"),
        ],
        ids=["short", "nan", "inf", "-inf"],
    )
    def test_refused_beta_prints_nothing(self, capsys, tmp_path, beta, text):
        argv = _game(tmp_path, "0,0\n1,1\n2,1\n3,2\n4,1\n5,2\n6,2\n7,3\n")
        code, out, err = run(capsys, *argv, "--score", "--beta", beta)
        assert (code, out, err) == (2, "", f"error: {text}\n")

    @pytest.mark.parametrize("text, mask", [
        ("".join(f"{m},{m}\n" for m in range(16)), 8),  # a whole 4-player table
        ("0,0\n12,2\n9,1\n", 9),  # masks below 8 are missing too
    ], ids=["complete", "gaps"])
    def test_mask_beyond_the_player_count_is_named(self, capsys, tmp_path, text, mask):
        argv = _game(tmp_path, text)
        code, out, err = run(capsys, *argv, "--players", "3")
        assert (code, out, err) == (2, "", f"error: {argv[-1]}: mask {mask} needs more than 3 players\n")

    def test_non_finite_value_exits_2_naming_the_line(self, capsys, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text("0,0\n1,nan\n")
        code, out, err = run(capsys, "shapley", "--game", str(path))
        assert code == 2
        assert out == ""
        assert f"{path}:2: " in err


@pytest.mark.parametrize(
    "argv, text",
    [
        (["svd-deriv", "--k", "1", "--order", "1", "--matrix"], "1,2\n3,4\nnan,5\n"),
        (["fourier", "--bound", "--signal"], "# dx=1\n1\n-inf\n"),
    ],
    ids=["matrix", "signal"],
)
def test_non_finite_entry_exits_2_naming_the_line(capsys, tmp_path, argv, text):
    path = tmp_path / "in.csv"
    path.write_text(text)
    code, out, err = run(capsys, *argv, str(path))
    assert code == 2
    assert out == ""
    assert f"{path}:3: " in err


@pytest.mark.parametrize(
    "argv, valid",
    [
        (["svd-deriv", "--k", "1", "--order", "1", "--matrix"], b"1,2\n3,4\n"),
        (["fourier", "--bound", "--signal"], b"# dx=1\n1\n2\n"),
        (["shapley", "--game"], b"0,0\n1,1\n"),
        (["bound", "--net"], b'{"nodes": [{"id": "in", "kind": "input"}], "edges": []}'),
        (["dynamics", "--matrix", "m.csv", "--cov", "m.csv", "--eta", "0.1", "--grad"],
         b"1,0\n0,2\n"),
    ],
    ids=["matrix", "signal", "game", "network-json", "dynamics-grad"],
)
def test_non_utf8_input_exits_2_naming_the_file(capsys, tmp_path, argv, valid):
    # a byte that is no UTF-8 in a file that is otherwise valid, past its first line
    cut = valid.index(b"\n" if b"\n" in valid else b",") + 1
    path = tmp_path / "in.txt"
    path.write_bytes(valid[:cut] + b"\xff\xfe" + valid[cut:])
    (tmp_path / "m.csv").write_bytes(b"1,0\n0,2\n")
    argv = [str(tmp_path / arg) if arg == "m.csv" else arg for arg in argv]
    code, out, err = run(capsys, *argv, str(path))
    assert (code, out, err) == (2, "", f"error: {path}: not UTF-8 text\n")


class TestParserContract:
    def test_unknown_flag_is_hard_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bound", "--net", "x.json", "--frobble"])
        assert exc.value.code == 2

    def test_every_subcommand_has_help(self, capsys):
        parser = build_parser()
        for cmd in ("bound", "svd-deriv", "activation", "fourier", "dynamics", "shapley"):
            with pytest.raises(SystemExit) as exc:
                parser.parse_args([cmd, "--help"])
            assert exc.value.code == 0
            out = capsys.readouterr().out
            assert "--help" in out or "usage" in out

    def test_help_lists_all_flags(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fourier", "--help"])
        out = capsys.readouterr().out
        for flag in ("--signal", "--bound", "--band-center", "--band-radius", "--esd", "--snr", "--direction", "--out"):
            assert flag in out


def _network(tmp_path, doc):
    path = tmp_path / "net.json"
    path.write_text(json.dumps(doc))
    return ["bound", "--net", str(path)]


def _net_with(node):
    """The chain in -> ``node`` -> out, with one 2x2 matrix ``w``."""
    return {
        "nodes": [{"id": "in", "kind": "input"}, node, {"id": "out", "kind": "scalar_lip", "lip": 1.0}],
        "edges": [["in", node["id"]], [node["id"], "out"]],
        "matrices": {"w": {"rows": 2, "cols": 2, "data": [1, 0, 0, 1]}},
    }


def _with_data(data):
    """``_net_with`` a linear node on ``w``, whose data is ``data``."""
    doc = _net_with({"id": "l", "kind": "linear", "weight_ref": "w"})
    doc["matrices"]["w"]["data"] = data
    return doc


def _with_inline_w_q(w_q):
    """``_net_with`` a hu_local node whose W_Q is the inline matrix ``w_q``."""
    params = {"n": 2, "x_norm": 1.0, "w_v": "w", "w_q": w_q, "w_k": "w"}
    return _net_with({"id": "a", "kind": "attention", "attention_kind": "hu_local",
                      "params": params})


def _signal(tmp_path, name, n):
    path = tmp_path / name
    rows = "\n".join(",".join(["1"] * n) for _ in range(n))
    path.write_text(f"# dx=1 dy=1\n{rows}\n")
    return str(path)


def _dynamics(tmp_path, cov):
    argv = ["dynamics", "--eta", "0.1"]
    for name, array in (("matrix", np.diag([2.0, 1.0])), ("grad", np.zeros((2, 2))), ("cov", cov)):
        save_matrix_csv(tmp_path / f"{name}.csv", DenseMatrix(array))
        argv += [f"--{name}", str(tmp_path / f"{name}.csv")]
    return argv


def _game(tmp_path, text):
    path = tmp_path / "game.csv"
    path.write_text(text)
    return ["shapley", "--game", str(path)]


# validation failures the CLI can reach; PAPER.md gives them exit code 2
RECLASSIFIED = {
    "unknown-activation-name": lambda d: ["activation", "--name", "selu"],
    "unknown-activation-in-json": lambda d: _network(
        d, _net_with({"id": "a", "kind": "activation", "activation": "selu"})),
    "missing-attention-parameter": lambda d: _network(
        d, _net_with({"id": "a", "kind": "attention", "attention_kind": "hu_local",
                      "params": {"x_norm": 1.0, "w_v": "w", "w_q": "w", "w_k": "w"}})),
    "unknown-attention-kind": lambda d: _network(
        d, _net_with({"id": "a", "kind": "attention", "attention_kind": "bogus"})),
    "non-unit-direction": lambda d: ["fourier", "--signal", _signal(d, "s.csv", 4),
                                     "--direction", "1,1"],
    "snr-grid-mismatch": lambda d: ["fourier", "--signal", _signal(d, "s.csv", 4), "--esd", "2",
                                    "--snr", _signal(d, "noise.csv", 6)],
    "non-psd-covariance": lambda d: _dynamics(d, -np.eye(4)),
    "all-zero-score-weights": lambda d: _game(d, "0,0\n1,1\n2,1\n3,2\n") + [
        "--score", "--beta", "0,0"],
    "negative-hu-local-delta": lambda d: _network(
        d, _net_with({"id": "a", "kind": "attention", "attention_kind": "hu_local",
                      "params": {"n": 2, "x_norm": 1.0, "delta": -3.0,
                                 "w_v": "w", "w_q": "w", "w_k": "w"}})),
}


@pytest.mark.parametrize("case", RECLASSIFIED)
def test_validation_failure_exits_2(capsys, tmp_path, case):
    code, _, err = run(capsys, *RECLASSIFIED[case](tmp_path))
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "doc, names",
    [
        ({"nodes": [1]}, ["node", "1"]),
        ({"matrices": {"w": 5}}, ["matrix 'w'", "5"]),
        (_net_with({"id": "l", "kind": "linear", "weight_ref": ["w"]}), ["node 'l'", "'weight_ref'"]),
        (_net_with({"id": ["l"], "kind": "linear", "weight_ref": "w"}), ["node", "'id'"]),
        (_net_with({"id": "r", "kind": "residual_group", "inner_lip": "x"}), ["node 'r'", "'inner_lip'"]),
        (_net_with({"id": "c", "kind": "scalar_lip", "lip": "x"}), ["node 'c'", "'lip'"]),
        ([{"id": "in", "kind": "input"}], ["network", "'document'"]),
        (_with_data(["1", "0", True, "1e0"]), ["matrix 'w'", "'data'[0]", "got '1'"]),
        (_with_data([1, 0, True, 1]), ["matrix 'w'", "'data'[2]", "got True"]),
        (_with_data([1, None, 0, 1]), ["matrix 'w'", "'data'[1]", "got None"]),
        (_with_data([[1, 0], [0, 1]]), ["matrix 'w'", "'data'[0]", "got [1, 0]"]),
        (_with_data([1, 0, 0, 10**400]), ["matrix 'w'", "'data'[3]", "got 1000"]),
        (_with_inline_w_q([["2", True]]), ["node 'a'", "'w_q'[0][0]", "got '2'"]),
        (_with_inline_w_q([[2, True]]), ["node 'a'", "'w_q'[0][1]", "got True"]),
    ],
    ids=["node-not-object", "matrix-not-object", "list-weight-ref", "list-id",
         "string-inner-lip", "string-lip", "top-level-array", "data-strings", "data-bool",
         "data-null", "data-nested", "data-huge-int", "inline-string", "inline-bool"],
)
def test_mistyped_network_field_exits_2_naming_it(capsys, tmp_path, doc, names):
    code, out, err = run(capsys, *_network(tmp_path, doc))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    for name in names:
        assert name in err


@pytest.mark.parametrize(
    "argv, text",
    [
        (lambda d: _game(d, "0,0\n1,1\n") + ["--players", "-1"],
         "player count must be at least 1, got -1"),
        (lambda d: _game(d, "0,0\n1,1\n") + ["--players", "0"],
         "player count must be at least 1, got 0"),
        (lambda d: _game(d, "0,0\n1,1\n") + ["--mc-perms", "0"],
         "--mc-perms must be at least 1, got 0"),
        # the signal file does not exist: the ring count is refused before it is read
        (lambda d: ["fourier", "--signal", str(d / "missing.csv"), "--esd", "0"],
         "--esd must be at least 1, got 0"),
    ],
    ids=["players-negative", "players-zero", "mc-perms-zero", "esd-zero"],
)
def test_count_below_one_exits_2(capsys, tmp_path, argv, text):
    code, out, err = run(capsys, *argv(tmp_path))
    assert code == 2
    assert out == ""
    assert err == f"error: {text}\n"


@pytest.mark.parametrize(
    "flags, text",
    [
        (["--name", "softmax", "--numeric", "--restarts", "0"], "--restarts must be at least 1, got 0"),
        (["--name", "softmax", "--numeric", "--restarts", "-2"], "--restarts must be at least 1, got -2"),
        (["--name", "softmax", "--dim", "0"], "--dim must be at least 2, got 0"),
        (["--name", "tanh", "--numeric", "--domain", "nan", "5"],
         "domain must be finite with lo < hi, got (nan, 5.0)"),
        (["--name", "tanh", "--numeric", "--domain", "inf", "5"],
         "domain must be finite with lo < hi, got (inf, 5.0)"),
        (["--name", "tanh", "--numeric", "--domain", "3", "3"],
         "domain must be finite with lo < hi, got (3.0, 3.0)"),
        (["--name", "leaky_relu", "--alpha", "nan"], "alpha must be a finite number, got nan"),
    ],
    ids=["restarts-zero", "restarts-negative", "dim-zero", "domain-nan", "domain-inf",
         "domain-empty", "alpha-nan"],
)
def test_activation_input_out_of_range_exits_2(capsys, flags, text):
    code, out, err = run(capsys, "activation", *flags)
    assert code == 2
    assert out == ""
    assert err == f"error: {text}\n"


@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
@pytest.mark.parametrize(
    "flag, text",
    [("--eta", "learning rate eta must be positive and finite"),
     ("--dt", "time step dt must be positive and finite")],
    ids=["eta", "dt"],
)
def test_dynamics_rate_out_of_range_exits_2(capsys, tmp_path, flag, text, value):
    traj = tmp_path / "traj.csv"
    argv = _dynamics(tmp_path, np.eye(4)) + ["--traj-out", str(traj), flag, value]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {text}, got {float(value)}\n"
    assert not traj.exists()


@pytest.mark.parametrize(
    "flags, text",
    [
        (["--dt", "nan"], "time step dt must be positive and finite, got nan"),
        (["--dt", "0"], "time step dt must be positive and finite, got 0.0"),
        (["--steps", "-5", "--store-every", "0"], "steps must be >= 1"),
        (["--store-every", "0"], "store_every must be >= 1"),
        (["--seed", "-1"], "--seed must be nonnegative, got -1"),
    ],
    ids=["dt-nan", "dt-zero", "steps-negative", "store-every-zero", "seed-negative"],
)
def test_dynamics_trajectory_flags_checked_without_traj_out(capsys, tmp_path, flags, text):
    code, out, err = run(capsys, *_dynamics(tmp_path, np.eye(4)), *flags)
    assert code == 2
    assert out == ""
    assert err == f"error: {text}\n"


@pytest.mark.parametrize(
    "argv",
    [
        lambda d: _network(d, _net_with({"id": "l", "kind": "linear", "weight_ref": "w"})),
        lambda d: _network(d, _net_with({"id": "l", "kind": "linear", "weight_ref": "w"}))
        + ["--spectral", "power"],
        lambda d: ["activation", "--name", "gelu", "--numeric"],
        lambda d: ["activation", "--name", "softmax", "--numeric"],
        lambda d: _game(d, "0,0\n1,1\n2,2\n3,5\n"),
        lambda d: _game(d, "0,0\n1,1\n2,2\n3,5\n") + ["--mc-perms", "10"],
        lambda d: _dynamics(d, np.eye(4)),
    ],
    ids=["bound", "bound-power", "activation-gelu", "activation-softmax", "shapley-exact",
         "shapley-mc", "dynamics"],
)
def test_negative_seed_exits_2_naming_the_flag(capsys, tmp_path, argv):
    code, out, err = run(capsys, *argv(tmp_path), "--seed", "-1")
    assert code == 2
    assert out == ""
    assert err == "error: --seed must be nonnegative, got -1\n"


@pytest.mark.parametrize("iters", ["0", "-3"])
@pytest.mark.parametrize("method", ["dag", "articulation", "product"])
def test_bound_iters_below_one_exits_2_without_power_iteration(capsys, tmp_path, method, iters):
    # no node of this net is estimated by power iteration
    out = tmp_path / "lips.csv"
    argv = _network(tmp_path, _net_with({"id": "a", "kind": "activation", "activation": "relu"}))
    code, stdout, err = run(capsys, *argv, "--method", method, "--iters", iters,
                            "--out", str(out))
    assert code == 2
    assert stdout == ""
    assert err == f"error: --iters must be at least 1, got {int(iters)}\n"
    assert not out.exists()


def test_bound_iters_checked_before_the_net_is_read(capsys, tmp_path):
    code, out, err = run(capsys, "bound", "--net", str(tmp_path / "missing.json"),
                         "--iters", "0")
    assert (code, out, err) == (2, "", "error: --iters must be at least 1, got 0\n")


@pytest.mark.parametrize("name", ["leaky_relu", "elu"])
def test_negative_alpha_bound_is_its_magnitude(capsys, tmp_path, name):
    node = {"id": "a", "kind": "activation", "activation": {"name": name, "alpha": -2}}
    code, out, _ = run(capsys, *_network(tmp_path, _net_with(node)))
    assert code == 0
    assert "bound = 2\n" in out


@pytest.mark.parametrize(
    "activation, field",
    [({"name": "relu", "alpha": 5}, "alpha"), ({"name": "tanh", "dim": 7}, "dim"),
     ({"name": "softmax", "dim": 3, "alpha": 3}, "alpha")],
    ids=["relu-alpha", "tanh-dim", "softmax-alpha"],
)
def test_activation_field_it_does_not_read_exits_2(capsys, tmp_path, activation, field):
    node = {"id": "a", "kind": "activation", "activation": activation}
    text = f"node 'a': activation {activation['name']!r} does not read {field!r}"
    assert run(capsys, *_network(tmp_path, _net_with(node))) == (2, "", f"error: {text}\n")


@pytest.mark.parametrize(
    "kind, params",
    [("hu_local", {"n": 2, "x": [[1e200, 1e200]], "w_v": "w", "w_q": "w", "w_k": "w"}),
     ("kim_linf", {"heads": [["w", "w"]], "w_o": [[1e308, 1e308], [1e308, 1e308]], "n": 2, "d": 2})],
    ids=["hu_local-frobenius-norm", "kim_linf-row-sum"],
)
def test_attention_overflow_exits_5_naming_it(capsys, tmp_path, kind, params):
    node = {"id": "a", "kind": "attention", "attention_kind": kind, "params": params}
    code, out, err = run(capsys, *_network(tmp_path, _net_with(node)))
    assert (code, out, err) == (5, "", f"numeric error: node 'a': {_OVERFLOW % kind}\n")


@pytest.mark.parametrize(
    "kind, params",
    [("kim_l2", {"heads": [[[[1e154]], [[1e154]]]], "w_o": [[1]], "n": 3, "d": 2}),
     # a head norm whose square alone overflows
     ("kim_l2", {"heads": [[[[1e200]], [[1]]]], "w_o": [[1]], "n": 3, "d": 2}),
     ("hu_local", {"n": 2, "x_norm": 1.0, "w_v": [[1e200]], "w_q": [[1e200]], "w_k": [[1]]})],
    ids=["kim_l2", "kim_l2-square", "hu_local"],
)
def test_attention_bound_overflowing_to_inf_exits_5(capsys, tmp_path, kind, params):
    node = {"id": "a", "kind": "attention", "attention_kind": kind, "params": params}
    text = f"numeric error: node 'a': {_OVERFLOW % kind}\n"
    assert run(capsys, *_network(tmp_path, _net_with(node))) == (5, "", text)


def test_network_load_holds_one_matrix_of_python_floats_at_a_time(tmp_path):
    """Each matrix's data becomes an array as its JSON object closes, so the
    load peaks below the file text, two matrices' lists of Python floats and
    the arrays it returns (this bound also covers reading the text, which
    holds it twice for a moment); holding four lists at once does not fit."""
    n = 256
    rng = np.random.default_rng(0)
    data = {f"w{i}": rng.standard_normal(n * n).tolist() for i in range(4)}
    doc = {"nodes": [{"id": "in", "kind": "input"}]
           + [{"id": f"l{i}", "kind": "linear", "weight_ref": f"w{i}"} for i in range(4)],
           "edges": [["in", "l0"], ["l0", "l1"], ["l1", "l2"], ["l2", "l3"]],
           "matrices": {ref: {"rows": n, "cols": n, "data": d} for ref, d in data.items()}}
    path = tmp_path / "net.json"
    path.write_text(json.dumps(doc))
    one_list = json.dumps(data["w0"])
    del doc, data
    tracemalloc.start()
    try:
        floats = json.loads(one_list)
        float_list = tracemalloc.get_traced_memory()[0]
        del floats
        tracemalloc.reset_peak()
        g = load_network_json(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    arrays = sum(m.array.nbytes for m in g.matrices.values())
    bound = path.stat().st_size + 2 * float_list + arrays
    assert peak < bound, f"tracemalloc peak {peak / 1e6:.2f} MB, bound {bound / 1e6:.2f} MB"


@pytest.mark.parametrize(
    "argv, header, text",
    [(["svd-deriv", "--k", "1", "--order", "1", "--matrix"], "", "empty matrix file"),
     (["fourier", "--bound", "--signal"], "# dx=1\n", "no samples"),
     (["shapley", "--game"], "", "empty game table")],
    ids=["matrix", "signal", "game"],
)
def test_blank_only_table_exits_2_without_a_warning(capsys, tmp_path, argv, header, text):
    # blank lines alone fill more than one block of the readers
    path = tmp_path / "in.csv"
    path.write_text(header + "\n" * (2 * matcore._BLOCK_BYTES + 1))
    assert run(capsys, *argv, str(path)) == (2, "", f"error: {path}: {text}\n")


def test_hessian_of_a_huge_singular_value_names_the_overflow(capsys, tmp_path):
    path = tmp_path / "big.csv"
    path.write_text("1e200,0\n0,1\n")
    code, out, err = run(capsys, "svd-deriv", "--matrix", str(path), "--k", "1", "--order", "2")
    assert code == 5
    assert out == ""
    assert err == f"numeric error: {_OVERFLOW % 'Hessian'}\n"


def _attention_net(kind, params):
    node = {"id": "a", "kind": "attention", "attention_kind": kind, "params": params}
    return json.dumps(_net_with(node))


_KIM = {"heads": [[[[1e200]], [[1e200]]]], "w_o": [[1e200]], "n": 3, "d": 2}
_LAYER = {"m.csv": "1,1\n1,0.5\n", "c.csv": "1,0,0,0\n0,1,0,0\n0,0,1,0\n0,0,0,1\n"}
_DYNAMICS = ["dynamics", "--matrix", "m.csv", "--grad", "g.csv", "--cov", "c.csv"]
_GAME = {"game.csv": "0,0\n1,1e308\n2,1e308\n3,-1e308\n"}


@pytest.mark.parametrize(
    "files, argv, quantity",
    [({"m.csv": "1e200,0\n0,1\n"},
      ["svd-deriv", "--matrix", "m.csv", "--k", "1", "--order", "2", "--out", "h.csv"], "Hessian"),
     *(({"net.json": _attention_net(kind, _KIM)}, ["bound", "--net", "net.json", "--out", "n.csv"],
        f"node 'a': {kind}") for kind in ("kim_l2", "kim_linf")),
     ({"net.json": _attention_net("hu_local", {"n": 2, "x_norm": 1e200, "w_v": "w", "w_q": "w",
                                               "w_k": "w"})},
      ["bound", "--net", "net.json"], "node 'a': hu_local"),
     ({"net.json": _attention_net("yudin", {"x": [[1e200, 1]], "w_q": "w", "w_k": "w", "w_v": "w"})},
      ["bound", "--net", "net.json"], "node 'a': yudin"),
     ({**_LAYER, "g.csv": "1e308,1e308\n1e308,1e308\n"}, [*_DYNAMICS, "--eta", "0.1"],
      "driving forces"),
     ({**_LAYER, "g.csv": "0,0\n0,0\n", "c.csv": _LAYER["c.csv"].replace("1", "1e308")},
      [*_DYNAMICS, "--eta", "1e10"], "covariance root"),
     ({**_LAYER, "m.csv": "2,0\n0,1\n", "g.csv": "1e308,0\n0,0\n"},
      [*_DYNAMICS, "--eta", "0.1", "--dt", "10", "--steps", "3", "--traj-out", "t.csv"],
      "trajectory"),
     (_GAME, ["shapley", "--game", "game.csv", "--out", "psi.csv"], "psi"),
     (_GAME, ["shapley", "--game", "game.csv", "--mc-perms", "10", "--out", "psi.csv"], "psi")],
    ids=["svd-deriv", "kim_l2", "kim_linf", "hu_local", "yudin", "dynamics-drift",
         "dynamics-covariance", "dynamics-trajectory", "shapley", "shapley-mc"],
)
def test_overflow_exits_5_in_one_wording(capsys, tmp_path, monkeypatch, files, argv, quantity):
    # nothing on stdout, no warning line and no output file
    monkeypatch.chdir(tmp_path)
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    assert run(capsys, *argv) == (5, "", f"numeric error: {_OVERFLOW % quantity}\n")
    assert sorted(path.name for path in tmp_path.iterdir()) == sorted(files)


def test_huge_game_mask_exits_2_without_building_the_mask_set(capsys, tmp_path):
    # 2^40 implies 41 players; comparing sets of all 2^41 masks cannot fit in memory
    code, _, err = run(capsys, *_game(tmp_path, f"0,1\n{1 << 40},2\n"))
    assert code == 2
    assert "incomplete for 41 players (missing masks [1, 2, 3, 4]...)" in err


def test_huge_player_count_is_refused_in_small_memory(capsys, tmp_path):
    # the missing masks are found below len(rows) + 4; 1 << 10^9 alone
    # would be a 125 MB integer
    argv = _game(tmp_path, "0,0\n1,1\n")
    tracemalloc.start()
    try:
        code, out, err = run(capsys, *argv, "--players", "1000000000")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and out == ""
    assert err.endswith(
        ": table incomplete for 1000000000 players (missing masks [2, 3, 4, 5]...)\n"
    )
    assert peak < 1e6, f"tracemalloc peak {peak / 1e6:.1f} MB"


@pytest.mark.parametrize("method", ["product", "dag", "articulation"])
def test_bound_includes_the_source_constant(capsys, tmp_path, method):
    doc = {
        "nodes": [{"id": "w", "kind": "linear", "weight_ref": "w"},
                  {"id": "a", "kind": "activation", "activation": "relu"}],
        "edges": [["w", "a"]],
        "matrices": {"w": {"rows": 2, "cols": 2, "data": [3, 0, 0, 1]}},
    }
    code, out, _ = run(capsys, *_network(tmp_path, doc), "--method", method)
    assert code == 0
    assert "bound = 3\n" in out


@pytest.mark.parametrize("method", ["product", "dag", "articulation"])
def test_nan_bound_exits_5(capsys, tmp_path, method):
    # 1e200 * 1e200 overflows to inf, and inf * 0 is nan. product reads
    # chains only; for the path sums the skip edge in -> c leaves no cut
    # vertex, so the 0 cannot be multiplied in first
    nodes = [{"id": "in", "kind": "input"}] + [
        {"id": nid, "kind": "scalar_lip", "lip": lip}
        for nid, lip in (("a", 1e200), ("b", 1e200), ("c", 0))
    ]
    edges = [["in", "a"], ["a", "b"], ["b", "c"]]
    if method != "product":
        edges.append(["in", "c"])
    out_path = tmp_path / "lips.csv"
    code, out, err = run(capsys, *_network(tmp_path, {"nodes": nodes, "edges": edges}),
                         "--method", method, "--out", str(out_path))
    assert code == 5
    assert out == "" and not out_path.exists()
    assert err.startswith("numeric error: bound is nan")


def test_refused_allocation_exits_5(capsys, monkeypatch):
    # numpy refuses the dim x dim Jacobian of a 100000-logit softmax with a
    # MemoryError; raised here without asking for the memory
    def refuse(*args, **kwargs):
        raise MemoryError("Unable to allocate 74.5 GiB for an array with shape (100000, 100000)")

    monkeypatch.setattr(activations, "numeric_softmax_lipschitz", refuse)
    code, out, err = run(capsys, "activation", "--name", "softmax", "--dim", "100000", "--numeric")
    assert (code, out) == (5, "")
    assert err == (
        "numeric error: Unable to allocate 74.5 GiB for an array with shape (100000, 100000)\n"
    )


@pytest.mark.parametrize("command", ["bound", "fourier", "dynamics", "shapley"])
def test_unwritable_output_file_exits_2_printing_nothing(capsys, tmp_path, command):
    missing = str(tmp_path / "missing" / "out.csv")
    argv = {
        "bound": lambda: _network(tmp_path, _net_with({"id": "a", "kind": "linear", "weight_ref": "w"}))
        + ["--out", missing],
        "fourier": lambda: ["fourier", "--signal", _signal(tmp_path, "s.csv", 4), "--esd", "2",
                            "--out", missing],
        "dynamics": lambda: _dynamics(tmp_path, np.eye(4)) + ["--traj-out", missing],
        "shapley": lambda: _game(tmp_path, "0,0\n1,1\n2,2\n3,5\n") + ["--out", missing],
    }[command]()
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: [Errno 2] No such file or directory: {missing!r}\n"


# the required flags of each subcommand and a value for each flag that a
# needs row names; no file exists, so a refusal shows that none was read
_REQUIRED = {
    "bound": ["--net", "net.json"],
    "svd-deriv": ["--matrix", "m.csv", "--k", "1", "--order", "1"],
    "activation": ["--name", "gelu"],
    "fourier": ["--signal", "s.csv"],
    "dynamics": ["--matrix", "m.csv", "--grad", "g.csv", "--cov", "c.csv", "--eta", "0.1"],
    "shapley": ["--game", "g.csv"],
}
_FLAG_VALUES = {
    "--step": ["1e-4"], "--domain": ["-5", "5"], "--grid": ["100"], "--restarts": ["3"],
    "--band-center": ["1,0"], "--band-radius": ["0.1"], "--t": ["0,1"], "--snr": ["n.csv"],
    "--out": ["out.csv"], "--beta": ["1,1"], "--seed": ["3"],
}
_SUBPARSERS = next(a for a in build_parser()._actions if isinstance(a.choices, dict)).choices
_NEEDS = [
    (command, flag, companion)
    for command, p in _SUBPARSERS.items() for flag, companion in p.get_default("needs") or ()
]


def test_every_subcommand_declares_its_flag_rules():
    assert set(_SUBPARSERS) == set(_REQUIRED)
    for p in _SUBPARSERS.values():
        assert p.get_default("least") is not None and p.get_default("needs") is not None


@pytest.mark.parametrize("command, flag, companion", _NEEDS,
                         ids=[f"{command}:{flag}" for command, flag, _ in _NEEDS])
def test_flag_without_its_companion_exits_2_before_reading(capsys, tmp_path, monkeypatch,
                                                            command, flag, companion):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, command, *_REQUIRED[command], flag, *_FLAG_VALUES[flag])
    assert (code, out, err) == (2, "", f"error: {flag} needs {companion}\n")
    assert not any(tmp_path.iterdir())
